//! The exploration advice-budget trade-off — the moves-side mirror of the
//! message-side experiment T6.
//!
//! [`budgeted_tour_advice`] keeps whole tour-advice strings, in tour
//! order, within a bit budget, replacing the rest with the undecodable 2-bit
//! sentinel `01`. [`HybridExplorer`] follows the tour while advice is
//! present and, on first hitting a withheld node, switches permanently to
//! depth-first backtracking rooted there. Coverage is always achieved; the
//! move count interpolates between the tour's `2(n−1)` and DFS-like `O(m)`
//! as the budget shrinks.

use oraclesize_bits::BitString;
use oraclesize_graph::{NodeId, PortGraph};

use crate::agent::{walk, Action, Explorer, SiteView, WalkConfig, WalkResult};
use crate::oracle::{decode_departures, tour_advice};
use crate::strategies::DfsBacktrack;

/// The 2-bit "advice withheld" sentinel: `01` cannot be a prefix of any
/// γ-coded departure list, so [`decode_departures`] rejects it.
fn withheld_sentinel() -> BitString {
    BitString::parse("01").expect("valid bit literal")
}

/// Tour advice cut to a global bit budget, whole strings kept in **tour
/// order** (DFS preorder from `start`): the agent tours as far as the
/// budget reaches, then falls back to DFS. Prefix-keeping matters — the
/// tour is a chain, so a gap early in it wastes everything after; keeping
/// a preorder prefix makes the budget buy a proportional stretch of cheap
/// moves.
pub fn budgeted_tour_advice(g: &PortGraph, start: NodeId, budget_bits: u64) -> Vec<BitString> {
    let full = tour_advice(g, start);
    // DFS preorder of the same tree the advice traces.
    let tree = oraclesize_graph::spanning::dfs_tree(g, start);
    let mut order = Vec::with_capacity(g.num_nodes());
    let mut stack = vec![start];
    while let Some(v) = stack.pop() {
        order.push(v);
        for (child, _) in tree.children(v).rev() {
            stack.push(child);
        }
    }
    let mut remaining = budget_bits;
    let mut keep = vec![false; full.len()];
    for v in order {
        if (full[v].len() as u64) <= remaining {
            remaining -= full[v].len() as u64;
            keep[v] = true;
        } else {
            break; // prefix semantics: stop at the first node that misses
        }
    }
    full.into_iter()
        .zip(keep)
        .map(|(s, kept)| if kept { s } else { withheld_sentinel() })
        .collect()
}

/// Tour-following until the first withheld node, then DFS to the end.
#[derive(Debug, Default)]
pub struct HybridExplorer {
    dfs: DfsBacktrack,
    switched: bool,
    /// Visit counts during the guided phase only (tour advice indexes by
    /// guided visits, not total visits).
    guided_visits: std::collections::HashMap<u64, usize>,
}

impl HybridExplorer {
    /// A fresh hybrid agent.
    pub fn new() -> Self {
        HybridExplorer::default()
    }
}

impl Explorer for HybridExplorer {
    fn step(&mut self, view: &SiteView<'_>) -> Action {
        if !self.switched {
            match decode_departures(view.advice) {
                Some(seq) => {
                    let count = self.guided_visits.entry(view.label).or_insert(0);
                    *count += 1;
                    return match seq.get(*count - 1) {
                        Some(&p) if p < view.degree => Action::Move(p),
                        _ => Action::Halt, // tour complete
                    };
                }
                None => {
                    // Withheld advice: become a DFS rooted here.
                    self.switched = true;
                    self.dfs.mark_root(view.label);
                }
            }
        }
        self.dfs.step(view)
    }

    fn name(&self) -> &'static str {
        "hybrid-tour-dfs"
    }
}

/// One point on the exploration trade-off curve.
#[derive(Debug, Clone)]
pub struct ExplorationPoint {
    /// Requested budget in bits.
    pub budget_bits: u64,
    /// Advice actually delivered (kept strings + 2-bit sentinels).
    pub advice_bits: u64,
    /// The walk outcome (always covers the graph).
    pub result: WalkResult,
}

/// Runs the budgeted-exploration experiment for each budget.
///
/// # Panics
///
/// Panics if a walk fails to cover the graph (the hybrid strategy
/// guarantees coverage on connected graphs, so this indicates a bug).
pub fn exploration_tradeoff(
    g: &PortGraph,
    start: NodeId,
    budgets: &[u64],
) -> Vec<ExplorationPoint> {
    budgets
        .iter()
        .map(|&budget_bits| {
            let advice = budgeted_tour_advice(g, start, budget_bits);
            let advice_bits = advice.iter().map(|s| s.len() as u64).sum();
            let result = walk(
                g,
                start,
                &advice,
                &mut HybridExplorer::new(),
                &WalkConfig::default(),
            );
            assert!(result.covered_all, "hybrid exploration must cover");
            ExplorationPoint {
                budget_bits,
                advice_bits,
                result,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oraclesize_graph::families::{self, Family};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sentinel_is_undecodable() {
        assert!(decode_departures(&withheld_sentinel()).is_none());
    }

    #[test]
    fn full_budget_is_the_exact_tour() {
        let g = families::complete_rotational(32);
        let points = exploration_tradeoff(&g, 0, &[u64::MAX]);
        assert_eq!(points[0].result.moves, 2 * 31);
        assert!(points[0].result.halted);
    }

    #[test]
    fn zero_budget_degenerates_to_dfs_cost() {
        let g = families::complete_rotational(24);
        let points = exploration_tradeoff(&g, 0, &[0]);
        // Start node itself is withheld → pure DFS from the start.
        assert!(points[0].result.moves > 2 * 23);
        assert!(points[0].result.moves <= 2 * g.num_edges() as u64);
    }

    #[test]
    fn curve_interpolates_and_always_covers() {
        let g = families::complete_rotational(40);
        let full: u64 = tour_advice(&g, 0).iter().map(|s| s.len() as u64).sum();
        let budgets: Vec<u64> = (0..=4).map(|i| full * i / 4).collect();
        let points = exploration_tradeoff(&g, 0, &budgets);
        for p in &points {
            assert!(p.result.covered_all);
        }
        assert!(points[0].result.moves > points[4].result.moves);
        assert_eq!(points[4].result.moves, 2 * 39);
    }

    #[test]
    fn hybrid_covers_on_every_family_and_budget() {
        let mut rng = StdRng::seed_from_u64(121);
        for fam in Family::ALL {
            let g = fam.build(24, &mut rng);
            let full: u64 = tour_advice(&g, 0).iter().map(|s| s.len() as u64).sum();
            for budget in [0, full / 3, full] {
                let points = exploration_tradeoff(&g, 0, &[budget]);
                assert!(
                    points[0].result.covered_all,
                    "{} budget={budget}",
                    fam.name()
                );
                assert!(points[0].result.halted, "{} budget={budget}", fam.name());
            }
        }
    }
}
