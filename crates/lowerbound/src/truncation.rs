//! Experiment T6/F3: the knowledge → message-complexity trade-off.
//!
//! Theorem 2.2 says no `o(n log n)`-bit oracle supports linear-message
//! wakeup on the subdivided graphs `G_{n,S}`. This module measures the
//! *constructive* side of that trade-off: wakeup with a spanning-tree
//! oracle whose advice is cut to a bit budget, where nodes whose advice was
//! cut fall back to flooding. The scheme always completes, and the message
//! count interpolates between `n − 1` (full advice) and `Θ(m)` (no advice)
//! as the budget shrinks — the shape the lower bound predicts.

use oraclesize_bits::lists::decode_port_list;
use oraclesize_bits::BitString;
use oraclesize_core::execute;
use oraclesize_core::wakeup::SpanningTreeOracle;
use oraclesize_graph::{NodeId, Port, PortGraph};
use oraclesize_sim::protocol::{ForwardOnce, NodeBehavior, NodeView, Protocol};
use oraclesize_sim::{Advice, Oracle, RunMetrics, SimConfig, SimError};

/// Cuts an inner oracle to a global bit budget by *whole strings*,
/// cheapest-first: strings are kept in ascending order of length while the
/// budget lasts (advising as many nodes as possible per bit), the rest
/// replaced by a 1-bit "withheld" sentinel. A budgeted oracle is free to
/// choose what to emit, so the greedy choice is a legitimate — and
/// monotone — point on the knowledge/efficiency curve.
///
/// (Contrast with [`TruncatedOracle`](oraclesize_core::oracle::TruncatedOracle),
/// which cuts mid-string and is used for robustness fuzzing; whole-string
/// cutting keeps each surviving string decodable, which this experiment
/// needs.)
#[derive(Debug, Clone)]
pub struct StringBudgetOracle<O> {
    inner: O,
    budget_bits: u64,
}

impl<O: Oracle> StringBudgetOracle<O> {
    /// Wraps `inner` with a total budget of `budget_bits`.
    pub fn new(inner: O, budget_bits: u64) -> Self {
        StringBudgetOracle { inner, budget_bits }
    }
}

impl<O: Oracle> Oracle for StringBudgetOracle<O> {
    fn advise(&self, g: &PortGraph, source: NodeId) -> Advice {
        let full = self.inner.advise(g, source);
        let mut order: Vec<usize> = (0..full.len()).collect();
        order.sort_by_key(|&v| (full[v].len(), v));
        let mut remaining = self.budget_bits;
        let mut keep = vec![false; full.len()];
        for v in order {
            if (full[v].len() as u64) <= remaining {
                remaining -= full[v].len() as u64;
                keep[v] = true;
            }
        }
        full.iter()
            .zip(keep)
            .map(|(s, kept)| {
                if kept {
                    s.clone()
                } else {
                    // Mark "advice withheld" with the 1-bit sentinel `1`,
                    // which is undecodable as a port list.
                    BitString::from_bits([true])
                }
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "string-budget"
    }
}

/// Wakeup that follows tree advice where present and floods where the
/// advice is missing or undecodable. Always completes (every node's tree
/// parent eventually wakes and either tree-forwards or floods), at a
/// message cost that grows as the budget shrinks.
#[derive(Debug, Clone, Copy, Default)]
pub struct FallbackWakeup;

/// The ports a node's advice names when every one is below the degree;
/// `None` — flood — when the advice is withheld, undecodable or names a
/// port the node does not have.
fn advice_ports(advice: &BitString, degree: usize) -> Option<Vec<Port>> {
    decode_port_list(advice)?
        .into_iter()
        .map(|p| ((p as usize) < degree).then_some(p as usize))
        .collect()
}

/// The scheme's rule: forward once, on the advice's ports or by flooding.
const RULE: ForwardOnce = ForwardOnce(advice_ports);

impl Protocol for FallbackWakeup {
    fn create(&self, view: NodeView) -> Box<dyn NodeBehavior> {
        RULE.node(&view)
    }

    fn name(&self) -> &'static str {
        "fallback-wakeup"
    }

    fn forward_once(&self) -> Option<ForwardOnce> {
        Some(RULE)
    }
}

/// One point on the trade-off curve.
#[derive(Debug, Clone, Copy)]
pub struct TradeoffPoint {
    /// Requested advice budget in bits.
    pub budget_bits: u64,
    /// Advice actually delivered (≤ budget + 1-bit sentinels).
    pub oracle_bits: u64,
    /// Execution metrics (all nodes informed — the protocol guarantees it).
    pub metrics: RunMetrics,
}

/// Runs the budgeted-wakeup experiment for each budget, on `g` from
/// `source`.
///
/// # Errors
///
/// Propagates engine errors (none are expected for these protocols).
pub fn tradeoff_curve(
    g: &PortGraph,
    source: NodeId,
    budgets: &[u64],
    tree_seed: u64,
) -> Result<Vec<TradeoffPoint>, SimError> {
    let inner = SpanningTreeOracle {
        seed: tree_seed,
        ..Default::default()
    };
    budgets
        .iter()
        .map(|&budget_bits| {
            let oracle = StringBudgetOracle::new(inner, budget_bits);
            let run = execute(g, source, &oracle, &FallbackWakeup, &SimConfig::wakeup())?;
            debug_assert!(run.outcome.all_informed(), "fallback wakeup must complete");
            Ok(TradeoffPoint {
                budget_bits,
                oracle_bits: run.oracle_bits,
                metrics: run.outcome.metrics,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oraclesize_graph::{families, gadgets};
    use oraclesize_sim::advice_size;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn full_budget_gives_n_minus_1_messages() {
        let mut rng = StdRng::seed_from_u64(41);
        let (g, _) = gadgets::random_subdivided_complete(16, 16, &mut rng);
        let points = tradeoff_curve(&g, 0, &[u64::MAX], 0).unwrap();
        assert_eq!(points[0].metrics.messages, g.num_nodes() as u64 - 1);
    }

    #[test]
    fn zero_budget_degenerates_to_flooding() {
        let mut rng = StdRng::seed_from_u64(42);
        let (g, _) = gadgets::random_subdivided_complete(12, 12, &mut rng);
        let points = tradeoff_curve(&g, 0, &[0], 0).unwrap();
        // Flooding costs Θ(m) ≫ n on the dense construction.
        assert!(
            points[0].metrics.messages as usize > 2 * g.num_nodes(),
            "{} messages",
            points[0].metrics.messages
        );
    }

    #[test]
    fn messages_decrease_monotonically_in_budget_on_average() {
        let mut rng = StdRng::seed_from_u64(43);
        let (g, _) = gadgets::random_subdivided_complete(16, 16, &mut rng);
        let full = advice_size(&SpanningTreeOracle::default().advise(&g, 0));
        let budgets: Vec<u64> = [0.0, 0.25, 0.5, 0.75, 1.0]
            .iter()
            .map(|f| (full as f64 * f) as u64)
            .collect();
        let points = tradeoff_curve(&g, 0, &budgets, 0).unwrap();
        let msgs: Vec<u64> = points.iter().map(|p| p.metrics.messages).collect();
        assert!(
            msgs.first().unwrap() > msgs.last().unwrap(),
            "no budget → full budget should reduce messages: {msgs:?}"
        );
        // Ends anchored at flooding and tree costs.
        assert_eq!(*msgs.last().unwrap(), g.num_nodes() as u64 - 1);
    }

    #[test]
    fn fallback_always_completes() {
        let mut rng = StdRng::seed_from_u64(44);
        for fam in families::Family::ALL {
            let g = fam.build(24, &mut rng);
            for budget in [0u64, 16, 64, 1024] {
                let oracle = StringBudgetOracle::new(SpanningTreeOracle::default(), budget);
                let run = execute(&g, 0, &oracle, &FallbackWakeup, &SimConfig::wakeup()).unwrap();
                assert!(run.outcome.all_informed(), "{} budget={budget}", fam.name());
            }
        }
    }

    #[test]
    fn sentinel_marks_withheld_advice() {
        let g = families::star(6);
        let oracle = StringBudgetOracle::new(SpanningTreeOracle::default(), 0);
        let advice = oracle.advise(&g, 0);
        // Hub's advice withheld → 1-bit sentinel; leaves were empty anyway
        // but also get the sentinel once the budget is blown.
        assert_eq!(advice[0].len(), 1);
        assert!(decode_port_list(&advice[0]).is_none());
    }

    #[test]
    fn budget_oracle_never_exceeds_budget_by_more_than_sentinels() {
        let g = families::complete_rotational(20);
        let full = advice_size(&SpanningTreeOracle::default().advise(&g, 0));
        for budget in [0u64, full / 3, full] {
            let oracle = StringBudgetOracle::new(SpanningTreeOracle::default(), budget);
            let advice = oracle.advise(&g, 0);
            assert!(advice_size(&advice) <= budget + g.num_nodes() as u64);
        }
    }
}
