//! Generic oracle building blocks: the empty baseline and budget
//! truncation.
//!
//! The [`Oracle`] trait itself (and the [`advice_size`] accounting) lives
//! in `oraclesize_sim::oracle`, next to the engine that consumes advice;
//! this module holds the scheme-independent implementations. The
//! re-import below is crate-internal so the workspace keeps exactly one
//! canonical public path for the trait.

// Crate-internal alias: every module here says `crate::oracle::Oracle`;
// the public path is `oraclesize_sim::Oracle`.
pub(crate) use oraclesize_sim::oracle::{advice_size, Advice, Oracle};

use oraclesize_graph::{NodeId, PortGraph};

/// The empty oracle: every node receives the empty string (size 0). The
/// baseline against which *any* advice is compared.
#[derive(Debug, Clone, Copy, Default)]
pub struct EmptyOracle;

impl Oracle for EmptyOracle {
    fn advise(&self, g: &PortGraph, _source: NodeId) -> Advice {
        Advice::empty(g.num_nodes())
    }

    fn name(&self) -> &'static str {
        "empty"
    }
}

/// An oracle that truncates another oracle's advice to a global bit budget,
/// dropping bits string-by-string from the last node backwards.
///
/// A robustness wrapper: cutting mid-string leaves advice that decodes
/// only partially, and the schemes must stay legal and never panic on it
/// (`truncated_advice_never_panics_schemes` in `crates/core/tests/props.rs`).
/// Experiments T6/F3 starve the wakeup oracle with
/// `lowerbound::truncation::StringBudgetOracle` instead, which cuts whole
/// strings so each surviving string still decodes.
#[derive(Debug, Clone)]
pub struct TruncatedOracle<O> {
    inner: O,
    budget_bits: u64,
}

impl<O: Oracle> TruncatedOracle<O> {
    /// Wraps `inner`, keeping at most `budget_bits` bits in total.
    pub fn new(inner: O, budget_bits: u64) -> Self {
        TruncatedOracle { inner, budget_bits }
    }
}

impl<O: Oracle> Oracle for TruncatedOracle<O> {
    fn advise(&self, g: &PortGraph, source: NodeId) -> Advice {
        let full = self.inner.advise(g, source);
        let mut remaining = self.budget_bits;
        full.iter()
            .map(|s| {
                let keep = (s.len() as u64).min(remaining) as usize;
                remaining -= keep as u64;
                s.iter().take(keep).collect()
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "truncated"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oraclesize_bits::BitString;
    use oraclesize_graph::families;

    #[test]
    fn empty_oracle_has_size_zero() {
        let g = families::cycle(5);
        let advice = EmptyOracle.advise(&g, 0);
        assert_eq!(advice.len(), 5);
        assert_eq!(advice_size(&advice), 0);
    }

    struct ConstOracle(usize);
    impl Oracle for ConstOracle {
        fn advise(&self, g: &PortGraph, _s: NodeId) -> Advice {
            (0..g.num_nodes())
                .map(|_| BitString::from_bits(std::iter::repeat_n(true, self.0)))
                .collect()
        }
    }

    #[test]
    fn truncation_respects_budget_exactly() {
        let g = families::cycle(4);
        for budget in [0u64, 1, 5, 11, 12, 100] {
            let o = TruncatedOracle::new(ConstOracle(3), budget);
            let advice = o.advise(&g, 0);
            assert_eq!(advice_size(&advice), budget.min(12), "budget {budget}");
        }
    }

    #[test]
    fn truncation_keeps_prefixes_front_loaded() {
        let g = families::cycle(4);
        let o = TruncatedOracle::new(ConstOracle(3), 7);
        let advice = o.advise(&g, 0);
        assert_eq!(advice[0].len(), 3);
        assert_eq!(advice[1].len(), 3);
        assert_eq!(advice[2].len(), 1);
        assert_eq!(advice[3].len(), 0);
    }
}
