//! Convenience glue: compute advice, run the scheme, return both costs.
//!
//! [`execute`] is a thin wrapper over the engine's
//! [`run`](oraclesize_sim::engine::run()): it invokes the oracle first and
//! reports the advice size alongside the outcome. For frozen, reusable
//! instances (a sweep re-running the same advice under many seeds), build
//! an [`oraclesize_sim::Instance`] once and pass its fields to the engine
//! directly.

use oraclesize_graph::{NodeId, PortGraph};
use oraclesize_sim::engine::{run, RunOutcome, SimConfig, SimError};
use oraclesize_sim::protocol::Protocol;

use crate::oracle::{advice_size, Oracle};

/// The two-dimensional cost of an oracle-assisted run: advice bits
/// (knowledge) and the execution outcome (messages, rounds, coverage).
#[derive(Debug, Clone)]
pub struct OracleRun {
    /// Total advice size in bits — the paper's oracle size on this network.
    pub oracle_bits: u64,
    /// The execution result.
    pub outcome: RunOutcome,
}

/// Runs `protocol` on `g` with the advice computed by `oracle`.
///
/// # Errors
///
/// Propagates any [`SimError`] from the engine (wakeup violations, size
/// limits, non-quiescence, malformed sends).
///
/// # Examples
///
/// ```
/// use oraclesize_core::{execute, wakeup::{SpanningTreeOracle, TreeWakeup}};
/// use oraclesize_graph::families;
/// use oraclesize_sim::SimConfig;
///
/// let g = families::hypercube(4);
/// let run = execute(&g, 0, &SpanningTreeOracle::default(), &TreeWakeup,
///                   &SimConfig::wakeup()).unwrap();
/// assert!(run.outcome.all_informed());
/// assert_eq!(run.outcome.metrics.messages, 15); // n − 1
/// ```
pub fn execute(
    g: &PortGraph,
    source: NodeId,
    oracle: &dyn Oracle,
    protocol: &dyn Protocol,
    config: &SimConfig,
) -> Result<OracleRun, SimError> {
    let advice = oracle.advise(g, source);
    let oracle_bits = advice_size(&advice);
    let outcome = run(g, source, &advice, protocol, config)?;
    Ok(OracleRun {
        oracle_bits,
        outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::EmptyOracle;
    use oraclesize_graph::families;
    use oraclesize_sim::protocol::FloodOnce;

    #[test]
    fn execute_reports_both_costs() {
        let g = families::cycle(8);
        let run = execute(&g, 0, &EmptyOracle, &FloodOnce, &SimConfig::default()).unwrap();
        assert_eq!(run.oracle_bits, 0);
        assert!(run.outcome.all_informed());
        assert_eq!(run.outcome.metrics.messages, 2 + 7);
    }
}
