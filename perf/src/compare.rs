//! `perf compare`: judges a change against its parent, metric by metric
//! and workload by workload, by the rule `BENCHMARK.json`'s bounds feed.
//!
//! * At least 10 alternating parent/change pairs are needed.
//! * A gain needs the change to win at least 9 of every 10 pairs (ties
//!   count for neither) and the medians to differ by more than the
//!   parent's interquartile range.
//! * A regression is a change median worse than the parent's by more
//!   than the metric's bound.
//! * When the parent's spread (IQR over median) exceeds the bound, the
//!   metric is unresolved unless every change run beats every parent run.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::metrics::{median, quartiles, Better, Metric, END_TO_END};

/// Pairs needed before any verdict.
pub const MIN_PAIRS: usize = 10;

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Fewer than [`MIN_PAIRS`] pairs.
    Insufficient,
    /// The parent's spread is wider than the bound.
    Unresolved,
    /// Worse by more than the bound.
    Regression,
    /// Better by the win and spread rule.
    Gain,
    /// Neither a gain nor a regression.
    NoChange,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Insufficient => "insufficient",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "regression",
            Verdict::Gain => "gain",
            Verdict::NoChange => "no change",
        }
    }
}

/// Judges `change` against `base`; `base[i]` and `change[i]` are pair `i`.
pub fn judge(metric: &Metric, base: &[f64], change: &[f64]) -> Verdict {
    let pairs = base.len().min(change.len());
    if pairs < MIN_PAIRS {
        return Verdict::Insufficient;
    }
    let (base, change) = (&base[..pairs], &change[..pairs]);
    let better = metric.better;
    let (b_med, c_med) = (median(base), median(change));
    let (q1, q3) = quartiles(base);
    let iqr = q3 - q1;
    let all_better = change
        .iter()
        .all(|&c| base.iter().all(|&b| better.prefers(c, b)));
    if iqr > metric.bound * b_med.abs() && !all_better {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => c_med - b_med,
        Better::Higher => b_med - c_med,
    };
    if worse_by > metric.bound * b_med.abs() {
        return Verdict::Regression;
    }
    let wins = base
        .iter()
        .zip(change)
        .filter(|(&b, &c)| better.prefers(c, b))
        .count();
    if wins * 10 >= pairs * 9 && -worse_by > iqr {
        Verdict::Gain
    } else {
        Verdict::NoChange
    }
}

/// Per-workload samples of every end-to-end metric, from result files in
/// the order given.
type Samples = BTreeMap<String, BTreeMap<&'static str, Vec<f64>>>;

fn load(paths: &[String]) -> Result<Samples, String> {
    let mut out = Samples::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: no workload"))?;
        let metrics = doc
            .get("result")
            .and_then(|r| r.get("metrics"))
            .ok_or_else(|| format!("{path}: no result metrics"))?;
        let per = out.entry(workload.to_string()).or_default();
        for m in END_TO_END {
            if let Some(v) = metrics
                .get(m.name)
                .and_then(|v| v.get("value"))
                .and_then(Value::as_f64)
            {
                per.entry(m.name).or_default().push(v);
            }
        }
    }
    Ok(out)
}

/// Compares result files: `base` from the parent, `change` from the
/// change, paired in the order given. Returns the report and whether any
/// metric regressed.
///
/// # Errors
///
/// Returns unreadable or malformed files.
pub fn compare(base: &[String], change: &[String]) -> Result<(String, bool), String> {
    let (base, change) = (load(base)?, load(change)?);
    let mut report = String::new();
    let mut regressed = false;
    for (workload, base) in &base {
        let Some(change) = change.get(workload) else {
            continue;
        };
        for m in END_TO_END {
            let (Some(b), Some(c)) = (base.get(m.name), change.get(m.name)) else {
                continue;
            };
            let verdict = judge(m, b, c);
            regressed |= verdict == Verdict::Regression;
            report.push_str(&format!(
                "{workload:<18} {:<18} base {:>12.6} change {:>12.6} {:<4} pairs {:>3}  {}\n",
                m.name,
                median(b),
                median(c),
                m.unit,
                b.len().min(c.len()),
                verdict.as_str()
            ));
        }
    }
    Ok((report, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Metric {
        Metric {
            name: "t",
            unit: "s",
            better: Better::Lower,
            bound,
            exact: false,
        }
    }

    fn around(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + jitter * f64::from(i % 5) / 4.0)
            .collect()
    }

    #[test]
    fn a_clear_win_is_a_gain() {
        let base = around(1.0, 0.02);
        let change = around(0.8, 0.02);
        assert_eq!(judge(&lower(0.1), &base, &change), Verdict::Gain);
        let higher = Metric {
            better: Better::Higher,
            ..lower(0.1)
        };
        assert_eq!(judge(&higher, &change, &base), Verdict::Gain);
    }

    #[test]
    fn worse_by_more_than_the_bound_is_a_regression() {
        assert_eq!(
            judge(&lower(0.1), &around(1.0, 0.02), &around(1.2, 0.02)),
            Verdict::Regression
        );
        // Within the bound: no change.
        assert_eq!(
            judge(&lower(0.1), &around(1.0, 0.02), &around(1.05, 0.02)),
            Verdict::NoChange
        );
    }

    #[test]
    fn a_small_gain_inside_the_parent_spread_is_no_change() {
        let base = around(1.0, 0.08);
        let change = around(0.98, 0.08);
        assert_eq!(judge(&lower(0.1), &base, &change), Verdict::NoChange);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_disjoint() {
        let base = around(1.0, 0.5);
        assert_eq!(
            judge(&lower(0.1), &base, &around(1.1, 0.5)),
            Verdict::Unresolved
        );
        assert_eq!(judge(&lower(0.1), &base, &around(0.3, 0.1)), Verdict::Gain);
    }

    #[test]
    fn ties_count_for_neither_side_and_few_pairs_decide_nothing() {
        let base = vec![1.0; 10];
        let mut change = vec![1.0; 10];
        change[0] = 0.5;
        assert_eq!(judge(&lower(0.1), &base, &change), Verdict::NoChange);
        assert_eq!(
            judge(&lower(0.1), &base[..9], &change[..9]),
            Verdict::Insufficient
        );
    }
}
