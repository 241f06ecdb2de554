//! The metric tables `BENCHMARK.json` mirrors, the statistics the
//! benchmark reports, and the result line it prints.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// `true` when `a` is strictly better than `b`.
    pub fn prefers(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as printed and as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end metrics: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
    /// Per-layer counts that must repeat exactly across runs of one
    /// seed (the rest are timings or scheduling telemetry).
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn timing(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
        exact: true,
    }
}

/// Printed by `perf run` (and `--trace 0`) for every workload.
pub const END_TO_END: &[Metric] = &[
    e2e("sweep_s", "s", Better::Lower, 0.24),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("cells_per_s", "1/s", Better::Higher, 0.24),
    e2e("deliveries_per_s", "1/s", Better::Higher, 0.24),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.15),
];

/// Printed by `perf trace` (and `--trace 1`) for every workload.
pub const PER_LAYER: &[Metric] = &[
    timing("graph.build_ms", "ms", Better::Lower),
    count("graph.allocs", "count"),
    count("graph.alloc_mb", "MiB"),
    count("graph.nodes", "count"),
    count("graph.edges", "count"),
    timing("oracle.ms", "ms", Better::Lower),
    count("oracle.bits", "bit"),
    count("oracle.allocs", "count"),
    count("oracle.alloc_mb", "MiB"),
    timing("oracle.ns_per_bit", "ns", Better::Lower),
    timing("scheme.create_ms", "ms", Better::Lower),
    count("scheme.create_allocs", "count"),
    timing("engine.run_ms", "ms", Better::Lower),
    count("engine.deliveries", "count"),
    count("engine.messages", "count"),
    count("engine.rounds", "count"),
    timing("engine.ns_per_delivery", "ns", Better::Lower),
    count("engine.allocs_per_delivery", "count"),
    count("engine.alloc_mb_per_cell", "MiB"),
    count("engine.payload_copies", "count"),
    count("engine.queue_allocs", "count"),
    count("engine.faults_injected", "count"),
    timing("supervise.overhead_us_per_cell", "us", Better::Lower),
    count("supervise.retries", "count"),
    Metric {
        better: Better::Higher,
        ..count("supervise.first_try_frac", "frac")
    },
    count("sched.chunks", "count"),
    timing("sched.steals", "count", Better::Lower),
    timing("sched.contended", "count", Better::Lower),
    timing("pool.busy_frac", "frac", Better::Higher),
    timing("journal.append_us", "us", Better::Lower),
    count("journal.bytes_per_cell", "B"),
    timing("spec.parse_us", "us", Better::Lower),
    timing("spec.render_us", "us", Better::Lower),
    count("spec.bytes", "B"),
    timing("grid.from_spec_ms", "ms", Better::Lower),
    timing("artifact.render_ms", "ms", Better::Lower),
    count("artifact.bytes", "B"),
    timing("frame.codec_us_per_mb", "us", Better::Lower),
    count("service.shards_per_job", "count"),
    timing("service.polls_per_job", "count", Better::Lower),
    timing("service.submit_rtt_ms", "ms", Better::Lower),
    timing("service.poll_rtt_ms", "ms", Better::Lower),
    timing("service.compute_frac", "frac", Better::Higher),
    timing("trace_overhead_frac", "frac", Better::Lower),
];

/// The median of `xs` (the mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartiles by Python's `statistics.quantiles(xs, n=4)`
/// (the default "exclusive" method), which is how runs are judged.
///
/// # Panics
///
/// Panics with fewer than two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = (m as f64) - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// One run's result: the JSON object every run prints as its last line.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Attempted operations (iterations, jobs or traced passes).
    pub attempted: u64,
    /// Operations whose output failed the gate.
    pub failed: u64,
    /// `(metric, value)` in table order.
    pub values: Vec<(Metric, f64)>,
}

impl Outcome {
    /// `true` when every attempt passed its gate.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|(m, v)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, v, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&xs), 5.5);
        assert_eq!(median(&[4.0, 1.0, 9.0]), 4.0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn result_line_has_the_documented_shape() {
        let out = Outcome {
            attempted: 3,
            failed: 0,
            values: vec![(END_TO_END[0], 1.25)],
        };
        assert_eq!(
            out.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"sweep_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
