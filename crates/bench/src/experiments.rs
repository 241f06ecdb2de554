//! One function per experiment; each returns a rendered Markdown report.
//!
//! T10 and T20 are *grid experiments*: they declare their cells up front
//! (see [`crate::grid`]) and dispatch the whole matrix to the runtime
//! pool, so `--threads N` parallelizes them without changing a byte of
//! output.

use std::collections::BTreeSet;

use oraclesize_analysis::fit::{best_model, fit_model, Model};
use oraclesize_analysis::table::{fmt_num, Table};
use oraclesize_core::baselines::{FullMapOracle, MapWakeup};
use oraclesize_core::broadcast::{scheme_b_message_bound, LightTreeOracle, SchemeB};
use oraclesize_core::execute;
use oraclesize_core::oracle::EmptyOracle;
use oraclesize_core::wakeup::{SpanningTreeOracle, TreeWakeup};
use oraclesize_graph::families::{self, Family};
use oraclesize_graph::gadgets;
use oraclesize_graph::spanning::TreeAlgorithm;
use oraclesize_lowerbound::adversary::{all_ordered_instances, play, ExplicitAdversary};
use oraclesize_lowerbound::counting::{
    broadcast_bound, wakeup_bound, wakeup_bound_subdivisions_approx, wakeup_threshold,
};
use oraclesize_lowerbound::discovery::{
    all_edges, AdaptiveNeighborStrategy, DiscoveryStrategy, RandomStrategy, SequentialStrategy,
};
use oraclesize_lowerbound::truncation::tradeoff_curve;
use oraclesize_runtime::spec::to_ppm;
use oraclesize_runtime::{AdviceSpec, CellSpec, FaultSpec, InstanceSpec, SchedulerSpec, SweepSpec};
use oraclesize_sim::protocol::FloodOnce;
use oraclesize_sim::{advice_size, Oracle, SchedulerKind, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::grid::{emit_json, CellGrid, ExpOptions};
use crate::harness::{size_sweep, Report, MASTER_SEED, SWEEP_FAMILIES};

/// Runs one experiment under the invocation's options.
pub type Runner = fn(&ExpOptions) -> Result<String, String>;

/// Every experiment in canonical order, with its runner. The CLI's
/// usage text, `list`, id checks and `experiments all` read this table.
pub const EXPERIMENTS: [(&str, Runner); 24] = [
    ("t1", |o| Ok(t1_wakeup_oracle_size(o.large))),
    ("t2", |o| Ok(t2_wakeup_messages(o.large))),
    ("t3", |o| Ok(t3_tree_contributions(o.large))),
    ("t4", |o| Ok(t4_broadcast_bounds(o.large))),
    ("t5", |_| Ok(t5_adversary_games())),
    ("t6", |o| Ok(t6_starved_wakeup(o.large))),
    ("t7", |o| Ok(t7_wakeup_counting(o.large))),
    ("t8", |o| Ok(t8_broadcast_gadgets(o.large))),
    ("t9", |_| Ok(t9_threshold_remark())),
    ("t10", t10_robustness_matrix),
    ("t11", |_| Ok(t11_encoding_ablation())),
    ("t12", |_| Ok(t12_gossip())),
    ("t13", |_| Ok(t13_neighborhood_pricing())),
    ("t14", |_| Ok(t14_exploration())),
    ("t15", |_| Ok(t15_construction())),
    ("t16", |_| Ok(t16_time_knowledge())),
    ("t17", |_| Ok(t17_port_sensitivity())),
    ("t18", |_| Ok(t18_leader_election())),
    ("t19", |_| Ok(t19_spanner_tradeoff())),
    ("t20", t20_fault_robustness),
    ("f1", |o| Ok(f1_size_series(o.large))),
    ("f2", |o| Ok(f2_message_series(o.large))),
    ("f3", |o| Ok(f3_budget_curve(o.large))),
    ("scale", scale_curve),
];

/// Builds a committed sweep's spec; the flag selects the bigger grid
/// where one exists.
pub type SpecBuilder = fn(bool) -> SweepSpec;

/// The committed sweeps whose canonical spec the CLI prints.
pub const SPECS: [(&str, SpecBuilder); 5] = [
    ("t10", |_| t10_spec()),
    ("t20-corruption", |_| t20_corruption_spec()),
    ("t20-drops", |_| t20_drops_spec()),
    ("t20-crashes", |_| t20_crashes_spec()),
    ("scale", scale_spec),
];

/// Looks up an experiment by id, ignoring ASCII case: its canonical id
/// and runner.
pub fn find(id: &str) -> Option<(&'static str, Runner)> {
    EXPERIMENTS
        .into_iter()
        .find(|(known, _)| known.eq_ignore_ascii_case(id))
}

/// Runs an experiment by id.
///
/// # Errors
///
/// Propagates artifact-emission failures (unwritable `--json-dir`) and
/// interrupted sweeps from the grid experiments.
///
/// # Panics
///
/// Panics on an unknown id (callers validate with [`find`]).
pub fn run_experiment(id: &str, opts: &ExpOptions) -> Result<String, String> {
    let (_, run) = find(id).unwrap_or_else(|| panic!("unknown experiment id {id:?}"));
    run(opts)
}

fn rng_for(tag: u64) -> StdRng {
    StdRng::seed_from_u64(MASTER_SEED ^ tag)
}

/// T1 — Theorem 2.1 size bound: wakeup oracle bits vs `n`, with fits.
pub fn t1_wakeup_oracle_size(large: bool) -> String {
    let mut report = Report::new("T1 — wakeup oracle size is Θ(n log n) (Theorem 2.1)");
    let sweep = size_sweep(if large { 12 } else { 10 });
    let mut table = Table::new(["family", "n", "oracle bits", "bits/(n·log2 n)"]);
    let mut rng = rng_for(1);
    for fam in SWEEP_FAMILIES {
        let mut ns = Vec::new();
        let mut bits = Vec::new();
        for &n in &sweep {
            let g = fam.build(n, &mut rng);
            let nodes = g.num_nodes();
            let size = advice_size(&SpanningTreeOracle::default().advise(&g, 0));
            table.row([
                fam.name().to_string(),
                nodes.to_string(),
                size.to_string(),
                format!(
                    "{:.3}",
                    size as f64 / (nodes as f64 * (nodes as f64).log2())
                ),
            ]);
            ns.push(nodes as f64);
            bits.push(size as f64);
        }
        let ranked = best_model(&ns, &bits);
        report.para(&format!(
            "**{}**: best fit {} (R² = {:.6}); paper predicts `n log n + o(n log n)`.",
            fam.name(),
            ranked[0].model,
            ranked[0].r_squared
        ));
    }
    report.block(&table.to_markdown());
    report.render()
}

/// T2 — Theorem 2.1 message bound: wakeup uses exactly `n − 1` messages.
pub fn t2_wakeup_messages(large: bool) -> String {
    let mut report = Report::new("T2 — wakeup message complexity is exactly n − 1 (Theorem 2.1)");
    let sweep = size_sweep(if large { 11 } else { 9 });
    let mut table = Table::new(["family", "n", "sync msgs", "async msgs", "n − 1", "exact?"]);
    let mut rng = rng_for(2);
    let mut all_exact = true;
    for fam in SWEEP_FAMILIES {
        for &n in &sweep {
            let g = fam.build(n, &mut rng);
            let nodes = g.num_nodes();
            let sync = execute(
                &g,
                0,
                &SpanningTreeOracle::default(),
                &TreeWakeup,
                &SimConfig::wakeup(),
            )
            .expect("wakeup runs");
            let async_cfg = SimConfig::wakeup().with_scheduler(SchedulerKind::Random { seed: 7 });
            let asynchronous = execute(
                &g,
                0,
                &SpanningTreeOracle::default(),
                &TreeWakeup,
                &async_cfg,
            )
            .expect("wakeup runs");
            let exact = sync.outcome.metrics.messages == (nodes - 1) as u64
                && asynchronous.outcome.metrics.messages == (nodes - 1) as u64
                && sync.outcome.all_informed()
                && asynchronous.outcome.all_informed();
            all_exact &= exact;
            table.row([
                fam.name().to_string(),
                nodes.to_string(),
                sync.outcome.metrics.messages.to_string(),
                asynchronous.outcome.metrics.messages.to_string(),
                (nodes - 1).to_string(),
                if exact {
                    "yes".into()
                } else {
                    "NO".to_string()
                },
            ]);
        }
    }
    report.para(if all_exact {
        "Every run used exactly n − 1 messages and informed every node — the scheme's \
         message count is deterministic, as the paper's construction promises."
    } else {
        "**DEVIATION**: some run did not use exactly n − 1 messages."
    });
    report.block(&table.to_markdown());
    report.render()
}

/// T3 — Claim 3.1: light-tree contribution vs other spanning trees.
pub fn t3_tree_contributions(large: bool) -> String {
    let mut report = Report::new("T3 — light spanning tree contribution ≤ 4n (Claim 3.1)");
    let sweep = size_sweep(if large { 11 } else { 9 });
    let mut table = Table::new([
        "family",
        "n",
        "light",
        "4n",
        "bfs",
        "dfs",
        "min-weight",
        "random",
    ]);
    let mut rng = rng_for(3);
    let mut light_ok = true;
    for fam in SWEEP_FAMILIES {
        for &n in &sweep {
            let g = fam.build(n, &mut rng);
            let nodes = g.num_nodes();
            let contribution =
                |alg: TreeAlgorithm, rng: &mut StdRng| alg.build(&g, 0, rng).contribution(&g);
            let light = contribution(TreeAlgorithm::Light, &mut rng);
            light_ok &= light <= 4 * nodes as u64;
            table.row([
                fam.name().to_string(),
                nodes.to_string(),
                light.to_string(),
                (4 * nodes).to_string(),
                contribution(TreeAlgorithm::Bfs, &mut rng).to_string(),
                contribution(TreeAlgorithm::Dfs, &mut rng).to_string(),
                contribution(TreeAlgorithm::MinWeight, &mut rng).to_string(),
                contribution(TreeAlgorithm::Random, &mut rng).to_string(),
            ]);
        }
    }
    report.para(if light_ok {
        "The Claim 3.1 construction stayed within `4n` on every instance; BFS and \
         random trees exceed it on the dense families (complete, lollipop), which is \
         why the paper needs the phased construction rather than any classical tree."
    } else {
        "**DEVIATION**: the light tree exceeded 4n somewhere."
    });
    report.block(&table.to_markdown());
    report.render()
}

/// T4 — Theorem 3.1: broadcast oracle ≤ 8n bits, Scheme B ≤ 3(n−1) messages.
pub fn t4_broadcast_bounds(large: bool) -> String {
    let mut report = Report::new("T4 — broadcast: ≤ 8n oracle bits, linear messages (Theorem 3.1)");
    let sweep = size_sweep(if large { 11 } else { 9 });
    let mut table = Table::new([
        "family",
        "n",
        "oracle bits",
        "8n",
        "sync msgs",
        "async msgs",
        "3(n−1)",
    ]);
    let mut rng = rng_for(4);
    let mut ok = true;
    for fam in SWEEP_FAMILIES {
        for &n in &sweep {
            let g = fam.build(n, &mut rng);
            let nodes = g.num_nodes();
            let sync = execute(&g, 0, &LightTreeOracle, &SchemeB, &SimConfig::default())
                .expect("broadcast runs");
            let async_cfg = SimConfig::broadcast()
                .with_scheduler(SchedulerKind::Lifo)
                .with_anonymous(true);
            let asynchronous =
                execute(&g, 0, &LightTreeOracle, &SchemeB, &async_cfg).expect("broadcast runs");
            ok &= sync.oracle_bits <= 8 * nodes as u64
                && sync.outcome.metrics.messages <= scheme_b_message_bound(nodes)
                && asynchronous.outcome.metrics.messages <= scheme_b_message_bound(nodes)
                && sync.outcome.all_informed()
                && asynchronous.outcome.all_informed();
            table.row([
                fam.name().to_string(),
                nodes.to_string(),
                sync.oracle_bits.to_string(),
                (8 * nodes).to_string(),
                sync.outcome.metrics.messages.to_string(),
                asynchronous.outcome.metrics.messages.to_string(),
                scheme_b_message_bound(nodes).to_string(),
            ]);
        }
    }
    report.para(if ok {
        "Both bounds held on every instance, synchronously and under a LIFO \
         adversary with anonymous nodes — the §1.3 robustness claims."
    } else {
        "**DEVIATION**: a bound was violated."
    });
    report.block(&table.to_markdown());
    report.render()
}

/// T5 — Lemma 2.1: adversary games, measured probes vs the bound.
pub fn t5_adversary_games() -> String {
    let mut report = Report::new("T5 — edge-discovery adversary (Lemma 2.1)");
    let mut table = Table::new([
        "n",
        "|X|",
        "|Y|",
        "|I|",
        "bound",
        "sequential",
        "random",
        "adaptive",
    ]);
    let mut ok = true;
    for n in [5usize, 6, 7] {
        for x_size in [1usize, 2] {
            let y: BTreeSet<(usize, usize)> = if n == 7 {
                [(0, 1), (1, 2), (2, 3)].into_iter().collect()
            } else {
                BTreeSet::new()
            };
            let pool: Vec<(usize, usize)> = all_edges(n)
                .into_iter()
                .filter(|e| !y.contains(e))
                .collect();
            let family = all_ordered_instances(&pool, x_size);
            let mut results = Vec::new();
            let strategies: Vec<Box<dyn DiscoveryStrategy>> = vec![
                Box::new(SequentialStrategy),
                Box::new(RandomStrategy::new(MASTER_SEED)),
                Box::new(AdaptiveNeighborStrategy),
            ];
            let mut bound = 0.0;
            for mut s in strategies {
                let result = play(n, &y, ExplicitAdversary::new(family.clone()), s.as_mut());
                ok &= result.probes as f64 >= result.bound;
                bound = result.bound;
                results.push(result.probes);
            }
            table.row([
                n.to_string(),
                x_size.to_string(),
                y.len().to_string(),
                family.len().to_string(),
                format!("{:.2}", bound),
                results[0].to_string(),
                results[1].to_string(),
                results[2].to_string(),
            ]);
        }
    }
    report.para(if ok {
        "Every strategy paid at least `log2(|I|/|X|!)` probes against the majority \
         adversary; in fact the adversary forces nearly the whole edge pool, well \
         above the information-theoretic floor."
    } else {
        "**DEVIATION**: a strategy beat the Lemma 2.1 bound (impossible — bug)."
    });
    report.block(&table.to_markdown());

    // At-scale half: the closed-form adversary over the exact G_{n,S}
    // family (|X| = n over all C(n,2) edges), far beyond enumeration.
    use oraclesize_lowerbound::symbolic::play_symbolic;
    let mut sym = Table::new(["n", "pool", "|X|", "log2 |I|", "bound", "probes (seq)"]);
    let mut sym_ok = true;
    for n in [16usize, 32, 64, 128] {
        let pool = all_edges(n);
        let pool_len = pool.len();
        let result = play_symbolic(n, pool, &BTreeSet::new(), n, &mut SequentialStrategy);
        sym_ok &= result.probes as f64 >= result.bound;
        sym.row([
            n.to_string(),
            pool_len.to_string(),
            n.to_string(),
            fmt_num(result.log2_instances),
            fmt_num(result.bound),
            result.probes.to_string(),
        ]);
    }
    report.para(if sym_ok {
        "At scale (closed-form adversary over the exact Theorem 2.2 family, \
         |I| up to 2^1360 on K*_128): the adversary answers *regular* until the \
         pool is nearly exhausted, forcing ≈ C(n,2) probes — quadratically above \
         the Lemma 2.1 floor, which is what makes the wakeup lower bound bite."
    } else {
        "**DEVIATION**: symbolic game beat the bound."
    });
    report.block(&sym.to_markdown());
    report.render()
}

/// T6 — Theorem 2.2 constructively: starved advice blows up wakeup messages.
pub fn t6_starved_wakeup(large: bool) -> String {
    let mut report =
        Report::new("T6 — starving the wakeup oracle forces superlinear messages (Theorem 2.2)");
    let n = if large { 96 } else { 48 };
    let mut rng = rng_for(6);
    let (g, _) = gadgets::random_subdivided_complete(n, n, &mut rng);
    let nodes = g.num_nodes();
    let full = advice_size(&SpanningTreeOracle::default().advise(&g, 0));
    let budgets: Vec<u64> = (0..=8).map(|i| full * i / 8).collect();
    let points = tradeoff_curve(&g, 0, &budgets, 0).expect("curve runs");
    let mut table = Table::new(["budget %", "bits", "messages", "messages/(n−1)"]);
    for p in &points {
        table.row([
            format!("{}", 100 * p.budget_bits / full.max(1)),
            p.oracle_bits.to_string(),
            p.metrics.messages.to_string(),
            format!("{:.1}", p.metrics.messages as f64 / (nodes - 1) as f64),
        ]);
    }
    report.para(&format!(
        "`G_{{{n},S}}` with {nodes} nodes, {} edges; full oracle {full} bits. \
         The message count interpolates from Θ(n²) at zero budget down to exactly \
         n − 1 at full budget — the trade-off Theorem 2.2 proves is unavoidable.",
        g.num_edges()
    ));
    report.block(&table.to_markdown());
    report.render()
}

/// T7 — Theorem 2.2 counting table: `P`, `Q` and the implied bound.
pub fn t7_wakeup_counting(large: bool) -> String {
    let mut report = Report::new("T7 — the P/Q pigeonhole of Theorem 2.2");
    let mut table = Table::new([
        "n",
        "α",
        "q bits",
        "log2 P",
        "log2 Q",
        "msg bound",
        "closed form",
    ]);
    let pows: Vec<u32> = if large {
        vec![13, 14, 15, 16, 17, 18]
    } else {
        vec![13, 14, 15, 16]
    };
    for &p in &pows {
        let n = 1u64 << p;
        for alpha in [0.1, 0.25, 0.4] {
            let b = wakeup_bound(n, alpha);
            table.row([
                format!("2^{p}"),
                format!("{alpha}"),
                fmt_num(b.q_bits),
                fmt_num(b.log2_p),
                fmt_num(b.log2_q),
                fmt_num(b.message_bound),
                fmt_num(oraclesize_lowerbound::counting::wakeup_bound_closed_form(
                    n, alpha,
                )),
            ]);
        }
    }
    report.para(
        "For α < 1/2 the bound turns positive once n clears the asymptotic onset \
         (≈ 2^13 at α = 0.1, ≈ 2^15 at α = 0.25) and then grows superlinearly — \
         o(n log n) advice cannot keep wakeup at O(n) messages. The closed form \
         `(1 − 2β) n log(n/2)` is the paper's large-n simplification.",
    );
    report.block(&table.to_markdown());
    report.render()
}

/// T8 — Theorem 3.2 / Claim 3.3: clique gadgets, empirical and counted.
pub fn t8_broadcast_gadgets(large: bool) -> String {
    let mut report = Report::new("T8 — o(n) advice cannot keep broadcast linear (Theorem 3.2)");

    // Empirical half: flooding vs Scheme B on G_{n,S,C}.
    let mut rng = rng_for(8);
    let mut table = Table::new(["n", "k", "nodes", "flood msgs", "scheme B msgs", "gap"]);
    let ks: &[usize] = if large { &[4, 8, 16] } else { &[4, 8] };
    for &k in ks {
        let n = 8 * k;
        let (g, _, _) = gadgets::random_clique_gadget(n, k, &mut rng);
        let flood =
            execute(&g, 0, &EmptyOracle, &FloodOnce, &SimConfig::default()).expect("flooding runs");
        let scheme = execute(&g, 0, &LightTreeOracle, &SchemeB, &SimConfig::default())
            .expect("scheme B runs");
        table.row([
            n.to_string(),
            k.to_string(),
            g.num_nodes().to_string(),
            flood.outcome.metrics.messages.to_string(),
            scheme.outcome.metrics.messages.to_string(),
            format!(
                "{:.1}x",
                flood.outcome.metrics.messages as f64
                    / scheme.outcome.metrics.messages.max(1) as f64
            ),
        ]);
    }
    report.para(
        "Empirical half: without advice the cliques must be flooded (the missing \
         edge f_i is invisible from outside), so the zero-advice cost grows with k \
         while the 8n-bit Scheme B stays linear — the gap the theorem formalizes.",
    );
    report.block(&table.to_markdown());

    // Counting half: Claim 3.3's numbers.
    let mut counting = Table::new([
        "n",
        "k",
        "k ≤ √log n?",
        "log2 P'",
        "log2 Q",
        "msg bound",
        "target n(k−1)/8",
    ]);
    for (n, k) in [(1u64 << 14, 4u64), (1 << 16, 4), (1 << 18, 4), (1 << 18, 8)] {
        let b = broadcast_bound(n, k);
        let cond = (k as f64) <= ((n as f64).log2()).sqrt();
        counting.row([
            format!("2^{}", (n as f64).log2() as u32),
            k.to_string(),
            if cond { "yes".into() } else { "no".to_string() },
            fmt_num(b.log2_p_prime),
            fmt_num(b.log2_q),
            fmt_num(b.message_bound),
            fmt_num(b.claim_target),
        ]);
    }
    report.para(
        "Counting half: with oracle size q = n/2k, the pigeonhole bound crosses the \
         Claim 3.3 target n(k−1)/8 exactly when k ≤ √(log n) — the claim's own \
         side condition, reproduced sharply by the exact computation.",
    );
    report.block(&counting.to_markdown());
    report.render()
}

/// T9 — the remark after Theorem 2.2: threshold `c/(c+1)`.
pub fn t9_threshold_remark() -> String {
    let mut report = Report::new("T9 — subdividing c·n edges lifts the threshold to c/(c+1)");
    let mut table = Table::new([
        "c",
        "threshold",
        "α = 0.45",
        "α = 0.6",
        "α = 0.7",
        "α = 0.85",
    ]);
    let n = (2.0f64).powi(400);
    for c in 1u64..=4 {
        let mut cells = vec![c.to_string(), format!("{:.3}", wakeup_threshold(c))];
        for alpha in [0.45, 0.6, 0.7, 0.85] {
            let b = wakeup_bound_subdivisions_approx(n, c, alpha);
            cells.push(if b > 0.0 {
                format!("+ ({:.1e})", b)
            } else {
                "0".to_string()
            });
        }
        table.row(cells);
    }
    report.para(
        "Asymptotic counting at n = 2^400 (the lower-order `n log log n` term in Q \
         delays the onset far past exactly-computable sizes): the bound is positive \
         exactly when α < c/(c+1), matching the remark — so the paper's \
         `n log n + o(n log n)` upper bound for wakeup is asymptotically optimal.",
    );
    report.block(&table.to_markdown());
    report.render()
}

/// The canonical job description behind [`t10_robustness_matrix`]: 16
/// cells of `(scheduler × anonymity × scheme)` over two instances that
/// share one random graph. The CI service-smoke job submits exactly this
/// spec to a sweep server and diffs the merged artifact against the
/// committed `BENCH_T10.json` bytes.
pub fn t10_spec() -> SweepSpec {
    let mut spec = SweepSpec::new("t10", MASTER_SEED);
    for oracle in ["spanning-tree", "light-tree"] {
        spec.instances.push(InstanceSpec {
            family: "random-connected".to_string(),
            n: 128,
            // The pre-spec harness drew the graph from `rng_for(10)`.
            seed: MASTER_SEED ^ 10,
            p_ppm: Some(to_ppm(0.08)),
            source: 0,
            oracle: oracle.to_string(),
        });
    }
    // Declare the matrix in the exact order the table prints its rows.
    for kind in SchedulerKind::sweep(MASTER_SEED) {
        for anonymous in [false, true] {
            for (scheme, instance, mode) in [
                ("tree-wakeup", 0u64, "wakeup"),
                ("scheme-b", 1, "broadcast"),
            ] {
                let seed = spec.cells.len() as u64;
                spec.cells.push(CellSpec {
                    label: format!("{scheme}/{}/anon={anonymous}", kind.name()),
                    instance,
                    scheme: scheme.to_string(),
                    retries: None,
                    mode: mode.to_string(),
                    scheduler: Some(SchedulerSpec::of(kind)),
                    anonymous,
                    max_message_bits: Some(0),
                    quiescence_polls: None,
                    seed,
                    faults: FaultSpec::default(),
                });
            }
        }
    }
    spec
}

/// T10 — §1.3 robustness matrix as a declarative grid: 16 cells of
/// `(scheduler × anonymity × scheme)` over two `Arc`-shared instances,
/// dispatched to the runtime pool in one batch.
pub fn t10_robustness_matrix(opts: &ExpOptions) -> Result<String, String> {
    let mut report =
        Report::new("T10 — upper bounds hold async, anonymous, bounded messages (§1.3)");
    let spec = t10_spec();
    let grid = CellGrid::from_spec(&spec)?;
    let mut meta = Vec::new();
    for kind in SchedulerKind::sweep(MASTER_SEED) {
        for anonymous in [false, true] {
            meta.push(("tree-wakeup", kind, anonymous));
            meta.push(("scheme-b", kind, anonymous));
        }
    }
    let sweep = grid.dispatch(&spec, opts);
    if sweep.interrupted {
        return Err(format!(
            "t10 interrupted mid-sweep; resume from the journal to finish ({})",
            sweep.summary()
        ));
    }
    let reports = sweep.reports();
    emit_json(opts, "t10", grid.to_json(&reports))?;

    let mut table = Table::new([
        "scheme",
        "scheduler",
        "anonymous",
        "completed",
        "messages",
        "max payload bits",
    ]);
    let mut ok = true;
    for ((scheme, kind, anonymous), r) in meta.iter().zip(&reports) {
        let out = r.outcome().expect("t10 cells run");
        ok &= out.completed
            && match *scheme {
                "tree-wakeup" => out.metrics.messages == 127,
                _ => out.metrics.messages <= scheme_b_message_bound(128),
            };
        table.row([
            scheme.to_string(),
            kind.name().to_string(),
            anonymous.to_string(),
            out.completed.to_string(),
            out.metrics.messages.to_string(),
            out.metrics.max_message_bits.to_string(),
        ]);
    }
    report.para(if ok {
        "All 16 configurations completed within their message bounds using 0-bit \
         payloads — both upper bounds are fully asynchronous, anonymous, and \
         bounded-message, as §1.3 claims."
    } else {
        "**DEVIATION**: a configuration failed."
    });
    report.block(&table.to_markdown());
    for warning in &sweep.warnings {
        report.para(&format!("_warning: {warning}_"));
    }
    report.para(&format!("_{}_", sweep.summary()));
    Ok(report.render())
}

/// T11 — encoding ablation: the advice codecs compared.
pub fn t11_encoding_ablation() -> String {
    use oraclesize_bits::codec::{AnyCodec, Codec};
    use oraclesize_bits::lists::encode_port_list;
    use oraclesize_bits::BitString;
    use oraclesize_graph::spanning::light_tree;

    let mut report = Report::new("T11 — advice encoding ablation");
    let mut rng = rng_for(11);
    let mut table = Table::new([
        "family",
        "n",
        "paper port-list",
        "gamma ports",
        "delta ports",
        "paper weights (2Σ#2)",
        "gamma weights",
        "unary weights",
    ]);
    for fam in [Family::Complete, Family::RandomSparse, Family::Lollipop] {
        for n in [64usize, 256] {
            let g = fam.build(n, &mut rng);
            let nodes = g.num_nodes();
            // Wakeup side: child-port lists under each codec.
            let tree = oraclesize_graph::spanning::bfs_tree(&g, 0);
            let mut paper_ports = 0usize;
            let mut gamma_ports = 0usize;
            let mut delta_ports = 0usize;
            for v in 0..nodes {
                let ports: Vec<u64> = tree.children(v).iter().map(|&(_, p)| p as u64).collect();
                paper_ports += encode_port_list(&ports, nodes as u64).len();
                for &p in &ports {
                    gamma_ports += AnyCodec::EliasGamma.encoded_len(p);
                    delta_ports += AnyCodec::EliasDelta.encoded_len(p);
                }
            }
            // Broadcast side: light-tree weights under each codec.
            let light = light_tree(&g, 0);
            let weights: Vec<u64> = light.edges(&g).map(|e| e.weight()).collect();
            let len_with = |codec: AnyCodec| -> usize {
                let mut s = BitString::new();
                for &w in &weights {
                    codec.encode(w, &mut s);
                }
                s.len()
            };
            table.row([
                fam.name().to_string(),
                nodes.to_string(),
                paper_ports.to_string(),
                gamma_ports.to_string(),
                delta_ports.to_string(),
                len_with(AnyCodec::ContinuationPairs).to_string(),
                len_with(AnyCodec::EliasGamma).to_string(),
                len_with(AnyCodec::Unary).to_string(),
            ]);
        }
    }
    report.para(
        "The paper's doubled-header port list pays one ⌈log n⌉ per child plus an \
         O(log log n) header — close to gamma coding on dense trees. For weights, \
         the 2·#2(w) continuation-pair code is within 2x of gamma and the paper \
         prefers it for its exactly-analyzable size; unary is the degenerate case.",
    );
    report.block(&table.to_markdown());
    report.render()
}

/// T12 — gossip (the paper's third named task): 2(n−1) messages from an
/// O(n log n) oracle.
pub fn t12_gossip() -> String {
    use oraclesize_core::gossip::{
        decode_gossip_output, gossip_message_bound, GossipOracle, TreeGossip,
    };
    let mut report = Report::new("T12 — gossip with tree advice (§1.2's third task)");
    let mut rng = rng_for(12);
    let mut table = Table::new([
        "family",
        "n",
        "oracle bits",
        "messages",
        "2(n−1)",
        "payload bits",
        "complete?",
    ]);
    let mut ok = true;
    for fam in SWEEP_FAMILIES {
        for n in [32usize, 128] {
            let g = fam.build(n, &mut rng);
            let nodes = g.num_nodes();
            let run = execute(
                &g,
                0,
                &GossipOracle::default(),
                &TreeGossip,
                &SimConfig::default(),
            )
            .expect("gossip runs");
            let complete = run.outcome.outputs.len() == nodes
                && run.outcome.outputs.iter().all(|o| {
                    o.as_ref()
                        .and_then(decode_gossip_output)
                        .is_some_and(|set| set.len() == nodes)
                });
            ok &= complete && run.outcome.metrics.messages == gossip_message_bound(nodes);
            table.row([
                fam.name().to_string(),
                nodes.to_string(),
                run.oracle_bits.to_string(),
                run.outcome.metrics.messages.to_string(),
                gossip_message_bound(nodes).to_string(),
                run.outcome.metrics.payload_bits.to_string(),
                complete.to_string(),
            ]);
        }
    }
    report.para(if ok {
        "Convergecast + downcast over the advice tree: exactly 2(n−1) messages and \
         every node ends knowing all n values. Message *payloads* grow along the \
         tree (the payload-bits column) — gossip's intrinsic extra cost over \
         broadcast, orthogonal to the oracle-size measure."
    } else {
        "**DEVIATION**: a gossip run failed."
    });
    report.block(&table.to_markdown());
    report.render()
}

/// T13 — pricing the traditional radius-ρ knowledge assumption in bits.
pub fn t13_neighborhood_pricing() -> String {
    use oraclesize_core::neighborhood::NeighborhoodOracle;
    let mut report = Report::new("T13 — what radius-ρ knowledge costs in bits (§1.1 motivation)");
    let mut rng = rng_for(13);
    let mut table = Table::new([
        "family",
        "n",
        "ρ=1",
        "ρ=2",
        "ρ=3",
        "tree oracle",
        "light-tree oracle",
    ]);
    for fam in [Family::Grid, Family::RandomSparse, Family::Complete] {
        for n in [64usize, 144] {
            let g = fam.build(n, &mut rng);
            let mut cells = vec![fam.name().to_string(), g.num_nodes().to_string()];
            for rho in 1..=3 {
                cells.push(advice_size(&NeighborhoodOracle::new(rho).advise(&g, 0)).to_string());
            }
            cells.push(advice_size(&SpanningTreeOracle::default().advise(&g, 0)).to_string());
            cells.push(advice_size(&LightTreeOracle.advise(&g, 0)).to_string());
            table.row(cells);
        }
    }
    report.para(
        "The oracle framework makes the traditional \"know your radius-ρ \
         neighborhood\" assumption comparable to task-specific advice: even ρ = 1 \
         costs orders of magnitude more bits than the Θ(n log n) wakeup oracle on \
         dense graphs, and ρ = 2 on sparse ones — the quantitative point of the \
         paper's introduction.",
    );
    report.block(&table.to_markdown());
    report.render()
}

/// T14 — exploration with an oracle (the conclusion's conjecture, realized).
pub fn t14_exploration() -> String {
    use oraclesize_explore::agent::{walk, WalkConfig};
    use oraclesize_explore::oracle::{tour_advice, tour_advice_bits};
    use oraclesize_explore::strategies::{DfsBacktrack, GuidedTour, RandomWalk};

    let mut report = Report::new("T14 — exploration by a mobile agent with advice (Conclusion §4)");
    let mut rng = rng_for(14);
    let mut table = Table::new([
        "family",
        "n",
        "m",
        "advice bits",
        "tour moves",
        "2(n−1)",
        "dfs moves",
        "2m",
        "random-walk cover",
    ]);
    let mut ok = true;
    for fam in SWEEP_FAMILIES {
        let g = fam.build(48, &mut rng);
        let (nodes, edges) = (g.num_nodes(), g.num_edges());
        let advice = tour_advice(&g, 0);
        let empty = oraclesize_sim::testkit::no_advice(nodes);
        let tour = walk(
            &g,
            0,
            &advice,
            &mut GuidedTour::new(),
            &WalkConfig::default(),
        );
        let dfs = walk(
            &g,
            0,
            &empty,
            &mut DfsBacktrack::new(),
            &WalkConfig::default(),
        );
        let rw = walk(
            &g,
            0,
            &empty,
            &mut RandomWalk::new(MASTER_SEED),
            &WalkConfig {
                max_moves: 5_000_000,
            },
        );
        ok &= tour.covered_all
            && tour.moves == 2 * (nodes as u64 - 1)
            && dfs.covered_all
            && dfs.moves <= 2 * edges as u64;
        table.row([
            fam.name().to_string(),
            nodes.to_string(),
            edges.to_string(),
            tour_advice_bits(&g, 0).to_string(),
            tour.moves.to_string(),
            (2 * (nodes - 1)).to_string(),
            dfs.moves.to_string(),
            (2 * edges).to_string(),
            rw.cover_moves.map_or("—".into(), |c| c.to_string()),
        ]);
    }
    report.para(if ok {
        "The tour oracle (O(n log Δ) bits) explores in exactly 2(n−1) moves; \
         advice-free DFS pays up to 2m, random walks far more — the move-complexity \
         mirror of the paper's knowledge/messages trade-off, confirming the \
         conclusion's conjecture is realizable for exploration."
    } else {
        "**DEVIATION**: an exploration bound failed."
    });
    report.block(&table.to_markdown());

    // Budgeted half: the moves-side analogue of T6 — with a twist.
    use oraclesize_explore::budget::exploration_tradeoff;
    let mut curve = Table::new(["graph", "budget %", "advice bits", "moves", "moves/2(n−1)"]);
    for (name, g) in [
        ("grid 8x8", families::grid(8, 8)),
        ("K_64", families::complete_rotational(64)),
    ] {
        let nodes = g.num_nodes() as f64;
        let full: u64 = tour_advice(&g, 0).iter().map(|s| s.len() as u64).sum();
        let budgets: Vec<u64> = (0..=4).map(|i| full * i / 4).collect();
        for p in exploration_tradeoff(&g, 0, &budgets) {
            curve.row([
                name.to_string(),
                format!("{}", 100 * p.budget_bits / full.max(1)),
                p.advice_bits.to_string(),
                p.result.moves.to_string(),
                format!("{:.1}", p.result.moves as f64 / (2.0 * (nodes - 1.0))),
            ]);
        }
    }
    report.para(
        "Budgeted tour advice (hybrid tour-then-DFS agent, always covering) exposes \
         an asymmetry with the broadcast trade-off of T6: partial tour advice is \
         essentially worthless — slightly *harmful*, since the toured prefix is \
         retraversed — because the tour is a chain and the DFS fallback re-pays the \
         full Θ(m) edge-discovery cost wherever it takes over. Wakeup advice \
         degrades gracefully (T6: each advised node saves its own flood); \
         exploration advice is all-or-nothing. The oracle-size lens makes this \
         structural difference between tasks quantitative.",
    );
    report.block(&curve.to_markdown());
    report.render()
}

/// T15 — construction tasks (§1.2's BFS tree / MST examples): advice moves
/// the whole cost out of communication.
pub fn t15_construction() -> String {
    use oraclesize_core::construction::{
        collect_parent_ports, verify_bfs_tree, verify_mst, BfsTreeOracle, DistributedBfs,
        MstOracle, ZeroMessageTree,
    };
    let mut report = Report::new("T15 — BFS-tree and MST construction with advice (§1.2)");
    let mut rng = rng_for(15);
    let mut table = Table::new(["family", "n", "task", "oracle bits", "messages", "verified"]);
    let mut ok = true;
    for fam in SWEEP_FAMILIES {
        let g = fam.build(64, &mut rng);
        let nodes = g.num_nodes();
        // BFS with advice: zero messages.
        let with = execute(
            &g,
            0,
            &BfsTreeOracle,
            &ZeroMessageTree,
            &SimConfig::default(),
        )
        .expect("runs");
        let with_ok = collect_parent_ports(&with.outcome.outputs)
            .map(|p| verify_bfs_tree(&g, 0, &p).is_ok())
            .unwrap_or(false);
        ok &= with_ok && with.outcome.metrics.messages == 0;
        table.row([
            fam.name().to_string(),
            nodes.to_string(),
            "bfs (oracle)".to_string(),
            with.oracle_bits.to_string(),
            with.outcome.metrics.messages.to_string(),
            with_ok.to_string(),
        ]);
        // BFS without advice: Θ(m) messages.
        let without =
            execute(&g, 0, &EmptyOracle, &DistributedBfs, &SimConfig::default()).expect("runs");
        let without_ok = collect_parent_ports(&without.outcome.outputs)
            .map(|p| verify_bfs_tree(&g, 0, &p).is_ok())
            .unwrap_or(false);
        ok &= without_ok;
        table.row([
            fam.name().to_string(),
            nodes.to_string(),
            "bfs (flooding)".to_string(),
            "0".to_string(),
            without.outcome.metrics.messages.to_string(),
            without_ok.to_string(),
        ]);
        // MST with advice.
        let mst =
            execute(&g, 0, &MstOracle, &ZeroMessageTree, &SimConfig::default()).expect("runs");
        let mst_ok = collect_parent_ports(&mst.outcome.outputs)
            .map(|p| verify_mst(&g, 0, &p).is_ok())
            .unwrap_or(false);
        ok &= mst_ok && mst.outcome.metrics.messages == 0;
        table.row([
            fam.name().to_string(),
            nodes.to_string(),
            "mst (oracle)".to_string(),
            mst.oracle_bits.to_string(),
            mst.outcome.metrics.messages.to_string(),
            mst_ok.to_string(),
        ]);
    }
    report.para(if ok {
        "With `O(n log Δ)` bits of advice both structures are built with **zero** \
         messages (independently verified); the advice-free BFS pays Θ(m). \
         Construction tasks are the extreme point of the knowledge/communication \
         exchange rate."
    } else {
        "**DEVIATION**: a construction failed verification."
    });
    report.block(&table.to_markdown());
    report.render()
}

/// T16 — the time/knowledge/messages triangle (Conclusion §4: "tradeoffs
/// between the amount of knowledge … and the efficiency (in terms of time
/// or message complexity)").
pub fn t16_time_knowledge() -> String {
    let mut report = Report::new("T16 — knowledge vs messages vs time (Conclusion §4)");
    let mut rng = rng_for(16);
    let mut table = Table::new(["family", "n", "scheme", "oracle bits", "messages", "rounds"]);
    for fam in [Family::Grid, Family::RandomSparse, Family::Complete] {
        let g = fam.build(100, &mut rng);
        let nodes = g.num_nodes();
        let mut push = |name: &str, bits: u64, msgs: u64, rounds: u64| {
            table.row([
                fam.name().to_string(),
                nodes.to_string(),
                name.to_string(),
                bits.to_string(),
                msgs.to_string(),
                rounds.to_string(),
            ]);
        };
        let flood = execute(&g, 0, &EmptyOracle, &FloodOnce, &SimConfig::default()).expect("runs");
        push(
            "flooding",
            flood.oracle_bits,
            flood.outcome.metrics.messages,
            flood.outcome.metrics.rounds,
        );
        let wakeup = execute(
            &g,
            0,
            &SpanningTreeOracle::default(),
            &TreeWakeup,
            &SimConfig::wakeup(),
        )
        .expect("runs");
        push(
            "tree-wakeup",
            wakeup.oracle_bits,
            wakeup.outcome.metrics.messages,
            wakeup.outcome.metrics.rounds,
        );
        let scheme_b =
            execute(&g, 0, &LightTreeOracle, &SchemeB, &SimConfig::default()).expect("runs");
        push(
            "scheme-b",
            scheme_b.oracle_bits,
            scheme_b.outcome.metrics.messages,
            scheme_b.outcome.metrics.rounds,
        );
    }
    report.para(
        "Flooding is time-optimal (eccentricity rounds) but message-maximal; the \
         tree schemes are message-optimal but pay tree-depth rounds — BFS trees \
         keep that near the eccentricity, while the light tree of Scheme B can be \
         deeper. Knowledge, messages and time form a genuine triangle, the \
         trade-off space the conclusion proposes to map with oracles.",
    );
    report.block(&table.to_markdown());
    report.render()
}

/// T17 — sensitivity of the oracle sizes to the (adversarial) port
/// numbering: the 4n/8n guarantees are worst-case over numberings.
pub fn t17_port_sensitivity() -> String {
    use oraclesize_analysis::stats::Summary;
    use oraclesize_graph::PortGraphBuilder;

    let mut report = Report::new("T17 — port-numbering sensitivity of the oracle sizes");
    let mut rng = rng_for(17);
    let n = 96;
    let base = families::random_connected(n, 0.3, &mut rng);
    let mut light_bits = Vec::new();
    let mut wakeup_bits = Vec::new();
    for _ in 0..30 {
        let mut b = PortGraphBuilder::new(n);
        for e in base.edges() {
            b.add_edge(e.u, e.v).expect("copy of a simple graph");
        }
        b.shuffle_ports(&mut rng);
        let g = b.build().expect("valid shuffle");
        light_bits.push(advice_size(&LightTreeOracle.advise(&g, 0)) as f64);
        wakeup_bits.push(advice_size(&SpanningTreeOracle::default().advise(&g, 0)) as f64);
    }
    let light = Summary::of(&light_bits);
    let wakeup = Summary::of(&wakeup_bits);
    let mut table = Table::new(["oracle", "min", "median", "max", "mean", "stddev", "bound"]);
    table.row([
        "light-tree (broadcast)".to_string(),
        fmt_num(light.min),
        fmt_num(light.median),
        fmt_num(light.max),
        fmt_num(light.mean),
        fmt_num(light.stddev),
        format!("8n = {}", 8 * n),
    ]);
    table.row([
        "spanning-tree (wakeup)".to_string(),
        fmt_num(wakeup.min),
        fmt_num(wakeup.median),
        fmt_num(wakeup.max),
        fmt_num(wakeup.mean),
        fmt_num(wakeup.stddev),
        "Θ(n log n)".to_string(),
    ]);
    report.para(&format!(
        "30 uniformly shuffled port numberings of one {n}-node graph: the \
         light-tree oracle never exceeds its 8n-bit guarantee (max {} vs bound {}), \
         and the wakeup oracle's size barely moves — the paper's bounds are \
         robust to the adversary's numbering, as worst-case bounds must be.",
        fmt_num(light.max),
        8 * n
    ));
    report.block(&table.to_markdown());
    report.render()
}

/// T18 — leader election (§1.1's first-named task): 1 bit + tree vs
/// FloodMax.
pub fn t18_leader_election() -> String {
    use oraclesize_core::election::{verify_election, AnnouncedLeader, ElectionOracle, FloodMax};
    let mut report = Report::new("T18 — leader election: a flag bit + tree vs FloodMax (§1.1)");
    let mut rng = rng_for(18);
    let mut table = Table::new([
        "family",
        "n",
        "m",
        "oracle bits",
        "announce msgs",
        "floodmax msgs",
        "gap",
    ]);
    let mut ok = true;
    for fam in SWEEP_FAMILIES {
        let g = fam.build(64, &mut rng);
        let (nodes, edges) = (g.num_nodes(), g.num_edges());
        let announced = execute(
            &g,
            0,
            &ElectionOracle,
            &AnnouncedLeader,
            &SimConfig::default(),
        )
        .expect("runs");
        let flood = execute(&g, 0, &EmptyOracle, &FloodMax, &SimConfig::default()).expect("runs");
        ok &= verify_election(&g, &announced.outcome.outputs, false).is_ok()
            && verify_election(&g, &flood.outcome.outputs, true).is_ok()
            && announced.outcome.metrics.messages == (nodes - 1) as u64;
        table.row([
            fam.name().to_string(),
            nodes.to_string(),
            edges.to_string(),
            announced.oracle_bits.to_string(),
            announced.outcome.metrics.messages.to_string(),
            flood.outcome.metrics.messages.to_string(),
            format!(
                "{:.1}x",
                flood.outcome.metrics.messages as f64
                    / announced.outcome.metrics.messages.max(1) as f64
            ),
        ]);
    }
    report.para(if ok {
        "The oracle's flag bit dissolves the symmetry-breaking problem entirely: \
         n − 1 messages announce the leader, while advice-free FloodMax pays up \
         to Θ(n·m). Election is the task where a *single bit per network* of \
         well-placed knowledge changes the complexity class of the solution."
    } else {
        "**DEVIATION**: an election failed verification."
    });
    report.block(&table.to_markdown());

    // The knowledge spectrum on rings: FloodMax vs Hirschberg–Sinclair vs
    // the oracle.
    use oraclesize_core::election::HirschbergSinclair;
    let mut ring = Table::new([
        "ring n",
        "floodmax msgs",
        "HS msgs",
        "oracle msgs",
        "oracle bits",
    ]);
    let mut ring_ok = true;
    for n in [32usize, 128, 512] {
        let g = families::cycle(n);
        let fm = execute(&g, 0, &EmptyOracle, &FloodMax, &SimConfig::default()).expect("runs");
        let hs = execute(
            &g,
            0,
            &EmptyOracle,
            &HirschbergSinclair,
            &SimConfig::default(),
        )
        .expect("runs");
        let oracle = execute(
            &g,
            0,
            &ElectionOracle,
            &AnnouncedLeader,
            &SimConfig::default(),
        )
        .expect("runs");
        ring_ok &= verify_election(&g, &hs.outcome.outputs, true).is_ok();
        ring.row([
            n.to_string(),
            fm.outcome.metrics.messages.to_string(),
            hs.outcome.metrics.messages.to_string(),
            oracle.outcome.metrics.messages.to_string(),
            oracle.oracle_bits.to_string(),
        ]);
    }
    report.para(if ring_ok {
        "On rings, the classic Hirschberg–Sinclair protocol sits exactly between \
         the two extremes: Θ(n²) with no knowledge and no structure assumptions, \
         Θ(n log n) with no knowledge but ring structure, n − 1 with Θ(n log n) \
         bits of advice — three rungs of the knowledge ladder."
    } else {
        "**DEVIATION**: HS failed on a ring."
    });
    report.block(&ring.to_markdown());
    report.render()
}

/// T19 — spanner construction (the conclusion's other conjecture): advice
/// size vs allowed stretch.
pub fn t19_spanner_tradeoff() -> String {
    use oraclesize_core::construction::ZeroMessageTree;
    use oraclesize_core::spanner::{collect_port_sets, verify_spanner, SpannerOracle};
    let mut report =
        Report::new("T19 — spanner construction: knowledge vs stretch (Conclusion §4)");
    let mut rng = rng_for(19);
    let mut table = Table::new([
        "family",
        "n",
        "m",
        "t",
        "spanner edges",
        "oracle bits",
        "verified",
    ]);
    let mut ok = true;
    for fam in [Family::Complete, Family::RandomDense, Family::Torus] {
        let g = fam.build(64, &mut rng);
        for t in [1usize, 3, 5] {
            let run = execute(
                &g,
                0,
                &SpannerOracle::new(t),
                &ZeroMessageTree,
                &SimConfig::default(),
            )
            .expect("runs");
            let verified = collect_port_sets(&run.outcome.outputs)
                .and_then(|sets| verify_spanner(&g, &sets, t).ok());
            ok &= verified.is_some() && run.outcome.metrics.messages == 0;
            table.row([
                fam.name().to_string(),
                g.num_nodes().to_string(),
                g.num_edges().to_string(),
                t.to_string(),
                verified.map_or("FAIL".into(), |e| e.to_string()),
                run.oracle_bits.to_string(),
                verified.is_some().to_string(),
            ]);
        }
    }
    report.para(if ok {
        "Zero messages build a verified t-spanner from per-node port advice; the \
         advice shrinks as the allowed stretch grows (t = 3 already cuts dense \
         graphs to near-linear edge counts) — the knowledge/quality trade-off the \
         conclusion conjectures oracles can chart."
    } else {
        "**DEVIATION**: a spanner failed verification."
    });
    report.block(&table.to_markdown());
    report.render()
}

/// T20's corruption rates, shared by the spec and the report table.
const T20_RATES: [f64; 6] = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0];
/// T20's drop rates, shared by the spec and the report table.
const T20_DROP_RATES: [f64; 3] = [0.0, 0.1, 0.3];
/// T20's retry schemes (table label, retry budget).
const T20_RETRY_SCHEMES: [(&str, Option<u32>); 3] = [
    ("tree-wakeup", None),
    ("retry(2)", Some(2)),
    ("retry(8)", Some(8)),
];
/// T20's crash budgets.
const T20_BUDGETS: [usize; 3] = [0, 4, 12];
/// Trials per T20 matrix point.
const T20_TRIALS: u64 = 5;

/// The shared T20 graph (drawn from `rng_for(20)` in the pre-spec
/// harness) labeled by `oracle`.
fn t20_instance(oracle: &str) -> InstanceSpec {
    InstanceSpec {
        family: "random-connected".to_string(),
        n: 96,
        seed: MASTER_SEED ^ 20,
        p_ppm: Some(to_ppm(0.08)),
        source: 0,
        oracle: oracle.to_string(),
    }
}

/// The advice-corruption grid of [`t20_fault_robustness`] as a spec:
/// corruption rate × (brittle | robust) wakeup scheme × trial.
pub fn t20_corruption_spec() -> SweepSpec {
    let mut spec = SweepSpec::new("t20-corruption", MASTER_SEED);
    spec.instances.push(t20_instance("spanning-tree"));
    spec.instances.push(t20_instance("robust-wakeup"));
    for rate in T20_RATES {
        for robust in [false, true] {
            for trial in 0..T20_TRIALS {
                let seed = spec.cells.len() as u64;
                spec.cells.push(CellSpec {
                    label: format!(
                        "corrupt={rate:.2}/{}/trial={trial}",
                        if robust { "robust" } else { "brittle" }
                    ),
                    instance: robust as u64,
                    scheme: if robust {
                        "robust-tree-wakeup"
                    } else {
                        "tree-wakeup"
                    }
                    .to_string(),
                    retries: None,
                    mode: "wakeup".to_string(),
                    scheduler: None,
                    anonymous: false,
                    max_message_bits: None,
                    quiescence_polls: None,
                    seed,
                    faults: FaultSpec {
                        seed: MASTER_SEED ^ (trial + 1),
                        advice: AdviceSpec::Garbage {
                            prob_ppm: to_ppm(rate),
                            bits: 40,
                        },
                        ..FaultSpec::default()
                    },
                });
            }
        }
    }
    spec
}

/// The message-drop grid of [`t20_fault_robustness`] as a spec: drop
/// rate × retry budget × trial.
pub fn t20_drops_spec() -> SweepSpec {
    let mut spec = SweepSpec::new("t20-drops", MASTER_SEED);
    spec.instances.push(t20_instance("spanning-tree"));
    for rate in T20_DROP_RATES {
        for (label, retries) in T20_RETRY_SCHEMES {
            for trial in 0..T20_TRIALS {
                let seed = spec.cells.len() as u64;
                spec.cells.push(CellSpec {
                    label: format!("drop={rate:.2}/{label}/trial={trial}"),
                    instance: 0,
                    scheme: if retries.is_some() {
                        "retry-broadcast"
                    } else {
                        "tree-wakeup"
                    }
                    .to_string(),
                    retries,
                    mode: "broadcast".to_string(),
                    scheduler: None,
                    anonymous: false,
                    max_message_bits: None,
                    quiescence_polls: Some(16),
                    seed,
                    faults: FaultSpec {
                        seed: MASTER_SEED ^ (trial + 31),
                        drop_ppm: to_ppm(rate),
                        ..FaultSpec::default()
                    },
                });
            }
        }
    }
    spec
}

/// The crash-stop grid of [`t20_fault_robustness`] as a spec. The crash
/// sets come from the connectivity-preserving generator, so the spec
/// constructor builds the (small) T20 graph to draw them.
pub fn t20_crashes_spec() -> SweepSpec {
    let mut spec = SweepSpec::new("t20-crashes", MASTER_SEED);
    spec.instances.push(t20_instance("robust-wakeup"));
    let g = families::random_connected(96, 0.08, &mut rng_for(20));
    for budget in T20_BUDGETS {
        let crash_set =
            oraclesize_graph::connectivity_preserving_crash_set(&g, &[0], budget, MASTER_SEED);
        let seed = spec.cells.len() as u64;
        spec.cells.push(CellSpec {
            label: format!("crashes={budget}"),
            instance: 0,
            scheme: "robust-tree-wakeup".to_string(),
            retries: None,
            mode: "wakeup".to_string(),
            scheduler: None,
            anonymous: false,
            max_message_bits: None,
            quiescence_polls: None,
            seed,
            faults: FaultSpec {
                seed: MASTER_SEED,
                crashes: crash_set.iter().map(|&v| (v as u64, 0u64)).collect(),
                ..FaultSpec::default()
            },
        });
    }
    spec
}

/// T20 — fault injection as three declarative grids (advice corruption,
/// message drops, crash-stops), each dispatched to the runtime pool.
pub fn t20_fault_robustness(opts: &ExpOptions) -> Result<String, String> {
    let mut report = Report::new("T20 — fault injection: brittle vs self-healing schemes");
    let trials = T20_TRIALS;

    // Sweep 1: advice-corruption rate × wakeup scheme × trial. The brittle
    // scheme loses subtrees as soon as advice breaks; the robust scheme
    // detects the corruption and pays messages (flooding) instead of
    // coverage. The engine corrupts a private copy of the shared advice,
    // so one instance serves every cell.
    let corruption_spec = t20_corruption_spec();
    let corruption = CellGrid::from_spec(&corruption_spec)?;
    let n = corruption.requests()[0].instance.graph.num_nodes() as u64;
    let corruption_sweep = corruption.dispatch(&corruption_spec, opts);
    if corruption_sweep.interrupted {
        return Err(format!(
            "t20 corruption sweep interrupted; resume from the journal to finish ({})",
            corruption_sweep.summary()
        ));
    }
    let corruption_reports = corruption_sweep.reports();

    let mut table = Table::new([
        "corruption",
        "scheme",
        "completed",
        "mean informed",
        "mean messages",
        "overhead vs n-1",
    ]);
    let mut healed_everywhere = true;
    let mut chunks = corruption_reports.chunks(trials as usize);
    for rate in T20_RATES {
        for robust in [false, true] {
            let chunk = chunks.next().expect("grid covers the matrix");
            let mut completed = 0u64;
            let mut informed_sum = 0u64;
            let mut message_sum = 0u64;
            for r in chunk {
                let out = r.outcome().expect("wakeup runs");
                completed += u64::from(out.completed);
                informed_sum += out.metrics.informed_nodes;
                message_sum += out.metrics.messages;
            }
            if robust {
                healed_everywhere &= completed == trials;
            }
            table.row([
                format!("{rate:.2}"),
                if robust {
                    "robust-tree-wakeup"
                } else {
                    "tree-wakeup"
                }
                .to_string(),
                format!("{completed}/{trials}"),
                fmt_num(informed_sum as f64 / trials as f64),
                fmt_num(message_sum as f64 / trials as f64),
                format!(
                    "{:.2}x",
                    message_sum as f64 / trials as f64 / (n - 1) as f64
                ),
            ]);
        }
    }
    report.para(if healed_everywhere {
        "Advice corruption strands tree-wakeup almost immediately, while \
         robust-tree-wakeup completes at every corruption rate — its checksum \
         turns bad advice into local flooding, trading messages (the overhead \
         column) for coverage."
    } else {
        "**DEVIATION**: robust-tree-wakeup failed to complete a trial."
    });
    report.block(&table.to_markdown());

    // Sweep 2: message-drop rate × retry budget × trial. Acks double the
    // fault-free cost; each retry multiplies the per-edge survival
    // probability.
    let drop_spec = t20_drops_spec();
    let drop_grid = CellGrid::from_spec(&drop_spec)?;
    let drop_sweep = drop_grid.dispatch(&drop_spec, opts);
    if drop_sweep.interrupted {
        return Err(format!(
            "t20 drop sweep interrupted; resume from the journal to finish ({})",
            drop_sweep.summary()
        ));
    }
    let drop_reports = drop_sweep.reports();

    let mut drops = Table::new([
        "drop rate",
        "scheme",
        "completed",
        "mean informed",
        "mean messages",
    ]);
    let mut retries_recovered = true;
    let mut chunks = drop_reports.chunks(trials as usize);
    for rate in T20_DROP_RATES {
        for (label, retries) in T20_RETRY_SCHEMES {
            let chunk = chunks.next().expect("grid covers the matrix");
            let mut completed = 0u64;
            let mut informed_sum = 0u64;
            let mut message_sum = 0u64;
            for r in chunk {
                let out = r.outcome().expect("broadcast runs");
                completed += u64::from(out.completed);
                informed_sum += out.metrics.informed_nodes;
                message_sum += out.metrics.messages;
            }
            if retries == Some(8) {
                retries_recovered &= completed == trials;
            }
            drops.row([
                format!("{rate:.2}"),
                label.to_string(),
                format!("{completed}/{trials}"),
                fmt_num(informed_sum as f64 / trials as f64),
                fmt_num(message_sum as f64 / trials as f64),
            ]);
        }
    }
    report.para(if retries_recovered {
        "Retransmission restores completion under loss: retry(8) finishes every \
         trial at a 30% drop rate, paying the 2(n−1) ack baseline plus a modest \
         retry surcharge, while the brittle scheme strands most of the network."
    } else {
        "**DEVIATION**: retry(8) failed to complete a trial."
    });
    report.block(&drops.to_markdown());

    // Sweep 3: crash-stop failures drawn from the connectivity-preserving
    // generator — survivors stay connected, so the robust scheme should
    // inform every survivor.
    let crash_spec = t20_crashes_spec();
    let crash_sizes: Vec<usize> = crash_spec
        .cells
        .iter()
        .map(|c| c.faults.crashes.len())
        .collect();
    let crash_grid = CellGrid::from_spec(&crash_spec)?;
    let crash_sweep = crash_grid.dispatch(&crash_spec, opts);
    if crash_sweep.interrupted {
        return Err(format!(
            "t20 crash sweep interrupted; resume from the journal to finish ({})",
            crash_sweep.summary()
        ));
    }
    let crash_reports = crash_sweep.reports();

    let mut crashes = Table::new(["crashes", "completed", "informed survivors", "messages"]);
    let mut survivors_informed = true;
    for ((budget, crashed), r) in T20_BUDGETS.iter().zip(&crash_sizes).zip(&crash_reports) {
        let out = r.outcome().expect("wakeup runs");
        // Dead relays are advice corruption in disguise: the tree routes
        // through them, so survivors behind a crashed parent stay asleep
        // unless some neighbor floods. Completion here is not guaranteed —
        // the run is classified, not asserted.
        let survivors = n as usize - out.crashed_nodes;
        let informed = survivors - out.uninformed;
        survivors_informed &= *budget == 0 || informed > 0;
        let classified = if out.completed {
            "Completed".to_string()
        } else {
            format!("Degraded {{ uninformed: {} }}", out.uninformed)
        };
        crashes.row([
            crashed.to_string(),
            classified,
            format!("{}/{}", informed, n as usize - crashed),
            out.metrics.messages.to_string(),
        ]);
    }
    report.para(if survivors_informed {
        "Crash-stop failures are harsher than corrupted advice: a dead relay \
         silences its whole subtree even though the survivors stay connected, \
         so completion degrades with the crash budget — the gap a \
         crash-tolerant oracle (advising around the crash set) would close."
    } else {
        "**DEVIATION**: no survivor was informed despite a connected survivor graph."
    });
    report.block(&crashes.to_markdown());

    emit_json(
        opts,
        "t20",
        oraclesize_runtime::Json::obj()
            .field("corruption", corruption.to_json(&corruption_reports))
            .field("drops", drop_grid.to_json(&drop_reports))
            .field("crashes", crash_grid.to_json(&crash_reports)),
    )?;
    for sweep in [&corruption_sweep, &drop_sweep, &crash_sweep] {
        for warning in &sweep.warnings {
            report.para(&format!("_warning: {warning}_"));
        }
    }
    report.para(&format!(
        "_corruption {}; drops {}; crashes {}_",
        corruption_sweep.summary(),
        drop_sweep.summary(),
        crash_sweep.summary()
    ));
    Ok(report.render())
}

/// F1 — CSV series: oracle sizes vs n, with fits (the separation figure).
pub fn f1_size_series(large: bool) -> String {
    let mut report = Report::new("F1 — oracle size vs n (series for the separation figure)");
    let mut rng = rng_for(101);
    let mut csv = Table::new(["nodes", "wakeup_bits", "broadcast_bits", "fullmap_bits"]);
    let mut ns = Vec::new();
    let mut wk = Vec::new();
    let mut bc = Vec::new();
    for k in 4..=(if large { 10 } else { 8 }) {
        let n = 1usize << k;
        let (g, _) = gadgets::random_subdivided_complete(n, n, &mut rng);
        let nodes = g.num_nodes();
        let w = advice_size(&SpanningTreeOracle::default().advise(&g, 0));
        let b = advice_size(&LightTreeOracle.advise(&g, 0));
        // The full map is Θ(n·m·log n) bits — gigabytes past ~1k nodes.
        let m = if nodes <= 1024 {
            advice_size(&FullMapOracle.advise(&g, 0)).to_string()
        } else {
            "-".to_string()
        };
        csv.row([nodes.to_string(), w.to_string(), b.to_string(), m]);
        ns.push(nodes as f64);
        wk.push(w as f64);
        bc.push(b as f64);
    }
    let wfit = &best_model(&ns, &wk)[0];
    let bfit = &best_model(&ns, &bc)[0];
    report.para(&format!(
        "wakeup: {} (R²={:.6}); broadcast: {} (R²={:.6}); full map grows like n·m·log n.",
        wfit.model, wfit.r_squared, bfit.model, bfit.r_squared
    ));
    report.csv(&csv.to_csv());
    report.render()
}

/// F2 — CSV series: message complexity vs n for all schemes.
pub fn f2_message_series(large: bool) -> String {
    let mut report = Report::new("F2 — message complexity vs n");
    let mut csv = Table::new([
        "nodes",
        "wakeup_msgs",
        "schemeb_msgs",
        "flood_msgs",
        "mapwakeup_msgs",
    ]);
    let mut ns = Vec::new();
    let mut floods = Vec::new();
    for k in 4..=(if large { 9 } else { 8 }) {
        let n = 1usize << k;
        let g = families::complete_rotational(n);
        let w = execute(
            &g,
            0,
            &SpanningTreeOracle::default(),
            &TreeWakeup,
            &SimConfig::wakeup(),
        )
        .expect("runs");
        let b = execute(&g, 0, &LightTreeOracle, &SchemeB, &SimConfig::default()).expect("runs");
        let f = execute(&g, 0, &EmptyOracle, &FloodOnce, &SimConfig::default()).expect("runs");
        let m = execute(&g, 0, &FullMapOracle, &MapWakeup, &SimConfig::wakeup()).expect("runs");
        csv.row([
            n.to_string(),
            w.outcome.metrics.messages.to_string(),
            b.outcome.metrics.messages.to_string(),
            f.outcome.metrics.messages.to_string(),
            m.outcome.metrics.messages.to_string(),
        ]);
        ns.push(n as f64);
        floods.push(f.outcome.metrics.messages as f64);
    }
    let quad = fit_model(Model::Quadratic, &ns, &floods);
    report.para(&format!(
        "Oracle-assisted schemes are linear (wakeup exactly n−1); flooding fits \
         O(n²) with R² = {:.6} — the cost knowledge removes.",
        quad.r_squared
    ));
    report.csv(&csv.to_csv());
    report.render()
}

/// F3 — CSV: the advice-budget trade-off curve.
pub fn f3_budget_curve(large: bool) -> String {
    let mut report = Report::new("F3 — knowledge vs message complexity trade-off");
    let n = if large { 96 } else { 64 };
    let mut rng = rng_for(103);
    let (g, _) = gadgets::random_subdivided_complete(n, n, &mut rng);
    let full = advice_size(&SpanningTreeOracle::default().advise(&g, 0));
    let budgets: Vec<u64> = (0..=16).map(|i| full * i / 16).collect();
    let points = tradeoff_curve(&g, 0, &budgets, 0).expect("curve runs");
    let mut csv = Table::new(["budget_bits", "given_bits", "messages"]);
    for p in &points {
        csv.row([
            p.budget_bits.to_string(),
            p.oracle_bits.to_string(),
            p.metrics.messages.to_string(),
        ]);
    }
    report.para(&format!(
        "G_{{{n},S}} ({} nodes): messages fall monotonically (modulo tree-shape \
         noise) from Θ(n²) to n−1 as the advice budget grows to {full} bits.",
        g.num_nodes()
    ));
    report.csv(&csv.to_csv());
    report.render()
}

/// The SCALE grid's clique orders: fully subdividing `K*_b` yields
/// `b + b(b−1)/2` nodes, so these hit `n ≈ 10³, 10⁴, 10⁵` — and, under
/// `--large`, the million-node cell `b = 1414` (`n = 1,000,405`).
fn scale_orders(large: bool) -> Vec<usize> {
    let mut orders = vec![45, 141, 447];
    if large {
        orders.push(1414);
    }
    orders
}

/// Node count of the fully subdivided clique `K*_b`: the `b` original
/// nodes plus one subdivision node per edge of `K_b`.
fn subdivided_clique_nodes(b: usize) -> usize {
    b + b * (b - 1) / 2
}

/// The SCALE curve as a spec: wakeup on fully subdivided cliques,
/// tree-advice vs no-advice flooding; `large` appends the million-node
/// order. Subdividing *every* edge of `K*_b` gives the densest `G_{n,S}`,
/// built deterministically in closed form by
/// `families::subdivided_clique` (no RNG: the edge list is CSR iteration
/// order).
pub fn scale_spec(large: bool) -> SweepSpec {
    let mut spec = SweepSpec::new("scale", MASTER_SEED);
    for b in scale_orders(large) {
        let nodes = subdivided_clique_nodes(b);
        for (scheme, oracle) in [("tree-wakeup", "spanning-tree"), ("flood", "empty")] {
            let instance = spec.instances.len() as u64;
            spec.instances.push(InstanceSpec {
                family: "subdivided-clique".to_string(),
                n: b as u64,
                seed: 0,
                p_ppm: None,
                source: 0,
                oracle: oracle.to_string(),
            });
            let seed = spec.cells.len() as u64;
            spec.cells.push(CellSpec {
                label: format!("{scheme}/n={nodes}"),
                instance,
                scheme: scheme.to_string(),
                retries: None,
                mode: "wakeup".to_string(),
                scheduler: None,
                anonymous: false,
                max_message_bits: None,
                quiescence_polls: None,
                seed,
                faults: FaultSpec::default(),
            });
        }
    }
    spec
}

/// The decade a count falls in, rendered as a half-open interval. Steps
/// are bucketed this way as the *deterministic* wall-time proxy: wall
/// clock is deliberately excluded from every artifact (lint rule D002),
/// and engine steps are what the wall cost scales with.
fn decade_bucket(x: u64) -> String {
    if x == 0 {
        return "0".to_string();
    }
    let k = x.ilog10();
    format!("[1e{k}, 1e{})", k + 1)
}

/// SCALE — the million-node engine curve: wakeup on fully subdivided
/// cliques at `n ≈ 10³..10⁶`, tree-advice vs no-advice flooding, dispatched
/// through the supervised grid pipeline.
///
/// Every cell is a synchronous, fault-free, untraced run of a
/// forward-once scheme, so the curve measures the flat-CSR graph and the
/// engine's frontier kernel (DESIGN.md §11), not the per-message engine:
/// the `n = 10⁶` cell (under `--large`) must finish in seconds, with
/// `n − 1` messages on the tree scheme. The per-message engine has no
/// large-`n` guard here; its zero per-delivery allocation is asserted by
/// the engine tests.
///
/// # Errors
///
/// Propagates artifact-emission failures and interrupted sweeps.
pub fn scale_curve(opts: &ExpOptions) -> Result<String, String> {
    let mut report =
        Report::new("SCALE — engine scaling on subdivided cliques (Theorem 2.2 graphs)");
    let spec = scale_spec(opts.large);
    let grid = CellGrid::from_spec(&spec)?;
    let mut meta = Vec::new();
    for b in scale_orders(opts.large) {
        let nodes = subdivided_clique_nodes(b);
        meta.push(("tree-wakeup", b, nodes));
        meta.push(("flood", b, nodes));
    }
    let sweep = grid.dispatch(&spec, opts);
    if sweep.interrupted {
        return Err(format!(
            "scale interrupted mid-sweep; resume from the journal to finish ({})",
            sweep.summary()
        ));
    }
    let reports = sweep.reports();
    emit_json(opts, "scale", grid.to_json(&reports))?;

    let mut table = Table::new([
        "scheme",
        "clique b",
        "n",
        "oracle bits",
        "messages",
        "steps",
        "steps bucket",
    ]);
    let mut ok = true;
    for ((scheme, b, nodes), r) in meta.iter().zip(&reports) {
        let out = r.outcome().expect("scale cells run");
        ok &= out.completed
            && match *scheme {
                "tree-wakeup" => out.metrics.messages == *nodes as u64 - 1,
                _ => out.metrics.messages >= *nodes as u64 - 1,
            };
        table.row([
            scheme.to_string(),
            b.to_string(),
            nodes.to_string(),
            out.oracle_bits.to_string(),
            out.metrics.messages.to_string(),
            out.metrics.steps.to_string(),
            decade_bucket(out.metrics.steps),
        ]);
    }
    report.para(if ok {
        "Every cell completed: tree advice holds the wakeup cost at exactly \
         `n − 1` messages while advice-free flooding pays `Θ(m)`, and both \
         curves ride the flat-CSR/arena engine with zero per-delivery \
         allocation. Steps are bucketed by decade as the deterministic \
         wall-time proxy (wall clock never enters artifacts)."
    } else {
        "**DEVIATION**: a scale cell failed to complete or broke its \
         message bound."
    });
    report.block(&table.to_markdown());
    for warning in &sweep.warnings {
        report.para(&format!("_warning: {warning}_"));
    }
    report.para(&format!("_{}_", sweep.summary()));
    Ok(report.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t10_job_identity_is_unchanged() {
        // A spec's digest is its job id in the sweep service; specs that
        // never set a scheduling knob keep the id they had when the spec
        // format still carried one.
        assert_eq!(t10_spec().digest(), 0x4d57_1f79_c313_81b1);
    }

    #[test]
    fn cheap_experiments_render_without_deviations() {
        // The full suite runs in release via `oraclesize experiments` and
        // is recorded in EXPERIMENTS.md; here we smoke-test the fast ones.
        for id in ["t5", "t9", "t12", "t20", "f3"] {
            let out = run_experiment(id, &ExpOptions::default()).expect("experiment runs");
            assert!(out.starts_with("## "), "{id}: missing heading");
            assert!(out.len() > 200, "{id}: suspiciously short report");
            assert!(!out.contains("DEVIATION"), "{id}: reported a deviation");
        }
    }

    #[test]
    fn grid_experiments_render_identically_across_thread_counts() {
        for id in ["t10", "t20", "scale"] {
            let serial = run_experiment(id, &ExpOptions::default());
            // 16 threads oversubscribes CI machines — that is the point:
            // workers genuinely interleave, and the rendered report
            // (which excludes scheduling telemetry) must not care.
            for threads in [2, 8, 16] {
                let opts = ExpOptions {
                    threads,
                    ..Default::default()
                };
                assert_eq!(
                    serial,
                    run_experiment(id, &opts),
                    "{id} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn interrupted_grid_experiments_refuse_to_publish() {
        let opts = ExpOptions {
            chaos: oraclesize_runtime::ChaosPlan::new().die_before(3),
            ..Default::default()
        };
        let err = run_experiment("t10", &opts).unwrap_err();
        assert!(err.contains("interrupted"), "{err}");
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_id_panics() {
        let _ = run_experiment("t99", &ExpOptions::default());
    }
}
