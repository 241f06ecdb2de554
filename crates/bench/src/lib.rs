//! The experiment harness: regenerates every table and figure of
//! EXPERIMENTS.md (the per-theorem experiment index defined in DESIGN.md §3).
//!
//! The paper is a theory paper with no numbered tables or figures; its
//! "evaluation" is the theorem set. Each experiment below regenerates the
//! measurable content of one theorem/claim/remark:
//!
//! | id | reproduces |
//! |----|------------|
//! | T1 | Thm 2.1 — wakeup oracle size is `Θ(n log n)` |
//! | T2 | Thm 2.1 — wakeup message complexity is exactly `n − 1` |
//! | T3 | Claim 3.1 — light-tree contribution `≤ 4n`, others exceed it |
//! | T4 | Thm 3.1 — broadcast oracle `≤ 8n` bits, Scheme B `≤ 3(n−1)` msgs |
//! | T5 | Lemma 2.1 — adversary forces `≥ log2(|I|/|X|!)` probes |
//! | T6 | Thm 2.2 — starved advice forces superlinear wakeup messages |
//! | T7 | Thm 2.2 — the `P/Q` pigeonhole table |
//! | T8 | Thm 3.2 / Claim 3.3 — clique gadgets, empirical + counting |
//! | T9 | Remark after Thm 2.2 — the `c/(c+1)` threshold |
//! | T10 | §1.3 — robustness matrix (async × anonymous × 0-bit messages) |
//! | T11 | encoding ablation (continuation-pairs vs Elias vs unary) |
//! | T12 | §1.2 — gossip with tree advice |
//! | T13 | §1.1 — what radius-ρ knowledge of the network costs in bits |
//! | T14 | §4 — exploration by a mobile agent with advice |
//! | T15 | §1.2 — BFS-tree and MST construction with advice |
//! | T16 | §4 — knowledge vs messages vs time |
//! | T17 | port-numbering sensitivity of the oracle sizes |
//! | T18 | §1.1 — leader election: a flag bit + tree vs FloodMax |
//! | T19 | §4 — spanner construction: knowledge vs stretch |
//! | T20 | fault injection: brittle vs self-healing schemes |
//! | F1 | size-vs-n series with growth-model fits (CSV) |
//! | F2 | messages-vs-n series (CSV) |
//! | F3 | advice-budget trade-off curve (CSV) |
//! | SCALE | Thm 2.2 graphs — wakeup on subdivided cliques up to `n ≈ 10⁶` |
//!
//! Run `cargo run --release --bin oraclesize -- experiments all` to
//! regenerate everything, or pass a list of ids (`t1 t7 f2`); the ids and
//! runners live in [`experiments::EXPERIMENTS`]. Grid experiments (T10,
//! T20, SCALE) honor `--threads N` (parallel dispatch through
//! `oraclesize-runtime`) and `--json-dir DIR` (deterministic
//! `BENCH_*.json` artifacts); output is byte-identical at any thread
//! count.

#![warn(missing_docs)]

pub mod experiments;
pub mod grid;
pub mod harness;
