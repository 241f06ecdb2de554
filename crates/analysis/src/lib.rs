//! Experiment analysis: model fitting, summary statistics, and table
//! rendering for EXPERIMENTS.md.
//!
//! The reproduction criterion for the paper's asymptotic statements is
//! *shape*: oracle sizes that are `Θ(n log n)` must fit `a·n·log2(n) + b`
//! markedly better than `a·n + b`, and so on. [`fit`] provides the
//! least-squares machinery, [`stats`] the summary statistics, and
//! [`table`] the Markdown/CSV rendering used by `oraclesize experiments`.

#![warn(missing_docs)]

pub mod fit;
pub mod stats;
pub mod table;

pub use fit::{best_model, fit_model, Fit, Model};
pub use table::Table;
