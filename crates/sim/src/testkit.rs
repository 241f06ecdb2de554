//! Shared test support used by unit, property, and integration tests
//! across the workspace.
//!
//! These helpers are deliberately tiny — the point is that every crate
//! spells "the trivial oracle" the same way instead of redefining it.

use crate::oracle::Advice;
use crate::protocol::{NodeBehavior, NodeView, Protocol};

/// Advice for the trivial (empty) oracle: `n` empty strings, total size 0
/// bits. The advice every oracle-free baseline runs with.
pub fn no_advice(n: usize) -> Advice {
    Advice::empty(n)
}

/// A protocol behind a wrapper that forwards only
/// [`create`](Protocol::create). The wrapper has no
/// [`forward_once`](Protocol::forward_once) rule, so every run of it takes
/// the engine's per-message path — the reference the frontier kernel is
/// tested against.
#[derive(Clone, Copy)]
pub struct PerMessage<'a>(pub &'a dyn Protocol);

impl Protocol for PerMessage<'_> {
    fn create(&self, view: NodeView) -> Box<dyn NodeBehavior> {
        self.0.create(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_advice_is_empty_per_node() {
        let a = no_advice(3);
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|s| s.is_empty()));
    }
}
