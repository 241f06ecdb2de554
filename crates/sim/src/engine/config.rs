//! Execution configuration: task rules, delivery model, and the builder.

use crate::faults::FaultPlan;
use crate::scheduler::SchedulerKind;

/// Which communication task's rules the engine enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TaskMode {
    /// Broadcast: every node may transmit spontaneously.
    #[default]
    Broadcast,
    /// Wakeup: a node other than the source must stay silent until it has
    /// received a message carrying the source message. Any earlier send is
    /// a [`SimError`](crate::engine::SimError)`::WakeupViolation`.
    Wakeup,
}

/// Execution configuration.
///
/// The default is synchronous broadcast, no message-size limit,
/// identities visible, and no faults. Configurations are
/// built fluently from a base constructor — fields stay readable, but the
/// struct is `#[non_exhaustive]`, so construction outside this crate goes
/// through the `#[must_use]` builder methods:
///
/// ```
/// use oraclesize_sim::engine::SimConfig;
/// use oraclesize_sim::scheduler::SchedulerKind;
///
/// let config = SimConfig::wakeup()
///     .with_scheduler(SchedulerKind::Lifo)
///     .with_max_steps(100_000);
/// assert_eq!(config.scheduler, Some(SchedulerKind::Lifo));
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SimConfig {
    /// Task rules to enforce.
    pub mode: TaskMode,
    /// The delivery model. `None`: round-based synchronous delivery (all
    /// messages sent in round `r` arrive in round `r+1`). `Some(kind)`:
    /// asynchronous — the scheduler picks each next delivery.
    pub scheduler: Option<SchedulerKind>,
    /// Abort after this many deliveries
    /// ([`SimError::StepLimit`](crate::engine::SimError::StepLimit)); guards
    /// against non-quiescent protocols.
    pub max_steps: u64,
    /// If set, any payload larger than this many bits aborts the run
    /// ([`SimError::MessageTooLarge`](crate::engine::SimError::MessageTooLarge))
    /// — the bounded-message-size model.
    pub max_message_bits: Option<u64>,
    /// Erase node identities (`NodeView::id = None`) — the anonymous model
    /// of §1.3.
    pub anonymous: bool,
    /// Faults to inject (see [`crate::faults`]). The default plan is inert:
    /// the engine then behaves bit-for-bit as a fault-free run.
    pub faults: FaultPlan,
    /// How many times the engine polls
    /// [`NodeBehavior::on_quiescence`](crate::protocol::NodeBehavior::on_quiescence)
    /// after the network drains before declaring the run over. Each poll
    /// that produces sends resumes delivery; schemes that never speak at
    /// quiescence terminate after one silent poll regardless of this limit.
    pub max_quiescence_polls: u32,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            mode: TaskMode::Broadcast,
            scheduler: None,
            max_steps: 10_000_000,
            max_message_bits: None,
            anonymous: false,
            faults: FaultPlan::default(),
            max_quiescence_polls: 8,
        }
    }
}

impl SimConfig {
    /// Synchronous broadcast — the same as [`Default`], spelled as a base
    /// for builder chains.
    pub fn broadcast() -> Self {
        SimConfig::default()
    }

    /// Synchronous wakeup configuration.
    pub fn wakeup() -> Self {
        SimConfig::default().with_mode(TaskMode::Wakeup)
    }

    /// Sets the task rules to enforce.
    #[must_use]
    pub fn with_mode(mut self, mode: TaskMode) -> Self {
        self.mode = mode;
        self
    }

    /// Switches to asynchronous delivery under `scheduler`.
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = Some(scheduler);
        self
    }

    /// Sets the delivery budget.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Bounds every payload to `bits` bits.
    #[must_use]
    pub fn with_max_message_bits(mut self, bits: u64) -> Self {
        self.max_message_bits = Some(bits);
        self
    }

    /// Hides node identities (the anonymous model).
    #[must_use]
    pub fn with_anonymous(mut self, anonymous: bool) -> Self {
        self.anonymous = anonymous;
        self
    }

    /// Installs a fault plan.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the quiescence-poll budget.
    #[must_use]
    pub fn with_quiescence_polls(mut self, polls: u32) -> Self {
        self.max_quiescence_polls = polls;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes() {
        let cfg = SimConfig::wakeup()
            .with_scheduler(SchedulerKind::Lifo)
            .with_max_steps(5)
            .with_max_message_bits(7)
            .with_anonymous(true)
            .with_quiescence_polls(3);
        assert_eq!(cfg.mode, TaskMode::Wakeup);
        assert_eq!(cfg.scheduler, Some(SchedulerKind::Lifo));
        assert_eq!(cfg.max_steps, 5);
        assert_eq!(cfg.max_message_bits, Some(7));
        assert!(cfg.anonymous);
        assert_eq!(cfg.max_quiescence_polls, 3);
    }
}
