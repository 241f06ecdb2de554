//! The network state machine: send validation, accounting, fault
//! injection, and the zero-clone, zero-allocation delivery hot path.
//!
//! No delivery allocates. The root package's `tests/engine_allocs.rs`
//! checks that by counting the engine's allocations under a counting
//! global allocator (DESIGN.md §12): a run may allocate a constant number
//! of times, once per node with non-empty advice, once per duplicated copy
//! of a non-empty payload and once per bit-flip fault, and nothing more.

use std::collections::VecDeque;

use oraclesize_bits::{BitSet, BitString};
use oraclesize_graph::{NodeId, Port, PortGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engine::config::{SimConfig, TaskMode};
use crate::engine::outcome::SimError;
use crate::faults::AdviceAdversary;
use crate::metrics::RunMetrics;
use crate::oracle::Advice;
use crate::protocol::{Message, Outgoing};
use crate::trace::{DropFault, MsgId, Recorder, TraceEvent, TraceSink};

/// An in-flight message.
pub(crate) struct InFlight {
    pub msg: MsgId,
    pub from: NodeId,
    pub to: NodeId,
    pub arrival_port: Port,
    pub message: Message,
}

/// Slab arena for in-flight messages.
///
/// The delivery queues hold `u32` slot indices, not [`InFlight`] values:
/// payloads are moved into a slot once at [`insert`](MsgSlab::insert) and
/// never move again until [`take`](MsgSlab::take) hands them to the
/// receiver. Freed slots are recycled through a free list, so a run's
/// steady state performs no per-delivery heap allocation at all.
///
/// [`enqueue`](NetState::enqueue) bulk-[`reserve`](MsgSlab::reserve)s one
/// slot per send up front; that growth is amortised (geometric `Vec`
/// growth) and deliberately *not* counted. What `queue_allocs` counts is
/// an insert that outruns the prepared free list and forces a fresh slot —
/// on a fault-free run that can never happen (one send, one slot), so
/// engine tests pin `queue_allocs == 0` the same way they pin
/// `payload_copies == 0`. Only the extra deliveries a duplication fault
/// manufactures can trip it. `tests/engine_allocs.rs` counts the real
/// allocations: an allocation per insert, take or reserve fails it.
#[derive(Default)]
pub(crate) struct MsgSlab {
    slots: Vec<Option<InFlight>>,
    free: Vec<u32>,
    /// Slots created outside [`reserve`](MsgSlab::reserve) — forced,
    /// per-delivery growth. Reported as
    /// [`FaultCounts::queue_allocs`](crate::faults::FaultCounts::queue_allocs).
    pub queue_allocs: u64,
}

impl MsgSlab {
    /// Pre-extends the free list so the next `extra` inserts all reuse
    /// prepared slots. Bulk, amortised growth — not counted.
    pub fn reserve(&mut self, extra: usize) {
        let need = extra.saturating_sub(self.free.len());
        self.slots.reserve(need);
        self.free.reserve(need);
        for _ in 0..need {
            let idx = self.slots.len() as u32;
            self.slots.push(None);
            self.free.push(idx);
        }
    }

    /// Stores one in-flight message, returning its slot index. Running
    /// past the prepared free list forces a fresh slot, counted in
    /// [`queue_allocs`](MsgSlab::queue_allocs).
    pub fn insert(&mut self, m: InFlight) -> u32 {
        match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = Some(m);
                idx
            }
            None => {
                self.queue_allocs += 1;
                let idx = self.slots.len() as u32;
                self.slots.push(Some(m));
                idx
            }
        }
    }

    /// Removes and returns the message in slot `idx`, recycling the slot.
    /// `None` for a vacant or out-of-range slot.
    pub fn take(&mut self, idx: u32) -> Option<InFlight> {
        let m = self.slots.get_mut(idx as usize)?.take();
        if m.is_some() {
            // The matching reserve already made room for this index, so on a
            // fault-free run the free list never grows here.
            self.free.push(idx);
        }
        m
    }

    /// Whether slot `idx` holds a message carrying the source bit —
    /// the starving scheduler's predicate, answered without touching the
    /// payload.
    pub fn carries_source(&self, idx: u32) -> bool {
        self.slots
            .get(idx as usize)
            .and_then(|s| s.as_ref())
            .is_some_and(|m| m.message.carries_source)
    }
}

/// Everything the engine mutates while messages are in flight: node status
/// (informed, crashed, send budgets), the in-flight slab, accounting, the
/// fault RNG, and the trace recorder.
///
/// Node status lives in struct-of-arrays form — packed [`BitSet`]s for the
/// two boolean planes, a flat `Vec<u64>` for send budgets — so a
/// million-node run costs two 125 kB bitsets, not two megabyte-sized
/// `Vec<bool>`s (DESIGN.md §11).
///
/// Splitting this off the driver loop lets [`enqueue`](NetState::enqueue)
/// borrow the whole machine mutably while the driver keeps its own handles
/// on the delivery queues.
pub(crate) struct NetState<'a> {
    g: &'a PortGraph,
    config: &'a SimConfig,
    /// Which nodes have the source message.
    pub informed: BitSet,
    /// Which nodes have crash-stopped.
    pub crashed: BitSet,
    sends_made: Vec<u64>,
    /// In-flight payload storage; the delivery queues hold indices into it.
    pub slab: MsgSlab,
    /// Accounting, updated per accepted send.
    pub metrics: RunMetrics,
    fault_rng: Option<StdRng>,
    /// Next message id: assigned serially in enqueue order, so ids are a
    /// deterministic function of the run, not of any surrounding batch.
    next_msg: MsgId,
    /// Trace emission (no-op when the sink is disabled).
    pub rec: Recorder<'a>,
}

impl<'a> NetState<'a> {
    /// Fresh state: only the source is informed; zero-budget crash nodes
    /// are dead from the start. An inert fault plan takes no RNG and the
    /// run is bit-for-bit identical to a fault-free execution.
    pub fn new(
        g: &'a PortGraph,
        config: &'a SimConfig,
        source: NodeId,
        sink: &'a mut dyn TraceSink,
    ) -> Self {
        let n = g.num_nodes();
        let plan = &config.faults;
        let fault_rng = if plan.is_inert() {
            None
        } else {
            Some(StdRng::seed_from_u64(plan.seed))
        };
        let mut informed = BitSet::new(n);
        informed.set(source, true);
        let mut crashed = BitSet::new(n);
        for (&v, &budget) in &plan.crashes {
            if budget == 0 && v < n {
                crashed.set(v, true);
            }
        }
        NetState {
            g,
            config,
            informed,
            crashed,
            sends_made: vec![0; n],
            slab: MsgSlab::default(),
            metrics: RunMetrics::default(),
            fault_rng,
            next_msg: 0,
            rec: Recorder::new(sink),
        }
    }

    /// Applies the advice-corruption adversary, returning the mutated
    /// advice if the plan has an active fault RNG and an adversary. Must be
    /// called before any [`enqueue`](NetState::enqueue) so the RNG stream
    /// matches the documented draw order (advice first, then in-flight
    /// faults). [`AdviceAdversary::None`] draws nothing, so skipping it
    /// (and the copy of every string) leaves that stream unchanged; an
    /// inert adversary such as `FlipBits { prob: 0 }` still draws.
    pub fn corrupt_advice(&mut self, advice: &Advice) -> Option<Vec<BitString>> {
        if self.config.faults.advice == AdviceAdversary::None {
            return None;
        }
        let rng = self.fault_rng.as_mut()?;
        let mut mutated: Vec<BitString> = advice.iter().cloned().collect();
        self.metrics.faults.advice_mutations = self.config.faults.advice.corrupt(&mut mutated, rng);
        Some(mutated)
    }

    /// Removes the in-flight message in slab slot `idx` for delivery.
    pub fn take_in_flight(&mut self, idx: u32) -> Option<InFlight> {
        self.slab.take(idx)
    }

    /// Enqueues `sends` from node `v` onto `out`, validating rules,
    /// accounting, and injecting in-flight faults. A crashed node's sends
    /// are suppressed (it is dead, so they are not wakeup violations
    /// either); protocol errors from live nodes still abort the run even
    /// under faults.
    ///
    /// This is the delivery hot path: each accepted payload is *moved*
    /// into a slab slot and `out` receives only its `u32` index. The only
    /// copies are the extra deliveries a duplication fault manufactures,
    /// counted in
    /// [`FaultCounts::payload_copies`](crate::faults::FaultCounts::payload_copies);
    /// the only uncovered slot growth is likewise duplication-only,
    /// counted in
    /// [`FaultCounts::queue_allocs`](crate::faults::FaultCounts::queue_allocs).
    /// Trace emission is likewise free when off: event construction sits
    /// behind the recorder's cached `on` flag and events are stack-only.
    /// `tests/engine_allocs.rs` fails if this function allocates per call,
    /// per send or per copy of an empty payload.
    pub fn enqueue(
        &mut self,
        v: NodeId,
        sends: Vec<Outgoing>,
        out: &mut VecDeque<u32>,
    ) -> Result<(), SimError> {
        if sends.is_empty() {
            return Ok(());
        }
        if self.crashed.get(v) {
            self.metrics.faults.suppressed_sends += sends.len() as u64;
            return Ok(());
        }
        if self.config.mode == TaskMode::Wakeup && !self.informed.get(v) {
            return Err(SimError::WakeupViolation { node: v });
        }
        self.slab.reserve(sends.len());
        for s in sends {
            if s.port >= self.g.degree(v) {
                return Err(SimError::PortOutOfRange {
                    node: v,
                    port: s.port,
                    degree: self.g.degree(v),
                });
            }
            let bits = s.message.size_bits() as u64;
            if let Some(limit) = self.config.max_message_bits {
                if bits > limit {
                    return Err(SimError::MessageTooLarge {
                        node: v,
                        bits,
                        limit,
                    });
                }
            }
            if self.crashed.get(v) {
                // The crash budget ran out earlier in this batch.
                self.metrics.faults.suppressed_sends += 1;
                continue;
            }
            let (to, arrival_port) = self.g.neighbor_via(v, s.port);
            let mut message = s.message;
            message.carries_source = self.informed.get(v);
            self.metrics.messages += 1;
            if message.carries_source {
                self.metrics.informed_messages += 1;
            }
            self.metrics.payload_bits += bits;
            self.metrics.max_message_bits = self.metrics.max_message_bits.max(bits);
            self.sends_made[v] += 1;
            if self
                .config
                .faults
                .crashes
                .get(&v)
                .is_some_and(|&k| self.sends_made[v] >= k)
            {
                self.crashed.set(v, true);
            }
            let msg = self.next_msg;
            self.next_msg += 1;
            self.rec.emit(TraceEvent::Enqueue {
                msg,
                from: v,
                to,
                bits,
                carries_source: message.carries_source,
            });
            // In-flight faults: drop, duplicate, or corrupt the payload.
            let mut copies: u32 = 1;
            if let Some(rng) = self.fault_rng.as_mut() {
                if rng.gen_bool(self.config.faults.drop_prob.clamp(0.0, 1.0)) {
                    self.metrics.faults.dropped += 1;
                    copies = 0;
                    self.rec.emit(TraceEvent::Drop {
                        msg,
                        from: v,
                        to,
                        fault: DropFault::Lost,
                    });
                } else if rng.gen_bool(self.config.faults.duplicate_prob.clamp(0.0, 1.0)) {
                    self.metrics.faults.duplicated += 1;
                    copies = 2;
                }
            }
            // Zero-clone hot path: the last delivery takes ownership of
            // the payload; only the extra deliveries of a duplication
            // fault are cloned (and counted). Clones go first so the RNG
            // draw order (one flip check per delivered copy) matches the
            // committed artifacts. Each extra copy gets its own message id
            // (fresh `Enqueue` event): it is a distinct in-flight delivery
            // with its own fate.
            for _ in 1..copies {
                self.metrics.faults.payload_copies += 1;
                let copy_id = self.next_msg;
                self.next_msg += 1;
                self.rec.emit(TraceEvent::Enqueue {
                    msg: copy_id,
                    from: v,
                    to,
                    bits,
                    carries_source: message.carries_source,
                });
                let delivered = self.maybe_flip(copy_id, message.clone());
                let slot = self.slab.insert(InFlight {
                    msg: copy_id,
                    from: v,
                    to,
                    arrival_port,
                    message: delivered,
                });
                out.push_back(slot);
            }
            if copies > 0 {
                let delivered = self.maybe_flip(msg, message);
                let slot = self.slab.insert(InFlight {
                    msg,
                    from: v,
                    to,
                    arrival_port,
                    message: delivered,
                });
                out.push_back(slot);
            }
        }
        Ok(())
    }

    /// Applies the bit-flip fault to one delivered copy: with the plan's
    /// probability, one uniformly chosen payload bit is inverted in place,
    /// counted in
    /// [`FaultCounts::payload_flips`](crate::faults::FaultCounts::payload_flips).
    fn maybe_flip(&mut self, msg: MsgId, mut message: Message) -> Message {
        if let Some(rng) = self.fault_rng.as_mut() {
            if !message.payload.is_empty()
                && rng.gen_bool(self.config.faults.bit_flip_prob.clamp(0.0, 1.0))
            {
                let idx = rng.gen_range(0..message.payload.len());
                message.payload.toggle(idx);
                self.metrics.faults.payload_flips += 1;
                self.rec.emit(TraceEvent::Corrupt {
                    msg,
                    bit: idx as u64,
                });
            }
        }
        message
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(msg: MsgId) -> InFlight {
        InFlight {
            msg,
            from: 0,
            to: 1,
            arrival_port: 0,
            message: Message::empty(),
        }
    }

    #[test]
    fn reserved_inserts_are_not_counted() {
        let mut slab = MsgSlab::default();
        slab.reserve(3);
        let a = slab.insert(dummy(0));
        let b = slab.insert(dummy(1));
        let c = slab.insert(dummy(2));
        assert_eq!(slab.queue_allocs, 0);
        assert_eq!(slab.take(b).map(|m| m.msg), Some(1));
        assert_eq!(slab.take(a).map(|m| m.msg), Some(0));
        assert_eq!(slab.take(c).map(|m| m.msg), Some(2));
    }

    #[test]
    fn unreserved_insert_forces_growth() {
        let mut slab = MsgSlab::default();
        slab.reserve(1);
        slab.insert(dummy(0));
        slab.insert(dummy(1)); // outruns the reserve: forced slot
        assert_eq!(slab.queue_allocs, 1);
    }

    #[test]
    fn freed_slots_are_recycled() {
        let mut slab = MsgSlab::default();
        slab.reserve(1);
        let a = slab.insert(dummy(0));
        assert!(slab.take(a).is_some());
        let b = slab.insert(dummy(1));
        assert_eq!(a, b, "freed slot must be reused");
        assert_eq!(slab.queue_allocs, 0);
    }

    #[test]
    fn take_vacant_or_out_of_range_is_none() {
        let mut slab = MsgSlab::default();
        slab.reserve(2);
        assert!(slab.take(0).is_none(), "vacant slot");
        assert!(slab.take(99).is_none(), "out of range");
        let a = slab.insert(dummy(7));
        assert!(slab.take(a).is_some());
        assert!(slab.take(a).is_none(), "double take");
    }

    #[test]
    fn carries_source_reads_without_removing() {
        let mut slab = MsgSlab::default();
        slab.reserve(2);
        let mut m = dummy(0);
        m.message.carries_source = true;
        let a = slab.insert(m);
        let b = slab.insert(dummy(1));
        assert!(slab.carries_source(a));
        assert!(!slab.carries_source(b));
        assert!(!slab.carries_source(42), "out of range is uninformed");
        assert!(slab.take(a).is_some(), "predicate must not remove");
    }

    #[test]
    fn reserve_tops_up_only_the_shortfall() {
        let mut slab = MsgSlab::default();
        slab.reserve(4);
        let a = slab.insert(dummy(0));
        slab.take(a);
        // 4 free slots remain; reserving 4 again must create none.
        let before = slab.slots.len();
        slab.reserve(4);
        assert_eq!(slab.slots.len(), before);
        for i in 0..4 {
            slab.insert(dummy(i));
        }
        assert_eq!(slab.queue_allocs, 0);
    }
}
