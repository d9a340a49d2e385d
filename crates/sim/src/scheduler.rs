//! The pending-event queue of the discrete-event engine.
//!
//! Events reach a [`Scheduler`] two ways. [`Scheduler::schedule`] queues
//! one more event; [`Scheduler::arm`] sets one of a few fixed *timer
//! slots*, each holding at most one pending event, for what recurs or is
//! superseded rather than accumulated: a periodic tick, which re-arms
//! its own slot, or a prediction a newer one replaces. Both draw their
//! sequence number from one counter, and [`Scheduler::pop`] delivers the
//! smaller `(at, seq)` of the queue's head and the earliest armed slot,
//! so the delivery order is exactly the order of a single queue in which
//! re-arming a slot removes its pending entry and queues the new one.

use std::cmp::Ordering;

use serde::Serialize;

use crate::bucketq::{BucketQueue, QueueStats, RadixKey};
use crate::time::SimTime;

/// The number of timer slots of a [`Scheduler`].
pub const TIMER_SLOTS: usize = 3;

/// A monotonically increasing sequence number breaks ties between events
/// scheduled for the same instant, making execution order deterministic
/// (FIFO among simultaneous events).
#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl<E> RadixKey for Entry<E> {
    fn radix(&self) -> u64 {
        self.at.as_micros()
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Work counters of one run's event queue, next to
/// [`KernelStats`](crate::flow::KernelStats): how much went through the
/// queue, how deep it got, and how much bypassed it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SchedulerStats {
    /// Events scheduled into the queue.
    pub pushes: u64,
    /// Events popped from the queue.
    pub pops: u64,
    /// Deepest the queue has been.
    pub peak_depth: u64,
    /// Events delivered from a timer slot ([`Scheduler::arm`]) instead
    /// of the queue.
    pub timers: u64,
    /// Events the engine took from the model's input lane
    /// ([`Model::pop_input`](crate::engine::Model::pop_input)) instead
    /// of the queue; counted by the
    /// [`Simulation`](crate::engine::Simulation), zero on a bare
    /// scheduler.
    pub inputs: u64,
    /// What the queue moved between its buckets at depth.
    pub queue: QueueStats,
}

/// A time-ordered queue of pending events, plus [`TIMER_SLOTS`] timer
/// slots (see the [module docs](self)).
///
/// Events due at the same instant are delivered in the order they were
/// scheduled or armed.
///
/// # Examples
///
/// ```
/// use vod_sim::scheduler::Scheduler;
/// use vod_sim::time::SimTime;
///
/// let mut s = Scheduler::new();
/// s.schedule(SimTime::from_secs(2), "late");
/// s.schedule(SimTime::from_secs(1), "early");
/// s.arm(0, SimTime::from_secs(1), "tick");
/// // Re-arming replaces what the slot held.
/// s.arm(0, SimTime::from_secs(3), "tock");
/// assert_eq!(s.pop(), Some((SimTime::from_secs(1), "early")));
/// assert_eq!(s.pop(), Some((SimTime::from_secs(2), "late")));
/// assert_eq!(s.pop(), Some((SimTime::from_secs(3), "tock")));
/// assert_eq!(s.pop(), None);
/// ```
#[derive(Debug)]
pub struct Scheduler<E> {
    queue: BucketQueue<Entry<E>>,
    /// The pending event of each timer slot, if armed.
    timers: [Option<Entry<E>>; TIMER_SLOTS],
    /// `(at, seq, slot)` of the earliest armed slot: rebuilt when a slot
    /// is armed or delivered, so a pop compares one key.
    next_timer: Option<(SimTime, u64, usize)>,
    next_seq: u64,
    stats: SchedulerStats,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Scheduler {
            queue: BucketQueue::new(),
            timers: std::array::from_fn(|_| None),
            next_timer: None,
            next_seq: 0,
            stats: SchedulerStats::default(),
        }
    }

    /// Schedules `event` to fire at instant `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Entry { at, seq, event });
        self.stats.pushes += 1;
        self.stats.peak_depth = self.stats.peak_depth.max(self.queue.len() as u64);
    }

    /// Arms timer `slot` to deliver `event` at `at`, discarding whatever
    /// the slot still held. The event takes the next sequence number, as
    /// [`Scheduler::schedule`] would give it.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not below [`TIMER_SLOTS`].
    #[expect(
        clippy::disallowed_macros,
        reason = "documented panic: a slot beyond `TIMER_SLOTS` means the model is broken"
    )]
    pub fn arm(&mut self, slot: usize, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let Some(held) = self.timers.get_mut(slot) else {
            panic!("timer slot {slot} out of range (a scheduler has {TIMER_SLOTS})");
        };
        *held = Some(Entry { at, seq, event });
        self.next_timer = self.earliest_timer();
    }

    /// `(at, seq, slot)` of the earliest armed slot.
    fn earliest_timer(&self) -> Option<(SimTime, u64, usize)> {
        let armed = self.timers.iter().enumerate();
        let keys = armed.filter_map(|(slot, held)| held.as_ref().map(|e| (e.at, e.seq, slot)));
        keys.min()
    }

    /// Removes and returns the earliest pending event, queued or armed.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.next_timer.is_some() {
            return self.pop_armed();
        }
        let entry = self.queue.pop()?;
        self.stats.pops += 1;
        Some((entry.at, entry.event))
    }

    /// [`Scheduler::pop`] with a slot armed, kept out of line so that a
    /// bare queue's pop stays small enough to inline.
    #[inline(never)]
    fn pop_armed(&mut self) -> Option<(SimTime, E)> {
        self.pop_by(SimTime::from_micros(u64::MAX))
    }

    /// Removes and returns the earliest pending event, queued or armed,
    /// if it is due by `by`: one look at the queue's head, which is
    /// taken in the same step if it goes first and is due, and one at
    /// the earliest armed slot.
    pub fn pop_by(&mut self, by: SimTime) -> Option<(SimTime, E)> {
        let timer = self.next_timer;
        let mut timer_first = false;
        let queued = self.queue.pop_if(|head| {
            timer_first = timer.is_some_and(|(at, seq, _)| (at, seq) < (head.at, head.seq));
            !timer_first && head.at <= by
        });
        if let Some(entry) = queued {
            self.stats.pops += 1;
            return Some((entry.at, entry.event));
        }
        match timer {
            Some((at, _, slot)) if at <= by && (timer_first || self.queue.is_empty()) => {
                self.deliver_timer(slot)
            }
            _ => None,
        }
    }

    /// Empties timer `slot` and hands over its event.
    #[inline(never)]
    fn deliver_timer(&mut self, slot: usize) -> Option<(SimTime, E)> {
        let entry = self.timers.get_mut(slot)?.take()?;
        self.next_timer = self.earliest_timer();
        self.stats.timers += 1;
        Some((entry.at, entry.event))
    }

    /// Work counters since creation (`inputs` is the engine's to fill).
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            queue: self.queue.stats(),
            ..self.stats
        }
    }

    /// The instant of the earliest pending event, queued or armed, if
    /// any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let queued = self.queue.peek().map(|e| e.at);
        let armed = self.next_timer.map(|(at, ..)| at);
        match (queued, armed) {
            (Some(queued), Some(armed)) => Some(queued.min(armed)),
            (queued, armed) => queued.or(armed),
        }
    }

    /// Number of pending events: queued ones plus armed slots.
    pub fn len(&self) -> usize {
        self.queue.len() + self.timers.iter().filter(|held| held.is_some()).count()
    }

    /// Returns true if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty() && self.next_timer.is_none()
    }

    /// Discards all pending events, armed slots included.
    pub fn clear(&mut self) {
        self.queue.clear();
        self.timers = std::array::from_fn(|_| None);
        self.next_timer = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn orders_by_time() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_secs(3), 3);
        s.schedule(SimTime::from_secs(1), 1);
        s.schedule(SimTime::from_secs(2), 2);
        let order: Vec<i32> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut s = Scheduler::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            s.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut s = Scheduler::new();
        assert!(s.is_empty());
        assert_eq!(s.peek_time(), None);
        s.schedule(SimTime::from_secs(5), ());
        s.schedule(SimTime::from_secs(4), ());
        assert_eq!(s.len(), 2);
        assert_eq!(s.peek_time(), Some(SimTime::from_secs(4)));
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn stats_count_pushes_pops_and_peak_depth() {
        let mut s = Scheduler::new();
        for secs in [3, 1, 2] {
            s.schedule(SimTime::from_secs(secs), ());
        }
        s.pop();
        s.schedule(SimTime::from_secs(4), ());
        while s.pop().is_some() {}
        let expected = SchedulerStats {
            pushes: 4,
            pops: 4,
            peak_depth: 3,
            timers: 0,
            inputs: 0,
            queue: QueueStats::default(),
        };
        assert_eq!(s.stats(), expected);
    }

    /// `clear` at depth leaves a queue that is shallow again, not one
    /// whose buckets still expect the old horizon: a quiet day's hold
    /// pattern after it pops in time order, FIFO on ties.
    #[test]
    fn clear_at_depth_then_a_shallow_hold_pattern_pops_in_order() {
        let mut lcg: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut jitter_us = move || {
            lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            lcg >> 44
        };
        let mut s = Scheduler::new();
        for n in 0..10_000u64 {
            s.schedule(SimTime::from_micros(1_000_000 + jitter_us()), n);
        }
        for _ in 0..3_000 {
            s.pop();
        }
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.peek_time(), None);
        assert_eq!(s.pop(), None);
        // Earlier than anything the cleared queue held.
        for n in 0..150u64 {
            s.schedule(SimTime::from_micros(jitter_us() % 1_000), n);
        }
        let moved = s.stats().queue.moved;
        let mut last = (SimTime::ZERO, 0);
        for n in 150..5_150u64 {
            let (at, event) = s.pop().unwrap();
            assert!(
                (at, event) > last,
                "{at} #{event} after {} #{}",
                last.0,
                last.1
            );
            last = (at, event);
            s.schedule(at + SimDuration::from_micros(jitter_us() % 64), n);
        }
        assert_eq!(s.len(), 150);
        assert_eq!(s.stats().queue.moved, moved);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_secs(10), "a");
        assert_eq!(s.pop().unwrap().1, "a");
        s.schedule(SimTime::from_secs(1), "b");
        s.schedule(SimTime::from_secs(2), "c");
        assert_eq!(s.pop().unwrap().1, "b");
        s.schedule(SimTime::from_secs(1), "d"); // earlier than c
        assert_eq!(s.pop().unwrap().1, "d");
        assert_eq!(s.pop().unwrap().1, "c");
    }

    #[test]
    fn armed_slots_merge_with_the_queue_by_time_then_sequence() {
        let mut s = Scheduler::new();
        s.arm(1, SimTime::from_secs(4), "poll");
        s.schedule(SimTime::from_secs(2), "a");
        s.arm(0, SimTime::from_secs(2), "check");
        s.schedule(SimTime::from_secs(2), "b");
        assert_eq!(s.len(), 4);
        assert_eq!(s.peek_time(), Some(SimTime::from_secs(2)));
        let order: Vec<&str> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "check", "b", "poll"]);
        assert!(s.is_empty());
        let stats = s.stats();
        assert_eq!((stats.pushes, stats.pops, stats.timers), (2, 2, 2));
        assert_eq!(stats.peak_depth, 2);
    }

    /// An entry scheduled before a slot is armed for the same instant
    /// pops first: a timer has no priority on a tie (unlike the
    /// engine's input lane, which wins every tie).
    #[test]
    fn an_earlier_scheduled_entry_beats_a_later_armed_timer_on_a_tie() {
        let mut s = Scheduler::new();
        let t = SimTime::from_secs(60);
        s.schedule(t, "fault");
        s.arm(0, t, "poll");
        assert_eq!(s.pop(), Some((t, "fault")));
        assert_eq!(s.pop(), Some((t, "poll")));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn pop_by_takes_only_what_is_due() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_secs(3), "queued");
        s.arm(1, SimTime::from_secs(5), "armed");
        assert_eq!(s.pop_by(SimTime::from_secs(2)), None);
        assert_eq!(
            s.pop_by(SimTime::from_secs(3)),
            Some((SimTime::from_secs(3), "queued"))
        );
        assert_eq!(s.pop_by(SimTime::from_secs(4)), None);
        assert_eq!(
            s.pop_by(SimTime::from_secs(5)),
            Some((SimTime::from_secs(5), "armed"))
        );
        assert_eq!(s.pop_by(SimTime::from_secs(9)), None);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn rearming_discards_the_superseded_event() {
        let mut s = Scheduler::new();
        s.arm(2, SimTime::from_secs(5), 1);
        s.arm(2, SimTime::from_secs(9), 2);
        s.arm(2, SimTime::from_secs(7), 3);
        assert_eq!(s.len(), 1);
        assert_eq!(s.pop(), Some((SimTime::from_secs(7), 3)));
        assert_eq!(s.pop(), None);
        s.arm(0, SimTime::from_secs(8), 4);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.peek_time(), None);
        assert_eq!(s.pop(), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_slot_beyond_the_last_panics() {
        Scheduler::new().arm(TIMER_SLOTS, SimTime::ZERO, ());
    }

    mod timer_order {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        use proptest::prelude::*;

        use super::*;

        /// The reference: one binary heap of `(at, seq, event)`, in
        /// which arming a slot removes the slot's pending entry and
        /// pushes the new one.
        #[derive(Default)]
        struct Reference {
            heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
            armed: [Option<u64>; TIMER_SLOTS],
            next_seq: u64,
        }

        impl Reference {
            fn push(&mut self, at: SimTime, event: u32) -> u64 {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.heap.push(Reverse((at, seq, event)));
                seq
            }

            fn arm(&mut self, slot: usize, at: SimTime, event: u32) {
                if let Some(held) = self.armed[slot] {
                    self.heap.retain(|Reverse((_, seq, _))| *seq != held);
                }
                self.armed[slot] = Some(self.push(at, event));
            }

            fn pop(&mut self) -> Option<(SimTime, u32)> {
                let Reverse((at, seq, event)) = self.heap.pop()?;
                for held in &mut self.armed {
                    if *held == Some(seq) {
                        *held = None;
                    }
                }
                Some((at, event))
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Random interleavings of `schedule`, `arm` over every
            /// slot and `pop`, on few distinct instants so that ties
            /// abound, against the single-heap reference.
            #[test]
            fn timers_pop_in_the_order_of_one_queue(
                ops in proptest::collection::vec((0u8..3, 0usize..TIMER_SLOTS, 0u64..6), 1..200),
            ) {
                let mut s = Scheduler::new();
                let mut reference = Reference::default();
                for (n, &(op, slot, at)) in ops.iter().enumerate() {
                    let at = SimTime::from_secs(at);
                    let event = n as u32;
                    match op {
                        0 => {
                            s.schedule(at, event);
                            reference.push(at, event);
                        }
                        1 => {
                            s.arm(slot, at, event);
                            reference.arm(slot, at, event);
                        }
                        _ => prop_assert_eq!(s.pop(), reference.pop()),
                    }
                    prop_assert_eq!(s.len(), reference.heap.len());
                    let head = reference.heap.peek().map(|Reverse((at, ..))| *at);
                    prop_assert_eq!(s.peek_time(), head);
                }
                while let Some(expected) = reference.pop() {
                    prop_assert_eq!(s.pop(), Some(expected));
                }
                prop_assert_eq!(s.pop(), None);
                let stats = s.stats();
                prop_assert_eq!(stats.pushes, stats.pops);
            }
        }
    }
}
