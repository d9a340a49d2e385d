//! The pending-event queue of the discrete-event engine.

use std::cmp::Ordering;

use serde::Serialize;

use crate::bucketq::{BucketQueue, QueueStats, RadixKey};
use crate::time::SimTime;

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
    /// Events scheduled.
    pub pushes: u64,
    /// Events popped.
    pub pops: u64,
    /// Deepest the queue has been.
    pub peak_depth: u64,
    /// Events the engine took from the model's input lane
    /// ([`Model::pop_input`](crate::engine::Model::pop_input)) instead
    /// of the queue; counted by the
    /// [`Simulation`](crate::engine::Simulation), zero on a bare
    /// scheduler.
    pub inputs: u64,
    /// What the queue moved between its buckets at depth.
    pub queue: QueueStats,
}

/// A time-ordered queue of pending events.
///
/// Events scheduled for the same instant are delivered in the order they
/// were scheduled.
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
/// assert_eq!(s.pop(), Some((SimTime::from_secs(1), "early")));
/// assert_eq!(s.pop(), Some((SimTime::from_secs(2), "late")));
/// assert_eq!(s.pop(), None);
/// ```
#[derive(Debug)]
pub struct Scheduler<E> {
    queue: BucketQueue<Entry<E>>,
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

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.queue.pop()?;
        self.stats.pops += 1;
        Some((entry.at, entry.event))
    }

    /// Work counters since creation (`inputs` is the engine's to fill).
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            queue: self.queue.stats(),
            ..self.stats
        }
    }

    /// The instant of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Returns true if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Discards all pending events.
    pub fn clear(&mut self) {
        self.queue.clear();
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
}
