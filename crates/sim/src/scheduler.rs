//! The pending-event queue of the discrete-event engine.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

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
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Work counters of one run's event queue, next to
/// [`KernelStats`](crate::flow::KernelStats): how much went through the
/// heap, how deep it got, and how much bypassed it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
    heap: BinaryHeap<Entry<E>>,
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
            heap: BinaryHeap::new(),
            next_seq: 0,
            stats: SchedulerStats::default(),
        }
    }

    /// Schedules `event` to fire at instant `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
        self.stats.pushes += 1;
        self.stats.peak_depth = self.stats.peak_depth.max(self.heap.len() as u64);
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        self.stats.pops += 1;
        Some((entry.at, entry.event))
    }

    /// Work counters since creation (`inputs` is the engine's to fill).
    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }

    /// The instant of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns true if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Discards all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        };
        assert_eq!(s.stats(), expected);
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
