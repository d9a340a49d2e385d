//! A priority queue whose cost does not grow with its depth.
//!
//! The deep queue of a run — the [`Scheduler`](crate::scheduler::Scheduler),
//! which holds a playout tick or a local serve's timer per live session —
//! is *almost monotone*: nearly every push lies ahead of the entry
//! popped last. A
//! binary heap pays a cache miss per level for that, some twenty levels
//! at 400 000 entries. [`BucketQueue`] is a radix heap instead: entries
//! wait unordered in one of 64 buckets chosen by the highest bit in
//! which their [`RadixKey::radix`] differs from the queue's `horizon`,
//! and only the few that are due next are kept in order.
//!
//! # Invariant
//!
//! *Near* is every entry whose radix is `<= horizon`, ordered by the
//! full key; `far[i]` holds the entries above the horizon whose radix
//! first differs from it at bit `i`. Because the radix never decreases
//! along the key order, every far entry is greater than every near
//! entry, and bucket `i`'s entries are smaller than bucket `i + 1`'s: the
//! minimum of the queue is the minimum of near, and when near runs dry
//! the next entries are all in the lowest occupied bucket. That bucket
//! is then either moved below the horizon whole (a few hundred entries:
//! the horizon jumps to the top of the bucket's range) or split around
//! its minimum (the horizon becomes that radix; the entries at it go
//! near, the rest to lower buckets). Neither step changes the highest
//! differing bit of an entry in a higher bucket, so nothing else moves.
//!
//! Near has two parts. A bucket moved whole is sorted once and becomes
//! the `run`, popped from its end: every entry in it was there before
//! the horizon passed it, so it only shrinks. Whatever is pushed at or
//! *below* the horizon afterwards lands in `heap`, a small binary heap
//! ordered by the full key, and a pop takes the smaller of the two
//! heads. So the pop order is the exact [`Ord`] order for any push
//! sequence — a caller that keeps pushing into the past only turns the
//! structure back into the binary heap it replaces.
//!
//! # Regimes
//!
//! While the queue is shallow it is one plain heap: the horizon sits at
//! `u64::MAX`, everything is in `heap` and no bucket is touched. Past
//! `SPILL_ABOVE` (2 048) entries it spills into the buckets, and once it
//! has drained below `FOLD_BELOW` (512) it folds back. The thresholds
//! are constants because they follow from the machine (a heap this
//! shallow stays in L1), not from the workload.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use serde::Serialize;

/// A key a [`BucketQueue`] can bucket: totally ordered, with a `u64`
/// projection that never decreases along that order
/// (`a <= b` ⇒ `a.radix() <= b.radix()`). Keys that tie on the radix
/// are told apart by [`Ord`] alone.
pub trait RadixKey: Ord {
    /// The projection the buckets are chosen by.
    fn radix(&self) -> u64;
}

/// A shallow queue spills into the buckets when it grows past this.
const SPILL_ABOVE: usize = 2048;
/// A bucketed queue folds back into one heap when it drains below this.
const FOLD_BELOW: usize = 512;
/// A bucket with at most this many entries moves below the horizon
/// whole, as one sorted run.
const WHOLE_BUCKET: usize = 256;

// A bucket that holds the whole queue is folded before it could be moved
// whole, so a shallow queue never has a run.
#[expect(
    clippy::disallowed_macros,
    reason = "compile-time check: a bucket holding the whole queue is folded before it could move whole"
)]
const _: () = assert!(WHOLE_BUCKET < FOLD_BELOW);

/// A bucket being split gives its buffer back this many entries at a
/// time.
const RELEASE_EVERY: usize = 4096;

/// What the queue moved on its own account — exact per push/pop
/// sequence, so exact per seed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct QueueStats {
    /// Buckets split around their minimum.
    pub splits: u64,
    /// Entries moved from one part of the queue to another: by a split,
    /// a whole-bucket move, a spill or a fold.
    pub moved: u64,
}

impl std::ops::AddAssign for QueueStats {
    fn add_assign(&mut self, rhs: QueueStats) {
        self.splits += rhs.splits;
        self.moved += rhs.moved;
    }
}

#[derive(Debug, Clone)]
struct Bucket<K> {
    entries: Vec<K>,
    /// Smallest radix in `entries`; `u64::MAX` while empty.
    min: u64,
}

impl<K> Default for Bucket<K> {
    fn default() -> Self {
        Bucket {
            entries: Vec::new(),
            min: u64::MAX,
        }
    }
}

/// A min-first priority queue over [`RadixKey`]s (see the [module
/// docs](self) for the structure and its cost model).
///
/// # Examples
///
/// ```
/// use vod_sim::bucketq::{BucketQueue, RadixKey};
///
/// #[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
/// struct At(u64, &'static str);
/// impl RadixKey for At {
///     fn radix(&self) -> u64 {
///         self.0
///     }
/// }
///
/// let mut q = BucketQueue::new();
/// q.push(At(7, "late"));
/// q.push(At(3, "b"));
/// q.push(At(3, "a"));
/// assert_eq!(q.peek(), Some(&At(3, "a")));
/// assert_eq!(q.pop(), Some(At(3, "a")));
/// assert_eq!(q.pop(), Some(At(3, "b")));
/// assert_eq!(q.pop(), Some(At(7, "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct BucketQueue<K> {
    /// Near, pushed one at a time. Near is non-empty whenever the queue
    /// is.
    heap: BinaryHeap<Reverse<K>>,
    /// Near, moved whole: descending, so the smallest entry is last.
    run: Vec<K>,
    /// `u64::MAX` in the shallow regime.
    horizon: u64,
    /// 64 buckets, allocated by the first spill.
    far: Vec<Bucket<K>>,
    /// Bit `i` is set while `far[i]` holds entries.
    occupied: u64,
    far_len: usize,
    stats: QueueStats,
}

impl<K: RadixKey> Default for BucketQueue<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: RadixKey> BucketQueue<K> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        BucketQueue {
            heap: BinaryHeap::new(),
            run: Vec::new(),
            horizon: u64::MAX,
            far: Vec::new(),
            occupied: 0,
            far_len: 0,
            stats: QueueStats::default(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.heap.len() + self.run.len() + self.far_len
    }

    /// Returns true if the queue holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Work counters since creation.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    // `peek`, `push` and `pop` are shaped for the shallow regime, which
    // is all that four of the five benchmark workloads ever run: each
    // does to `heap` exactly what a plain `BinaryHeap` user would, tests
    // the horizon, and leaves the rest to an out-of-line function. In
    // `pop` both regimes hand back one `Option<Reverse<K>>` that is
    // unwrapped once; with a second unwrapping site (the run's `K` next to
    // the heap's `Reverse<K>`, or a `map` on the shallow path only) the
    // popped entry took an extra trip through the stack and the
    // 3 M-event workloads read 3–5 % slower.

    /// The smallest entry.
    pub fn peek(&self) -> Option<&K> {
        let pushed = self.heap.peek().map(|Reverse(key)| key);
        if self.horizon == u64::MAX {
            return pushed;
        }
        self.peek_bucketed(pushed)
    }

    #[inline(never)]
    fn peek_bucketed<'a>(&'a self, pushed: Option<&'a K>) -> Option<&'a K> {
        match (self.run.last(), pushed) {
            (Some(run), Some(pushed)) => Some(run.min(pushed)),
            (run, pushed) => run.or(pushed),
        }
    }

    /// Adds `key`.
    #[inline]
    pub fn push(&mut self, key: K) {
        self.place(key);
        if self.horizon == u64::MAX && self.heap.len() > SPILL_ABOVE {
            self.spill();
        }
    }

    /// Removes and returns the smallest entry.
    #[inline]
    pub fn pop(&mut self) -> Option<K> {
        let popped = if self.horizon != u64::MAX {
            self.pop_bucketed()
        } else {
            self.heap.pop()
        };
        let Reverse(key) = popped?;
        Some(key)
    }

    /// `pop` in the bucketed regime: the smaller of the run's last and
    /// the heap's top, then near refilled or the drained queue folded.
    #[inline(never)]
    fn pop_bucketed(&mut self) -> Option<Reverse<K>> {
        let from_run = match (self.run.last(), self.heap.peek()) {
            (Some(run), Some(Reverse(pushed))) => run < pushed,
            (run, _) => run.is_some(),
        };
        let popped = if from_run {
            Reverse(self.run.pop()?)
        } else {
            self.heap.pop()?
        };
        if self.len() < FOLD_BELOW {
            self.fold();
        } else if self.heap.is_empty() && self.run.is_empty() && self.far_len > 0 {
            self.refill();
        }
        Some(popped)
    }

    /// Discards every entry and returns to the shallow regime.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.run.clear();
        self.far.clear();
        self.horizon = u64::MAX;
        self.occupied = 0;
        self.far_len = 0;
    }

    /// Puts `key` where the invariant wants it under the current
    /// horizon.
    #[inline]
    fn place(&mut self, key: K) {
        let radix = key.radix();
        if let Some(bit) = bucket_of(self.horizon, radix) {
            if let Some(bucket) = self.far.get_mut(bit) {
                bucket.entries.push(key);
                bucket.min = bucket.min.min(radix);
                self.occupied |= 1 << bit;
                self.far_len += 1;
                return;
            }
        }
        self.heap.push(Reverse(key));
    }

    // `spill`, `fold` and `refill` are rare and large; kept out of line
    // they leave `push` and `pop` small enough to inline.

    /// Shallow → bucketed: the horizon drops to the head's radix and
    /// everything above it leaves near.
    #[cold]
    #[inline(never)]
    fn spill(&mut self) {
        let Some(head) = self.peek() else {
            return;
        };
        self.horizon = head.radix();
        self.far.resize_with(64, Bucket::default);
        let entries = std::mem::take(&mut self.heap).into_vec();
        self.scatter(entries.into_iter().map(|Reverse(key)| key).collect());
    }

    /// Bucketed → shallow: the run and every bucket empty into the heap.
    #[cold]
    #[inline(never)]
    fn fold(&mut self) {
        self.stats.moved += (self.run.len() + self.far_len) as u64;
        self.heap.extend(self.run.drain(..).map(Reverse));
        for bucket in self.far.drain(..) {
            self.heap.extend(bucket.entries.into_iter().map(Reverse));
        }
        self.horizon = u64::MAX;
        self.occupied = 0;
        self.far_len = 0;
    }

    /// Near ran dry: advances the horizon into the lowest occupied
    /// bucket.
    #[cold]
    #[inline(never)]
    fn refill(&mut self) {
        let bit = self.occupied.trailing_zeros();
        let Some(bucket) = self.far.get_mut(bit as usize) else {
            return;
        };
        self.occupied &= !(1 << bit);
        self.far_len -= bucket.entries.len();
        if bucket.entries.len() <= WHOLE_BUCKET {
            // The bucket's range ends where bits `0..=bit` are all set.
            // Its buffer becomes the run, and the spent run's buffer
            // the bucket's: nothing is copied.
            self.horizon |= u64::MAX >> (63 - bit);
            self.stats.moved += bucket.entries.len() as u64;
            std::mem::swap(&mut self.run, &mut bucket.entries);
            self.run.sort_unstable_by(|a, b| b.cmp(a));
            bucket.min = u64::MAX;
        } else {
            // The buffer of a split bucket is freed: at depth it is the
            // largest allocation of the queue.
            let Bucket { entries, min } = std::mem::take(bucket);
            self.horizon = min;
            self.stats.splits += 1;
            self.scatter(entries);
        }
    }

    /// Places `entries` under the current horizon, sizing each
    /// destination exactly before anything moves.
    fn scatter(&mut self, mut entries: Vec<K>) {
        let horizon = self.horizon;
        let mut to_near = 0;
        let mut to_far = [0usize; 64];
        for key in &entries {
            let bit = bucket_of(horizon, key.radix());
            match bit.and_then(|bit| to_far.get_mut(bit)) {
                Some(count) => *count += 1,
                None => to_near += 1,
            }
        }
        self.heap.reserve(to_near);
        for (bucket, &count) in self.far.iter_mut().zip(&to_far) {
            if count > 0 {
                bucket.entries.reserve_exact(count);
            }
        }
        self.stats.moved += entries.len() as u64;
        // Back to front, handing the emptied end of the buffer back as
        // it goes: the destinations fill while the source shrinks, so
        // a large bucket is never held twice.
        while let Some(key) = entries.pop() {
            self.place(key);
            if entries.len().is_multiple_of(RELEASE_EVERY) {
                entries.shrink_to_fit();
            }
        }
    }
}

/// The bucket of a radix above `horizon`: the highest bit in which the
/// two differ.
#[inline]
fn bucket_of(horizon: u64, radix: u64) -> Option<usize> {
    (radix > horizon).then(|| (radix ^ horizon).ilog2() as usize)
}

#[cfg(test)]
mod tests {
    use std::fmt::Debug;

    use proptest::prelude::*;

    use super::*;

    /// The scheduler's key shape: an instant and a unique sequence
    /// number.
    impl RadixKey for (u64, u64) {
        fn radix(&self) -> u64 {
            self.0
        }
    }

    /// A `BucketQueue` and the oracle it must agree with after every
    /// call.
    struct Pair<K> {
        queue: BucketQueue<K>,
        oracle: BinaryHeap<Reverse<K>>,
        /// The queue has been on both sides of each threshold.
        bucketed: u32,
        shallow: u32,
    }

    impl<K: RadixKey + Clone + Debug> Pair<K> {
        fn new() -> Self {
            Pair {
                queue: BucketQueue::new(),
                oracle: BinaryHeap::new(),
                bucketed: 0,
                shallow: 0,
            }
        }

        fn push(&mut self, key: K) {
            let was_shallow = self.queue.horizon == u64::MAX;
            self.queue.push(key.clone());
            self.oracle.push(Reverse(key));
            if was_shallow && self.queue.horizon != u64::MAX {
                self.bucketed += 1;
            }
            self.check();
        }

        fn pop(&mut self) -> Option<K> {
            let was_bucketed = self.queue.horizon != u64::MAX;
            let popped = self.queue.pop();
            assert_eq!(popped, self.oracle.pop().map(|Reverse(key)| key));
            if was_bucketed && self.queue.horizon == u64::MAX {
                self.shallow += 1;
            }
            self.check();
            popped
        }

        fn clear(&mut self) {
            self.queue.clear();
            self.oracle.clear();
            self.check();
        }

        fn check(&self) {
            assert_eq!(self.queue.len(), self.oracle.len());
            assert_eq!(self.queue.is_empty(), self.oracle.is_empty());
            assert_eq!(
                self.queue.peek(),
                self.oracle.peek().map(|Reverse(key)| key)
            );
        }

        /// The structure's own invariant, entry by entry.
        fn check_invariant(&self) {
            let q = &self.queue;
            assert!(q.heap.iter().all(|Reverse(key)| key.radix() <= q.horizon));
            assert!(q.run.iter().all(|key| key.radix() <= q.horizon));
            assert!(q.run.windows(2).all(|pair| pair[0] > pair[1]));
            let mut far_len = 0;
            for (bit, bucket) in q.far.iter().enumerate() {
                assert_eq!(q.occupied >> bit & 1 == 1, !bucket.entries.is_empty());
                far_len += bucket.entries.len();
                let min = bucket.entries.iter().map(RadixKey::radix).min();
                assert_eq!(bucket.min, min.unwrap_or(u64::MAX));
                for key in &bucket.entries {
                    assert!(key.radix() > q.horizon);
                    assert_eq!((key.radix() ^ q.horizon).ilog2() as usize, bit);
                }
            }
            assert_eq!(q.far_len, far_len);
            assert!(q.horizon != u64::MAX || (far_len == 0 && q.run.is_empty()));
        }

        fn drain(&mut self) {
            while self.pop().is_some() {}
            assert_eq!(self.queue.horizon, u64::MAX);
        }
    }

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *state >> 33
    }

    #[test]
    fn pops_in_key_order_across_both_regimes() {
        let mut pair: Pair<(u64, u64)> = Pair::new();
        let mut rng = 7;
        let mut seq = 0..;
        // Three times up to 10 000 entries and back down to nothing,
        // holding at depth in between.
        for _ in 0..3 {
            for _ in 0..10_000 {
                pair.push((lcg(&mut rng) % 1_000_000, seq.next().unwrap()));
            }
            pair.check_invariant();
            for _ in 0..20_000 {
                let (at, _) = pair.pop().unwrap();
                pair.push((at + 1 + lcg(&mut rng) % 1_000_000, seq.next().unwrap()));
            }
            pair.check_invariant();
            pair.drain();
        }
        assert_eq!((pair.bucketed, pair.shallow), (3, 3));
        let stats = pair.queue.stats();
        assert!(stats.splits > 0 && stats.moved > stats.splits);
    }

    #[test]
    fn a_shallow_queue_never_touches_a_bucket() {
        let mut pair: Pair<(u64, u64)> = Pair::new();
        let mut rng = 1;
        for seq in 0..SPILL_ABOVE as u64 {
            pair.push((lcg(&mut rng), seq));
        }
        for seq in 0..10_000 {
            let (at, _) = pair.pop().unwrap();
            pair.push((at + lcg(&mut rng) % 1_000, seq));
        }
        assert_eq!(pair.queue.stats(), QueueStats::default());
        assert!(pair.queue.far.is_empty());
    }

    #[test]
    fn one_instant_deeper_than_the_spill_threshold_stays_fifo() {
        let mut pair: Pair<(u64, u64)> = Pair::new();
        for seq in 0..3 * SPILL_ABOVE as u64 {
            pair.push((42, seq));
        }
        pair.push((41, u64::MAX));
        pair.check_invariant();
        assert_eq!(pair.pop(), Some((41, u64::MAX)));
        for seq in 0..3 * SPILL_ABOVE as u64 {
            assert_eq!(pair.pop(), Some((42, seq)));
        }
    }

    #[test]
    fn radix_extremes_round_trip() {
        let mut pair: Pair<(u64, u64)> = Pair::new();
        let mut rng = 3;
        for seq in 0..3_000 {
            pair.push((u64::MAX - lcg(&mut rng) % 100, seq));
            pair.push((lcg(&mut rng) % 100, seq));
            pair.push((1 << (seq % 64), seq));
        }
        pair.check_invariant();
        pair.drain();
    }

    #[test]
    fn clear_returns_to_the_shallow_regime() {
        let mut pair: Pair<(u64, u64)> = Pair::new();
        let mut rng = 5;
        for seq in 0..10_000 {
            pair.push((lcg(&mut rng) % 1_000_000, seq));
        }
        assert_ne!(pair.queue.horizon, u64::MAX);
        pair.clear();
        assert_eq!(pair.queue.horizon, u64::MAX);
        let moved = pair.queue.stats().moved;
        for seq in 0..150 {
            pair.push((lcg(&mut rng) % 1_000_000, seq));
        }
        for seq in 0..1_000 {
            let (at, _) = pair.pop().unwrap();
            pair.push((at + 1 + lcg(&mut rng) % 1_000_000, seq));
        }
        assert_eq!(pair.queue.stats().moved, moved);
        pair.drain();
    }

    /// Runs coded ops `(kind, a, b)` against both queues, returning how
    /// often the queue spilled and folded. The `seq`-th key pushed is
    /// `ahead` of the clock, the instant of the key popped last.
    fn differential(ops: Vec<(u8, u64, u64)>) -> (u32, u32) {
        let mut pair: Pair<(u64, u64)> = Pair::new();
        let mut clock = 0u64;
        let mut seq = 0u64;
        let mut rng = 0x9E37_79B9_7F4A_7C15;
        let mut push = |pair: &mut Pair<(u64, u64)>, clock: u64, ahead: i64| {
            seq += 1;
            pair.push((clock.saturating_add_signed(ahead), seq));
        };
        for (kind, a, b) in ops {
            match kind {
                // One entry under a second ahead; at the clock itself;
                // *behind* the last popped key; days ahead.
                0 => push(&mut pair, clock, (a % 1_000_000) as i64),
                1 => push(&mut pair, clock, 0),
                2 => push(&mut pair, clock, -((a % 5_000) as i64)),
                3 => push(&mut pair, clock, (a << 16) as i64),
                // A burst at one instant, and one spread over a second.
                4 => (0..a % 1_500).for_each(|_| push(&mut pair, clock, (b % 2_000) as i64)),
                5 | 6 => (0..a % 2_500)
                    .for_each(|_| push(&mut pair, clock, (lcg(&mut rng) % 1_000_000) as i64)),
                // Pop a run; pop one; hold (pop and reschedule) a run.
                7 | 8 => (0..a % 3_000).for_each(|_| {
                    clock = pair.pop().map_or(clock, |(at, _)| at);
                }),
                9 => clock = pair.pop().map_or(clock, |(at, _)| at),
                10 => (0..a % 2_000).for_each(|_| {
                    clock = pair.pop().map_or(clock, |(at, _)| at);
                    push(&mut pair, clock, 1 + (lcg(&mut rng) % 1_000_000) as i64);
                }),
                // Rarely, clear.
                _ if a % 8 == 0 => pair.clear(),
                _ => {}
            }
            pair.check_invariant();
        }
        pair.drain();
        (pair.bucketed, pair.shallow)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn instants_match_a_binary_heap_after_every_op(
            ops in proptest::collection::vec((0u8..12, 0u64..1 << 20, 0u64..1 << 20), 1..60),
        ) {
            differential(ops);
        }
    }

    #[test]
    fn the_proptest_ops_cross_both_thresholds_repeatedly() {
        let mut rng = 99;
        let ops = (0..400).map(|_| {
            (
                (lcg(&mut rng) % 12) as u8,
                lcg(&mut rng) % (1 << 20),
                lcg(&mut rng) % (1 << 20),
            )
        });
        let (bucketed, shallow) = differential(ops.collect());
        assert!(
            bucketed >= 3 && shallow >= 3,
            "{bucketed} spills, {shallow} folds"
        );
    }
}
