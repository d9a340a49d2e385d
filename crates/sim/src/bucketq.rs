//! A priority queue whose cost does not grow with its depth.
//!
//! The deep queue of a run — the [`Scheduler`](crate::scheduler::Scheduler),
//! which holds a playout tick or a local serve's timer per live session —
//! is *almost monotone*: nearly every push lies ahead of the entry
//! popped last. A
//! binary heap pays a cache miss per level for that, some twenty levels
//! at 400 000 entries. [`BucketQueue`] keeps such pushes in a few
//! sorted *streams* instead (below), and is a radix heap for the rest:
//! entries wait unordered in one of 64 buckets chosen by the highest bit
//! in which their [`RadixKey::radix`] differs from the queue's `horizon`,
//! and only the few that are due next are kept in order.
//!
//! # Invariant
//!
//! *Near* is every entry whose radix is `<= horizon`, ordered by the
//! full key; `far[i]` holds the entries above the horizon whose radix
//! first differs from it at bit `i`. Because the radix never decreases
//! along the key order, every far entry is greater than every near
//! entry, and bucket `i`'s entries are smaller than bucket `i + 1`'s:
//! the least entry outside the streams is near's least, and when near
//! runs dry the next entries are all in the lowest occupied bucket. That
//! bucket is then either moved below the horizon whole (a few hundred entries:
//! the horizon jumps to the top of the bucket's range) or split around
//! its minimum (the horizon becomes that radix; the entries at it go
//! near, the rest to lower buckets — the largest of those shares without
//! leaving the buffer it is in). Neither step changes the highest
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
//! # Streams
//!
//! At depth a push does not go to the buckets first. It is appended to
//! the sorted stream whose tail is the greatest key at or below it, or
//! opens a stream of its own. A session's next event lies one of a few
//! fixed delays ahead of the one being handled, so the pushes of a
//! service run are the merge of a handful of non-decreasing sequences:
//! each lands at the end of its stream and never moves again. A pop
//! takes the least of the streams' least head and near's head. Only a
//! push below every tail while `MAX_STREAMS` streams are live goes under
//! the horizon as above, so the buckets are the fallback for push
//! sequences that are not almost monotone, and the cap keeps a random
//! one from paying for ever more streams.
//!
//! # Regimes
//!
//! While the queue is shallow it is one plain heap: the horizon sits at
//! `u64::MAX`, everything is in `heap` and no bucket or stream is
//! touched. Past `SPILL_ABOVE` (2 048) entries it spills into the
//! buckets, and once it has drained below `FOLD_BELOW` (512) it folds
//! back. The thresholds are constants because they follow from the
//! machine (a heap this shallow stays in L1), not from the workload.

mod streams;

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use serde::Serialize;

use streams::Streams;

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
    /// a whole-bucket move, a spill or a fold. An append to a stream is
    /// not a move.
    pub moved: u64,
    /// Sorted streams opened at depth.
    pub streams: u64,
}

impl std::ops::AddAssign for QueueStats {
    fn add_assign(&mut self, rhs: QueueStats) {
        self.splits += rhs.splits;
        self.moved += rhs.moved;
        self.streams += rhs.streams;
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
    /// Near, pushed one at a time. Near is non-empty whenever a bucket
    /// is occupied.
    heap: BinaryHeap<Reverse<K>>,
    /// Near, moved whole: descending, so the smallest entry is last.
    run: Vec<K>,
    /// `u64::MAX` in the shallow regime.
    horizon: u64,
    /// 64 buckets, allocated by the first spill.
    far: Vec<Bucket<K>>,
    /// Bit `i` is set while `far[i]` holds entries.
    occupied: u64,
    /// Sorted streams of pushes at depth; empty while shallow.
    streams: Streams<K>,
    /// Entries outside near: in the buckets or the streams.
    parked: usize,
    /// The key `push` hands to `push_bucketed`. Passed as an argument,
    /// it was written to the stack before the regime test and read back
    /// by one wide load across two narrow stores on the shallow path (a
    /// stalled store forward: the shallow hold model 7 % slower); through
    /// a field the shallow path writes it to the heap from registers.
    inbox: Option<K>,
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
            streams: Streams::new(),
            parked: 0,
            inbox: None,
            stats: QueueStats::default(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.heap.len() + self.run.len() + self.parked
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
    // tests the horizon, does to `heap` exactly what a plain
    // `BinaryHeap` user would, and leaves the rest to an out-of-line
    // function. In `pop` both regimes hand back one `Option<Reverse<K>>`
    // that is unwrapped once; with a second unwrapping site (the run's `K` next to
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
        self.least(pushed).map(|(key, _)| key)
    }

    /// The least entry at depth and the part it is in: the least of the
    /// run's last, the heap's top (`pushed`) and the streams' least head.
    #[inline]
    fn least<'a>(&'a self, pushed: Option<&'a K>) -> Option<(&'a K, Part)> {
        let near = match (self.run.last(), pushed) {
            (Some(run), Some(pushed)) if pushed < run => Some((pushed, Part::Heap)),
            (Some(run), _) => Some((run, Part::Run)),
            (None, pushed) => pushed.map(|pushed| (pushed, Part::Heap)),
        };
        match (near, self.streams.head()) {
            (Some((near, _)), Some(streamed)) if streamed < near => Some((streamed, Part::Streams)),
            (None, streamed) => streamed.map(|streamed| (streamed, Part::Streams)),
            (near, _) => near,
        }
    }

    /// Adds `key`.
    #[inline]
    pub fn push(&mut self, key: K) {
        if self.horizon != u64::MAX {
            self.inbox = Some(key);
            return self.push_bucketed();
        }
        self.heap.push(Reverse(key));
        if self.heap.len() > SPILL_ABOVE {
            self.spill();
        }
    }

    /// `push` in the bucketed regime, of the key in `inbox`: appended to
    /// the best-fitting stream, or to a new one, or placed under the
    /// horizon once `MAX_STREAMS` are live.
    #[inline(never)]
    fn push_bucketed(&mut self) {
        let Some(key) = self.inbox.take() else {
            return;
        };
        let key = match self.streams.append(key) {
            Ok(()) => return self.parked += 1,
            Err(key) => key,
        };
        let key = match self.streams.open(key) {
            Ok(()) => {
                self.stats.streams += 1;
                return self.parked += 1;
            }
            Err(key) => key,
        };
        self.place(key);
        // Near may have been empty, with everything in the streams.
        if self.heap.is_empty() && self.run.is_empty() && self.occupied != 0 {
            self.refill();
        }
    }

    /// Removes and returns the smallest entry.
    #[inline]
    pub fn pop(&mut self) -> Option<K> {
        let popped = if self.horizon != u64::MAX {
            self.pop_bucketed(|_| true)
        } else {
            self.heap.pop()
        };
        let Reverse(key) = popped?;
        Some(key)
    }

    /// Removes and returns the smallest entry if `take` accepts it
    /// (`peek` then `pop`, with the smallest entry found once): a
    /// caller popping only what is due by some instant asks the
    /// question of the entry it gets.
    #[inline]
    pub fn pop_if(&mut self, take: impl FnOnce(&K) -> bool) -> Option<K> {
        let popped = if self.horizon != u64::MAX {
            self.pop_bucketed(take)
        } else {
            if !take(&self.heap.peek()?.0) {
                return None;
            }
            self.heap.pop()
        };
        let Reverse(key) = popped?;
        Some(key)
    }

    /// `pop_if` in the bucketed regime: the least of the run's last, the
    /// heap's top and the streams' least head, taken from its part if
    /// `take` accepts it, then near refilled or the drained queue
    /// folded.
    #[inline(never)]
    fn pop_bucketed(&mut self, take: impl FnOnce(&K) -> bool) -> Option<Reverse<K>> {
        let (least, part) = self.least(self.heap.peek().map(|Reverse(pushed)| pushed))?;
        if !take(least) {
            return None;
        }
        let popped = match part {
            Part::Run => Reverse(self.run.pop()?),
            Part::Heap => self.heap.pop()?,
            Part::Streams => {
                let key = self.streams.pop()?;
                self.parked -= 1;
                Reverse(key)
            }
        };
        if self.len() < FOLD_BELOW {
            self.fold();
        } else if self.heap.is_empty() && self.run.is_empty() && self.occupied != 0 {
            self.refill();
        }
        Some(popped)
    }

    /// Discards every entry and returns to the shallow regime.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.run.clear();
        self.far.clear();
        self.streams = Streams::new();
        self.horizon = u64::MAX;
        self.occupied = 0;
        self.parked = 0;
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
                self.parked += 1;
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

    /// Bucketed → shallow: the run, every bucket and every stream empty
    /// into the heap.
    #[cold]
    #[inline(never)]
    fn fold(&mut self) {
        self.stats.moved += (self.run.len() + self.parked) as u64;
        self.heap.extend(self.run.drain(..).map(Reverse));
        for bucket in self.far.drain(..) {
            self.heap.extend(bucket.entries.into_iter().map(Reverse));
        }
        self.heap.extend(self.streams.take().map(Reverse));
        self.horizon = u64::MAX;
        self.occupied = 0;
        self.parked = 0;
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
        // A bucket moved whole up to the top radix would leave the
        // horizon at `u64::MAX`, the mark of the shallow regime; no radix
        // could lie above it again, so the queue folds instead.
        let top = self.horizon | u64::MAX >> (63 - bit);
        if bucket.entries.len() <= WHOLE_BUCKET && top == u64::MAX {
            return self.fold();
        }
        self.occupied &= !(1 << bit);
        self.parked -= bucket.entries.len();
        if bucket.entries.len() <= WHOLE_BUCKET {
            // The bucket's range ends where bits `0..=bit` are all set.
            // Its buffer becomes the run, and the spent run's buffer
            // the bucket's: nothing is copied.
            self.horizon = top;
            self.stats.moved += bucket.entries.len() as u64;
            std::mem::swap(&mut self.run, &mut bucket.entries);
            self.run.sort_unstable_by(|a, b| b.cmp(a));
            bucket.min = u64::MAX;
        } else {
            // Every entry of the split bucket goes below it, where no
            // bucket is occupied: it was the lowest occupied one.
            let Bucket { entries, min } = std::mem::take(bucket);
            self.horizon = min;
            self.stats.splits += 1;
            self.scatter(entries);
        }
    }

    /// Places `entries` under the current horizon, sizing each
    /// destination exactly before anything moves. Every far bucket an
    /// entry is bound for must be empty: the entries bound for the
    /// largest such share stay in `entries`' buffer, which becomes that
    /// bucket's, and only the rest are copied into other buffers.
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
        // The largest far share (the lowest bucket among equals).
        let shares = to_far.iter().copied().enumerate();
        let keep = shares.fold(
            None,
            |best: Option<(usize, usize)>, (bit, count)| match best {
                Some((_, most)) if most >= count => best,
                _ if count > 0 => Some((bit, count)),
                _ => best,
            },
        );
        // Gather the kept share at the front of the buffer. Every entry
        // is swapped, kept or not (a kept-or-not branch would be a coin
        // toss per entry): `kept..i` holds only entries that leave.
        let mut kept = 0;
        let mut kept_min = u64::MAX;
        if let Some((bit, _)) = keep {
            for i in 0..entries.len() {
                let Some(radix) = entries.get(i).map(RadixKey::radix) else {
                    break;
                };
                let stays = bucket_of(horizon, radix) == Some(bit);
                kept_min = kept_min.min(if stays { radix } else { u64::MAX });
                entries.swap(kept, i);
                kept += usize::from(stays);
            }
        }
        self.heap.reserve(to_near);
        for (bit, (bucket, &count)) in self.far.iter_mut().zip(&to_far).enumerate() {
            if count > 0 && keep.is_none_or(|(kept_bit, _)| kept_bit != bit) {
                bucket.entries.reserve_exact(count);
            }
        }
        self.stats.moved += entries.len() as u64;
        // The rest back to front, handing the emptied end of the buffer
        // back as it goes: the destinations fill while the source
        // shrinks, so no share of a large bucket is held twice.
        while entries.len() > kept {
            let Some(key) = entries.pop() else {
                break;
            };
            self.place(key);
            if entries.len().is_multiple_of(RELEASE_EVERY) {
                entries.shrink_to_fit();
            }
        }
        if let Some((bit, _)) = keep {
            if let Some(bucket) = self.far.get_mut(bit) {
                bucket.entries = entries;
                bucket.min = kept_min;
            }
            self.occupied |= 1 << bit;
            self.parked += kept;
        }
    }
}

/// Where a bucketed queue's least entry is.
#[derive(Debug, Clone, Copy)]
enum Part {
    Run,
    Heap,
    Streams,
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

    use super::streams::{CHUNK, MAX_STREAMS};
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
        /// What the streams went through.
        seen: StreamsSeen,
    }

    /// How often a stream retired, a push at depth found every stream
    /// taken and went to the buckets, and a stream outgrew one chunk;
    /// and the most streams live at once.
    #[derive(Debug, Default, Clone, Copy)]
    struct StreamsSeen {
        retired: u32,
        overflowed: u32,
        chunked: u32,
        most_live: usize,
    }

    impl<K: RadixKey + Clone + Debug> Pair<K> {
        fn new() -> Self {
            Pair {
                queue: BucketQueue::new(),
                oracle: BinaryHeap::new(),
                bucketed: 0,
                shallow: 0,
                seen: StreamsSeen::default(),
            }
        }

        fn push(&mut self, key: K) {
            let was_shallow = self.queue.horizon == u64::MAX;
            let streamed = self.queue.streams.len();
            self.queue.push(key.clone());
            self.oracle.push(Reverse(key));
            if was_shallow && self.queue.horizon != u64::MAX {
                self.bucketed += 1;
            }
            if !was_shallow && self.queue.streams.len() == streamed {
                assert_eq!(self.queue.streams.live(), MAX_STREAMS);
                self.seen.overflowed += 1;
            }
            if self.queue.streams.longest() > CHUNK {
                self.seen.chunked += 1;
            }
            self.seen.most_live = self.seen.most_live.max(self.queue.streams.live());
            self.check();
        }

        fn pop(&mut self) -> Option<K> {
            let was_bucketed = self.queue.horizon != u64::MAX;
            let streams = self.queue.streams.live();
            let popped = self.queue.pop();
            assert_eq!(popped, self.oracle.pop().map(|Reverse(key)| key));
            if was_bucketed && self.queue.horizon == u64::MAX {
                self.shallow += 1;
            } else if self.queue.streams.live() < streams {
                self.seen.retired += 1;
            }
            self.check();
            popped
        }

        /// `pop_if` of the entry due by `by`, against the oracle's
        /// head.
        fn pop_by(&mut self, by: u64) -> Option<K> {
            let was_bucketed = self.queue.horizon != u64::MAX;
            let mut asked = None;
            let popped = self.queue.pop_if(|head| {
                asked = Some(head.clone());
                head.radix() <= by
            });
            let head = self.oracle.peek().map(|Reverse(key)| key.clone());
            // The predicate saw the least entry, once, and only when
            // there was one.
            assert_eq!(asked, head);
            let due = head.filter(|key| key.radix() <= by);
            if due.is_some() {
                self.oracle.pop();
            }
            assert_eq!(popped, due);
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
            for (bit, bucket) in q.far.iter().enumerate() {
                assert_eq!(q.occupied >> bit & 1 == 1, !bucket.entries.is_empty());
                let min = bucket.entries.iter().map(RadixKey::radix).min();
                assert_eq!(bucket.min, min.unwrap_or(u64::MAX));
                for key in &bucket.entries {
                    assert!(key.radix() > q.horizon);
                    assert_eq!((key.radix() ^ q.horizon).ilog2() as usize, bit);
                }
            }
            let far_len = q.far_entries();
            let streamed = q.streams.check();
            assert_eq!(q.parked, far_len + streamed);
            assert!(q.occupied == 0 || !q.heap.is_empty() || !q.run.is_empty());
            assert!(q.horizon != u64::MAX || (q.parked == 0 && q.run.is_empty()));
        }

        fn drain(&mut self) {
            while self.pop().is_some() {}
            assert_eq!(self.queue.horizon, u64::MAX);
        }
    }

    impl<K> BucketQueue<K> {
        fn far_entries(&self) -> usize {
            self.far.iter().map(|bucket| bucket.entries.len()).sum()
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

    /// A session's next event: one of a few fixed delays ahead.
    const DELAYS: [i64; 4] = [1_000, 40_000, 400_000, 4_000_000];

    /// Runs coded ops `(kind, a, b)` against both queues, returning how
    /// often the queue spilled and folded, and what its streams went
    /// through. The `seq`-th key pushed is `ahead` of the clock, the
    /// instant of the key popped last.
    fn differential(ops: Vec<(u8, u64, u64)>) -> (u32, u32, StreamsSeen) {
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
                // Hold a run at one of `k` fixed delays, cycling; push a
                // burst the same way.
                11 => {
                    let k = 1 + b as usize % DELAYS.len();
                    for i in 0..(a % 4_000) as usize {
                        clock = pair.pop().map_or(clock, |(at, _)| at);
                        push(&mut pair, clock, DELAYS.get(i % k).copied().unwrap_or(0));
                    }
                }
                12 => {
                    let k = 1 + b as usize % DELAYS.len();
                    for i in 0..(a % 2_500) as usize {
                        push(&mut pair, clock, DELAYS.get(i % k).copied().unwrap_or(0));
                    }
                }
                // Pop a run of what is due by a deadline, past which the
                // pops find nothing due; pop one due at, just behind or
                // just past the clock.
                14 => {
                    let by = clock + b % 100_000;
                    (0..a % 3_000).for_each(|_| {
                        clock = pair.pop_by(by).map_or(clock, |(at, _)| at);
                    });
                }
                15 => {
                    let by = clock.saturating_add_signed((a % 3) as i64 - 1);
                    clock = pair.pop_by(by).map_or(clock, |(at, _)| at);
                }
                // Rarely, clear.
                _ if a % 8 == 0 => pair.clear(),
                _ => {}
            }
            pair.check_invariant();
        }
        pair.drain();
        let opened = pair.queue.stats().streams;
        assert!(opened == 0 || pair.bucketed > 0);
        (pair.bucketed, pair.shallow, pair.seen)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn instants_match_a_binary_heap_after_every_op(
            ops in proptest::collection::vec((0u8..16, 0u64..1 << 20, 0u64..1 << 20), 1..60),
        ) {
            differential(ops);
        }
    }

    #[test]
    fn the_proptest_ops_cross_both_thresholds_repeatedly() {
        let mut rng = 99;
        let ops = (0..600).map(|_| {
            (
                (lcg(&mut rng) % 14) as u8,
                lcg(&mut rng) % (1 << 20),
                lcg(&mut rng) % (1 << 20),
            )
        });
        let (bucketed, shallow, seen) = differential(ops.collect());
        assert!(
            bucketed >= 3 && shallow >= 3,
            "{bucketed} spills, {shallow} folds"
        );
        // Streams opened (`retired` implies it), outgrew a chunk, retired,
        // and overflowed the cap into the buckets.
        assert!(
            seen.retired > 0 && seen.chunked > 0 && seen.overflowed > 0,
            "{seen:?}"
        );
    }

    /// A queue at depth whose pushes cycle through three fixed delays,
    /// the shape of a service run's sessions.
    fn hold_at_three_delays(pair: &mut Pair<(u64, u64)>, seqs: std::ops::Range<u64>) {
        for (i, seq) in seqs.enumerate() {
            let (at, _) = pair.pop().unwrap();
            let delay = [1_000, 40_000, 400_000][i % 3];
            pair.push((at + delay, seq));
        }
    }

    fn filled_past_the_spill(pair: &mut Pair<(u64, u64)>) {
        let mut rng = 11;
        // The last push spills.
        for seq in 0..=SPILL_ABOVE as u64 {
            pair.push((lcg(&mut rng) % 100_000, seq));
        }
        assert_eq!((pair.bucketed, pair.queue.stats().streams), (1, 0));
    }

    /// Three fixed delays make the pushes the merge of three sorted
    /// sequences: never more than three streams live, and once near has
    /// drained what the spill put there, nothing moves.
    #[test]
    fn fixed_delays_fill_three_streams_and_move_nothing() {
        let mut pair: Pair<(u64, u64)> = Pair::new();
        filled_past_the_spill(&mut pair);
        hold_at_three_delays(&mut pair, 10_000..20_000);
        assert_eq!(pair.queue.len(), pair.queue.streams.len());
        let moved = pair.queue.stats().moved;
        hold_at_three_delays(&mut pair, 20_000..40_000);
        pair.check_invariant();
        assert_eq!(pair.queue.stats().moved, moved);
        assert_eq!(pair.seen.most_live, 3);
        assert!(pair.seen.chunked > 0);
        pair.drain();
    }

    #[test]
    fn a_stream_head_and_a_near_entry_at_one_instant_pop_in_seq_order() {
        let mut pair: Pair<(u64, u64)> = Pair::new();
        filled_past_the_spill(&mut pair);
        // Near holds the spill's head; a stream opens at the same
        // instant with a smaller sequence number, and another entry at
        // that instant follows it into the stream.
        let (at, _) = *pair.queue.peek().unwrap();
        pair.push((at, 0));
        pair.push((at, u64::MAX));
        assert!(pair.queue.stats().streams > 0);
        pair.check_invariant();
        let mut last = (0, 0);
        while let Some(key) = pair.pop() {
            assert!(key > last);
            last = key;
        }
    }

    #[test]
    fn a_stream_head_and_a_bucketed_entry_at_one_instant_pop_in_seq_order() {
        let mut pair: Pair<(u64, u64)> = Pair::new();
        filled_past_the_spill(&mut pair);
        // Far above near, each below the last: sixteen streams of one
        // entry, the least `(t, 115)`. An earlier sequence number at `t`
        // is below every tail and goes to a bucket; a later one at `t`
        // is appended to that stream.
        let t = 10_000_000;
        for i in 0..MAX_STREAMS as u64 {
            pair.push((t + 15 - i, 100 + i));
        }
        // Enough behind them to keep the queue at depth once the spill's
        // entries are gone.
        for j in 0..FOLD_BELOW as u64 {
            pair.push((t + 16 + j, 1_000 + j));
        }
        assert_eq!(pair.queue.streams.live(), MAX_STREAMS);
        pair.push((t, 1));
        assert_eq!(pair.seen.overflowed, 1);
        pair.push((t, 200));
        assert_eq!(pair.seen.overflowed, 1);
        pair.check_invariant();
        while pair.queue.peek().unwrap().0 < t {
            pair.pop();
        }
        assert_ne!(pair.queue.horizon, u64::MAX);
        assert_eq!(pair.pop(), Some((t, 1)));
        assert_eq!(pair.pop(), Some((t, 115)));
        assert_eq!(pair.pop(), Some((t, 200)));
        pair.drain();
    }

    #[test]
    fn with_every_stream_taken_a_push_below_every_tail_goes_to_the_buckets() {
        let mut pair: Pair<(u64, u64)> = Pair::new();
        filled_past_the_spill(&mut pair);
        let mut seq = 10_000..;
        // Each push below the last opens a stream, until the cap; then
        // each stream takes a hundred more.
        for i in 0..MAX_STREAMS as u64 {
            pair.push((5_000_000 - 1_000 * i, seq.next().unwrap()));
        }
        for j in 1..=100 {
            for i in 0..MAX_STREAMS as u64 {
                pair.push((5_000_000 - 1_000 * i + j, seq.next().unwrap()));
            }
        }
        let streams = pair.queue.stats().streams;
        assert_eq!(streams, MAX_STREAMS as u64);
        let far = pair.queue.far_entries();
        pair.push((4_000_000, seq.next().unwrap()));
        assert_eq!(pair.queue.stats().streams, streams);
        assert_eq!(pair.queue.far_entries(), far + 1);
        assert_eq!(pair.seen.overflowed, 1);
        pair.check_invariant();
        // Drain the spill's entries until near runs dry with everything
        // else in the streams, then overflow once more below every tail.
        while pair.queue.peek().unwrap().0 < 100_000 {
            pair.pop();
        }
        pair.check_invariant();
        pair.push((3_000_000, seq.next().unwrap()));
        pair.check_invariant();
        assert_eq!(pair.seen.overflowed, 2);
        pair.drain();
    }

    #[test]
    fn clear_at_depth_with_streams_live_returns_to_the_shallow_regime() {
        let mut pair: Pair<(u64, u64)> = Pair::new();
        filled_past_the_spill(&mut pair);
        hold_at_three_delays(&mut pair, 10_000..15_000);
        assert!(pair.queue.streams.live() > 0);
        pair.clear();
        assert_eq!(pair.queue.horizon, u64::MAX);
        assert_eq!(pair.queue.streams.live(), 0);
        pair.check_invariant();
        let stats = pair.queue.stats();
        let mut rng = 5;
        for seq in 0..150 {
            pair.push((lcg(&mut rng) % 1_000, seq));
        }
        for seq in 150..2_000 {
            let (at, _) = pair.pop().unwrap();
            pair.push((at + 1 + lcg(&mut rng) % 1_000, seq));
        }
        assert_eq!(pair.queue.stats(), stats);
        pair.drain();
    }
}
