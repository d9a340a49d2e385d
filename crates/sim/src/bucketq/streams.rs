//! Sorted streams: where a [`BucketQueue`](super::BucketQueue) at depth
//! puts a push, so that an almost monotone push sequence is kept as the
//! merge of a few sorted ones instead of being moved between buckets.
//!
//! A push is appended to the stream whose tail is the greatest key at or
//! below it (*best fit*), so every stream is sorted by construction, and
//! a pop takes the least of the streams' heads. A push below every tail
//! opens a new stream, while fewer than [`MAX_STREAMS`] are live; past
//! that the queue's buckets take it.
//!
//! Every stream keeps its entries in fixed-size chunks of one shared
//! slab. A drained chunk goes on a free list, and the lowest free chunk
//! is the next tail's, so the chunks in use gather at the slab's start:
//! as the queue drains, the slab is cut after the last chunk in use and
//! hands its end back (see [`slab`](crate::slab) for why that end goes
//! back to the system), not a scatter of chunks left behind on the heap.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

use super::RadixKey;
use crate::slab;

/// At most this many streams are live. A random push sequence opens
/// streams without end (over a thousand live at 400 000 entries of the
/// hold model, whose operations then cost microseconds against the
/// buckets' ~120 ns); the sessions of a service run need three.
pub(super) const MAX_STREAMS: usize = 16;

/// Slots per chunk.
pub(super) const CHUNK: usize = 1024;

/// One sorted stream: its chunks of the slab, the slots of its head
/// and past its tail, and their radixes, which settle most comparisons
/// without a look into the slab.
#[derive(Debug, Clone)]
struct Stream {
    /// Chunk numbers, oldest first.
    chunks: VecDeque<usize>,
    /// Slot of the head, in the front chunk.
    head: usize,
    /// Slot past the tail, in the back chunk; above `head`.
    end: usize,
    head_radix: u64,
    tail_radix: u64,
}

#[cfg(test)]
impl Stream {
    fn len(&self) -> usize {
        let unused = (CHUNK - self.end % CHUNK) % CHUNK;
        self.chunks.len() * CHUNK - self.head % CHUNK - unused
    }
}

/// The live streams of a queue at depth.
#[derive(Debug, Clone)]
pub(super) struct Streams<K> {
    /// Each stream non-empty, in increasing order of their tails.
    live: Vec<Stream>,
    /// The stream in `live` with the least head.
    least: usize,
    /// Chunk `c` is slots `c * CHUNK..(c + 1) * CHUNK`; a slot holds an
    /// entry from its append to its pop.
    slab: Vec<Option<K>>,
    /// Chunks of the slab no stream holds, lowest first, so the chunks
    /// in use gather at the slab's start and its end can be handed back.
    free: BinaryHeap<Reverse<usize>>,
}

impl<K: RadixKey> Streams<K> {
    pub(super) fn new() -> Self {
        Streams {
            live: Vec::new(),
            least: 0,
            slab: Vec::new(),
            free: BinaryHeap::new(),
        }
    }

    fn head_of(&self, stream: &Stream) -> Option<&K> {
        self.slab.get(stream.head)?.as_ref()
    }

    /// The least head of any stream.
    #[inline]
    pub(super) fn head(&self) -> Option<&K> {
        self.head_of(self.live.get(self.least)?)
    }

    /// Appends `key` to the stream whose tail is the greatest key at or
    /// below it, or hands `key` back if every tail is above it.
    ///
    /// The tails stay in increasing order: every tail before the chosen
    /// one is at or below its old tail, and every tail after it is above
    /// `key` (else that stream would have been chosen), so `key` takes
    /// the old tail's place in the order. No head moves.
    pub(super) fn append(&mut self, key: K) -> Result<(), K> {
        let radix = key.radix();
        // Below the least tail's radix, below every tail: the common case
        // once the streams are full and the pushes are not theirs.
        if self
            .live
            .first()
            .is_none_or(|least| radix < least.tail_radix)
        {
            return Err(key);
        }
        let slab = &self.slab;
        let tail = |s: &Stream| s.end.checked_sub(1).and_then(|t| slab.get(t)?.as_ref());
        // A tail of a smaller radix is smaller, one of a larger radix
        // larger: only a tie on the radix needs the keys.
        let fits = self
            .live
            .iter()
            .rposition(|s| match s.tail_radix.cmp(&radix) {
                Ordering::Less => true,
                Ordering::Equal => tail(s) <= Some(&key),
                Ordering::Greater => false,
            });
        let full = fits
            .and_then(|i| self.live.get(i))
            .map(|s| s.end.is_multiple_of(CHUNK));
        let fresh = full.unwrap_or(false).then(|| self.take_chunk());
        let Some(stream) = fits.and_then(|i| self.live.get_mut(i)) else {
            return Err(key);
        };
        if let Some(chunk) = fresh {
            stream.chunks.push_back(chunk);
            stream.end = chunk * CHUNK;
        }
        if let Some(slot) = self.slab.get_mut(stream.end) {
            *slot = Some(key);
        }
        stream.end += 1;
        stream.tail_radix = radix;
        Ok(())
    }

    /// Opens a stream holding `key`, which no stream would take (it is
    /// below every tail, so the new stream goes first in tail order), or
    /// hands `key` back if [`MAX_STREAMS`] are live.
    pub(super) fn open(&mut self, key: K) -> Result<(), K> {
        if self.live.len() >= MAX_STREAMS {
            return Err(key);
        }
        let least = self.head().is_none_or(|head| key < *head);
        let radix = key.radix();
        let chunk = self.take_chunk();
        let head = chunk * CHUNK;
        if let Some(slot) = self.slab.get_mut(head) {
            *slot = Some(key);
        }
        let stream = Stream {
            chunks: VecDeque::from([chunk]),
            head,
            end: head + 1,
            head_radix: radix,
            tail_radix: radix,
        };
        self.live.insert(0, stream);
        self.least = if least { 0 } else { self.least + 1 };
        Ok(())
    }

    /// The lowest free chunk, or a new one at the slab's end.
    fn take_chunk(&mut self) -> usize {
        if let Some(Reverse(chunk)) = self.free.pop() {
            return chunk;
        }
        slab::grow(&mut self.slab, CHUNK)
    }

    /// Frees `chunks`, which no stream holds any more. Once the slab's
    /// last chunk is free, the slab is cut after the last chunk in use,
    /// and what it no longer needs goes back to the allocator.
    fn release(&mut self, chunks: impl IntoIterator<Item = usize>) {
        let mut last = false;
        for chunk in chunks {
            last |= (chunk + 1) * CHUNK == self.slab.len();
            self.free.push(Reverse(chunk));
        }
        if !last {
            return;
        }
        let held = self.live.iter().flat_map(|s| s.chunks.iter().copied());
        let end = held.max().map_or(0, |chunk| (chunk + 1) * CHUNK);
        slab::cut(&mut self.slab, end, CHUNK);
        self.free.retain(|&Reverse(chunk)| chunk * CHUNK < end);
    }

    /// Removes and returns the least head; a stream that empties
    /// retires.
    pub(super) fn pop(&mut self) -> Option<K> {
        let stream = self.live.get_mut(self.least)?;
        let key = self.slab.get_mut(stream.head)?.take()?;
        stream.head += 1;
        if stream.head == stream.end {
            let retired = self.live.remove(self.least);
            self.release(retired.chunks);
        } else {
            let drained = if stream.head.is_multiple_of(CHUNK) {
                let drained = stream.chunks.pop_front();
                stream.head = stream.chunks.front().map_or(0, |chunk| chunk * CHUNK);
                drained
            } else {
                None
            };
            let head = self.slab.get(stream.head).and_then(Option::as_ref);
            stream.head_radix = head.map_or(u64::MAX, RadixKey::radix);
            self.release(drained);
        }
        self.least = self.least_head();
        Some(key)
    }

    /// The stream with the least head, by radix first.
    fn least_head(&self) -> usize {
        let mut least = 0;
        for (i, stream) in self.live.iter().enumerate().skip(1) {
            let Some(best) = self.live.get(least) else {
                break;
            };
            let smaller = match stream.head_radix.cmp(&best.head_radix) {
                Ordering::Less => true,
                Ordering::Equal => self.head_of(stream) < self.head_of(best),
                Ordering::Greater => false,
            };
            if smaller {
                least = i;
            }
        }
        least
    }

    /// Every entry, in no particular order; the streams and the slab
    /// are gone after.
    pub(super) fn take(&mut self) -> impl Iterator<Item = K> {
        self.least = 0;
        self.live = Vec::new();
        self.free = BinaryHeap::new();
        std::mem::take(&mut self.slab).into_iter().flatten()
    }

    /// Number of live streams.
    #[cfg(test)]
    pub(super) fn live(&self) -> usize {
        self.live.len()
    }

    /// Number of entries.
    #[cfg(test)]
    pub(super) fn len(&self) -> usize {
        self.live.iter().map(Stream::len).sum()
    }

    /// Entries in the longest stream.
    #[cfg(test)]
    pub(super) fn longest(&self) -> usize {
        self.live.iter().map(Stream::len).max().unwrap_or(0)
    }

    /// Checks the streams' invariant slot by slot and returns their
    /// length.
    #[cfg(test)]
    pub(super) fn check(&self) -> usize {
        let mut held = vec![false; self.slab.len() / CHUNK];
        let mut len = 0;
        for (i, stream) in self.live.iter().enumerate() {
            let front = stream.chunks.front().unwrap();
            let back = stream.chunks.back().unwrap();
            assert!((front * CHUNK..(front + 1) * CHUNK).contains(&stream.head));
            assert!(back * CHUNK < stream.end && stream.end <= (back + 1) * CHUNK);
            let mut last = None;
            for (n, &chunk) in stream.chunks.iter().enumerate() {
                assert!(
                    !std::mem::replace(&mut held[chunk], true),
                    "chunk {chunk} held twice"
                );
                let from = if n == 0 { stream.head } else { chunk * CHUNK };
                let to = if n + 1 == stream.chunks.len() {
                    stream.end
                } else {
                    (chunk + 1) * CHUNK
                };
                for slot in chunk * CHUNK..(chunk + 1) * CHUNK {
                    let key = self.slab[slot].as_ref();
                    assert_eq!(key.is_some(), (from..to).contains(&slot), "slot {slot}");
                    if let Some(key) = key {
                        assert!(last <= Some(key), "stream {i} out of order");
                        last = Some(key);
                    }
                }
            }
            len += stream.len();
            if let Some(next) = self.live.get(i + 1) {
                assert!(
                    last < self.slab[next.end - 1].as_ref(),
                    "tails out of order at {i}"
                );
            }
        }
        for &Reverse(chunk) in &self.free {
            assert!(
                !std::mem::replace(&mut held[chunk], true),
                "free chunk {chunk} held"
            );
            let slots = &self.slab[chunk * CHUNK..(chunk + 1) * CHUNK];
            assert!(slots.iter().all(Option::is_none));
        }
        assert!(held.iter().all(|&h| h), "a chunk is lost");
        assert_eq!(self.slab.iter().flatten().count(), len);
        assert!(self.live.len() <= MAX_STREAMS);
        let least = self.live.iter().filter_map(|s| self.head_of(s)).min();
        assert!(self.head() == least);
        for stream in &self.live {
            assert_eq!(self.head_of(stream).map(K::radix), Some(stream.head_radix));
            assert_eq!(
                self.slab[stream.end - 1].as_ref().map(K::radix),
                Some(stream.tail_radix)
            );
        }
        len
    }
}
