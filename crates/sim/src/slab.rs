//! The one rule by which a slab of fixed-size chunks holds only the
//! chunks in use: the queue's sorted streams
//! ([`bucketq`](crate::bucketq)) and the [`IdWindow`](crate::IdWindow)
//! keep their slots in such a slab, a `Vec<Option<T>>` whose chunk `c`
//! is slots `c * chunk..(c + 1) * chunk`, and each cuts it after its
//! last chunk in use as it drains.
//!
//! The slab's first reservation, [`RESERVE`] bytes, is more than glibc
//! ever serves from its heap: the trace's stable sort frees a 6.4 MB
//! scratch buffer at setup, which raises glibc's dynamic mmap threshold
//! to that size, and the threshold never exceeds 32 MiB. So the slab is
//! a mapping of its own from the start, and stays one as it is resized:
//! only the slots in use are ever touched, and what a cut hands back is
//! unmapped, not left resident on the heap under whatever is allocated
//! next.

/// Bytes the slab reserves when its first chunk is taken.
const RESERVE: usize = 32 << 20;

/// Chunks past the slab's end that are handed back to the allocator at
/// once; the slab grows by half as many, so a slab whose end moves by a
/// chunk neither shrinks nor grows.
const SLACK_CHUNKS: usize = 16;

/// Appends a chunk of `chunk` empty slots to `slab` and returns its
/// number.
pub(crate) fn grow<T>(slab: &mut Vec<Option<T>>, chunk: usize) -> usize {
    if slab.capacity() == 0 {
        let slots = RESERVE / size_of::<Option<T>>().max(1);
        slab.reserve_exact(slots.max(chunk));
    } else if slab.len() == slab.capacity() {
        slab.reserve_exact(SLACK_CHUNKS / 2 * chunk);
    }
    let number = slab.len() / chunk;
    slab.resize_with(slab.len() + chunk, || None);
    number
}

/// Cuts `slab` to its first `end` slots, and hands its end back to the
/// allocator once [`SLACK_CHUNKS`] of `chunk` slots lie past the cut.
pub(crate) fn cut<T>(slab: &mut Vec<Option<T>>, end: usize, chunk: usize) {
    slab.truncate(end);
    if slab.capacity() - slab.len() >= SLACK_CHUNKS * chunk {
        slab.shrink_to(slab.len() + SLACK_CHUNKS / 2 * chunk);
    }
}
