//! A map keyed by ids that are issued in ascending order and die young.
//!
//! Sessions and flows get their ids from a counter, and at any instant
//! the live ones sit in a narrow band just below it. [`IdWindow`] stores
//! exactly that band: `Option<T>` slots running from the oldest live id
//! to the newest, in 256-slot chunks, so a lookup is a shift, a bounds
//! check and two indexes — no search, no hashing, no rebalancing — and
//! iteration is ascending by id for free.
//!
//! # Memory
//!
//! The window's chunks are chunks of one slab, touched only where chunks
//! are in use (the crate's `slab` module says why a cut goes back to the
//! system), and a double-ended queue maps the window's chunks, in id order, to
//! the slab's. A chunk holds the 256 ids from a multiple of 256, so the
//! window holds `size_of::<Option<T>>() × 256` bytes for each chunk that
//! its span, newest − oldest live id + 1, reaches: at most one more
//! than the span fills. Removing an id empties its slot; a chunk left
//! empty at either end leaves the window, the slab's last chunk moves
//! into its place, and the slab is cut after its chunks in use, so its
//! pages go back to the system as the window drains. An emptied window
//! keeps one chunk for the next insert, so a window that often empties
//! (the flow owners of a quiet GRNET day) does not reallocate.
//!
//! The workspace has two users, both in a service run: the live
//! sessions (the record inline, 144 B a slot, 36 KiB a chunk) and the
//! network flow → session map (16 B, one 4 KiB page a chunk). Widest
//! session windows on the five seed-42 workloads of `benchmark/`:
//! 400 801 / 2 000 / 1 500 / 107 / 2 108 slots against 400 801 / 2 000 /
//! 1 071 / 37 / 166 sessions live at the peak — on `local_scale` all
//! 400 801 ids are live at once, 57.7 MB of records, so no map could
//! hold fewer entries; as they end, the window gives those pages back.
//! Local serves are timers, so only backbone transfers take a
//! flow-owner slot. A 256-slot chunk keeps the small windows within the
//! capacity a doubling buffer would hold for them: 1 024 slots would
//! round `gnp200_remote`'s 1 500-id span out to three 147 KB chunks.
//!
//! The one way it degrades: a single id that never dies pins the front,
//! and the window then spans every id issued after it, dead or alive.
//! Nothing here compacts around such an id; a population with immortal
//! members wants a different map.

use std::collections::VecDeque;

use crate::slab;

/// Values by ascending `u64` id, stored as the dense run of slots
/// between the oldest and the newest live id (see the [module
/// docs](self) for the cost model).
///
/// # Examples
///
/// ```
/// use vod_sim::idwindow::IdWindow;
///
/// let mut w = IdWindow::new();
/// w.insert(7, "a");
/// w.insert(9, "b");
/// assert_eq!(w.get(7), Some(&"a"));
/// assert_eq!(w.get(8), None);
/// assert_eq!(w.slots(), 3); // ids 7..=9
/// assert_eq!(w.remove(7), Some("a"));
/// assert_eq!(w.slots(), 1); // the front closed up to id 9
/// assert_eq!(w.iter().collect::<Vec<_>>(), vec![(9, &"b")]);
/// ```
#[derive(Debug, Clone)]
pub struct IdWindow<T> {
    /// Number of the window's first chunk, which holds ids from
    /// `front * CHUNK`; meaningless while `chunks` is empty.
    front: u64,
    /// The slab chunk of each of the window's chunks, in id order.
    /// Non-empty ⇒ the oldest live id is in the first, the newest in
    /// the last.
    chunks: VecDeque<usize>,
    /// Exactly the window's chunks, or one spare once the window has
    /// emptied.
    slab: Vec<Option<T>>,
    /// The oldest and the newest live id; meaningless while `live` is 0.
    oldest: u64,
    newest: u64,
    live: usize,
}

impl<T> Default for IdWindow<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> IdWindow<T> {
    /// Slots per chunk.
    const CHUNK: usize = 256;
    const CHUNK_IDS: u64 = Self::CHUNK as u64;

    /// Creates an empty window; it allocates at its first insert.
    pub fn new() -> Self {
        IdWindow {
            front: 0,
            chunks: VecDeque::new(),
            slab: Vec::new(),
            oldest: 0,
            newest: 0,
            live: 0,
        }
    }

    /// Number of live ids.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns true if no id is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The window's span: the number of ids from the oldest to the
    /// newest live one, live or not, and 0 once empty. The slots held
    /// are this rounded out to whole chunks.
    pub fn slots(&self) -> usize {
        if self.live == 0 {
            return 0;
        }
        let span = usize::try_from(self.newest - self.oldest).unwrap_or(usize::MAX);
        span.saturating_add(1)
    }

    /// Slots held in the slab: the window's chunks, or the one spare
    /// chunk once it has emptied.
    #[cfg(test)]
    fn held(&self) -> usize {
        self.slab.len()
    }

    /// The slab index of `id`'s slot, if the window holds its chunk.
    #[inline]
    fn slot(&self, id: u64) -> Option<usize> {
        let k = usize::try_from((id / Self::CHUNK_IDS).checked_sub(self.front)?).ok()?;
        let chunk = *self.chunks.get(k)?;
        let offset = (id % Self::CHUNK_IDS) as usize;
        Some(chunk * Self::CHUNK + offset)
    }

    /// The value of `id`, if it is live.
    pub fn get(&self, id: u64) -> Option<&T> {
        self.slab.get(self.slot(id)?)?.as_ref()
    }

    /// The value of `id`, mutably, if it is live.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let slot = self.slot(id)?;
        self.slab.get_mut(slot)?.as_mut()
    }

    /// Makes `id` live with `value`, returning the value it replaces if
    /// it was live already. An id above the window extends it by the
    /// chunks up to its own (none, or the expected one); one below
    /// re-opens the front.
    pub fn insert(&mut self, id: u64, value: T) -> Option<T> {
        let chunk = id / Self::CHUNK_IDS;
        if self.chunks.is_empty() {
            self.front = chunk;
        }
        if chunk < self.front {
            // A span wider than `usize` fails in the allocator here,
            // like any collection asked for more than memory holds.
            let below = usize::try_from(self.front - chunk).unwrap_or(usize::MAX);
            self.chunks.reserve(below);
            for _ in 0..below {
                let fresh = self.take_chunk();
                self.chunks.push_front(fresh);
            }
            self.front = chunk;
        }
        let k = usize::try_from(chunk - self.front).unwrap_or(usize::MAX);
        if k >= self.chunks.len() {
            self.chunks
                .reserve((k - self.chunks.len()).saturating_add(1));
            while k >= self.chunks.len() {
                let fresh = self.take_chunk();
                self.chunks.push_back(fresh);
            }
        }
        let slot = self.slot(id).and_then(|slot| self.slab.get_mut(slot))?;
        if slot.is_some() {
            return slot.replace(value);
        }
        *slot = Some(value);
        if self.live == 0 {
            (self.oldest, self.newest) = (id, id);
        } else {
            self.oldest = self.oldest.min(id);
            self.newest = self.newest.max(id);
        }
        self.live += 1;
        None
    }

    /// Removes `id`, returning its value if it was live, and gives back
    /// the chunks this leaves empty at either end of the window.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let slot = self.slot(id)?;
        let value = self.slab.get_mut(slot)?.take()?;
        self.live -= 1;
        if self.live == 0 {
            // One chunk, `id`'s, which the slab keeps as its spare.
            self.chunks.clear();
        } else if id == self.oldest {
            self.close_front();
        } else if id == self.newest {
            self.close_back();
        }
        Some(value)
    }

    /// Moves `oldest` up to the next live id, and gives back every chunk
    /// it leaves.
    fn close_front(&mut self) {
        while let Some(&chunk) = self.chunks.front() {
            let from = (self.oldest % Self::CHUNK_IDS) as usize;
            let start = chunk * Self::CHUNK;
            let slots = self.slab.get(start + from..start + Self::CHUNK);
            if let Some(n) = slots.and_then(|s| s.iter().position(Option::is_some)) {
                self.oldest += n as u64;
                return;
            }
            self.chunks.pop_front();
            self.front += 1;
            self.oldest = self.front * Self::CHUNK_IDS;
            self.release(chunk);
        }
    }

    /// Moves `newest` down to the previous live id, and gives back every
    /// chunk it leaves.
    fn close_back(&mut self) {
        while let Some(&chunk) = self.chunks.back() {
            let to = (self.newest % Self::CHUNK_IDS) as usize;
            let start = chunk * Self::CHUNK;
            let slots = self.slab.get(start..=start + to);
            if let Some(n) = slots.and_then(|s| s.iter().rposition(Option::is_some)) {
                self.newest -= (to - n) as u64;
                return;
            }
            self.chunks.pop_back();
            self.newest = (self.front + self.chunks.len() as u64) * Self::CHUNK_IDS - 1;
            self.release(chunk);
        }
    }

    /// A chunk for the window: the one an emptied window kept, or a new
    /// one at the slab's end.
    fn take_chunk(&mut self) -> usize {
        if self.chunks.is_empty() && !self.slab.is_empty() {
            return 0;
        }
        slab::grow(&mut self.slab, Self::CHUNK)
    }

    /// Gives back slab chunk `chunk`, which is empty and no longer the
    /// window's: the slab's last chunk moves into its place, and the
    /// slab is cut after the chunks still in use.
    fn release(&mut self, chunk: usize) {
        let Some(last) = (self.slab.len() / Self::CHUNK).checked_sub(1) else {
            return;
        };
        if chunk != last {
            if let Some(moved) = self.chunks.iter_mut().find(|c| **c == last) {
                *moved = chunk;
            }
            let start = chunk * Self::CHUNK;
            if let Some((kept, tail)) = self.slab.split_at_mut_checked(last * Self::CHUNK) {
                let freed = kept.get_mut(start..start + Self::CHUNK).unwrap_or_default();
                for (to, from) in freed.iter_mut().zip(tail) {
                    *to = from.take();
                }
            }
        }
        slab::cut(&mut self.slab, last * Self::CHUNK, Self::CHUNK);
    }

    /// The live ids and their values, ascending by id.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        self.chunks
            .iter()
            .zip(self.front..)
            .flat_map(move |(&chunk, number)| {
                let first = number * Self::CHUNK_IDS;
                let start = chunk * Self::CHUNK;
                let slots = self
                    .slab
                    .get(start..start + Self::CHUNK)
                    .unwrap_or_default();
                let slots = slots.iter().enumerate();
                slots.filter_map(move |(i, slot)| Some((first + i as u64, slot.as_ref()?)))
            })
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::IdWindow;

    const CHUNK: usize = IdWindow::<u32>::CHUNK;

    #[test]
    fn ids_near_u64_max_and_zero_round_trip() {
        let mut w = IdWindow::new();
        w.insert(u64::MAX, 'z');
        w.insert(u64::MAX - 2, 'x');
        assert_eq!(w.slots(), 3);
        assert_eq!(w.get(u64::MAX - 1), None);
        assert_eq!(w.get(0), None);
        assert_eq!(
            w.iter().collect::<Vec<_>>(),
            vec![(u64::MAX - 2, &'x'), (u64::MAX, &'z')]
        );
        assert_eq!(w.remove(u64::MAX), Some('z'));
        assert_eq!(w.slots(), 1);
        assert_eq!(w.remove(u64::MAX - 2), Some('x'));
        assert_eq!(w.slots(), 0);
        w.insert(0, 'a');
        assert_eq!(w.get(0), Some(&'a'));
    }

    /// `opened`: whether anything was ever inserted into `window`.
    fn assert_same(window: &IdWindow<u32>, model: &BTreeMap<u64, u32>, opened: bool) {
        assert_eq!(window.len(), model.len());
        assert_eq!(window.is_empty(), model.is_empty());
        let seen: Vec<(u64, u32)> = window.iter().map(|(id, &v)| (id, v)).collect();
        let expected: Vec<(u64, u32)> = model.iter().map(|(&id, &v)| (id, v)).collect();
        assert_eq!(seen, expected);
        // The memory claim: the window spans exactly oldest..=newest
        // live id, and nothing once empty; the slab holds that span in
        // whole chunks, at most one more than it fills, and keeps one
        // chunk once empty.
        let span = match (model.keys().next(), model.keys().next_back()) {
            (Some(oldest), Some(newest)) => (newest - oldest + 1) as usize,
            _ => 0,
        };
        assert_eq!(window.slots(), span);
        if model.is_empty() {
            assert_eq!(window.held(), if opened { CHUNK } else { 0 });
        } else {
            assert!(window.held() <= span.div_ceil(CHUNK) * CHUNK + CHUNK);
        }
    }

    /// Chunks held by `window`.
    fn chunks(window: &IdWindow<u32>) -> usize {
        window.held() / CHUNK
    }

    #[test]
    fn the_slab_shrinks_as_each_chunk_drains() {
        let ids = 64 * CHUNK as u64;
        // From the front, then from the back.
        for from_back in [false, true] {
            let mut w = IdWindow::new();
            for id in 0..ids {
                w.insert(id, id as u32);
            }
            assert_eq!(chunks(&w), 64);
            let order: Vec<u64> = if from_back {
                (0..ids).rev().collect()
            } else {
                (0..ids).collect()
            };
            for (n, id) in order.into_iter().enumerate() {
                assert_eq!(w.remove(id), Some(id as u32));
                let drained = (n + 1) / CHUNK;
                // An emptied window keeps its last chunk.
                assert_eq!(chunks(&w), (64 - drained).max(1), "after {n} removals");
            }
            assert!(w.is_empty());
            assert_eq!(w.slots(), 0);
            assert_eq!(w.iter().next(), None);
        }
    }

    #[test]
    fn a_front_reopened_below_is_held_and_given_back() {
        let mut w = IdWindow::new();
        let base = 10 * CHUNK as u64;
        for id in base..base + 4 * CHUNK as u64 {
            w.insert(id, 1u32);
        }
        assert_eq!(chunks(&w), 4);
        // Two chunks below the front: the window takes both, and the
        // slots between stay empty.
        let low = base - 2 * CHUNK as u64 + 5;
        assert_eq!(w.insert(low, 2), None);
        assert_eq!(chunks(&w), 6);
        assert_eq!(w.slots(), 6 * CHUNK - 5);
        assert_eq!(w.get(low), Some(&2));
        assert_eq!(w.get(low + 1), None);
        assert_eq!(w.iter().next(), Some((low, &2)));
        // Its removal closes the front over both, up to the old base.
        assert_eq!(w.remove(low), Some(2));
        assert_eq!(chunks(&w), 4);
        assert_eq!(w.iter().next(), Some((base, &1)));
        // Draining the middle first leaves the ends, and every chunk
        // between them.
        for id in base + 1..base + 4 * CHUNK as u64 - 1 {
            w.remove(id);
        }
        assert_eq!(chunks(&w), 4);
        w.remove(base + 4 * CHUNK as u64 - 1);
        assert_eq!(chunks(&w), 1);
        assert_eq!(w.iter().collect::<Vec<_>>(), vec![(base, &1)]);
        // The spare chunk serves the next insert, wherever its id falls.
        w.remove(base);
        w.insert(3, 3);
        assert_eq!(chunks(&w), 1);
        assert_eq!(w.iter().collect::<Vec<_>>(), vec![(3, &3)]);
    }

    proptest! {
        /// Random ops, coded `(kind, n)`: insert at the next
        /// never-issued id after a gap of `n % 51`; insert below the
        /// oldest live id; re-insert over the `n`-th live id; `get`,
        /// `get_mut` (written through) and `remove` of the `n`-th live
        /// id; the same three calls on a dead or never-issued id.
        #[test]
        fn matches_a_btreemap_after_every_op(
            ops in proptest::collection::vec((0u8..7, 0u64..4_000), 1..200),
        ) {
            let mut window: IdWindow<u32> = IdWindow::new();
            let mut model: BTreeMap<u64, u32> = BTreeMap::new();
            // Ids start high enough for inserts below the front to have room.
            let mut next_id = 1_000u64;
            let mut opened = false;
            let nth_live = |model: &BTreeMap<u64, u32>, n: u64| {
                model.keys().nth(n as usize % model.len().max(1)).copied()
            };
            for (stamp, (kind, n)) in (1u32..).zip(ops) {
                match kind {
                    0 | 1 => {
                        opened = true;
                        next_id += n % 51;
                        prop_assert_eq!(window.insert(next_id, stamp), model.insert(next_id, stamp));
                        next_id += 1;
                    }
                    2 => {
                        let Some(oldest) = nth_live(&model, 0) else { continue };
                        let id = oldest - (1 + n % 5);
                        prop_assert_eq!(window.insert(id, stamp), model.insert(id, stamp));
                    }
                    3 => {
                        let Some(id) = nth_live(&model, n) else { continue };
                        prop_assert_eq!(window.insert(id, stamp), model.insert(id, stamp));
                    }
                    4 | 5 => {
                        let Some(id) = nth_live(&model, n) else { continue };
                        prop_assert_eq!(window.get(id), model.get(&id));
                        *window.get_mut(id).unwrap() += 1;
                        *model.get_mut(&id).unwrap() += 1;
                        prop_assert_eq!(window.remove(id), model.remove(&id));
                        prop_assert_eq!(window.remove(id), None);
                    }
                    _ => {
                        if model.contains_key(&n) { continue }
                        prop_assert_eq!(window.get(n), None);
                        prop_assert!(window.get_mut(n).is_none());
                        prop_assert_eq!(window.remove(n), None);
                    }
                }
                assert_same(&window, &model, opened);
            }
            while let Some(id) = nth_live(&model, 0) {
                prop_assert_eq!(window.remove(id), model.remove(&id));
                assert_same(&window, &model, opened);
            }
            prop_assert_eq!(window.slots(), 0);
        }
    }
}
