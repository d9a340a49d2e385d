//! A map keyed by ids that are issued in ascending order and die young.
//!
//! Sessions and flows get their ids from a counter, and at any instant
//! the live ones sit in a narrow band just below it. [`IdWindow`] stores
//! exactly that band: a [`VecDeque`] of `Option<T>` slots running from
//! the oldest live id (`base`) to the newest, so a lookup is a
//! subtraction, a bounds check and an index — no search, no hashing, no
//! rebalancing — and iteration is ascending by id for free.
//!
//! # Memory
//!
//! `size_of::<Option<T>>() × (newest live id − oldest live id + 1)` in
//! slots: removing an id empties its slot, and empty slots are popped
//! off both ends, so a non-empty window always starts and ends on a live
//! id and an emptied one holds no slots. The buffer behind them is
//! another matter: the `VecDeque` keeps its high-water capacity, so a
//! window holds the memory of its widest span until it is dropped, and
//! the pages of drained slots stay resident. On `local_scale` (seed 42)
//! all 400 801 sessions are live at once, 57.7 MB of 144 B slots, and
//! the run's peak RSS (104 MB) comes at its end: the drained slots are
//! still resident then, next to the completion records that piled up
//! meanwhile. The workspace has two users, both in
//! a service run: the live sessions (the record inline, 144 B a slot)
//! and the network flow → session map (16 B). Widest session windows on
//! the five seed-42 workloads of `benchmark/`: 400 801 / 2 000 / 1 500 /
//! 107 / 2 108 slots against 400 801 / 2 000 / 1 071 / 37 / 166
//! sessions live at the peak — on `local_scale` all 400 801 ids are
//! live at once, so no map could hold fewer entries. Local serves are
//! timers, so only backbone transfers take a flow-owner slot.
//!
//! The one way it degrades: a single id that never dies pins the front,
//! and the window then spans every id issued after it, dead or alive.
//! Nothing here compacts around such an id; a population with immortal
//! members wants a different map.

use std::collections::VecDeque;

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
    /// Id of `slots[0]`; meaningless while `slots` is empty.
    base: u64,
    /// Non-empty ⇒ the first and the last slot are live.
    slots: VecDeque<Option<T>>,
    live: usize,
}

impl<T> Default for IdWindow<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> IdWindow<T> {
    /// Creates an empty window.
    pub fn new() -> Self {
        IdWindow {
            base: 0,
            slots: VecDeque::new(),
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

    /// Slots currently held, live or empty: the window's memory in units
    /// of `Option<T>`.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    fn index(&self, id: u64) -> Option<usize> {
        usize::try_from(id.checked_sub(self.base)?).ok()
    }

    /// The value of `id`, if it is live.
    pub fn get(&self, id: u64) -> Option<&T> {
        self.slots.get(self.index(id)?)?.as_ref()
    }

    /// The value of `id`, mutably, if it is live.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let index = self.index(id)?;
        self.slots.get_mut(index)?.as_mut()
    }

    /// Makes `id` live with `value`, returning the value it replaces if
    /// it was live already. An id above the window extends it by the gap
    /// (the expected case, one slot); one below re-opens the front.
    pub fn insert(&mut self, id: u64, value: T) -> Option<T> {
        if self.slots.is_empty() {
            self.base = id;
        }
        while id < self.base {
            self.slots.push_front(None);
            self.base -= 1;
        }
        // A span wider than `usize` fails in the allocator below, like
        // any collection asked for more than memory holds.
        let index = self.index(id).unwrap_or(usize::MAX);
        if index >= self.slots.len() {
            // Pushed rather than written into a fresh `None` slot:
            // `Option::replace` moves a large value through a copy
            // routine.
            self.slots.resize_with(index, || None);
            self.slots.push_back(Some(value));
            self.live += 1;
            return None;
        }
        let old = self.slots.get_mut(index)?.replace(value);
        if old.is_none() {
            self.live += 1;
        }
        old
    }

    /// Removes `id`, returning its value if it was live, and gives back
    /// the empty slots this leaves at either end of the window.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let index = self.index(id)?;
        let value = self.slots.get_mut(index)?.take()?;
        self.live -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        while let Some(None) = self.slots.back() {
            self.slots.pop_back();
        }
        Some(value)
    }

    /// The live ids and their values, ascending by id.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        let ids = self.slots.iter().enumerate();
        ids.filter_map(|(i, slot)| Some((self.base + i as u64, slot.as_ref()?)))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::IdWindow;

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

    fn assert_same(window: &IdWindow<u32>, model: &BTreeMap<u64, u32>) {
        assert_eq!(window.len(), model.len());
        assert_eq!(window.is_empty(), model.is_empty());
        let seen: Vec<(u64, u32)> = window.iter().map(|(id, &v)| (id, v)).collect();
        let expected: Vec<(u64, u32)> = model.iter().map(|(&id, &v)| (id, v)).collect();
        assert_eq!(seen, expected);
        // The memory claim: the window spans exactly oldest..=newest
        // live id, and nothing once empty.
        let span = match (model.keys().next(), model.keys().next_back()) {
            (Some(oldest), Some(newest)) => (newest - oldest + 1) as usize,
            _ => 0,
        };
        assert_eq!(window.slots(), span);
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
            let nth_live = |model: &BTreeMap<u64, u32>, n: u64| {
                model.keys().nth(n as usize % model.len().max(1)).copied()
            };
            for (stamp, (kind, n)) in (1u32..).zip(ops) {
                match kind {
                    0 | 1 => {
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
                assert_same(&window, &model);
            }
            while let Some(id) = nth_live(&model, 0) {
                prop_assert_eq!(window.remove(id), model.remove(&id));
                assert_same(&window, &model);
            }
            prop_assert_eq!(window.slots(), 0);
        }
    }
}
