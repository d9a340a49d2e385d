//! Settling: progressive filling over the route classes, and the pass
//! that hands the rates to the flows and folds the link integrals.

use vod_net::Mbps;

use super::{FlowNetwork, NEVER};

/// Reusable buffers of the progressive filling, so steady-state
/// reallocation never allocates.
#[derive(Debug, Clone, Default)]
pub(super) struct FillScratch {
    /// Links some unfrozen flow still crosses: the rows of `cap` and
    /// `count`, in no particular order. Empty between fills.
    pub(super) live: Vec<u32>,
    /// Residual capacity of each live link.
    pub(super) cap: Vec<f64>,
    /// Unfrozen flows crossing each live link — an integer, held as
    /// `f64` so a round's division and product convert nothing.
    pub(super) count: Vec<f64>,
    /// Per live link, while the rows are built: the most flow load it
    /// can ever carry, the sum of the bottlenecks of the classes
    /// crossing it. Empty once the fill's rounds start.
    pub(super) bound: Vec<f64>,
    /// Per link of the topology: its row above, or [`NO_ROW`].
    pub(super) pos: Vec<u32>,
    /// Links that ran out of capacity in the current round.
    pub(super) saturated: Vec<u32>,
}

/// `FillScratch::pos` of a link that is not live.
pub(super) const NO_ROW: u32 = u32::MAX;

/// Relative and absolute slack of the pruning test: a fill drops the
/// row of a link whose bound `B` and residual capacity `C` satisfy
/// `B·(1 + m) + m < C`.
///
/// `B` is the sum, over the classes crossing the link (once per
/// crossing), of each class's bottleneck `b` — the least residual
/// capacity on its route. A class of `k` members frozen at rate `r`
/// loads each link it crosses with `k·r`, and the fill never loads a
/// link past its residual, so `k·r ≤ b`; the link's final flow load
/// is then at most `B`. In exact arithmetic a link with `B < C` ends
/// the fill with residual `C − load ≥ C − B > 0`: it never saturates,
/// so no class freezes on it, and it is never a round's minimum (nor
/// tied with it), since the round whose increment is its own
/// `cap / count` leaves it at `cap − (cap / count)·count = 0`.
/// Removing a row that is never the minimum and never saturates
/// changes no round's increment, no saturated set and no rate: the
/// kept rows' arithmetic is the arithmetic of the full fill.
///
/// In `f64`, each round's `cap −= inc·count` and `level += inc` round
/// by at most `ε = 2⁻⁵³` of operands bounded by `C`, so after `R`
/// rounds the link's computed load exceeds its exact one by at most
/// about `3Rε·C`, and the `b` side by as much; `B` itself is a sum
/// with `ε` relative error per term. A kept-versus-pruned decision
/// could only differ from exact arithmetic where `C − B` is within
/// those errors: the relative slack `m·B = 10⁻⁹·B` covers them up to
/// `R ≈ 10⁻⁹ / 3.3·10⁻¹⁶ ≈ 3·10⁶` rounds (a fill has at most one
/// round per live class), and the absolute `10⁻⁹` covers the
/// `1e-12` saturation threshold and bounds near zero. The cut
/// changes nothing that the unpruned fill computed: the kernel stays
/// bitwise equal to the lockstep oracle.
const PRUNE_MARGIN: f64 = 1e-9;

/// Fewest links of a topology whose fills prune. The bound costs a pass
/// over every (class, link) crossing and the compaction one over the
/// rows, and a pruned row saves two row visits per round. GRNET's seven
/// links (`grnet_diurnal`: 1.3 M fills of 1.4 rounds) cannot repay
/// that: a settle after a background change took 243 ns with pruning
/// and 215 without (3 flows on GRNET, 10⁶ settles, medians of five
/// runs on a shared 2-core x86-64 host; 10 flows: 558 and 506 ns). On `gnp200_remote`'s 1 190 links
/// the fills average 54 rounds over about 300 rows and pruning removes
/// six of every ten row scans (DESIGN.md §13). A topology below this
/// runs the fill with no pruning code in it.
pub(super) const PRUNE_MIN_LINKS: usize = 16;

impl FlowNetwork {
    /// Whether an input of the allocation changed since the last settle.
    pub(super) fn is_stale(&self) -> bool {
        self.capacity_moved || !self.touched_classes.is_empty()
    }

    /// Books a background load, outage or degradation a setter just
    /// stored: one that `changed` the stored value leaves the allocation
    /// stale.
    pub(super) fn capacity_input_stored(&mut self, changed: bool) {
        if changed {
            self.capacity_moved = true;
        } else {
            self.stats.reallocations_skipped += 1;
        }
    }

    /// Brings the allocation up to date with every mutation since the
    /// last settle: retires the classes left empty, recomputes the
    /// max-min fair rates (progressive filling) unless every input of
    /// the fill is what the last fill saw or no flow is live to take
    /// one, hands the rates to the flows, and rebuilds link loads,
    /// completion schedule and link integrals. A no-op on a fresh
    /// allocation.
    ///
    /// `advance`, `advance_into`, `next_completion` and every reader of
    /// a rate or a link load settle first, so calling this is never
    /// required — only a way to choose *when* the work happens.
    pub fn settle(&mut self) {
        if !self.is_stale() {
            return;
        }
        self.stats.settles += 1;
        let mut moved = std::mem::take(&mut self.capacity_moved);
        let mut touched = std::mem::take(&mut self.touched_classes);
        #[expect(
            clippy::indexing_slicing,
            reason = "touched class ids name slots of `classes`, and class links belong to the topology"
        )]
        for c in touched.drain(..) {
            let class = &mut self.classes[c as usize];
            moved |= class.members != class.filled_members;
            class.filled_members = class.members;
            // An empty `links` marks a slot retired earlier in this
            // loop (a class can be listed more than once).
            if class.members == 0 && !class.links.is_empty() {
                for l in std::mem::take(&mut class.links) {
                    let list = &mut self.link_classes[l.index()];
                    if let Some(at) = list.iter().position(|&listed| listed == c) {
                        list.swap_remove(at);
                    }
                }
                self.free_classes.push(c);
            }
        }
        self.touched_classes = touched;
        if moved {
            self.stats.reallocations += 1;
            // Every live class has a member in the slab: over an idle
            // backbone the fill has no class to visit and is not entered.
            if !self.slab.is_empty() {
                if self.topology.link_count() >= PRUNE_MIN_LINKS {
                    self.fill_classes::<true>();
                } else {
                    self.fill_classes::<false>();
                }
            }
        } else {
            self.stats.fills_unchanged += 1;
        }
        self.apply_class_rates();
    }

    /// Progressive filling over the route classes: raise every unfrozen
    /// class's rate by the largest increment every crossed link can
    /// afford, freeze the classes crossing a link that ran out, repeat.
    /// Leaves each live class's max-min rate in `RouteClass::rate`.
    ///
    /// With `PRUNE`, before the first round, a link whose bound
    /// (`PRUNE_MARGIN`) shows it can never saturate gives up its row
    /// (see `PRUNE_MIN_LINKS` for when): it is never a round's
    /// minimum and never freezes a class, so the rounds that follow are
    /// the ones a full fill would run. Each round saturates at least one
    /// link and makes two passes over dense arrays of the links that can
    /// still saturate and an unfrozen class still crosses, then visits
    /// only the classes on the links that saturated: `O(crossed links +
    /// rounds × (kept links + classes on saturated links))`, independent
    /// of the number of flows and of the size of the topology.
    #[expect(
        clippy::disallowed_macros,
        reason = "debug check: a non-finite increment only once no counted link is live"
    )]
    #[expect(
        clippy::indexing_slicing,
        reason = "`pos` is sized by `link_count`, a row indexes `live`/`cap`/`count` while `pos` lists it, and class ids name slots of `classes`"
    )]
    fn fill_classes<const PRUNE: bool>(&mut self) {
        let FlowNetwork {
            topology,
            background,
            classes,
            link_classes,
            admin_down,
            capacity_scale,
            fill,
            stats,
            ..
        } = self;
        let FillScratch {
            live,
            cap,
            count,
            bound,
            pos,
            saturated,
        } = fill;

        // Give every crossed link a row: the flows on it and its
        // residual capacity after degradation, outages and background
        // traffic. With `PRUNE`, also its bound: each class's bottleneck
        // (the least residual on its route) added once per crossing, as
        // soon as the class's own rows exist.
        let mut remaining = 0u64;
        for class in classes.iter_mut().filter(|c| c.members > 0) {
            class.frozen = false;
            remaining += 1;
            let members = f64::from(class.members);
            let mut bottleneck = f64::INFINITY;
            for l in &class.links {
                let i = l.index();
                if pos[i] == NO_ROW {
                    pos[i] = live.len() as u32;
                    live.push(i as u32);
                    count.push(0.0);
                    if PRUNE {
                        bound.push(0.0);
                    }
                    cap.push(if admin_down[i] {
                        0.0
                    } else {
                        let deliverable = topology.link(*l).capacity().as_f64() * capacity_scale[i];
                        (deliverable - background[i].as_f64()).max(0.0)
                    });
                }
                let row = pos[i] as usize;
                count[row] += members;
                if PRUNE {
                    bottleneck = bottleneck.min(cap[row]);
                }
            }
            if PRUNE {
                for l in &class.links {
                    bound[pos[l.index()] as usize] += bottleneck;
                }
            }
        }
        stats.classes_filled += remaining;

        // Drop the rows that cannot saturate (see `PRUNE_MARGIN`),
        // compacting the kept ones in place.
        if PRUNE {
            let mut kept = 0;
            for row in 0..live.len() {
                let link = live[row];
                if bound[row] * (1.0 + PRUNE_MARGIN) + PRUNE_MARGIN < cap[row] {
                    pos[link as usize] = NO_ROW;
                    continue;
                }
                pos[link as usize] = kept as u32;
                live[kept] = link;
                cap[kept] = cap[row];
                count[kept] = count[row];
                kept += 1;
            }
            stats.links_pruned += (live.len() - kept) as u64;
            live.truncate(kept);
            cap.truncate(kept);
            count.truncate(kept);
            bound.clear();
        }

        let mut level = 0.0f64;
        while remaining > 0 {
            stats.fill_rounds += 1;
            stats.links_scanned += live.len() as u64;
            // Smallest per-flow increment any live link can afford.
            let mut inc = f64::INFINITY;
            for (cap, count) in cap.iter().zip(count.iter()) {
                inc = inc.min(cap / count);
            }
            // Freeze invariant: `remaining > 0` means some unfrozen class
            // still counts on every link of its route, and capacities,
            // scales and background loads are all finite — so the
            // minimum can only be non-finite if every unfrozen class lost
            // its last counted link, a state the freeze step below makes
            // unreachable. Coerce defensively so a violated invariant
            // freezes the filling level instead of poisoning every
            // remaining rate with `inf`/`NaN`.
            if !inc.is_finite() {
                debug_assert!(
                    live.is_empty(),
                    "non-finite fill increment with live counted links"
                );
                inc = 0.0;
            }
            level += inc;
            saturated.clear();
            for ((cap, count), &link) in cap.iter_mut().zip(count.iter()).zip(live.iter()) {
                *cap -= inc * count;
                if *cap <= 1e-12 {
                    saturated.push(link);
                }
            }
            // Classes crossing a saturated link freeze at the current
            // level; a link whose last crossing class froze gives up its
            // row for good.
            let rate = Mbps::new(level.max(0.0));
            let mut froze_any = false;
            for &i in saturated.iter() {
                for &c in &link_classes[i as usize] {
                    let class = &mut classes[c as usize];
                    if class.frozen {
                        continue;
                    }
                    class.frozen = true;
                    class.rate = rate;
                    froze_any = true;
                    remaining -= 1;
                    let members = f64::from(class.members);
                    for l in &class.links {
                        // A pruned link has no row to give up.
                        let row = pos[l.index()];
                        if PRUNE && row == NO_ROW {
                            continue;
                        }
                        let row = row as usize;
                        count[row] -= members;
                        if count[row] == 0.0 {
                            pos[l.index()] = NO_ROW;
                            live.swap_remove(row);
                            cap.swap_remove(row);
                            count.swap_remove(row);
                            if let Some(&moved) = live.get(row) {
                                pos[moved as usize] = row as u32;
                            }
                        }
                    }
                }
            }
            if !froze_any {
                // Cannot happen with finite capacities; guard against an
                // infinite loop by freezing everything at the level.
                for class in classes.iter_mut().filter(|c| c.members > 0 && !c.frozen) {
                    class.rate = rate;
                }
                break;
            }
        }
        // Every class froze, so every row is gone — unless the guard
        // above bailed out.
        for &i in live.iter() {
            pos[i as usize] = NO_ROW;
        }
        live.clear();
        cap.clear();
        count.clear();
    }

    /// One pass over the slab in creation order: every flow takes its
    /// class's rate — only a flow whose rate actually moved is
    /// re-anchored, which stores its new finish instant — the per-link
    /// allocation cache is rebuilt (creation order is the summation
    /// order the golden traces pin), and the earliest finish instant is
    /// recorded for `next_completion` and `collect_completions`. Then
    /// every link whose total load moved folds its integral up to now
    /// and carries on at the new load.
    #[expect(
        clippy::indexing_slicing,
        reason = "a flow's `class` names a slot of `classes`, and class links belong to the topology"
    )]
    fn apply_class_rates(&mut self) {
        let clock = self.clock_us;
        // From scratch rather than incrementally: no float drift, and
        // exactly zero when no flow remains.
        self.link_loads.iter_mut().for_each(|l| *l = 0.0);
        self.next = None;
        let mut next_finish = NEVER;
        for (slot, flow) in self.slab.iter_mut().enumerate() {
            let class = &self.classes[flow.class as usize];
            if flow.rate != class.rate {
                flow.anchor(clock, class.rate);
                self.stats.flows_rerated += 1;
            }
            let rate = flow.rate.as_f64();
            for l in &class.links {
                self.link_loads[l.index()] += rate;
            }
            // Ascending ids: the first of equal instants stays.
            if flow.finish_us < next_finish {
                next_finish = flow.finish_us;
                self.next = Some(slot);
            }
        }
        // `total_load` of every link, in raw f64: the same sum, without
        // a range check per link.
        let loads = self.background.iter().zip(&self.link_loads);
        for (integral, (background, &flows)) in self.integrals.iter_mut().zip(loads) {
            let load = background.as_f64() + flows.max(0.0);
            if load.to_bits() != integral.load.to_bits() {
                integral.folded_mbit = integral.at(clock);
                integral.folded_at = clock;
                integral.load = load;
            }
        }
    }
}
