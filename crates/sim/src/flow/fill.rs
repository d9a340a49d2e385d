//! Settling: progressive filling over the route classes, and the pass
//! that hands the rates to the flows and folds the link integrals.

use vod_net::{LinkId, Mbps, Topology};

use super::classes::RouteClass;
use super::{FlowNetwork, KernelStats, NEVER};

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
    /// Per link of the topology: its row above, or [`NO_ROW`].
    pub(super) pos: Vec<u32>,
    /// Links that ran out of capacity in the current round.
    pub(super) saturated: Vec<u32>,
    /// Fills run so far: a class whose `frozen_in` holds this number
    /// has its rate for the fill under way.
    pub(super) epoch: u64,
}

/// `FillScratch::pos` of a link that is not live, and
/// `KeptRows::crossed_at` of a link no live class crosses.
pub(super) const NO_ROW: u32 = u32::MAX;

/// The per-link state a fill starts from, kept between fills: `settle`
/// updates it by what changed since the last one instead of every fill
/// rebuilding it from every live class's route.
#[derive(Debug, Clone)]
pub(super) struct KeptRows {
    /// Per link of the topology.
    links: Vec<KeptLink>,
    /// The links whose `count` is positive, in no particular order: the
    /// fill's candidate rows.
    crossed: Vec<u32>,
    /// A capacity input moved since the residuals and bounds were
    /// computed: the next fill recomputes them first.
    stale: bool,
    /// Classes with a member, as of the last settle.
    live_classes: u64,
}

/// One link's kept row.
#[derive(Debug, Clone, Copy)]
struct KeptLink {
    /// The members of the live classes crossing the link (once per
    /// crossing) — an integer held as `f64`, exact below 2⁵³, so member
    /// deltas added in any order leave the same value.
    count: f64,
    /// The residual capacity no flow has taken yet: nominal capacity ×
    /// degradation scale − background, clamped at zero, and zero while
    /// the link is down. Valid while `KeptRows::stale` is clear.
    residual: f64,
    /// With pruning: the sum over the live classes crossing the link
    /// (once per crossing) of each class's bottleneck in
    /// [`BOUND_UNIT`]s, rounded up. Valid while `KeptRows::stale` is
    /// clear; the residuals do not change meanwhile, so a class's share
    /// is the same number when it comes alive and when it dies.
    bound: u128,
    /// The link's index in `KeptRows::crossed`, or [`NO_ROW`].
    crossed_at: u32,
}

/// The fixed-point unit of the pruning bound: 2⁻²⁴ Mbps. A class's
/// bottleneck is rounded *up* to a whole number of units, so each link's
/// bound is an integer sum — exact, and the same whatever order the
/// classes came and went in — that is never below the exact sum of the
/// bottlenecks and exceeds it by less than one unit per class.
const BOUND_UNIT: f64 = 1.0 / UNITS_PER_MBPS;

/// [`BOUND_UNIT`]s in one Mbps: 2²⁴.
const UNITS_PER_MBPS: f64 = (1u64 << 24) as f64;

/// Units of a bound from which on the link keeps its row unexamined:
/// 2⁵³, the first integer an `f64` may not hold exactly (2²⁹ Mbps). A
/// bottleneck this large is capped here, which can only keep a row; the
/// sums are `u128`, so no number of capped classes overflows one.
const BOUND_EXACT: u64 = 1 << 53;

/// `bottleneck` in [`BOUND_UNIT`]s, rounded up, capped at
/// [`BOUND_EXACT`]. Scaling by a power of two is exact, and the ceiling
/// is taken as `transfer_time` takes it, without a libm call.
fn bound_units(bottleneck: f64) -> u64 {
    let scaled = bottleneck * UNITS_PER_MBPS;
    if scaled < BOUND_EXACT as f64 {
        let whole = scaled as u64;
        whole + u64::from((whole as f64) < scaled)
    } else {
        BOUND_EXACT
    }
}

impl KeptRows {
    /// No class live, and the capacity-derived rows due on the first
    /// fill.
    pub(super) fn new(links: usize) -> Self {
        let link = KeptLink {
            count: 0.0,
            residual: 0.0,
            bound: 0,
            crossed_at: NO_ROW,
        };
        KeptRows {
            links: vec![link; links],
            crossed: Vec::new(),
            stale: true,
            live_classes: 0,
        }
    }

    /// The bottleneck of a class crossing `links` — the least residual
    /// capacity on its route — in [`BOUND_UNIT`]s, rounded up.
    #[expect(
        clippy::indexing_slicing,
        reason = "class links belong to the topology, and `links` is sized by `link_count`"
    )]
    fn bottleneck_units(&self, links: &[LinkId]) -> u128 {
        let bottleneck = links
            .iter()
            .fold(f64::INFINITY, |b, l| b.min(self.links[l.index()].residual));
        u128::from(bound_units(bottleneck))
    }

    /// Books `class`'s member count moving from `filled_members` to
    /// `members` (which differ): the count of every link it crosses
    /// moves by the difference, a link joins or leaves `crossed` as its
    /// count leaves or reaches zero, and — with `prune`, while the
    /// bounds are valid — a class coming alive adds its bottleneck to
    /// the bound of every link it crosses, and one dying takes it back.
    #[expect(
        clippy::indexing_slicing,
        reason = "class links belong to the topology, and `links` is sized by `link_count`"
    )]
    fn shift(&mut self, class: &RouteClass, prune: bool, stats: &mut KernelStats) {
        let delta = f64::from(class.members) - f64::from(class.filled_members);
        for l in &class.links {
            let i = l.index();
            let link = &mut self.links[i];
            let before = link.count;
            link.count += delta;
            if before == 0.0 {
                link.crossed_at = self.crossed.len() as u32;
                self.crossed.push(i as u32);
            } else if link.count == 0.0 {
                let at = link.crossed_at as usize;
                link.crossed_at = NO_ROW;
                self.crossed.swap_remove(at);
                if let Some(&moved) = self.crossed.get(at) {
                    self.links[moved as usize].crossed_at = at as u32;
                }
            }
        }
        stats.row_updates += class.links.len() as u64;
        let bounded = prune && !self.stale;
        if class.filled_members == 0 {
            self.live_classes += 1;
            if bounded {
                let units = self.bottleneck_units(&class.links);
                for l in &class.links {
                    self.links[l.index()].bound += units;
                }
            }
        } else if class.members == 0 {
            self.live_classes -= 1;
            if bounded {
                let units = self.bottleneck_units(&class.links);
                for l in &class.links {
                    self.links[l.index()].bound -= units;
                }
            }
        }
    }

    /// Recomputes every link's residual capacity from the capacity
    /// inputs and, with `prune`, every live class's bottleneck and every
    /// link's bound from those.
    #[expect(
        clippy::indexing_slicing,
        reason = "every per-link vector is sized by `link_count`, and class links belong to the topology"
    )]
    fn refresh(
        &mut self,
        topology: &Topology,
        background: &[Mbps],
        admin_down: &[bool],
        capacity_scale: &[f64],
        classes: &[RouteClass],
        prune: bool,
    ) {
        for (i, (kept, link)) in self.links.iter_mut().zip(topology.links()).enumerate() {
            kept.residual = if admin_down[i] {
                0.0
            } else {
                let deliverable = link.capacity().as_f64() * capacity_scale[i];
                (deliverable - background[i].as_f64()).max(0.0)
            };
            kept.bound = 0;
        }
        if prune {
            for class in classes.iter().filter(|c| c.members > 0) {
                let units = self.bottleneck_units(&class.links);
                for l in &class.links {
                    self.links[l.index()].bound += units;
                }
            }
        }
        self.stale = false;
    }
}

/// Whether `link`, of residual capacity `link.residual`, can be left out
/// of a fill: its bound shows it never saturates (see [`PRUNE_MARGIN`]).
fn never_saturates(link: &KeptLink) -> bool {
    // Below 2⁵³ the conversion and the scaling are exact: the bound is
    // the integer sum, not a rounding of it.
    link.bound < u128::from(BOUND_EXACT)
        && (link.bound as u64 as f64 * BOUND_UNIT) * (1.0 + PRUNE_MARGIN) + PRUNE_MARGIN
            < link.residual
}

/// Relative and absolute slack of the pruning test: a fill drops the
/// row of a link whose bound `B` and residual capacity `C` satisfy
/// `B·(1 + m) + m < C`.
///
/// `B` is the link's kept bound: the sum, over the classes crossing the
/// link (once per crossing), of each class's bottleneck `b` — the least
/// residual capacity on its route — rounded up to a whole
/// [`BOUND_UNIT`]. Every term is an integer number of units and the sum
/// is an integer below 2⁵³, so `B` is exact, whatever order the classes
/// came and went in, and at least `Σ b`. A class of `k` members frozen
/// at rate `r` loads each link it crosses with `k·r`, and the fill never
/// loads a link past its residual, so `k·r ≤ b`; the link's final flow
/// load is then at most `Σ b ≤ B`. In exact arithmetic a link with `B < C` ends
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
/// about `3Rε·C`, and the `b` side by as much; `B` carries no
/// rounding error of its own. A kept-versus-pruned decision
/// could only differ from exact arithmetic where `C − B` is within
/// those errors: the relative slack `m·B = 10⁻⁹·B` covers them up to
/// `R ≈ 10⁻⁹ / 3.3·10⁻¹⁶ ≈ 3·10⁶` rounds (a fill has at most one
/// round per live class), and the absolute `10⁻⁹` covers the
/// `1e-12` saturation threshold and bounds near zero. The cut
/// changes nothing that the unpruned fill computed: the kernel stays
/// bitwise equal to the lockstep oracle.
const PRUNE_MARGIN: f64 = 1e-9;

/// Fewest links of a topology whose fills prune. The bound costs a pass
/// over a class's links when it comes alive or dies, one over every
/// (class, link) crossing after each capacity change, and a test per
/// row; a pruned row saves two row visits per round. GRNET's seven
/// links (`grnet_diurnal`: 1.3 M fills of 1.4 rounds, most after a
/// background change) cannot repay that: a settle after a background
/// change took 243 ns with pruning and 215 without, when every fill
/// still rebuilt its bounds (3 flows on GRNET, 10⁶ settles, medians of
/// five runs on a shared 2-core x86-64 host; 10 flows: 558 and 506 ns).
/// On `gnp200_remote`'s 1 190 links
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
    /// last settle: moves the kept rows by each touched class's member
    /// delta, retires the classes left empty, recomputes the
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
        self.rows.stale |= moved;
        let prune = self.topology.link_count() >= PRUNE_MIN_LINKS;
        let mut touched = std::mem::take(&mut self.touched_classes);
        #[expect(
            clippy::indexing_slicing,
            reason = "touched class ids name slots of `classes`, and class links belong to the topology"
        )]
        for c in touched.drain(..) {
            let class = &mut self.classes[c as usize];
            if class.members != class.filled_members {
                moved = true;
                self.rows.shift(class, prune, &mut self.stats);
                class.filled_members = class.members;
            }
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
                if prune {
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
    /// The rows start as copies of the kept ones (`KeptRows`), after a
    /// capacity change recomputed first. With `PRUNE`, a link whose
    /// bound (`PRUNE_MARGIN`) shows it can never saturate gets no row
    /// (see `PRUNE_MIN_LINKS` for when): it is never a round's minimum
    /// and never freezes a class, so the rounds that follow are the ones
    /// a full fill would run. Each round saturates at least one link and
    /// makes two passes over dense arrays of the links that can still
    /// saturate and an unfrozen class still crosses, then visits only
    /// the classes on the links that saturated: `O(crossed links +
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
            rows,
            fill,
            stats,
            ..
        } = self;
        if rows.stale {
            rows.refresh(
                topology,
                background,
                admin_down,
                capacity_scale,
                classes,
                PRUNE,
            );
        }
        let FillScratch {
            live,
            cap,
            count,
            pos,
            saturated,
            epoch,
        } = fill;
        *epoch += 1;
        let epoch = *epoch;

        // Give every crossed link a row: the flows on it and its
        // residual capacity — or, with `PRUNE`, none if it cannot
        // saturate.
        let mut remaining = rows.live_classes;
        stats.classes_filled += remaining;
        for &link in &rows.crossed {
            let kept = &rows.links[link as usize];
            if PRUNE && never_saturates(kept) {
                stats.links_pruned += 1;
                continue;
            }
            pos[link as usize] = live.len() as u32;
            live.push(link);
            cap.push(kept.residual);
            count.push(kept.count);
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
                    if class.frozen_in == epoch {
                        continue;
                    }
                    class.frozen_in = epoch;
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
                let unfrozen = classes
                    .iter_mut()
                    .filter(|c| c.members > 0 && c.frozen_in != epoch);
                for class in unfrozen {
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

#[cfg(test)]
impl FlowNetwork {
    /// The kept rows of a settled network against a rebuild from the
    /// live classes and the capacity inputs: every count, the crossed
    /// set and the live-class tally exactly; while any flow is live the
    /// residuals bitwise, and with pruning every link's bound as the sum
    /// of its classes' bottlenecks, each rounded up to a unit — at least
    /// the exact sum, and less than one unit per class above it.
    pub(super) fn check_kept_rows(&self) -> Result<(), String> {
        let rows = &self.rows;
        let n = self.topology.link_count();
        let live: Vec<&RouteClass> = self.classes.iter().filter(|c| c.members > 0).collect();
        if rows.live_classes != live.len() as u64 {
            return Err(format!(
                "{} live classes kept, {} live",
                rows.live_classes,
                live.len()
            ));
        }
        let mut count = vec![0.0; n];
        for class in &live {
            for l in &class.links {
                count[l.index()] += f64::from(class.members);
            }
        }
        let mut crossed = rows.crossed.clone();
        crossed.sort_unstable();
        let expected: Vec<u32> = (0..n as u32).filter(|&i| count[i as usize] > 0.0).collect();
        if crossed != expected {
            return Err(format!("crossed {crossed:?}, expected {expected:?}"));
        }
        for (at, &i) in rows.crossed.iter().enumerate() {
            if rows.links[i as usize].crossed_at != at as u32 {
                return Err(format!("link {i} is crossed at {at}, noted elsewhere"));
            }
        }
        for (i, kept) in rows.links.iter().enumerate() {
            if kept.count.to_bits() != count[i].to_bits() {
                return Err(format!(
                    "link {i}: count {} kept, {} live",
                    kept.count, count[i]
                ));
            }
            if count[i] == 0.0 && kept.crossed_at != NO_ROW {
                return Err(format!("uncrossed link {i} is noted as crossed"));
            }
        }
        if rows.stale {
            // Nothing reads a stale residual before the fill that
            // recomputes it, and a settle with a flow live runs one.
            return if self.slab.is_empty() {
                Ok(())
            } else {
                Err("stale residuals with flows live".into())
            };
        }
        let mut residuals = Vec::with_capacity(n);
        for (i, (kept, link)) in rows.links.iter().zip(self.topology.links()).enumerate() {
            let residual = if self.admin_down[i] {
                0.0
            } else {
                (link.capacity().as_f64() * self.capacity_scale[i] - self.background[i].as_f64())
                    .max(0.0)
            };
            if kept.residual.to_bits() != residual.to_bits() {
                return Err(format!(
                    "link {i}: residual {} kept, {residual}",
                    kept.residual
                ));
            }
            residuals.push(residual);
        }
        if n < PRUNE_MIN_LINKS {
            return Ok(());
        }
        let mut bound = vec![0u128; n];
        for class in &live {
            let bottleneck = class
                .links
                .iter()
                .map(|l| residuals[l.index()])
                .fold(f64::INFINITY, f64::min);
            let units = (bottleneck * UNITS_PER_MBPS).ceil() as u128;
            for l in &class.links {
                bound[l.index()] += units;
            }
        }
        for (i, kept) in rows.links.iter().enumerate() {
            if kept.bound != bound[i] {
                return Err(format!("link {i}: bound {} kept, {}", kept.bound, bound[i]));
            }
        }
        Ok(())
    }
}
