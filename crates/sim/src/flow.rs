//! Fluid-flow network model with max-min fair bandwidth sharing.
//!
//! Each backbone transfer is a *flow*: a fixed volume of data moving
//! along a non-empty route of links. At any instant every link's
//! residual capacity (capacity minus background traffic) is shared
//! **max-min fairly** among the flows crossing it — the classic
//! progressive-filling allocation. Between events the allocation is
//! constant, so every flow's completion instant is a closed form of the
//! allocation's history, which is what makes the discrete-event
//! simulation both fast and deterministic.
//!
//! A client served from its home server's own disks crosses no link and
//! competes for nothing, so it is not a flow: the service schedules that
//! transfer's end as a timer ([`transfer_time`] after its start), and an
//! empty route is refused with [`FlowError::EmptyRoute`].
//!
//! # Accounting
//!
//! Flows live in a dense slab in creation order, each pointing at its
//! **route class** — one distinct link sequence with a live-member
//! count. Flows of one class cross the same links, so progressive
//! filling freezes them in the same round at the same level: the fill
//! runs over classes and crossed links, and its rounds over only the
//! links that can saturate — a link whose classes' bottlenecks sum to
//! less than its residual capacity is dropped before the first round —
//! `O(crossed links + rounds × (kept links + classes on saturated
//! links))`, whatever the number of flows. The per-link member counts,
//! residual capacities and bottleneck sums a fill starts from are kept
//! between fills: a settle moves them by the classes whose member count
//! changed, and recomputes the capacity-derived ones only after a
//! capacity input moved. One
//! dense pass then hands each slot its class's rate, re-anchors the
//! slots whose rate moved and rebuilds the per-link loads.
//!
//! A slot stores its remaining volume as of its own last rate change
//! (its anchor) and, computed once at that re-anchor, the microsecond it
//! finishes at: `anchor + ⌈remaining / rate⌉` (see [`transfer_time`]),
//! none while frozen at rate zero. Between two settles neither the set
//! of flows nor their rates can change, so the earliest stored instant
//! *is* the network's completion schedule, and advancing the clock
//! touches no flow until it is reached.
//!
//! Each link's volume integral (the SNMP byte-counter source) is folded
//! the same way: `load × elapsed` is added only when a settle changes
//! the link's total load, and a reader extrapolates the load in effect
//! since the last fold. Neither a completion instant nor an integral
//! depends on when, or how often, the network is advanced or read —
//! only on the instants its inputs changed at.
//!
//! # Settling
//!
//! The allocation is a pure function of (route-class member counts,
//! capacities, background), and an allocation that lasts no simulated
//! time is unobservable. So a mutation — a flow added, removed or
//! completed, a background, outage or degradation setter that stores a
//! new value — only marks the allocation *stale*; the one
//! [`FlowNetwork::settle`] recomputes it, and runs at most once per
//! batch of mutations: on entry to `advance`/`advance_into` (before the
//! clock moves) and `next_completion`, and inside every reader of a
//! rate or a link load (which is why those take `&mut self`: a stale
//! allocation cannot be read). A class a mutation emptied is retired
//! only when the network settles, so a completion followed at the same
//! instant by the next cluster's flow along the same route rejoins its
//! class — and when no class's member count and no capacity input
//! differs from what the last fill saw, the fill is skipped and only the
//! pass over the slab runs. The same holds while no flow is live at all
//! (an idle backbone, the state most periodic background refreshes
//! find): a moved capacity has no class to fill and no slot to re-rate,
//! so that settle zeroes the per-link loads, and the first flow to join
//! brings the fill that reads the capacities as they then stand.
//!
//! ```compile_fail
//! # use vod_net::{Mbps, TopologyBuilder};
//! # use vod_sim::flow::FlowNetwork;
//! # let mut b = TopologyBuilder::new();
//! # let (a, c) = (b.add_node("a"), b.add_node("b"));
//! # let l = b.add_link(a, c, Mbps::new(2.0)).unwrap();
//! let mut net = FlowNetwork::new(b.build());
//! let flow = net.add_flow(vec![l], 10.0).unwrap();
//! let shared: &FlowNetwork = &net;
//! shared.rate(flow); // E0596: a reader settles first, so it needs `&mut`
//! ```
//!
//! # Bit parity with the lockstep oracle
//!
//! The naive lockstep kernel — every advance scans every flow and
//! every link, every mutation refills flow by flow — lives on as the
//! differential-testing oracle in this module's test tree, and every
//! rate, link load, completion instant and SNMP integral here is
//! *bitwise* what it computes:
//!
//! * per-link flow counts are integers (`Σ members`, held as `f64`,
//!   exact below 2⁵³), so they are exact in any order;
//! * each link sees the same f64 sequence, `cap -= inc × count` once per
//!   round with `inc = min cap / count` (a minimum is order-free, so the
//!   order the live links sit in their dense arrays cannot matter);
//!   a link the fill prunes is provably never that minimum and never
//!   saturates, so leaving it out moves no increment and no freeze;
//! * "some link of the route is saturated" is a function of the route,
//!   so class members freeze together and class order cannot matter;
//! * link loads are summed slot by slot in creation order, the
//!   summation order the golden traces pin;
//! * a fill is a pure function of (class member counts, capacities,
//!   background). Of the fills the oracle runs within one batch of
//!   mutations, only the last outlives the instant, and it sees the
//!   inputs the one deferred fill sees — or, when those equal the
//!   previous fill's, re-derives the rates every class already has;
//! * a re-anchor and a fold happen at a settle, when the settled rate
//!   or load differs bitwise from the one in effect, and the oracle
//!   does both at the same points with the same arithmetic.

use std::error::Error;
use std::fmt;

use serde::Serialize;

use vod_net::units::Fraction;
use vod_net::{LinkId, Mbps, Topology, TrafficSnapshot};

use crate::time::SimDuration;

mod classes;
mod fill;

use classes::RouteClass;
use fill::{FillScratch, KeptRows, NO_ROW};

/// Volume (megabits) at or below which a flow counts as transferred
/// whatever its rate: a re-anchor that leaves no more than this makes
/// the flow due on the next microsecond, even frozen at rate zero.
pub const COMPLETION_EPSILON_MBIT: f64 = 1e-9;

/// Time to move `volume_mbit` at a constant `rate`, rounded *up* to the
/// clock's microsecond: the transfer has fully arrived at that instant
/// and not one microsecond earlier. Saturates for a rate too small to
/// finish within the clock's range (a zero rate never finishes).
///
/// The closed form of every completion instant in the workspace: the
/// flow network stores `anchor + transfer_time(remaining, rate)` at each
/// re-anchor, and a local serve is a timer this long.
pub fn transfer_time(volume_mbit: f64, rate: Mbps) -> SimDuration {
    let secs = volume_mbit / rate.as_f64();
    let micros = secs * 1e6;
    // `micros.ceil() as u64`, bit for bit, without the libm call a
    // baseline x86-64 build makes for `ceil` (every re-anchor pays it):
    // truncate, then count a fractional part as one more microsecond.
    let whole = micros as u64;
    SimDuration::from_micros(whole.saturating_add(u64::from((whole as f64) < micros)))
}

/// Identifier of a flow within a [`FlowNetwork`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct FlowId(u64);

impl FlowId {
    /// The id as a number: ids are issued in ascending order from zero,
    /// which makes this the key of an [`IdWindow`](crate::IdWindow)
    /// over flows.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Errors produced by the flow network.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FlowError {
    /// The flow id is unknown (never existed or already completed/removed).
    UnknownFlow(FlowId),
    /// A route referenced a link that is not in the topology.
    UnknownLink(LinkId),
    /// The requested volume was not a positive finite number.
    InvalidVolume(f64),
    /// The route crosses no link: a local serve, which is a timer of
    /// the caller's (see [`transfer_time`]), not a flow.
    EmptyRoute,
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::UnknownFlow(id) => write!(f, "unknown flow {id}"),
            FlowError::UnknownLink(id) => write!(f, "unknown link {id}"),
            FlowError::InvalidVolume(v) => write!(f, "invalid flow volume {v} Mbit"),
            FlowError::EmptyRoute => write!(f, "a flow needs a route of at least one link"),
        }
    }
}

impl Error for FlowError {}

/// Work counters of the flow kernel — what a run cost, not what it
/// computed. Read them with [`FlowNetwork::stats`].
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default, Serialize)]
pub struct KernelStats {
    /// Settles that found the allocation stale and recomputed it:
    /// `reallocations + fills_unchanged`.
    pub settles: u64,
    /// Max-min fills executed: settles at which some class's member
    /// count or some link's residual capacity had moved since the
    /// previous fill. One that finds no flow live (a background refresh
    /// over an idle backbone) is counted here too, but has no class to
    /// fill and adds nothing to the three fill counters below.
    pub reallocations: u64,
    /// Settles that skipped the fill because every class had the member
    /// count, and every link the residual capacity, of the previous fill
    /// (a flow replaced along its route); only the slab pass ran.
    pub fills_unchanged: u64,
    /// Setter calls that stored the value that was already there and so
    /// left the allocation fresh.
    pub reallocations_skipped: u64,
    /// Progressive-filling rounds, over all fills.
    pub fill_rounds: u64,
    /// Live route classes entering a fill, over all fills.
    pub classes_filled: u64,
    /// Links visited by the per-round increment pass.
    pub links_scanned: u64,
    /// Links given no row before a fill's first round because their
    /// bound — the sum of the bottlenecks of the classes crossing them
    /// — shows they can never saturate (DESIGN.md §13).
    pub links_pruned: u64,
    /// Kept per-link member counts a settle moved: one per link crossed
    /// by each class whose member count changed since the last settle
    /// (DESIGN.md §13, "Kept rows").
    pub row_updates: u64,
    /// Flows whose rate moved and were re-anchored.
    pub flows_rerated: u64,
    /// Advances that reached the earliest stored completion instant and
    /// scanned the slab for every flow due.
    pub completion_scans: u64,
}

impl std::ops::AddAssign for KernelStats {
    /// Field-wise sum: folds one network's counters into a running total.
    fn add_assign(&mut self, rhs: KernelStats) {
        // Exhaustive on purpose: a new counter must be summed here to
        // compile.
        let KernelStats {
            settles,
            reallocations,
            fills_unchanged,
            reallocations_skipped,
            fill_rounds,
            classes_filled,
            links_scanned,
            links_pruned,
            row_updates,
            flows_rerated,
            completion_scans,
        } = rhs;
        self.settles += settles;
        self.reallocations += reallocations;
        self.fills_unchanged += fills_unchanged;
        self.reallocations_skipped += reallocations_skipped;
        self.fill_rounds += fill_rounds;
        self.classes_filled += classes_filled;
        self.links_scanned += links_scanned;
        self.links_pruned += links_pruned;
        self.row_updates += row_updates;
        self.flows_rerated += flows_rerated;
        self.completion_scans += completion_scans;
    }
}

/// The finish instant of a flow that will not finish: frozen at rate
/// zero, or too slow to finish within the clock's range.
const NEVER: u64 = u64::MAX;

/// Seconds from `since` to `clock_us`, both on the network's clock.
fn elapsed_secs(since: u64, clock_us: u64) -> f64 {
    clock_us.saturating_sub(since) as f64 / 1e6
}

/// A flow: one slot of the creation-ordered slab.
#[derive(Debug, Clone)]
struct NetFlow {
    id: FlowId,
    /// Index of the flow's route class.
    class: u32,
    rate: Mbps,
    /// Remaining volume as of `synced_at` — **not** necessarily "now".
    /// Use [`NetFlow::remaining_at`] for the current value.
    remaining_mbit: f64,
    /// Clock reading (µs) at which `remaining_mbit` was last
    /// materialized (creation or the flow's most recent rate change).
    synced_at: u64,
    /// The instant the flow finishes at under its current anchor (see
    /// [`NetFlow::anchor`]); [`NEVER`] while it is frozen at rate zero.
    finish_us: u64,
}

impl NetFlow {
    fn remaining_at(&self, clock_us: u64) -> f64 {
        self.remaining_mbit - self.rate.as_f64() * elapsed_secs(self.synced_at, clock_us)
    }

    /// Materializes the remaining volume at `clock_us`, switches to
    /// `rate` and stores the finish instant of the new anchor — the one
    /// place a completion instant is computed.
    fn anchor(&mut self, clock_us: u64, rate: Mbps) {
        self.remaining_mbit = self.remaining_at(clock_us);
        self.synced_at = clock_us;
        self.rate = rate;
        self.finish_us = if self.remaining_mbit <= COMPLETION_EPSILON_MBIT {
            clock_us + 1
        } else if rate.as_f64() > 0.0 {
            let left = transfer_time(self.remaining_mbit, rate);
            clock_us.saturating_add(left.as_micros())
        } else {
            NEVER
        };
    }
}

/// One link's volume integral, folded at the settles that change the
/// link's total load.
#[derive(Debug, Clone, Copy, Default)]
struct LinkIntegral {
    /// Megabits carried up to `folded_at`.
    folded_mbit: f64,
    folded_at: u64,
    /// Total load (background + flows) in effect since `folded_at`.
    load: f64,
}

impl LinkIntegral {
    fn at(&self, clock_us: u64) -> f64 {
        self.folded_mbit + self.load * elapsed_secs(self.folded_at, clock_us)
    }
}

/// A set of concurrent flows over a topology, with max-min fair rates.
///
/// # Examples
///
/// Two flows share a 2 Mbps link fairly:
///
/// ```
/// use vod_net::{Mbps, TopologyBuilder};
/// use vod_sim::flow::FlowNetwork;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = TopologyBuilder::new();
/// let a = b.add_node("a");
/// let c = b.add_node("b");
/// let l = b.add_link(a, c, Mbps::new(2.0))?;
/// let mut net = FlowNetwork::new(b.build());
///
/// let f1 = net.add_flow(vec![l], 10.0)?; // 10 Mbit
/// let f2 = net.add_flow(vec![l], 10.0)?;
/// assert_eq!(net.rate(f1)?, Mbps::new(1.0));
/// assert_eq!(net.rate(f2)?, Mbps::new(1.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    topology: Topology,
    background: Vec<Mbps>,
    /// Flows, ascending by id (= creation order): the order link loads
    /// are summed in and crossing queries answer in.
    slab: Vec<NetFlow>,
    /// Route classes by index; retired slots are listed in
    /// `free_classes` and reused.
    classes: Vec<RouteClass>,
    free_classes: Vec<u32>,
    /// Per link, the live classes whose route crosses it (once per
    /// occurrence of the link in the route).
    link_classes: Vec<Vec<u32>>,
    next_id: u64,
    /// Allocated flow rate per link, as of the last settle.
    link_loads: Vec<f64>,
    /// Administratively-down links (fault injection): zero residual
    /// capacity, so crossing flows freeze at rate zero until re-routed.
    admin_down: Vec<bool>,
    /// Deliverable-capacity fraction per link (soft degradation); `1.0`
    /// is a healthy link.
    capacity_scale: Vec<f64>,
    /// Internal clock: microseconds advanced since creation.
    clock_us: u64,
    /// Slab index of the flow with the earliest stored finish instant,
    /// the first such in creation order, as of the last settle; `None`
    /// when no flow will finish.
    next: Option<usize>,
    /// Per link, the running integral of its *total* load (background +
    /// flows) — the SNMP byte-counter source.
    integrals: Vec<LinkIntegral>,
    /// A background load, outage or degradation changed since the last
    /// settle.
    capacity_moved: bool,
    /// Classes that gained or lost a member since the last settle
    /// (repeats allowed). While this is non-empty or `capacity_moved`
    /// is set the allocation is *stale*: rates, link loads, finish
    /// instants, `next` and the integrals' loads are out of date until
    /// [`FlowNetwork::settle`] runs.
    touched_classes: Vec<u32>,
    /// Per-link member counts, residuals and pruning bounds, kept from
    /// one fill to the next.
    rows: KeptRows,
    fill: FillScratch,
    stats: KernelStats,
}

impl FlowNetwork {
    /// Creates a flow network over `topology` with zero background
    /// traffic.
    pub fn new(topology: Topology) -> Self {
        let links = topology.link_count();
        FlowNetwork {
            topology,
            background: vec![Mbps::ZERO; links],
            slab: Vec::new(),
            classes: Vec::new(),
            free_classes: Vec::new(),
            link_classes: vec![Vec::new(); links],
            next_id: 0,
            link_loads: vec![0.0; links],
            admin_down: vec![false; links],
            capacity_scale: vec![1.0; links],
            clock_us: 0,
            next: None,
            integrals: vec![LinkIntegral::default(); links],
            capacity_moved: false,
            touched_classes: Vec::new(),
            rows: KeptRows::new(links),
            fill: FillScratch {
                pos: vec![NO_ROW; links],
                ..FillScratch::default()
            },
            stats: KernelStats::default(),
        }
    }

    /// The topology this network runs over.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The kernel's work counters since creation.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Does nothing. Local serves are timers of the caller's, not flows
    /// (see [`transfer_time`]), so the network has no local rate; the
    /// method stays so that existing callers keep compiling.
    pub fn set_local_rate(&mut self, _rate: Mbps) {}

    /// Sets the background (non-VoD) traffic occupying `link`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn set_background(&mut self, link: LinkId, load: Mbps) {
        self.set_background_many([(link, load)]);
    }

    /// Sets the background traffic on several links at once. The
    /// allocation goes stale only if some link's load actually changed.
    ///
    /// # Panics
    ///
    /// Panics if any link is out of range.
    pub fn set_background_many<I>(&mut self, loads: I)
    where
        I: IntoIterator<Item = (LinkId, Mbps)>,
    {
        let mut changed = false;
        #[expect(
            clippy::indexing_slicing,
            reason = "per-link vectors are sized by `link_count`; every background link belongs to the network's topology"
        )]
        for (link, load) in loads {
            let slot = &mut self.background[link.index()];
            changed |= slot.as_f64().to_bits() != load.as_f64().to_bits();
            *slot = load;
        }
        self.capacity_input_stored(changed);
    }

    /// The background traffic on `link`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panic: `link` belongs to the network's topology"
    )]
    pub fn background(&self, link: LinkId) -> Mbps {
        self.background[link.index()]
    }

    /// Sets the administrative state of `link`. A down link has zero
    /// residual capacity: flows crossing it freeze at rate zero until
    /// the caller re-routes them or the link comes back up.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panic: `link` belongs to the network's topology"
    )]
    pub fn set_link_admin_down(&mut self, link: LinkId, down: bool) {
        let changed = self.admin_down[link.index()] != down;
        self.admin_down[link.index()] = down;
        self.capacity_input_stored(changed);
    }

    /// Scales the deliverable capacity of `link` to `scale` × nominal
    /// (soft degradation, `0.0 ≤ scale ≤ 1.0`); `1.0` restores full
    /// health.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range or `scale` is not in `[0, 1]`.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented panic: `(0.0..=1.0).contains(&scale)` is the caller's contract"
    )]
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panic: `link` belongs to the network's topology"
    )]
    pub fn set_link_capacity_scale(&mut self, link: LinkId, scale: f64) {
        assert!(
            scale.is_finite() && (0.0..=1.0).contains(&scale),
            "capacity scale must be in [0, 1]"
        );
        let changed = self.capacity_scale[link.index()].to_bits() != scale.to_bits();
        self.capacity_scale[link.index()] = scale;
        self.capacity_input_stored(changed);
    }

    /// Ids of the flows whose route crosses `link`, in creation order —
    /// the set a service must re-route when the link goes down. The
    /// answer does not depend on the allocation.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented panic: `unknown link` is a caller bug"
    )]
    pub fn flows_crossing(&self, link: LinkId) -> impl Iterator<Item = FlowId> + '_ {
        assert!(link.index() < self.topology.link_count(), "unknown link");
        self.slab
            .iter()
            .filter(move |f| self.class_links(f).contains(&link))
            .map(|f| f.id)
    }

    /// Starts a flow of `volume_mbit` megabits along `route_links` and
    /// returns its id. The links are copied only when no live flow
    /// already takes the same route.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidVolume`] for a non-positive or
    /// non-finite volume, [`FlowError::EmptyRoute`] for a route of no
    /// link, or [`FlowError::UnknownLink`] for a foreign link id.
    pub fn add_flow(
        &mut self,
        route_links: impl AsRef<[LinkId]>,
        volume_mbit: f64,
    ) -> Result<FlowId, FlowError> {
        let route_links = route_links.as_ref();
        if !volume_mbit.is_finite() || volume_mbit <= 0.0 {
            return Err(FlowError::InvalidVolume(volume_mbit));
        }
        if route_links.is_empty() {
            return Err(FlowError::EmptyRoute);
        }
        for &l in route_links {
            if l.index() >= self.topology.link_count() {
                return Err(FlowError::UnknownLink(l));
            }
        }
        let id = FlowId(self.next_id);
        self.next_id += 1;
        let class = self.join_class(route_links);
        // Ids are strictly increasing, so pushing keeps the slab sorted.
        // Born frozen: the settle that follows anchors it at its rate.
        let mut flow = NetFlow {
            id,
            class,
            rate: Mbps::ZERO,
            remaining_mbit: volume_mbit,
            synced_at: self.clock_us,
            finish_us: NEVER,
        };
        flow.anchor(self.clock_us, Mbps::ZERO);
        self.slab.push(flow);
        Ok(id)
    }

    /// Removes a flow (e.g. a cancelled download). Returns the unfinished
    /// volume in megabits.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownFlow`] if the flow does not exist.
    pub fn remove_flow(&mut self, id: FlowId) -> Result<f64, FlowError> {
        let clock = self.clock_us;
        // Its anchor predates the batch being settled, but no time has
        // passed since: the extrapolation is what a re-anchor at this
        // instant would have stored.
        let flow = self.take_net_flow(id).ok_or(FlowError::UnknownFlow(id))?;
        Ok(flow.remaining_at(clock))
    }

    /// The current max-min fair rate of `id`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownFlow`] if the flow does not exist.
    pub fn rate(&mut self, id: FlowId) -> Result<Mbps, FlowError> {
        self.settle();
        self.net_flow(id).map(|f| f.rate)
    }

    /// Remaining volume of `id` in megabits, as of the network's current
    /// clock.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownFlow`] if the flow does not exist.
    pub fn remaining_mbit(&self, id: FlowId) -> Result<f64, FlowError> {
        self.net_flow(id).map(|f| f.remaining_at(self.clock_us))
    }

    /// The route links of `id`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownFlow`] if the flow does not exist.
    pub fn flow_links(&self, id: FlowId) -> Result<&[LinkId], FlowError> {
        self.net_flow(id).map(|f| self.class_links(f))
    }

    /// Number of active flows: zero on an idle backbone.
    pub fn flow_count(&self) -> usize {
        self.slab.len()
    }

    /// Ids of all active flows, in creation order.
    pub fn flow_ids(&self) -> impl Iterator<Item = FlowId> + '_ {
        self.slab.iter().map(|f| f.id)
    }

    fn net_flow(&self, id: FlowId) -> Result<&NetFlow, FlowError> {
        let pos = self.slab.binary_search_by_key(&id, |f| f.id);
        pos.ok()
            .and_then(|pos| self.slab.get(pos))
            .ok_or(FlowError::UnknownFlow(id))
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "a flow's `class` names a slot of `classes` for as long as the flow lives"
    )]
    fn class_links(&self, flow: &NetFlow) -> &[LinkId] {
        &self.classes[flow.class as usize].links
    }

    /// The next flow to complete and the time until it does: its stored
    /// finish instant, exact to the microsecond, so
    /// `advance(next_completion_duration)` completes it (and any flow
    /// finishing in the same microsecond), and no shorter advance does.
    /// Ties go to the smaller id.
    ///
    /// Returns `None` when there are no flows or none of them will
    /// finish at current rates (every rate zero).
    ///
    /// Takes `&mut self` because the allocation is settled first; the
    /// model state is unchanged.
    pub fn next_completion(&mut self) -> Option<(FlowId, SimDuration)> {
        self.settle();
        let flow = self.slab.get(self.next?)?;
        // `next` names no flow that will never finish.
        let left = flow.finish_us.saturating_sub(self.clock_us);
        Some((flow.id, SimDuration::from_micros(left)))
    }

    /// Advances all flows by `dt` at their current rates and removes the
    /// ones that finish, returning their ids in deterministic (creation)
    /// order.
    ///
    /// Allocating convenience wrapper around [`FlowNetwork::advance_into`].
    pub fn advance(&mut self, dt: SimDuration) -> Vec<FlowId> {
        let mut done = Vec::new();
        self.advance_into(dt, &mut done);
        done
    }

    /// Advances all flows by `dt`, filling `done` (cleared first) with
    /// the ids of the flows whose finish instant it reached, in creation
    /// order. Callers driving the simulation loop reuse one buffer
    /// across events instead of allocating per call.
    pub fn advance_into(&mut self, dt: SimDuration, done: &mut Vec<FlowId>) {
        done.clear();
        // Whatever was mutated since the last settle takes effect now,
        // at the start of the window.
        self.settle();
        self.clock_us += dt.as_micros();
        self.collect_completions(done);
    }

    /// Takes every flow whose stored finish instant the clock has
    /// reached off the slab, touching nothing unless the earliest one
    /// (as of the settle `advance_into` began with) is due.
    #[expect(
        clippy::indexing_slicing,
        reason = "a flow's `class` names a slot of `classes` for as long as the flow lives"
    )]
    fn collect_completions(&mut self, done: &mut Vec<FlowId>) {
        let clock = self.clock_us;
        let next = self.next.and_then(|slot| self.slab.get(slot));
        if next.is_none_or(|f| f.finish_us > clock) {
            return;
        }
        self.stats.completion_scans += 1;
        let FlowNetwork {
            slab,
            classes,
            touched_classes,
            ..
        } = self;
        // A completion releases link bandwidth: the allocation goes
        // stale, and the emptied classes wait for the settle.
        slab.retain(|f| {
            let due = f.finish_us <= clock;
            if due {
                done.push(f.id);
                classes[f.class as usize].members -= 1;
                touched_classes.push(f.class);
            }
            !due
        });
        self.next = None;
    }

    /// Total VoD flow traffic currently allocated on `link`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn link_flow_load(&mut self, link: LinkId) -> Mbps {
        self.settle();
        self.flow_load(link.index())
    }

    /// Background plus flow traffic on `link`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn link_total_load(&mut self, link: LinkId) -> Mbps {
        self.settle();
        self.total_load(link.index())
    }

    /// [`FlowNetwork::link_flow_load`] of link `i` on a settled network.
    #[expect(
        clippy::disallowed_macros,
        reason = "debug check: the per-settle sums never drift negative"
    )]
    #[expect(
        clippy::indexing_slicing,
        reason = "`i` is a link index below `link_count`, the length of `link_loads`"
    )]
    fn flow_load(&self, i: usize) -> Mbps {
        let raw = self.link_loads[i];
        // The sums are rebuilt from scratch by every settle (and zeroed
        // exactly when no flow remains), so they can never drift
        // negative; the clamp below is release-mode armor only.
        debug_assert!(raw >= -1e-9, "link {i} flow load drifted negative: {raw}");
        Mbps::new(raw.max(0.0))
    }

    /// [`FlowNetwork::link_total_load`] of link `i` on a settled network.
    #[expect(
        clippy::indexing_slicing,
        reason = "`i` is a link index below `link_count`, the length of `background`"
    )]
    fn total_load(&self, i: usize) -> Mbps {
        self.background[i] + self.flow_load(i)
    }

    /// Integral of `link`'s total load (background + flows) in megabits
    /// from the network's creation to its clock — the source feeding
    /// SNMP byte counters. Folded only when the load changes, so it is
    /// the same however often the network was advanced or read.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panic: `link` belongs to the network's topology"
    )]
    pub fn link_cumulative_mbit(&self, link: LinkId) -> f64 {
        self.integrals[link.index()].at(self.clock_us)
    }

    /// The highest and the mean link utilization (total load over
    /// capacity, zero on a link without capacity), from one pass over
    /// the settled loads, or `None` for an empty topology. The values
    /// are bitwise what a [`FlowNetwork::snapshot`]'s
    /// [`TrafficSnapshot::utilization`] gives, the maximum taken as
    /// `max_by` takes it (ties go to the later link) and the mean
    /// summed in link order.
    pub fn max_and_mean_utilization(&mut self) -> Option<(Fraction, Fraction)> {
        self.settle();
        let mut max: Option<f64> = None;
        let mut sum = 0.0;
        for link in self.topology.links() {
            let cap = link.capacity();
            let u = if cap.is_zero() {
                0.0
            } else {
                Fraction::new(self.total_load(link.id().index()) / cap).get()
            };
            max = Some(match max {
                Some(m) if u.total_cmp(&m).is_lt() => m,
                _ => u,
            });
            sum += u;
        }
        let mean = sum / self.topology.link_count() as f64;
        max.map(|max| (Fraction::new(max), Fraction::new(mean)))
    }

    /// Builds a [`TrafficSnapshot`] of the current total loads — exactly
    /// what the SNMP module reads and the Virtual Routing Algorithm
    /// consumes.
    pub fn snapshot(&mut self) -> TrafficSnapshot {
        let mut snap = TrafficSnapshot::zero(&self.topology);
        self.snapshot_into(&mut snap);
        snap
    }

    /// Refreshes an existing snapshot with the current total loads
    /// instead of allocating a new one. Because the snapshot *instance*
    /// is preserved, its epoch token stays stable and its version
    /// advances once per link whose load moved. Links whose load is
    /// unchanged are left untouched, so refreshing over an unchanged
    /// network keeps the epoch — and every epoch-keyed cache (see
    /// `vod_net::engine`) — valid.
    ///
    /// # Panics
    ///
    /// Panics if `snap` was built for a different topology.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented panic: `snap.link_count()` must match the network's topology"
    )]
    pub fn snapshot_into(&mut self, snap: &mut TrafficSnapshot) {
        assert_eq!(
            snap.link_count(),
            self.topology.link_count(),
            "snapshot must match the flow network's topology"
        );
        self.settle();
        for link in self.topology.link_ids() {
            let load = self.total_load(link.index());
            if snap.used(link) != load {
                snap.set_used(link, load);
            }
        }
    }
}

#[cfg(test)]
mod tests;
