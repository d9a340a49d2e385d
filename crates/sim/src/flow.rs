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
//! runs over classes and crossed links, `O(rounds × (crossed links +
//! classes on saturated links))`, whatever the number of flows. One
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

use serde::{Deserialize, Serialize};

use vod_net::{LinkId, Mbps, Topology, TrafficSnapshot};

use crate::time::SimDuration;

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
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
#[serde(transparent)]
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
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
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

/// One distinct route and the flows currently following it. A slot
/// found without members when the network settles is retired (its
/// `links` emptied) and waits on the free list.
#[derive(Debug, Clone, Default)]
struct RouteClass {
    links: Vec<LinkId>,
    members: u32,
    /// `members` as the last fill saw it.
    filled_members: u32,
    /// The max-min rate of every member, as of the last fill.
    rate: Mbps,
    /// Fill scratch: the class has been assigned its rate this fill.
    frozen: bool,
}

/// Reusable buffers of the progressive filling, so steady-state
/// reallocation never allocates.
#[derive(Debug, Clone, Default)]
struct FillScratch {
    /// Links some unfrozen flow still crosses: the rows of `cap` and
    /// `count`, in no particular order. Empty between fills.
    live: Vec<u32>,
    /// Residual capacity of each live link.
    cap: Vec<f64>,
    /// Unfrozen flows crossing each live link — an integer, held as
    /// `f64` so a round's division and product convert nothing.
    count: Vec<f64>,
    /// Per link of the topology: its row above, or [`NO_ROW`].
    pos: Vec<u32>,
    /// Links that ran out of capacity in the current round.
    saturated: Vec<u32>,
}

/// `FillScratch::pos` of a link that is not live.
const NO_ROW: u32 = u32::MAX;

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

    /// The class following `route` (non-empty), one member larger: the
    /// existing one (possibly emptied since the last settle), else a new
    /// one in a retired or fresh slot. The allocation goes stale.
    #[expect(
        clippy::indexing_slicing,
        reason = "route links belong to the topology, and class ids name slots of `classes`"
    )]
    fn join_class(&mut self, route: &[LinkId]) -> u32 {
        let crossing_first = route.first().map(|l| &self.link_classes[l.index()]);
        let existing = crossing_first.and_then(|list| {
            list.iter()
                .find(|&&c| self.classes[c as usize].links == route)
        });
        let c = match existing {
            Some(&c) => {
                self.classes[c as usize].members += 1;
                c
            }
            None => {
                let c = self.free_classes.pop().unwrap_or_else(|| {
                    self.classes.push(RouteClass::default());
                    (self.classes.len() - 1) as u32
                });
                for l in route {
                    self.link_classes[l.index()].push(c);
                }
                self.classes[c as usize] = RouteClass {
                    links: route.to_vec(),
                    members: 1,
                    ..RouteClass::default()
                };
                c
            }
        };
        self.touched_classes.push(c);
        c
    }

    /// Removes `id` from the slab and from its class. The allocation
    /// goes stale; an emptied class stays listed on its links until the
    /// settle, for a flow added by then along the same route to rejoin.
    #[expect(
        clippy::indexing_slicing,
        reason = "a flow's `class` names a slot of `classes` for as long as the flow lives"
    )]
    fn take_net_flow(&mut self, id: FlowId) -> Option<NetFlow> {
        let pos = self.slab.binary_search_by_key(&id, |f| f.id).ok()?;
        let flow = self.slab.remove(pos);
        self.classes[flow.class as usize].members -= 1;
        self.touched_classes.push(flow.class);
        Some(flow)
    }

    /// Whether an input of the allocation changed since the last settle.
    fn is_stale(&self) -> bool {
        self.capacity_moved || !self.touched_classes.is_empty()
    }

    /// Books a background load, outage or degradation a setter just
    /// stored: one that `changed` the stored value leaves the allocation
    /// stale.
    fn capacity_input_stored(&mut self, changed: bool) {
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
                self.fill_classes();
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
    /// Each round saturates at least one link and makes two passes over
    /// dense arrays of the links an unfrozen class still crosses, then
    /// visits only the classes on the links that saturated: `O(rounds ×
    /// (crossed links + classes on saturated links))`, independent of
    /// the number of flows and of the size of the topology.
    #[expect(
        clippy::disallowed_macros,
        reason = "debug check: a non-finite increment only once no counted link is live"
    )]
    #[expect(
        clippy::indexing_slicing,
        reason = "`pos` is sized by `link_count`, a row indexes `live`/`cap`/`count` while `pos` lists it, and class ids name slots of `classes`"
    )]
    fn fill_classes(&mut self) {
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
            pos,
            saturated,
        } = fill;

        // Give every crossed link a row: the flows on it, and its
        // residual capacity after degradation, outages and background
        // traffic.
        let mut remaining = 0u64;
        for class in classes.iter_mut().filter(|c| c.members > 0) {
            class.frozen = false;
            remaining += 1;
            let members = f64::from(class.members);
            for l in &class.links {
                let i = l.index();
                if pos[i] == NO_ROW {
                    pos[i] = live.len() as u32;
                    live.push(i as u32);
                    count.push(0.0);
                    cap.push(if admin_down[i] {
                        0.0
                    } else {
                        let deliverable = topology.link(*l).capacity().as_f64() * capacity_scale[i];
                        (deliverable - background[i].as_f64()).max(0.0)
                    });
                }
                let row = pos[i] as usize;
                count[row] += members;
            }
        }
        stats.classes_filled += remaining;

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
                        let row = pos[l.index()] as usize;
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

#[cfg(test)]
mod tests {
    use super::*;
    use vod_net::TopologyBuilder;

    /// The lockstep `O(F)`-per-event kernel the production network
    /// replaced, kept as the differential-testing oracle: every advance
    /// scans every flow and every link, every mutation refills every
    /// rate from scratch. It shares no logic with [`FlowNetwork`] — only
    /// the model (max-min progressive filling in creation order, a flow
    /// anchored at its last rate change, a link integral folded at its
    /// last load change) — so agreement is evidence, not tautology.
    mod oracle {
        use super::super::{FlowError, FlowId, COMPLETION_EPSILON_MBIT};
        use crate::time::SimDuration;
        use std::collections::BTreeMap;
        use vod_net::{LinkId, Mbps, Topology};

        struct Flow {
            links: Vec<LinkId>,
            /// The rate the last refill gave the flow.
            rate: Mbps,
            /// The rate the flow has progressed at since `synced_at`.
            anchored_rate: Mbps,
            remaining_mbit: f64,
            synced_at: u64,
            finish_us: Option<u64>,
        }

        impl Flow {
            fn remaining_at(&self, clock_us: u64) -> f64 {
                let secs = (clock_us - self.synced_at) as f64 / 1e6;
                self.remaining_mbit - self.anchored_rate.as_f64() * secs
            }
        }

        /// A link's volume integral up to `at`, and the total load it
        /// has grown at since.
        #[derive(Clone, Copy, Default)]
        struct Integral {
            mbit: f64,
            at: u64,
            load: f64,
        }

        impl Integral {
            fn at(&self, clock_us: u64) -> f64 {
                self.mbit + self.load * ((clock_us - self.at) as f64 / 1e6)
            }
        }

        pub struct LockstepNetwork {
            topology: Topology,
            background: Vec<Mbps>,
            flows: BTreeMap<FlowId, Flow>,
            next_id: u64,
            clock_us: u64,
            link_loads: Vec<f64>,
            admin_down: Vec<bool>,
            capacity_scale: Vec<f64>,
            integrals: Vec<Integral>,
        }

        impl LockstepNetwork {
            pub fn new(topology: Topology) -> Self {
                let links = topology.link_count();
                LockstepNetwork {
                    topology,
                    background: vec![Mbps::ZERO; links],
                    flows: BTreeMap::new(),
                    next_id: 0,
                    clock_us: 0,
                    link_loads: vec![0.0; links],
                    admin_down: vec![false; links],
                    capacity_scale: vec![1.0; links],
                    integrals: vec![Integral::default(); links],
                }
            }

            pub fn set_background(&mut self, link: LinkId, load: Mbps) {
                self.set_background_many([(link, load)]);
            }

            pub fn set_background_many<I>(&mut self, loads: I)
            where
                I: IntoIterator<Item = (LinkId, Mbps)>,
            {
                for (link, load) in loads {
                    self.background[link.index()] = load;
                }
                self.reallocate();
            }

            pub fn set_link_admin_down(&mut self, link: LinkId, down: bool) {
                self.admin_down[link.index()] = down;
                self.reallocate();
            }

            pub fn set_link_capacity_scale(&mut self, link: LinkId, scale: f64) {
                self.capacity_scale[link.index()] = scale;
                self.reallocate();
            }

            pub fn add_flow(
                &mut self,
                route_links: impl AsRef<[LinkId]>,
                volume_mbit: f64,
            ) -> Result<FlowId, FlowError> {
                if route_links.as_ref().is_empty() {
                    return Err(FlowError::EmptyRoute);
                }
                let id = FlowId(self.next_id);
                self.next_id += 1;
                let clock = self.clock_us;
                let dust = volume_mbit <= COMPLETION_EPSILON_MBIT;
                self.flows.insert(
                    id,
                    Flow {
                        links: route_links.as_ref().to_vec(),
                        rate: Mbps::ZERO,
                        anchored_rate: Mbps::ZERO,
                        remaining_mbit: volume_mbit,
                        synced_at: clock,
                        finish_us: dust.then_some(clock + 1),
                    },
                );
                self.reallocate();
                Ok(id)
            }

            pub fn remove_flow(&mut self, id: FlowId) -> Result<f64, FlowError> {
                let flow = self.flows.remove(&id).ok_or(FlowError::UnknownFlow(id))?;
                self.reallocate();
                Ok(flow.remaining_at(self.clock_us))
            }

            pub fn rate(&mut self, id: FlowId) -> Result<Mbps, FlowError> {
                self.sync();
                self.flows
                    .get(&id)
                    .map(|f| f.rate)
                    .ok_or(FlowError::UnknownFlow(id))
            }

            pub fn remaining_mbit(&self, id: FlowId) -> Result<f64, FlowError> {
                self.flows
                    .get(&id)
                    .map(|f| f.remaining_at(self.clock_us))
                    .ok_or(FlowError::UnknownFlow(id))
            }

            pub fn flow_count(&self) -> usize {
                self.flows.len()
            }

            pub fn flow_ids(&self) -> impl Iterator<Item = FlowId> + '_ {
                self.flows.keys().copied()
            }

            pub fn link_flow_load(&mut self, link: LinkId) -> Mbps {
                self.sync();
                Mbps::new(self.link_loads[link.index()].max(0.0))
            }

            pub fn link_cumulative_mbit(&self, link: LinkId) -> f64 {
                self.integrals[link.index()].at(self.clock_us)
            }

            /// Full scan for the earliest finish instant, ties to the
            /// smaller id.
            pub fn next_completion(&mut self) -> Option<(FlowId, SimDuration)> {
                self.sync();
                let clock = self.clock_us;
                self.flows
                    .iter()
                    .filter_map(|(&id, f)| Some((f.finish_us?, id)))
                    .min()
                    .map(|(at, id)| (id, SimDuration::from_micros(at - clock)))
            }

            /// Lockstep advance: move the clock, scan every flow for a
            /// reached finish instant, collect those in creation order.
            pub fn advance(&mut self, dt: SimDuration) -> Vec<FlowId> {
                self.sync();
                self.clock_us += dt.as_micros();
                let clock = self.clock_us;
                let done: Vec<FlowId> = self
                    .flows
                    .iter()
                    .filter(|(_, f)| f.finish_us.is_some_and(|at| at <= clock))
                    .map(|(&id, _)| id)
                    .collect();
                for id in &done {
                    self.flows.remove(id);
                }
                if !done.is_empty() {
                    self.reallocate();
                }
                done
            }

            /// Makes the last refill's rates and loads the ones in
            /// effect from now on: every flow whose rate moved is
            /// re-anchored at the clock with its new finish instant, and
            /// every link whose total load moved folds its integral.
            /// The production network does the same at its settles,
            /// which run where this runs: before the clock moves and in
            /// every reader.
            fn sync(&mut self) {
                let clock = self.clock_us;
                for f in self.flows.values_mut() {
                    if f.rate == f.anchored_rate {
                        continue;
                    }
                    f.remaining_mbit = f.remaining_at(clock);
                    f.synced_at = clock;
                    f.anchored_rate = f.rate;
                    let rate = f.rate.as_f64();
                    f.finish_us = if f.remaining_mbit <= COMPLETION_EPSILON_MBIT {
                        Some(clock + 1)
                    } else if rate > 0.0 {
                        let micros = (f.remaining_mbit / rate * 1e6).ceil() as u64;
                        Some(clock.saturating_add(micros)).filter(|&at| at != u64::MAX)
                    } else {
                        None
                    };
                }
                for i in 0..self.integrals.len() {
                    let load =
                        (self.background[i] + Mbps::new(self.link_loads[i].max(0.0))).as_f64();
                    let integral = &mut self.integrals[i];
                    if load.to_bits() != integral.load.to_bits() {
                        *integral = Integral {
                            mbit: integral.at(clock),
                            at: clock,
                            load,
                        };
                    }
                }
            }

            /// Resets every flow's rate and rebuilds the link loads from
            /// the full flow map.
            fn reallocate(&mut self) {
                let n_links = self.topology.link_count();
                let mut cap: Vec<f64> = (0..n_links)
                    .map(|i| {
                        if self.admin_down[i] {
                            return 0.0;
                        }
                        let link = self.topology.link(LinkId::new(i as u32));
                        let deliverable = link.capacity().as_f64() * self.capacity_scale[i];
                        (deliverable - self.background[i].as_f64()).max(0.0)
                    })
                    .collect();

                // Dense view of the flows: (id, frozen?).
                let mut network: Vec<(FlowId, bool)> = Vec::with_capacity(self.flows.len());
                for (&id, f) in self.flows.iter_mut() {
                    f.rate = Mbps::ZERO;
                    network.push((id, false));
                }

                let mut count = vec![0usize; n_links];
                for &(id, _) in &network {
                    for l in &self.flows[&id].links {
                        count[l.index()] += 1;
                    }
                }

                let mut remaining = network.len();
                let mut level = 0.0f64;
                while remaining > 0 {
                    let mut inc = f64::INFINITY;
                    for i in 0..n_links {
                        if count[i] > 0 {
                            inc = inc.min(cap[i] / count[i] as f64);
                        }
                    }
                    assert!(inc.is_finite(), "non-finite fill increment");
                    level += inc;
                    for i in 0..n_links {
                        if count[i] > 0 {
                            cap[i] -= inc * count[i] as f64;
                        }
                    }
                    let mut froze_any = false;
                    for entry in network.iter_mut() {
                        let (id, frozen) = *entry;
                        if frozen {
                            continue;
                        }
                        let bottlenecked = self.flows[&id]
                            .links
                            .iter()
                            .any(|l| cap[l.index()] <= 1e-12);
                        if bottlenecked {
                            entry.1 = true;
                            froze_any = true;
                            remaining -= 1;
                            for l in &self.flows[&id].links {
                                count[l.index()] -= 1;
                            }
                            self.flows.get_mut(&id).unwrap().rate = Mbps::new(level.max(0.0));
                        }
                    }
                    assert!(froze_any, "a fill round must saturate a link");
                }

                self.link_loads.iter_mut().for_each(|l| *l = 0.0);
                for f in self.flows.values() {
                    for l in &f.links {
                        self.link_loads[l.index()] += f.rate.as_f64();
                    }
                }
            }
        }
    }
    use oracle::LockstepNetwork;

    /// Runs `$body` twice: with `$new` building the production
    /// [`FlowNetwork`], then the [`LockstepNetwork`] oracle; `$name`
    /// labels assertion messages.
    macro_rules! on_both_kernels {
        ($new:ident, $name:ident => $body:block) => {{
            {
                let $name = "production";
                let $new = FlowNetwork::new;
                $body
            }
            {
                let $name = "oracle";
                let $new = LockstepNetwork::new;
                $body
            }
        }};
    }

    /// a --l0-- b --l1-- c, capacities 2 and 18 Mbps.
    fn two_hop() -> (Topology, LinkId, LinkId) {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        let m = b.add_node("b");
        let c = b.add_node("c");
        let l0 = b.add_link(a, m, Mbps::new(2.0)).unwrap();
        let l1 = b.add_link(m, c, Mbps::new(18.0)).unwrap();
        (b.build(), l0, l1)
    }

    #[test]
    fn single_flow_gets_bottleneck_capacity() {
        let (t, l0, l1) = two_hop();
        let mut net = FlowNetwork::new(t);
        let f = net.add_flow(vec![l0, l1], 20.0).unwrap();
        assert_eq!(net.rate(f).unwrap(), Mbps::new(2.0));
        assert_eq!(net.link_flow_load(l0), Mbps::new(2.0));
        assert_eq!(net.link_flow_load(l1), Mbps::new(2.0));
    }

    #[test]
    fn snapshot_into_keeps_instance_and_bumps_version_only_on_change() {
        let (t, l0, l1) = two_hop();
        let mut net = FlowNetwork::new(t);
        let mut snap = net.snapshot();
        let before = snap.epoch();

        // Load one link only: the refresh touches just that link.
        net.add_flow(vec![l0], 10.0).unwrap();
        net.snapshot_into(&mut snap);
        assert_eq!(snap.epoch().token, before.token, "instance is preserved");
        assert_eq!(snap.epoch().version, before.version + 1);
        assert_eq!(snap.used(l0), Mbps::new(2.0));
        assert_eq!(snap.used(l1), Mbps::ZERO);

        // An unchanged network refreshes without moving the epoch.
        let quiet = snap.epoch();
        net.snapshot_into(&mut snap);
        assert_eq!(snap.epoch(), quiet);
        // Refreshing matches a freshly-built snapshot's data.
        assert_eq!(snap, net.snapshot());
    }

    #[test]
    fn fair_share_on_shared_bottleneck() {
        let (t, l0, _) = two_hop();
        let mut net = FlowNetwork::new(t);
        let f1 = net.add_flow(vec![l0], 10.0).unwrap();
        let f2 = net.add_flow(vec![l0], 10.0).unwrap();
        assert_eq!(net.rate(f1).unwrap(), Mbps::new(1.0));
        assert_eq!(net.rate(f2).unwrap(), Mbps::new(1.0));
    }

    #[test]
    fn max_min_gives_leftover_to_unconstrained_flow() {
        let (t, l0, l1) = two_hop();
        let mut net = FlowNetwork::new(t);
        // f1 crosses both links, f2 only the fat one.
        let f1 = net.add_flow(vec![l0, l1], 100.0).unwrap();
        let f2 = net.add_flow(vec![l1], 100.0).unwrap();
        // f1 is capped at 2 by l0; f2 takes the rest of l1.
        assert!((net.rate(f1).unwrap().as_f64() - 2.0).abs() < 1e-9);
        assert!((net.rate(f2).unwrap().as_f64() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn background_reduces_residual_capacity() {
        let (t, l0, _) = two_hop();
        let mut net = FlowNetwork::new(t);
        net.set_background(l0, Mbps::new(1.5));
        let f = net.add_flow(vec![l0], 10.0).unwrap();
        assert!((net.rate(f).unwrap().as_f64() - 0.5).abs() < 1e-9);
        assert_eq!(net.link_total_load(l0), Mbps::new(2.0));
    }

    #[test]
    fn oversubscribed_background_gives_zero_rate() {
        let (t, l0, _) = two_hop();
        let mut net = FlowNetwork::new(t);
        net.set_background(l0, Mbps::new(5.0));
        let f = net.add_flow(vec![l0], 10.0).unwrap();
        assert_eq!(net.rate(f).unwrap(), Mbps::ZERO);
        assert_eq!(net.next_completion(), None);
    }

    /// A local serve crosses no link: it is the caller's timer, not a
    /// flow, and the network refuses it without issuing an id; and
    /// `set_local_rate` changes nothing.
    #[test]
    fn an_empty_route_is_refused() {
        on_both_kernels!(new, kernel => {
            let (t, l0, _) = two_hop();
            let mut net = new(t);
            assert_eq!(net.add_flow(vec![], 10.0), Err(FlowError::EmptyRoute), "{kernel}");
            assert_eq!(net.add_flow(vec![l0], 10.0), Ok(FlowId(0)), "{kernel}");
            assert_eq!(net.flow_count(), 1);
        });
        let (t, l0, _) = two_hop();
        let mut net = FlowNetwork::new(t);
        let f = net.add_flow(vec![l0], 10.0).unwrap();
        net.settle();
        net.set_local_rate(Mbps::new(1.0));
        assert!(
            !net.is_stale(),
            "the local rate is no input of the allocation"
        );
        assert_eq!(net.rate(f).unwrap(), Mbps::new(2.0));
    }

    #[test]
    fn completion_prediction_matches_advance() {
        let (t, l0, l1) = two_hop();
        let mut net = FlowNetwork::new(t);
        let f1 = net.add_flow(vec![l0, l1], 4.0).unwrap(); // 2 Mbps → 2 s
        let f2 = net.add_flow(vec![l1], 64.0).unwrap(); // 16 Mbps → 4 s
        let (first, dt) = net.next_completion().unwrap();
        assert_eq!(first, f1);
        assert_eq!(dt, SimDuration::from_secs(2));
        let done = net.advance(dt);
        assert_eq!(done, vec![f1]);
        // f2 now gets the full 18 Mbps for its remaining 32 Mbit.
        assert!((net.rate(f2).unwrap().as_f64() - 18.0).abs() < 1e-9);
        let (second, dt2) = net.next_completion().unwrap();
        assert_eq!(second, f2);
        assert!((dt2.as_secs_f64() - 32.0 / 18.0).abs() < 1e-5);
    }

    #[test]
    fn advance_partial_keeps_flow() {
        let (t, l0, _) = two_hop();
        let mut net = FlowNetwork::new(t);
        let f = net.add_flow(vec![l0], 4.0).unwrap();
        let done = net.advance(SimDuration::from_secs(1));
        assert!(done.is_empty());
        assert!((net.remaining_mbit(f).unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn remove_flow_returns_unfinished_volume() {
        let (t, l0, _) = two_hop();
        let mut net = FlowNetwork::new(t);
        let f = net.add_flow(vec![l0], 4.0).unwrap();
        net.advance(SimDuration::from_secs(1));
        let left = net.remove_flow(f).unwrap();
        assert!((left - 2.0).abs() < 1e-9);
        assert_eq!(net.flow_count(), 0);
        assert_eq!(net.remove_flow(f), Err(FlowError::UnknownFlow(f)));
    }

    #[test]
    fn invalid_inputs_rejected() {
        let (t, ..) = two_hop();
        let mut net = FlowNetwork::new(t);
        assert!(matches!(
            net.add_flow(vec![], 0.0),
            Err(FlowError::InvalidVolume(_))
        ));
        assert!(matches!(
            net.add_flow(vec![], f64::NAN),
            Err(FlowError::InvalidVolume(_))
        ));
        assert!(matches!(
            net.add_flow(vec![LinkId::new(99)], 1.0),
            Err(FlowError::UnknownLink(_))
        ));
    }

    #[test]
    fn snapshot_reflects_total_load() {
        let (t, l0, l1) = two_hop();
        let mut net = FlowNetwork::new(t);
        net.set_background(l1, Mbps::new(3.0));
        net.add_flow(vec![l0, l1], 100.0).unwrap();
        let snap = net.snapshot();
        assert_eq!(snap.used(l0), Mbps::new(2.0));
        assert_eq!(snap.used(l1), Mbps::new(5.0));
        let topo = net.topology().clone();
        assert!((snap.utilization(&topo, l0).get() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rates_never_exceed_capacity() {
        let (t, l0, l1) = two_hop();
        let mut net = FlowNetwork::new(t);
        for i in 0..20 {
            let links = if i % 3 == 0 {
                vec![l0]
            } else if i % 3 == 1 {
                vec![l1]
            } else {
                vec![l0, l1]
            };
            net.add_flow(links, 100.0).unwrap();
        }
        let load0 = net.link_flow_load(l0).as_f64();
        let load1 = net.link_flow_load(l1).as_f64();
        assert!(load0 <= 2.0 + 1e-9, "l0 overloaded: {load0}");
        assert!(load1 <= 18.0 + 1e-9, "l1 overloaded: {load1}");
        // Work-conserving: the bottleneck links are fully used.
        assert!(load0 >= 2.0 - 1e-9);
        assert!(load1 >= 18.0 - 1e-9);
    }

    #[test]
    fn bulk_background_updates_match_individual_ones() {
        let (t, l0, l1) = two_hop();
        let mut a = FlowNetwork::new(t.clone());
        let mut b = FlowNetwork::new(t);
        let fa = a.add_flow(vec![l0, l1], 10.0).unwrap();
        let fb = b.add_flow(vec![l0, l1], 10.0).unwrap();
        a.set_background(l0, Mbps::new(0.5));
        a.set_background(l1, Mbps::new(2.0));
        b.set_background_many([(l0, Mbps::new(0.5)), (l1, Mbps::new(2.0))]);
        assert_eq!(a.rate(fa).unwrap(), b.rate(fb).unwrap());
        assert_eq!(a.link_total_load(l0), b.link_total_load(l0));
    }

    #[test]
    fn admin_down_link_freezes_crossing_flows() {
        let (t, l0, l1) = two_hop();
        let mut net = FlowNetwork::new(t);
        let crossing = net.add_flow(vec![l0, l1], 10.0).unwrap();
        let spared = net.add_flow(vec![l1], 10.0).unwrap();
        assert!(net.rate(crossing).unwrap().as_f64() > 0.0);

        net.set_link_admin_down(l0, true);
        assert_eq!(net.rate(crossing).unwrap(), Mbps::ZERO);
        // Flows avoiding the dead link keep (and inherit) its bandwidth.
        assert_eq!(net.rate(spared).unwrap(), Mbps::new(18.0));
        assert_eq!(net.flows_crossing(l0).collect::<Vec<_>>(), vec![crossing]);

        net.set_link_admin_down(l0, false);
        assert_eq!(net.rate(crossing).unwrap(), Mbps::new(2.0));
    }

    #[test]
    fn capacity_scale_degrades_throughput() {
        let (t, l0, _) = two_hop();
        let mut net = FlowNetwork::new(t);
        let f = net.add_flow(vec![l0], 10.0).unwrap();
        assert_eq!(net.rate(f).unwrap(), Mbps::new(2.0));
        net.set_link_capacity_scale(l0, 0.25);
        assert!((net.rate(f).unwrap().as_f64() - 0.5).abs() < 1e-9);
        net.set_link_capacity_scale(l0, 1.0);
        assert_eq!(net.rate(f).unwrap(), Mbps::new(2.0));
    }

    #[test]
    #[should_panic(expected = "capacity scale")]
    fn capacity_scale_rejects_out_of_range() {
        let (t, l0, _) = two_hop();
        let mut net = FlowNetwork::new(t);
        net.set_link_capacity_scale(l0, 1.5);
    }

    #[test]
    fn flow_ids_are_stable_and_ordered() {
        let (t, l0, _) = two_hop();
        let mut net = FlowNetwork::new(t);
        let a = net.add_flow(vec![l0], 1.0).unwrap();
        let b = net.add_flow(vec![l0], 1.0).unwrap();
        assert!(a < b);
        let ids: Vec<FlowId> = net.flow_ids().collect();
        assert_eq!(ids, vec![a, b]);
    }

    #[test]
    fn advance_into_reuses_caller_buffer() {
        let (t, l0, _) = two_hop();
        let mut net = FlowNetwork::new(t);
        let f = net.add_flow(vec![l0], 4.0).unwrap();
        let mut done = Vec::with_capacity(4);
        net.advance_into(SimDuration::from_secs(1), &mut done);
        assert!(done.is_empty());
        net.advance_into(SimDuration::from_secs(1), &mut done);
        assert_eq!(done, vec![f]);
        // The buffer is cleared, not re-allocated, on the next call.
        net.advance_into(SimDuration::from_secs(1), &mut done);
        assert!(done.is_empty());
        assert!(done.capacity() >= 4);
    }

    #[test]
    fn zero_rate_dust_flow_is_collected_on_next_advance() {
        on_both_kernels!(new, kernel => {
            let (t, l0, _) = two_hop();
            let mut net = new(t);
            net.set_background(l0, Mbps::new(5.0)); // oversubscribed → rate 0
            let f = net.add_flow(vec![l0], 1e-10).unwrap(); // below the epsilon
            assert_eq!(net.rate(f).unwrap(), Mbps::ZERO);
            // Dust is due on the next microsecond at any rate, so it is
            // on the completion schedule: whoever drives the network
            // collects it then, not at whatever instant it advances to
            // next.
            let next = Some((f, SimDuration::from_micros(1)));
            assert_eq!(net.next_completion(), next, "{kernel}");
            let done = net.advance(SimDuration::from_secs(1));
            assert_eq!(done, vec![f], "{kernel}");
        });
    }

    #[test]
    fn frozen_flow_resumes_with_valid_prediction() {
        on_both_kernels!(new, kernel => {
            let (t, l0, _) = two_hop();
            let mut net = new(t);
            let f = net.add_flow(vec![l0], 4.0).unwrap(); // 2 Mbps → 2 s
            net.advance(SimDuration::from_secs(1)); // 2 Mbit left
            net.set_link_admin_down(l0, true); // freeze at rate 0
            assert_eq!(net.next_completion(), None, "{kernel}");
            net.advance(SimDuration::from_secs(10)); // no progress
            assert!((net.remaining_mbit(f).unwrap() - 2.0).abs() < 1e-9);
            net.set_link_admin_down(l0, false); // thaw
            let (id, dt) = net.next_completion().unwrap();
            assert_eq!(id, f);
            assert_eq!(dt, SimDuration::from_secs(1), "{kernel}");
            assert_eq!(net.advance(dt), vec![f], "{kernel}");
        });
    }

    #[test]
    fn link_integrals_match_load_history() {
        on_both_kernels!(new, kernel => {
            let (t, l0, l1) = two_hop();
            let mut net = new(t);
            net.set_background(l1, Mbps::new(3.0));
            net.add_flow(vec![l0], 10.0).unwrap(); // 2 Mbps, done at t=5
            net.advance(SimDuration::from_secs(2));
            assert!((net.link_cumulative_mbit(l0) - 4.0).abs() < 1e-9);
            assert!((net.link_cumulative_mbit(l1) - 6.0).abs() < 1e-9);
            net.advance(SimDuration::from_secs(3));
            net.advance(SimDuration::from_secs(2));
            // l0 stops growing once its flow completes; l1's background
            // keeps integrating.
            assert!(
                (net.link_cumulative_mbit(l0) - 10.0).abs() < 1e-9,
                "{kernel}"
            );
            assert!(
                (net.link_cumulative_mbit(l1) - 21.0).abs() < 1e-9,
                "{kernel}"
            );
        });
    }

    /// `transfer_time` rounds like `(volume / rate × 1e6).ceil() as u64`
    /// on every input, the extremes and the non-finite included.
    #[test]
    fn transfer_time_is_the_saturating_ceiling() {
        let volumes = [
            0.0,
            5e-324,
            1e-9,
            0.7,
            2.0,
            1e6,
            1e300,
            f64::MAX,
            f64::INFINITY,
        ];
        let rates = [0.0, 5e-324, 1e-9, 0.9, 2.0, 3.0, 1e9, f64::MAX];
        let mut lcg = 0x2545_f491_4f6c_dd1du64;
        let mut sample = Vec::new();
        for _ in 0..10_000 {
            lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let volume = (lcg >> 11) as f64 / (1u64 << 40) as f64;
            sample.push((volume, 0.5 + (lcg % 97) as f64 / 7.0));
        }
        for &v in &volumes {
            sample.extend(rates.iter().map(|&r| (v, r)));
        }
        for (volume, rate) in sample {
            let ceiling = (volume / rate * 1e6).ceil() as u64;
            let got = transfer_time(volume, Mbps::new(rate)).as_micros();
            assert_eq!(got, ceiling, "{volume} Mbit at {rate} Mbps");
        }
    }

    /// The rounding contract: a flow alone on a link of capacity `rate`
    /// finishes at exactly [`transfer_time`] of its volume — at or after
    /// the continuous finish, by less than a microsecond — so advancing
    /// one microsecond short leaves it live, the next microsecond
    /// completes it, and nothing completes twice. Across extreme rates
    /// and volumes.
    #[test]
    fn completion_rounding_contract() {
        let rates = [1e-3, 0.9, 2.0, 1234.5678, 1e9];
        let volumes = [1e-6, 0.7, 42.0, 9876.5];
        on_both_kernels!(new, kernel => {
            for &rate in &rates {
                for &volume in &volumes {
                    let mut b = TopologyBuilder::new();
                    let (x, y) = (b.add_node("x"), b.add_node("y"));
                    let l = b.add_link(x, y, Mbps::new(rate)).unwrap();
                    let mut net = new(b.build());
                    let f = net.add_flow(vec![l], volume).unwrap();
                    let (id, dt) = net.next_completion().unwrap();
                    assert_eq!(id, f);
                    let ctx = format!("{kernel} rate={rate} vol={volume}");
                    assert_eq!(dt, transfer_time(volume, Mbps::new(rate)), "{ctx}");
                    let true_secs = volume / rate;
                    assert!(
                        dt.as_secs_f64() >= true_secs * (1.0 - 1e-12),
                        "finishes early: {ctx}"
                    );
                    assert!(
                        dt.as_secs_f64() - true_secs <= 1e-6 + true_secs * 1e-12,
                        "overshoots: {ctx}"
                    );
                    let early = dt.saturating_sub(SimDuration::from_micros(1));
                    assert!(net.advance(early).is_empty(), "fired early: {ctx}");
                    let done = net.advance(dt - early);
                    assert_eq!(done, vec![f], "missed completion: {ctx}");
                    // No double-fire: nothing left to complete.
                    assert!(net.advance(SimDuration::from_secs(1)).is_empty(), "{ctx}");
                    assert_eq!(net.next_completion(), None);
                }
            }
        });
    }

    /// Fully saturated regime: one route link is scaled to zero and the
    /// other is drowned in background traffic above its deliverable
    /// capacity, so the progressive filling's first increment is zero
    /// and every flow freezes at rate zero immediately. The production
    /// network and the oracle agree bitwise, frozen flows make no
    /// progress across an arbitrary advance, and a frozen flow costs the
    /// production network nothing per advance: it stores no finish
    /// instant, so it is never due and the slab is not scanned. Lifting
    /// the saturation thaws the flow identically in both.
    #[test]
    fn saturated_network_freezes_flows_without_heap_spin() {
        let (t, l0, l1) = two_hop();
        let mut lazy = FlowNetwork::new(t.clone());
        let mut reference = LockstepNetwork::new(t);
        // ≫ the 18 Mbps deliverable
        let drown = Mbps::new(1e6);
        lazy.set_link_capacity_scale(l0, 0.0);
        lazy.set_background(l1, drown);
        reference.set_link_capacity_scale(l0, 0.0);
        reference.set_background(l1, drown);
        let a = lazy.add_flow(vec![l0, l1], 10.0).unwrap();
        let b = reference.add_flow(vec![l0, l1], 10.0).unwrap();
        assert_eq!(a, b);

        // A frozen flow neither completes nor progresses.
        assert_eq!(lazy.rate(a).unwrap(), Mbps::ZERO);
        assert_eq!(lazy.next_completion(), None);
        assert!(lazy.advance(SimDuration::from_secs(3_600)).is_empty());
        assert!((lazy.remaining_mbit(a).unwrap() - 10.0).abs() < 1e-12);
        assert_eq!(reference.rate(a).unwrap(), Mbps::ZERO);
        assert_eq!(reference.next_completion(), None);
        assert!(reference.advance(SimDuration::from_secs(3_600)).is_empty());
        assert!((reference.remaining_mbit(a).unwrap() - 10.0).abs() < 1e-12);
        // The frozen flow was never re-rated and has no finish instant,
        // so the hour-long advance had nothing to scan.
        let frozen = lazy.stats();
        assert_eq!(frozen.flows_rerated, 0);
        assert_eq!(frozen.completion_scans, 0);

        // Lifting the saturation thaws the flow identically: both
        // settle on the 2 Mbps bottleneck and predict the same
        // completion.
        lazy.set_link_capacity_scale(l0, 1.0);
        lazy.set_background(l1, Mbps::ZERO);
        reference.set_link_capacity_scale(l0, 1.0);
        reference.set_background(l1, Mbps::ZERO);
        assert_eq!(lazy.rate(a).unwrap(), reference.rate(a).unwrap());
        assert_eq!(lazy.rate(a).unwrap(), Mbps::new(2.0));
        // One re-anchor for the thaw.
        assert_eq!(lazy.stats().flows_rerated, 1);
        let (fa, dta) = lazy.next_completion().unwrap();
        let (fb, dtb) = reference.next_completion().unwrap();
        assert_eq!((fa, dta), (fb, dtb));
        assert_eq!(lazy.advance(dta), vec![a]);
        assert_eq!(reference.advance(dtb), vec![a]);
        assert_eq!(lazy.stats().completion_scans, 1);
    }

    /// Two flows on different links that finish in the same microsecond:
    /// whichever was created first is the next completion, and one
    /// advance collects both in creation order.
    #[test]
    fn completion_ties_break_by_flow_id() {
        on_both_kernels!(new, kernel => {
            for thin_first in [true, false] {
                let (t, l0, l1) = two_hop();
                let mut net = new(t);
                // 2 s either way: 4 Mbit at 2 Mbps, 36 Mbit at 18 Mbps.
                let ids = if thin_first {
                    let thin = net.add_flow(vec![l0], 4.0).unwrap();
                    [thin, net.add_flow(vec![l1], 36.0).unwrap()]
                } else {
                    let fat = net.add_flow(vec![l1], 36.0).unwrap();
                    [fat, net.add_flow(vec![l0], 4.0).unwrap()]
                };
                let (first, dt) = net.next_completion().unwrap();
                assert_eq!(first, ids[0], "{kernel} thin_first={thin_first}");
                assert_eq!(dt, SimDuration::from_secs(2));
                assert_eq!(net.advance(dt), ids.to_vec(), "{kernel}");
            }
        });
    }

    /// `on_link_down` re-routes the crossing flows in the order this
    /// query yields them, and its trace is pinned: ascending `FlowId`,
    /// whatever order the routes' classes were created, emptied or
    /// re-created in.
    #[test]
    fn flows_crossing_answers_in_creation_order() {
        let (t, l0, l1) = two_hop();
        let mut net = FlowNetwork::new(t);
        let both = net.add_flow(vec![l0, l1], 10.0).unwrap();
        let fat = net.add_flow(vec![l1], 10.0).unwrap();
        let thin = net.add_flow(vec![l0], 10.0).unwrap();
        let both_again = net.add_flow(vec![l0, l1], 10.0).unwrap();
        // Retire the first class; a later route reuses its slot.
        net.remove_flow(both).unwrap();
        net.remove_flow(both_again).unwrap();
        net.settle();
        let reversed = net.add_flow(vec![l1, l0], 10.0).unwrap();
        let fat_again = net.add_flow(vec![l1], 10.0).unwrap();
        assert_eq!(net.classes.len(), 3, "the retired slot is reused");
        let on_l1: Vec<FlowId> = net.flows_crossing(l1).collect();
        assert_eq!(on_l1, vec![fat, reversed, fat_again]);
        let on_l0: Vec<FlowId> = net.flows_crossing(l0).collect();
        assert_eq!(on_l0, vec![thin, reversed]);
        assert_eq!(net.flow_links(reversed).unwrap(), &[l1, l0]);
    }

    /// GRNET with every city-to-city shortest route.
    fn grnet_with_routes() -> (Topology, Vec<Vec<LinkId>>) {
        use vod_net::dijkstra::dijkstra;
        use vod_net::lvn::LinkWeights;
        let topo = vod_net::topologies::grnet::Grnet::new().topology().clone();
        let hops = LinkWeights::uniform(topo.link_count(), 1.0);
        let mut routes = Vec::new();
        for from in topo.node_ids() {
            let paths = dijkstra(&topo, &hops, from).unwrap();
            let others = topo.node_ids().filter(|&to| to != from);
            routes.extend(others.map(|to| paths.route_to(to).unwrap().links().to_vec()));
        }
        (topo, routes)
    }

    /// One arrival into a thousand contending flows costs a fill over
    /// the routes, not over the flows: at most one round per link, at
    /// most one class per distinct route.
    #[test]
    fn reallocation_work_is_bounded_by_routes_not_flows() {
        let (topo, routes) = grnet_with_routes();
        let n_links = topo.link_count() as u64;
        let mut net = FlowNetwork::new(topo);
        for i in 0..1_000 {
            net.add_flow(&routes[i % routes.len()], 1e6).unwrap();
        }
        net.settle();
        let before = net.stats();
        net.add_flow(&routes[7], 1e6).unwrap();
        net.next_completion().unwrap();
        let after = net.stats();
        assert_eq!(after.reallocations - before.reallocations, 1);
        let rounds = after.fill_rounds - before.fill_rounds;
        assert!((1..=n_links).contains(&rounds), "{rounds} fill rounds");
        assert!(after.classes_filled - before.classes_filled <= routes.len() as u64);
        assert!(after.links_scanned - before.links_scanned <= rounds * n_links);
        assert!(after.flows_rerated - before.flows_rerated <= 1_001);
    }

    /// Re-installing the loads every link already carries — an idle
    /// background refresh — skips the refill and changes nothing.
    #[test]
    fn unchanged_background_skips_reallocation() {
        let (topo, routes) = grnet_with_routes();
        let links: Vec<LinkId> = topo.link_ids().collect();
        let mut net = FlowNetwork::new(topo);
        let loads: Vec<(LinkId, Mbps)> = links
            .iter()
            .map(|&l| (l, Mbps::new(0.125 * l.index() as f64)))
            .collect();
        net.set_background_many(loads.iter().copied());
        let ids: Vec<FlowId> = (0..60)
            .map(|i| {
                net.add_flow(&routes[i % routes.len()], 50.0 + i as f64)
                    .unwrap()
            })
            .collect();
        net.advance(SimDuration::from_secs(3));

        let observe = |net: &mut FlowNetwork| {
            let rates: Vec<u64> = ids
                .iter()
                .map(|&f| net.rate(f).unwrap().as_f64().to_bits())
                .collect();
            let volumes: Vec<u64> = links
                .iter()
                .map(|&l| net.link_cumulative_mbit(l).to_bits())
                .collect();
            (rates, volumes, net.next_completion())
        };
        let before = observe(&mut net);
        let stats = net.stats();
        net.set_background_many(loads.iter().copied());
        net.set_background(links[2], loads[2].1);
        let expected = KernelStats {
            reallocations_skipped: stats.reallocations_skipped + 2,
            ..stats
        };
        assert_eq!(net.stats(), expected);
        assert_eq!(observe(&mut net), before);
    }

    /// A background refresh over an idle backbone — no flow live —
    /// enters no fill and re-rates
    /// nothing, yet every reader sees the new loads: the total load, the
    /// snapshot and the volume the next advance integrates. The first
    /// network flow to join is then filled against the capacities as
    /// they stand.
    #[test]
    fn refresh_over_an_idle_backbone_runs_no_fill() {
        let (topo, routes) = grnet_with_routes();
        let links: Vec<LinkId> = topo.link_ids().collect();
        let mut net = FlowNetwork::new(topo);
        let mut snap = net.snapshot();
        let mut volumes = vec![0.0f64; links.len()];
        for minute in 1..=5u32 {
            let before = net.stats();
            let load = |l: LinkId| Mbps::new(0.01 * f64::from(minute) * (1 + l.index()) as f64);
            net.set_background_many(links.iter().map(|&l| (l, load(l))));
            assert_eq!(net.flow_count(), 0);
            net.settle();
            let after = net.stats();
            let expected = KernelStats {
                settles: before.settles + 1,
                reallocations: before.reallocations + 1,
                ..before
            };
            assert_eq!(after, expected, "minute {minute}");
            assert_eq!(after.settles, after.reallocations + after.fills_unchanged);
            net.snapshot_into(&mut snap);
            net.advance(SimDuration::from_secs(60));
            for (&l, volume) in links.iter().zip(&mut volumes) {
                assert_eq!(net.link_total_load(l), load(l));
                assert_eq!(snap.used(l), load(l));
                *volume += load(l).as_f64() * 60.0;
                assert_eq!(net.link_cumulative_mbit(l), *volume, "{l} minute {minute}");
            }
        }
        // 2 Mbps links carrying 0.05 × (1 + index) of background.
        let before = net.stats();
        let route = routes[0].clone();
        let tightest = route
            .iter()
            .map(|&l| net.topology().link(l).capacity() - net.background(l))
            .fold(Mbps::new(f64::MAX), Mbps::min);
        let flow = net.add_flow(route, 10.0).unwrap();
        assert_eq!(net.rate(flow).unwrap(), tightest);
        let after = net.stats();
        assert_eq!(after.classes_filled, before.classes_filled + 1);
        assert_eq!(after.flows_rerated, before.flows_rerated + 1);
    }

    /// A transfer replaced along its route — what a cluster boundary
    /// does — leaves every class with the member count the last fill
    /// saw: the settle skips the fill, re-anchors the newcomer alone,
    /// and the rates are the ones the oracle's two refills end on.
    #[test]
    fn replacing_a_flow_along_its_route_skips_the_fill() {
        let (topo, routes) = grnet_with_routes();
        let links: Vec<LinkId> = topo.link_ids().collect();
        let mut net = FlowNetwork::new(topo.clone());
        let mut oracle = LockstepNetwork::new(topo);
        let mut ids = Vec::new();
        for i in 0..40 {
            let route = &routes[i % 12];
            ids.push(net.add_flow(route, 1e3 + i as f64).unwrap());
            oracle.add_flow(route, 1e3 + i as f64).unwrap();
        }
        assert!(net.advance(SimDuration::from_secs(1)).is_empty());
        oracle.advance(SimDuration::from_secs(1));
        let before = net.stats();

        let replaced = ids.remove(5);
        net.remove_flow(replaced).unwrap();
        oracle.remove_flow(replaced).unwrap();
        ids.push(net.add_flow(&routes[5], 70.0).unwrap());
        oracle.add_flow(&routes[5], 70.0).unwrap();
        for &id in &ids {
            assert_eq!(net.rate(id).unwrap(), oracle.rate(id).unwrap(), "{id}");
        }
        for &l in &links {
            let (got, want) = (net.link_flow_load(l), oracle.link_flow_load(l));
            assert_eq!(got.as_f64().to_bits(), want.as_f64().to_bits(), "{l}");
        }
        let expected = KernelStats {
            settles: before.settles + 1,
            fills_unchanged: before.fills_unchanged + 1,
            flows_rerated: before.flows_rerated + 1,
            ..before
        };
        assert_eq!(net.stats(), expected);
    }

    /// A class emptied and not rejoined by the time the network settles
    /// is retired — off its links' lists, its slot reused by the next
    /// new route; one rejoined before the settle never leaves.
    #[test]
    fn emptied_class_is_retired_when_the_network_settles() {
        let (t, l0, l1) = two_hop();
        let mut net = FlowNetwork::new(t);
        let both = net.add_flow(vec![l0, l1], 10.0).unwrap();
        let fat = net.add_flow(vec![l1], 10.0).unwrap();
        net.settle();
        net.remove_flow(both).unwrap();
        // Until the settle the emptied class waits on its links.
        assert_eq!(net.link_classes[l0.index()].len(), 1);
        assert_eq!(net.link_classes[l1.index()].len(), 2);
        assert!(net.free_classes.is_empty());
        net.settle();
        assert!(net.link_classes[l0.index()].is_empty());
        assert_eq!(net.link_classes[l1.index()].len(), 1);
        assert_eq!(net.free_classes.len(), 1);
        assert_eq!(net.rate(fat).unwrap(), Mbps::new(18.0));

        let thin = net.add_flow(vec![l0], 10.0).unwrap();
        assert_eq!(net.classes.len(), 2, "the retired slot is reused");
        assert!(net.free_classes.is_empty());
        assert_eq!(net.rate(thin).unwrap(), Mbps::new(2.0));

        net.remove_flow(thin).unwrap();
        let thin_again = net.add_flow(vec![l0], 10.0).unwrap();
        net.settle();
        assert_eq!(net.link_classes[l0.index()].len(), 1);
        assert!(net.free_classes.is_empty());
        assert_eq!(net.classes.len(), 2);
        assert_eq!(net.rate(thin_again).unwrap(), Mbps::new(2.0));
    }

    /// No reader can observe a stale allocation: called on a network
    /// every kind of mutation has just left stale, each one answers
    /// what the eagerly refilled oracle answers. (Through a shared
    /// `&FlowNetwork` none of them can be called at all — the
    /// `compile_fail` example in the module docs.)
    #[test]
    fn every_reader_answers_from_a_settled_allocation() {
        let (t, l0, l1) = two_hop();
        let mut net = FlowNetwork::new(t.clone());
        let mut oracle = LockstepNetwork::new(t);
        let mut background = Mbps::ZERO;
        // Runs one mutation on both networks, then every reader on its
        // own copy of the still-stale production network.
        macro_rules! step {
            ($flow:expr, $method:ident($($arg:expr),*)) => {{
                let _ = oracle.$method($($arg),*);
                let out = net.$method($($arg),*);
                assert!(net.is_stale(), "{} leaves the allocation stale", stringify!($method));
                let rate = oracle.rate($flow).unwrap();
                let load = oracle.link_flow_load(l0);
                assert_eq!(net.clone().rate($flow).unwrap(), rate);
                assert_eq!(net.clone().link_flow_load(l0), load);
                assert_eq!(net.clone().link_total_load(l0), background + load);
                assert_eq!(net.clone().snapshot().used(l0), background + load);
                let mut snap = TrafficSnapshot::zero(net.topology());
                net.clone().snapshot_into(&mut snap);
                assert_eq!(snap.used(l0), background + load);
                assert_eq!(net.clone().next_completion(), oracle.next_completion());
                out
            }};
        }
        let f = step!(FlowId(0), add_flow(vec![l0, l1], 6.0)).unwrap();
        let g = step!(f, add_flow(vec![l0], 60.0)).unwrap();
        background = Mbps::new(0.5);
        step!(f, set_background(l0, background));
        step!(f, set_link_capacity_scale(l0, 0.75));
        step!(g, set_link_admin_down(l1, true));
        step!(g, set_link_admin_down(l1, false));
        step!(f, remove_flow(g)).unwrap();
        // `f` finishes: the completion, too, only marks the network stale.
        let h = step!(f, add_flow(vec![l1], 600.0)).unwrap();
        let (first, dt) = net.next_completion().unwrap();
        assert_eq!(first, f);
        assert_eq!(step!(h, advance(dt)), vec![f]);
    }

    #[test]
    fn kernel_stats_add_field_wise() {
        let (t, l0, l1) = two_hop();
        let mut net = FlowNetwork::new(t);
        net.set_background(l0, Mbps::ZERO); // skipped: already idle
        net.add_flow(vec![l0, l1], 4.0).unwrap(); // 2 Mbps, done at 2 s
        net.add_flow(vec![l1], 68.0).unwrap(); // 16 Mbps, then 18
        net.advance(SimDuration::from_secs(2)); // settles, completes the first
        assert_eq!(
            net.next_completion().map(|(_, dt)| dt.as_micros()),
            Some(2_000_000)
        );
        let run = net.stats();
        let expected = KernelStats {
            settles: 2,
            reallocations: 2,
            fills_unchanged: 0,
            reallocations_skipped: 1,
            fill_rounds: 3,
            classes_filled: 3,
            links_scanned: 4,
            flows_rerated: 3,
            completion_scans: 1,
        };
        assert_eq!(run, expected);
        let mut total = run;
        total += run;
        total += KernelStats {
            fills_unchanged: 5,
            completion_scans: 3,
            ..KernelStats::default()
        };
        let doubled = KernelStats {
            settles: 4,
            reallocations: 4,
            fills_unchanged: 5,
            reallocations_skipped: 2,
            fill_rounds: 6,
            classes_filled: 6,
            links_scanned: 8,
            flows_rerated: 6,
            completion_scans: 5,
        };
        assert_eq!(total, doubled);
    }

    mod max_min_properties {
        use super::*;
        use proptest::prelude::*;
        use vod_net::topologies::patterns::line;

        proptest! {
            /// On a random line network with random flows and background
            /// loads, the max-min allocation (a) never oversubscribes a
            /// link, and (b) bottlenecks every flow: each network flow
            /// crosses at least one saturated link.
            #[test]
            fn allocation_is_feasible_and_bottlenecked(
                nodes in 3usize..8,
                caps in proptest::collection::vec(1.0f64..20.0, 7),
                backgrounds in proptest::collection::vec(0.0f64..10.0, 7),
                flows in proptest::collection::vec((0usize..7, 1usize..7), 1..15),
            ) {
                let topo = line(nodes, Mbps::new(1.0));
                // Rebuild with per-link capacities via a fresh topology.
                let mut b = vod_net::TopologyBuilder::new();
                let ids: Vec<_> = (0..nodes).map(|i| b.add_node(format!("n{i}"))).collect();
                let mut links = Vec::new();
                for i in 1..nodes {
                    links.push(
                        b.add_link(ids[i - 1], ids[i], Mbps::new(caps[i - 1])).unwrap(),
                    );
                }
                let topo2 = b.build();
                drop(topo);
                let mut net = FlowNetwork::new(topo2.clone());
                for (i, &l) in links.iter().enumerate() {
                    net.set_background(l, Mbps::new(backgrounds[i].min(caps[i])));
                }
                let mut flow_ids = Vec::new();
                for &(start, len) in &flows {
                    let s = start % links.len();
                    let e = (s + len).min(links.len());
                    let route: Vec<LinkId> = links[s..e].to_vec();
                    if !route.is_empty() {
                        flow_ids.push((net.add_flow(&route, 100.0).unwrap(), route));
                    }
                }

                // (a) feasibility.
                for (i, &l) in links.iter().enumerate() {
                    let residual = (caps[i] - net.background(l).as_f64()).max(0.0);
                    prop_assert!(
                        net.link_flow_load(l).as_f64() <= residual + 1e-6,
                        "link {} oversubscribed", l
                    );
                }
                // (b) every flow is bottlenecked by a saturated link.
                for (id, route) in &flow_ids {
                    let _rate = net.rate(*id).unwrap();
                    let bottlenecked = route.iter().any(|&l| {
                        let i = l.index();
                        let residual = (caps[i] - net.background(l).as_f64()).max(0.0);
                        net.link_flow_load(l).as_f64() >= residual - 1e-6
                    });
                    prop_assert!(bottlenecked, "flow {} is not bottlenecked", id);
                }
            }

            /// advance() and next_completion() agree: advancing by the
            /// predicted time completes exactly the predicted flow first.
            #[test]
            fn completion_prediction_is_consistent(
                volumes in proptest::collection::vec(0.5f64..50.0, 1..8),
            ) {
                let topo = line(3, Mbps::new(2.0));
                let links: Vec<LinkId> = topo.link_ids().collect();
                let mut net = FlowNetwork::new(topo);
                for (i, &v) in volumes.iter().enumerate() {
                    net.add_flow(vec![links[i % 2]], v).unwrap();
                }
                if let Some((first, dt)) = net.next_completion() {
                    let done = net.advance(dt);
                    prop_assert!(done.contains(&first), "{} predicted, got {:?}", first, done);
                }
            }
        }
    }

    mod kernel_parity {
        use super::*;
        use proptest::prelude::*;
        use vod_net::topologies::patterns::line;

        /// The routes every network flow of a schedule draws from, over
        /// the three links of a 4-node line: few enough that hundreds of
        /// flows share a handful of classes. The last one names a link
        /// twice — a flow counted twice on it.
        fn route_pool(links: &[LinkId]) -> [Vec<LinkId>; 6] {
            let (l0, l1, l2) = (links[0], links[1], links[2]);
            [
                vec![l0],
                vec![l1],
                vec![l0, l1],
                vec![l1, l2],
                vec![l0, l1, l2],
                vec![l2, l1, l2],
            ]
        }

        /// Drives the production network and the lockstep oracle
        /// through the same random schedule of adds (single, in bursts
        /// onto one route, of dust and of transfers a few microseconds
        /// long), removes (single and of a whole class, whose slot the
        /// next new route reuses), twins (a flow with another's
        /// remaining volume along its route), background changes
        /// (single-link and bulk), capacity degradations, administrative
        /// outages and advances (timed, to the next completion, and to
        /// one microsecond short of it), asserting after every
        /// operation that rates, link loads, SNMP volume integrals,
        /// removed volumes and the next completion are *bitwise* equal,
        /// and that completions happen in the same order at the same
        /// events. An operation is one batch: the production network is
        /// not read inside it, so it settles once per operation, while
        /// the oracle refills after every single mutation.
        fn drive(ops: &[(u8, usize, f64)]) -> Result<(), TestCaseError> {
            let topo = line(4, Mbps::new(4.0));
            let links: Vec<LinkId> = topo.link_ids().collect();
            let pool = route_pool(&links);
            let mut lazy = FlowNetwork::new(topo.clone());
            let mut reference = LockstepNetwork::new(topo);
            // Live flows with the pool route they follow.
            let mut live: Vec<(FlowId, usize)> = Vec::new();
            macro_rules! add {
                ($route:expr, $volume:expr) => {{
                    let route: usize = $route;
                    let a = lazy.add_flow(&pool[route], $volume).unwrap();
                    let b = reference.add_flow(&pool[route], $volume).unwrap();
                    prop_assert_eq!(a, b);
                    live.push((a, route));
                }};
            }
            for &(op, sel, val) in ops {
                match op {
                    0 => add!(sel % pool.len(), val),
                    1 => {
                        // A transfer of a few microseconds: it finishes
                        // in the same or the next microsecond as others.
                        add!(sel % pool.len(), val * 1e-6);
                    }
                    2 if !live.is_empty() => {
                        let (id, _) = live.remove(sel % live.len());
                        let ra = lazy.remove_flow(id).unwrap();
                        let rb = reference.remove_flow(id).unwrap();
                        prop_assert_eq!(
                            ra.to_bits(),
                            rb.to_bits(),
                            "remove {}: {} vs {}",
                            id,
                            ra,
                            rb
                        );
                    }
                    3 => {
                        let l = links[sel % links.len()];
                        let bg = Mbps::new(val * 0.08); // residual ≥ 0.8 Mbps
                        lazy.set_background(l, bg);
                        reference.set_background(l, bg);
                    }
                    4 => {
                        if let Some((_, dt)) = lazy.next_completion() {
                            let da = lazy.advance(dt);
                            let db = reference.advance(dt);
                            prop_assert_eq!(&da, &db, "advance-to-completion disagrees");
                            prop_assert!(!da.is_empty(), "the next completion is due");
                            live.retain(|(id, _)| !da.contains(id));
                        }
                    }
                    6 => {
                        // Soft degradation; every fourth draw is a full
                        // outage (zero deliverable capacity).
                        let l = links[sel % links.len()];
                        let scale = if sel % 4 == 0 {
                            0.0
                        } else {
                            (val / 40.0).min(1.0)
                        };
                        lazy.set_link_capacity_scale(l, scale);
                        reference.set_link_capacity_scale(l, scale);
                    }
                    7 => {
                        let l = links[sel % links.len()];
                        let down = sel % 2 == 0;
                        lazy.set_link_admin_down(l, down);
                        reference.set_link_admin_down(l, down);
                    }
                    8 => {
                        // Up to one microsecond short of the next
                        // completion: nothing is due yet.
                        if let Some((_, dt)) = lazy.next_completion() {
                            let short = dt.saturating_sub(SimDuration::from_micros(1));
                            prop_assert!(lazy.advance(short).is_empty());
                            prop_assert!(reference.advance(short).is_empty());
                        }
                    }
                    9 => {
                        // The per-minute `BackgroundModel::apply` shape:
                        // every link re-loaded in one call, some to idle.
                        let loads: Vec<(LinkId, Mbps)> = links
                            .iter()
                            .enumerate()
                            .map(|(i, &l)| (l, Mbps::new(val * 0.04 * ((sel + i) % 3) as f64)))
                            .collect();
                        lazy.set_background_many(loads.iter().copied());
                        reference.set_background_many(loads);
                    }
                    10 => {
                        // Dust: due on the next microsecond at any rate.
                        add!(sel % pool.len(), val * 1e-11);
                    }
                    11 => {
                        // A burst onto one route: the class grows by
                        // dozens of members between two other events.
                        let route = sel % pool.len();
                        for k in 0..10 + sel % 40 {
                            add!(route, val + k as f64 * 0.25);
                        }
                    }
                    12 => {
                        // Empty a class, then open another route (it
                        // takes the retired slot) and the emptied one
                        // again.
                        let route = sel % pool.len();
                        for &(id, _) in live.iter().filter(|(_, r)| *r == route) {
                            lazy.remove_flow(id).unwrap();
                            reference.remove_flow(id).unwrap();
                        }
                        live.retain(|(_, r)| *r != route);
                        for route in [(route + 1) % pool.len(), route] {
                            add!(route, val);
                        }
                    }
                    13 => {
                        // A twin: a progressing flow's remaining volume
                        // along its route, so the two finish within a
                        // microsecond of each other.
                        let twin = live.iter().find_map(|&(id, route)| {
                            let rate = lazy.rate(id).unwrap();
                            let left = lazy.remaining_mbit(id).unwrap();
                            (rate.as_f64() > 0.0 && left > 0.0).then_some((route, left))
                        });
                        if let Some((route, left)) = twin {
                            add!(route, left);
                        }
                    }
                    14 => {
                        // A cluster boundary: every flow the advance
                        // completes is followed, at the same instant, by
                        // a new one along the same route.
                        if let Some((_, dt)) = lazy.next_completion() {
                            let da = lazy.advance(dt);
                            let db = reference.advance(dt);
                            prop_assert_eq!(&da, &db, "advance-to-completion disagrees");
                            let (done, rest): (Vec<_>, Vec<_>) =
                                live.drain(..).partition(|(id, _)| da.contains(id));
                            live = rest;
                            for (_, route) in done {
                                add!(route, val);
                            }
                        }
                    }
                    15 => {
                        // A link failure's re-route: k flows torn down
                        // and k started, on whatever routes come next.
                        let k = (1 + sel % 5).min(live.len());
                        for _ in 0..k {
                            let (id, _) = live.remove(sel % live.len());
                            lazy.remove_flow(id).unwrap();
                            reference.remove_flow(id).unwrap();
                        }
                        for j in 0..k {
                            add!((sel + j) % pool.len(), val);
                        }
                    }
                    16 => {
                        // Setters interleaved with adds.
                        let l = links[sel % links.len()];
                        let bg = Mbps::new(val * 0.05);
                        let scale = (val / 40.0).min(1.0);
                        for step in 0..3 {
                            add!((sel + step) % pool.len(), val);
                            match step {
                                0 => {
                                    lazy.set_background(l, bg);
                                    reference.set_background(l, bg);
                                }
                                1 => {
                                    lazy.set_link_capacity_scale(l, scale);
                                    reference.set_link_capacity_scale(l, scale);
                                }
                                _ => {}
                            }
                        }
                    }
                    _ => {
                        let dt = SimDuration::from_millis((sel as u64 % 900) + 100);
                        let da = lazy.advance(dt);
                        let db = reference.advance(dt);
                        prop_assert_eq!(&da, &db, "timed advance disagrees");
                        live.retain(|(id, _)| !da.contains(id));
                    }
                }
                // Bitwise invariants after every operation.
                for &(id, _) in &live {
                    prop_assert_eq!(
                        lazy.rate(id).unwrap().as_f64().to_bits(),
                        reference.rate(id).unwrap().as_f64().to_bits(),
                        "rate of {} diverged",
                        id
                    );
                }
                for &l in &links {
                    prop_assert_eq!(
                        lazy.link_flow_load(l).as_f64().to_bits(),
                        reference.link_flow_load(l).as_f64().to_bits(),
                        "load of {} diverged",
                        l
                    );
                    prop_assert_eq!(
                        lazy.link_cumulative_mbit(l).to_bits(),
                        reference.link_cumulative_mbit(l).to_bits(),
                        "SNMP integral of {} diverged",
                        l
                    );
                }
                prop_assert_eq!(lazy.flow_count(), reference.flow_count());
                prop_assert!(lazy.flow_ids().eq(reference.flow_ids()));
                prop_assert_eq!(lazy.next_completion(), reference.next_completion());
            }
            Ok(())
        }

        /// The idle-backbone path, deterministically: background
        /// (bulk and single-link), outages and degradations change over
        /// and over while nothing is live — each followed by a timed
        /// advance that integrates the new loads — and flows then join,
        /// complete and leave the backbone idle again, twice. The
        /// random schedules below reach such stretches only by chance,
        /// at their start.
        #[test]
        fn idle_backbone_schedule_agrees_with_lockstep() {
            let tick = (17, 59, 1.0); // a 159 ms advance
            let idle_churn = |seed: usize| {
                let v = 3.0 + seed as f64;
                vec![
                    (9, seed, v), // bulk refresh
                    tick,
                    (3, seed + 1, 2.0 * v), // one link's background
                    (7, 2 * seed, v),       // link down …
                    tick,
                    (9, seed + 2, v + 1.0),
                    (6, 4 * seed, v), // … another fully degraded
                    tick,
                    (7, 2 * seed + 1, v), // … up again
                    (6, seed + 1, 40.0),  // … healthy again
                    (9, seed + 1, v),
                    tick,
                ]
            };
            let mut ops = idle_churn(1);
            ops.extend(idle_churn(2));
            for round in 0..2 {
                // Flows join the churned capacities, run dry …
                ops.extend([(0, 4 + round, 6.0), (11, round, 2.0), (9, 5, 7.0)]);
                ops.extend(std::iter::repeat_n((4, 0, 1.0), 120));
                // … and the backbone is idle again under further churn.
                ops.extend(idle_churn(3 + round));
            }
            drive(&ops).unwrap();
        }

        proptest! {
            #[test]
            fn lazy_and_reference_kernels_agree(
                ops in proptest::collection::vec((0u8..17, 0usize..100, 0.5f64..40.0), 1..90),
            ) {
                drive(&ops)?;
            }
        }
    }
}
