//! Fluid-flow network model with max-min fair bandwidth sharing.
//!
//! Each video transfer is a *flow*: a fixed volume of data moving along a
//! route of links. At any instant every link's residual capacity (capacity
//! minus background traffic) is shared **max-min fairly** among the flows
//! crossing it — the classic progressive-filling allocation. Between
//! events the allocation is constant, so flow completion times can be
//! predicted exactly, which is what makes the discrete-event simulation
//! both fast and deterministic.
//!
//! Flows with an *empty* route model a client served from its home
//! server's disks; they progress at a configurable local rate instead of
//! competing for network bandwidth.
//!
//! # Accounting
//!
//! Each flow stores its remaining volume as of its own last rate change
//! (a per-flow anchor), so advancing time touches only the flows that
//! actually finish in the window. The two kinds of flow are kept apart,
//! because their rates change for different reasons:
//!
//! * **Local flows** never change rate on their own, and there can be
//!   hundreds of thousands of them. They live in an id-ordered map and
//!   predict their completion into a [`BucketQueue`] with lazy epoch
//!   invalidation — a cost per event that does not grow with `F`.
//! * **Network flows** are all re-rated together whenever the
//!   allocation is settled. They live in a dense slab in creation
//!   order, each pointing at its **route class** — one distinct link
//!   sequence with a live-member count. Flows of one class cross the
//!   same links, so progressive filling freezes them in the same round
//!   at the same level: the fill runs over classes and crossed links,
//!   `O(rounds × (crossed links + classes on saturated links))`,
//!   whatever the number of flows. One dense pass then hands each slot
//!   its class's rate, re-anchors the slots whose rate moved, rebuilds
//!   the per-link loads and records the earliest predicted finish.
//!   Between two settles neither the set of network flows nor their
//!   rates can change, so that recorded minimum *is* the network's
//!   completion schedule: network flows never enter the heap.
//!
//! # Settling
//!
//! The allocation is a pure function of (route-class member counts,
//! capacities, background), and an allocation that lasts no simulated
//! time is unobservable. So a mutation — a network flow added, removed
//! or completed, a background, outage or degradation setter that stores
//! a new value — only marks the allocation *stale*; the one
//! [`FlowNetwork::settle`] recomputes it, and runs at most once per
//! batch of mutations: on entry to `advance`/`advance_into` (before any
//! time is integrated over the allocation) and `next_completion`, and
//! inside every reader of a rate or a link load (which is why those
//! take `&mut self`: a stale allocation cannot be read). A class a
//! mutation emptied is retired only when the network settles, so a
//! completion followed at the same instant by the next cluster's flow
//! along the same route rejoins its class — and when no class's member
//! count and no capacity input differs from what the last fill saw, the
//! fill is skipped and only the pass over the slab runs. The same holds
//! while no network flow is live at all (an idle backbone, the state
//! most periodic background refreshes find): a moved capacity has no
//! class to fill and no slot to re-rate, so that settle zeroes the
//! per-link loads and relists the active links, and the first network
//! flow to join brings the fill that reads the capacities as they then
//! stand.
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
//! The naive lockstep kernel — every advance rescans and decrements
//! every flow, every mutation refills flow by flow — lives on as the
//! differential-testing oracle in this module's test tree, and every
//! rate, link load and SNMP integral here is *bitwise* what it computes:
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
//!   previous fill's, re-derives the rates every class already has.

use std::cmp::Ordering;
use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use vod_net::{LinkId, Mbps, Topology, TrafficSnapshot};

use crate::bucketq::{seconds_radix, BucketQueue, QueueStats, RadixKey};
use crate::idwindow::IdWindow;
use crate::time::SimDuration;

/// Volume below which a flow counts as complete (megabits). Guards against
/// floating-point dust after many `advance` calls.
pub const COMPLETION_EPSILON_MBIT: f64 = 1e-9;

/// Scheduling slack a service should add to a predicted completion
/// instant.
///
/// [`FlowNetwork::next_completion`] rounds the continuous finish time *up*
/// to the clock's microsecond resolution; scheduling the completion check
/// this one extra microsecond later guarantees the check fires at or
/// after the true finish instant for every representable rate, so the
/// flow is observed complete (remaining ≤ [`COMPLETION_EPSILON_MBIT`])
/// exactly once — no double-fire, no miss. See the
/// `completion_rounding_contract` regression test.
pub const COMPLETION_CHECK_SLACK: SimDuration = SimDuration::from_micros(1);

/// Margin (seconds) when collecting predicted completions: predictions
/// within this distance of "now" are candidates. A prediction is only a
/// *filter* — the definitive completion test is the remaining volume —
/// so the margin merely absorbs f64 rounding between a stored absolute
/// finish time and the integer-microsecond clock.
const POP_SLACK_SECS: f64 = 1e-9;

/// Identifier of a flow within a [`FlowNetwork`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
#[serde(transparent)]
pub struct FlowId(u64);

impl FlowId {
    /// The id as a number: ids are issued in ascending order from zero,
    /// which makes this the key of an [`IdWindow`] over flows.
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
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::UnknownFlow(id) => write!(f, "unknown flow {id}"),
            FlowError::UnknownLink(id) => write!(f, "unknown link {id}"),
            FlowError::InvalidVolume(v) => write!(f, "invalid flow volume {v} Mbit"),
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
    /// previous fill. One that finds no network flow live (a background
    /// refresh over an idle backbone) is counted here too, but has no
    /// class to fill and adds nothing to the three fill counters below.
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
    /// Network flows whose rate moved and were re-anchored.
    pub flows_rerated: u64,
    /// Advances that scanned the network-flow slab for completions.
    pub completion_scans: u64,
    /// Completion predictions pushed onto the local-flow heap.
    pub heap_pushes: u64,
    /// Stale heap entries (flow gone or re-rated) discarded when popped.
    pub stale_pops: u64,
    /// What the local-flow heap moved between its buckets at depth.
    pub queue: QueueStats,
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
            heap_pushes,
            stale_pops,
            queue,
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
        self.heap_pushes += heap_pushes;
        self.stale_pops += stale_pops;
        self.queue += queue;
    }
}

/// Remaining volume at `clock_us` of a flow anchored at `synced_at` with
/// `remaining_mbit` left, extrapolated at its current (constant) rate.
fn remaining_at(remaining_mbit: f64, synced_at: u64, rate: Mbps, clock_us: u64) -> f64 {
    let elapsed = clock_us.saturating_sub(synced_at) as f64 / 1e6;
    remaining_mbit - rate.as_f64() * elapsed
}

/// The instant (seconds since the network's creation) at which a flow
/// anchored like this reaches the completion epsilon. Zero-rate flows
/// never finish (`None`) — except ones already at the epsilon (float
/// dust), which are due immediately so the next advance collects them.
#[expect(
    clippy::disallowed_macros,
    reason = "debug check: divides only by a rate checked > 0.0"
)]
fn predicted_finish(remaining_mbit: f64, synced_at: u64, rate: Mbps) -> Option<f64> {
    let sync_secs = synced_at as f64 / 1e6;
    let rate = rate.as_f64();
    if rate > 0.0 {
        let finish = sync_secs + (remaining_mbit - COMPLETION_EPSILON_MBIT) / rate;
        debug_assert!(!finish.is_nan(), "divides only by a rate checked > 0.0");
        Some(finish)
    } else if remaining_mbit <= COMPLETION_EPSILON_MBIT {
        Some(sync_secs)
    } else {
        None
    }
}

/// Rounds a continuous time-to-finish up to the clock's microsecond.
fn ceil_to_micros(remaining_mbit: f64, rate: Mbps) -> SimDuration {
    let secs = remaining_mbit / rate.as_f64();
    SimDuration::from_micros((secs * 1e6).ceil() as u64)
}

/// A local (empty-route) flow.
#[derive(Debug, Clone)]
struct Flow {
    /// Remaining volume as of `synced_at` — **not** necessarily "now".
    /// Use [`Flow::remaining_at`] for the current value.
    remaining_mbit: f64,
    /// Clock reading (µs) at which `remaining_mbit` was last materialized
    /// (creation or the flow's most recent rate change).
    synced_at: u64,
    rate: Mbps,
    /// Bumped on every rate change; completion-heap entries carrying an
    /// older epoch are stale and skipped when popped.
    epoch: u64,
    /// A per-flow rate replacing the network-wide default (e.g. derived
    /// from a disk model).
    local_rate_override: Option<Mbps>,
}

impl Flow {
    fn remaining_at(&self, clock_us: u64) -> f64 {
        remaining_at(self.remaining_mbit, self.synced_at, self.rate, clock_us)
    }
}

/// A network flow: one slot of the creation-ordered slab.
#[derive(Debug, Clone)]
struct NetFlow {
    id: FlowId,
    /// Index of the flow's route class.
    class: u32,
    rate: Mbps,
    /// Remaining volume as of `synced_at`, as for [`Flow`].
    remaining_mbit: f64,
    synced_at: u64,
    /// [`predicted_finish`] of the current anchor; `+∞` for a frozen
    /// flow that is not dust.
    finish_secs: f64,
}

impl NetFlow {
    fn remaining_at(&self, clock_us: u64) -> f64 {
        remaining_at(self.remaining_mbit, self.synced_at, self.rate, clock_us)
    }
}

/// One distinct route and the network flows currently following it.
/// A slot found without members when the network settles is retired
/// (its `links` emptied) and waits on the free list.
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

/// A predicted local-flow completion: absolute finish time in seconds
/// since the network's creation, plus the flow identity *at prediction
/// time*. An entry whose `epoch` no longer matches the flow's is stale.
#[derive(Copy, Clone, Debug)]
struct HeapEntry {
    finish_secs: f64,
    id: FlowId,
    epoch: u64,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.finish_secs
            .total_cmp(&other.finish_secs)
            .then_with(|| self.id.cmp(&other.id))
            .then_with(|| self.epoch.cmp(&other.epoch))
    }
}

impl RadixKey for HeapEntry {
    fn radix(&self) -> u64 {
        seconds_radix(self.finish_secs)
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
    /// Local flows by id: the slots between the oldest and the newest
    /// live local flow (network flows leave theirs empty).
    flows: IdWindow<Flow>,
    /// Network flows, ascending by id (= creation order): the order
    /// link loads are summed in and crossing queries answer in.
    slab: Vec<NetFlow>,
    /// Route classes by index; retired slots are listed in
    /// `free_classes` and reused.
    classes: Vec<RouteClass>,
    free_classes: Vec<u32>,
    /// Per link, the live classes whose route crosses it (once per
    /// occurrence of the link in the route).
    link_classes: Vec<Vec<u32>>,
    next_id: u64,
    local_rate: Mbps,
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
    /// Predicted local-flow completions, min-ordered by finish time,
    /// with lazy epoch invalidation.
    completions: BucketQueue<HeapEntry>,
    /// Earliest `finish_secs` in the slab (dust included), as of the
    /// last settle: no network flow can complete before it.
    net_due_secs: f64,
    /// Slab index of the progressing network flow that finishes first
    /// under the heap's `(finish_secs, id)` order.
    net_next: Option<usize>,
    /// Running integral of each link's *total* load (background + flows)
    /// in megabits — the SNMP byte-counter source, maintained
    /// incrementally in `advance` over the active links only.
    link_cumulative_mbit: Vec<f64>,
    /// Links whose total load is non-zero (the only ones whose integral
    /// can grow), ascending; rebuilt by every settle.
    active_links: Vec<u32>,
    /// A background load, outage or degradation changed since the last
    /// settle.
    capacity_moved: bool,
    /// Classes that gained or lost a member since the last settle
    /// (repeats allowed). While this is non-empty or `capacity_moved`
    /// is set the allocation is *stale*: rates, link loads,
    /// `net_due_secs`, `net_next` and `active_links` are out of date
    /// until [`FlowNetwork::settle`] runs.
    touched_classes: Vec<u32>,
    /// Reusable buffer for heap verify-and-requeue passes.
    requeue_scratch: Vec<HeapEntry>,
    fill: FillScratch,
    stats: KernelStats,
}

impl FlowNetwork {
    /// Creates a flow network over `topology` with zero background
    /// traffic and a 100 Mbps local-serve rate.
    pub fn new(topology: Topology) -> Self {
        let links = topology.link_count();
        FlowNetwork {
            topology,
            background: vec![Mbps::ZERO; links],
            flows: IdWindow::new(),
            slab: Vec::new(),
            classes: Vec::new(),
            free_classes: Vec::new(),
            link_classes: vec![Vec::new(); links],
            next_id: 0,
            local_rate: Mbps::new(100.0),
            link_loads: vec![0.0; links],
            admin_down: vec![false; links],
            capacity_scale: vec![1.0; links],
            clock_us: 0,
            completions: BucketQueue::new(),
            net_due_secs: f64::INFINITY,
            net_next: None,
            link_cumulative_mbit: vec![0.0; links],
            active_links: Vec::new(),
            capacity_moved: false,
            touched_classes: Vec::new(),
            requeue_scratch: Vec::new(),
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
        KernelStats {
            queue: self.completions.stats(),
            ..self.stats
        }
    }

    /// Sets the rate at which local (empty-route) flows progress.
    pub fn set_local_rate(&mut self, rate: Mbps) {
        self.local_rate = rate;
        // Only local flows without a per-flow override change rate;
        // network flows and link loads are untouched.
        let ids: Vec<FlowId> = self
            .flows
            .iter()
            .filter(|(_, f)| f.local_rate_override.is_none())
            .map(|(id, _)| FlowId(id))
            .collect();
        for id in ids {
            self.apply_rate(id, rate);
        }
    }

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
    /// the set a service must re-route when the link goes down. Only
    /// network flows are consulted (local flows cross nothing), and the
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
    /// returns its id. An empty route is a local serve. The links are
    /// copied only when no live flow already takes the same route.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownLink`] for a foreign link id, or
    /// [`FlowError::InvalidVolume`] for a non-positive or non-finite
    /// volume.
    pub fn add_flow(
        &mut self,
        route_links: impl AsRef<[LinkId]>,
        volume_mbit: f64,
    ) -> Result<FlowId, FlowError> {
        let route_links = route_links.as_ref();
        if route_links.is_empty() {
            let rate = self.local_rate;
            return self.insert_local(volume_mbit, rate, None);
        }
        if !volume_mbit.is_finite() || volume_mbit <= 0.0 {
            return Err(FlowError::InvalidVolume(volume_mbit));
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
        // Born at rate zero: if the settle leaves it there
        // (oversubscribed route), a float-dust volume is still due on the
        // next advance.
        self.slab.push(NetFlow {
            id,
            class,
            rate: Mbps::ZERO,
            remaining_mbit: volume_mbit,
            synced_at: self.clock_us,
            finish_secs: predicted_finish(volume_mbit, self.clock_us, Mbps::ZERO)
                .unwrap_or(f64::INFINITY),
        });
        Ok(id)
    }

    /// Starts a *local* flow (empty route) progressing at its own fixed
    /// rate instead of the network-wide local default — e.g. the striped
    /// disk throughput of the title being served.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidVolume`] for a non-positive or
    /// non-finite volume.
    pub fn add_local_flow(&mut self, volume_mbit: f64, rate: Mbps) -> Result<FlowId, FlowError> {
        self.insert_local(volume_mbit, rate, Some(rate))
    }

    fn insert_local(
        &mut self,
        volume_mbit: f64,
        rate: Mbps,
        local_rate_override: Option<Mbps>,
    ) -> Result<FlowId, FlowError> {
        if !volume_mbit.is_finite() || volume_mbit <= 0.0 {
            return Err(FlowError::InvalidVolume(volume_mbit));
        }
        let id = FlowId(self.next_id);
        self.next_id += 1;
        self.flows.insert(
            id.0,
            Flow {
                remaining_mbit: volume_mbit,
                synced_at: self.clock_us,
                rate: Mbps::ZERO,
                epoch: 0,
                local_rate_override,
            },
        );
        self.apply_rate(id, rate);
        if rate == Mbps::ZERO {
            // Zero-rate birth: a float-dust volume must still get
            // collected on the next advance.
            self.push_entry_for(id);
        }
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
        if let Some(flow) = self.take_net_flow(id) {
            // Its anchor predates the batch being settled, but no time
            // has passed since: the extrapolation is what a re-anchor
            // at this instant would have stored.
            return Ok(flow.remaining_at(clock));
        }
        // A local flow holds no link bandwidth: nothing to redistribute.
        let flow = self.flows.remove(id.0).ok_or(FlowError::UnknownFlow(id))?;
        Ok(flow.remaining_at(clock))
    }

    /// The current max-min fair rate of `id`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownFlow`] if the flow does not exist.
    pub fn rate(&mut self, id: FlowId) -> Result<Mbps, FlowError> {
        self.settle();
        match self.net_flow(id) {
            Some(f) => Ok(f.rate),
            None => self.local_flow(id).map(|f| f.rate),
        }
    }

    /// Remaining volume of `id` in megabits, as of the network's current
    /// clock.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownFlow`] if the flow does not exist.
    pub fn remaining_mbit(&self, id: FlowId) -> Result<f64, FlowError> {
        match self.net_flow(id) {
            Some(f) => Ok(f.remaining_at(self.clock_us)),
            None => self.local_flow(id).map(|f| f.remaining_at(self.clock_us)),
        }
    }

    /// The route links of `id`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownFlow`] if the flow does not exist.
    pub fn flow_links(&self, id: FlowId) -> Result<&[LinkId], FlowError> {
        match self.net_flow(id) {
            Some(f) => Ok(self.class_links(f)),
            None => self.local_flow(id).map(|_| &[][..]),
        }
    }

    /// Number of active flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len() + self.slab.len()
    }

    /// Number of active network (non-empty route) flows — zero on an
    /// idle backbone, whatever the local serves in progress.
    pub fn network_flow_count(&self) -> usize {
        self.slab.len()
    }

    /// Ids of all active flows, in creation order.
    pub fn flow_ids(&self) -> impl Iterator<Item = FlowId> + '_ {
        let mut local = self.flows.iter().map(|(id, _)| FlowId(id)).peekable();
        let mut network = self.slab.iter().map(|f| f.id).peekable();
        std::iter::from_fn(move || match (local.peek(), network.peek()) {
            (Some(l), Some(n)) if l < n => local.next(),
            (_, Some(_)) => network.next(),
            (_, None) => local.next(),
        })
    }

    fn local_flow(&self, id: FlowId) -> Result<&Flow, FlowError> {
        self.flows.get(id.0).ok_or(FlowError::UnknownFlow(id))
    }

    fn net_flow(&self, id: FlowId) -> Option<&NetFlow> {
        let pos = self.slab.binary_search_by_key(&id, |f| f.id).ok()?;
        self.slab.get(pos)
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "a flow's `class` names a slot of `classes` for as long as the flow lives"
    )]
    fn class_links(&self, flow: &NetFlow) -> &[LinkId] {
        &self.classes[flow.class as usize].links
    }

    /// Time until the next flow completes at current rates, with its id.
    ///
    /// The duration is rounded *up* to the clock's microsecond
    /// resolution, so `advance(next_completion_duration)` is guaranteed
    /// to complete (at least) the returned flow; schedule the follow-up
    /// check [`COMPLETION_CHECK_SLACK`] later to absorb the rounding.
    ///
    /// Returns `None` when there are no flows or none of them makes
    /// progress (all rates zero).
    ///
    /// Takes `&mut self` because the allocation is settled first and
    /// stale heap entries encountered on the way are garbage-collected;
    /// the model state is unchanged.
    pub fn next_completion(&mut self) -> Option<(FlowId, SimDuration)> {
        self.settle();
        let local = self.next_local_completion();
        // The earlier prediction wins, ties to the smaller id — the
        // order one heap over both kinds of flow would pop them in.
        let network = self.net_next.and_then(|slot| self.slab.get(slot));
        let network = network.filter(|n| {
            local.is_none_or(|top| {
                let order = n.finish_secs.total_cmp(&top.finish_secs);
                order.then_with(|| n.id.cmp(&top.id)).is_lt()
            })
        });
        if let Some(n) = network {
            return Some((n.id, ceil_to_micros(n.remaining_at(self.clock_us), n.rate)));
        }
        let id = local?.id;
        let f = self.flows.get(id.0)?;
        Some((id, ceil_to_micros(f.remaining_at(self.clock_us), f.rate)))
    }

    /// The heap's earliest live prediction for a progressing local flow.
    fn next_local_completion(&mut self) -> Option<HeapEntry> {
        let mut dust = std::mem::take(&mut self.requeue_scratch);
        dust.clear();
        let result = loop {
            let Some(&top) = self.completions.peek() else {
                break None;
            };
            match self.flows.get(top.id.0) {
                Some(f) if f.epoch == top.epoch && f.rate.as_f64() > 0.0 => break Some(top),
                // A zero-rate dust entry is collected by `advance` but
                // makes no progress, so it does not drive the completion
                // schedule. Stash it aside and keep looking.
                Some(f) if f.epoch == top.epoch => dust.push(top),
                // Stale: flow gone or re-rated since the entry was
                // pushed. Drop it for good.
                _ => self.stats.stale_pops += 1,
            }
            self.completions.pop();
        };
        dust.drain(..).for_each(|e| self.completions.push(e));
        self.requeue_scratch = dust;
        result
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
    /// the ids of the flows that finished, in creation order. Callers
    /// driving the simulation loop reuse one buffer across events
    /// instead of allocating per call.
    pub fn advance_into(&mut self, dt: SimDuration, done: &mut Vec<FlowId>) {
        done.clear();
        // Whatever was mutated since the last settle takes effect now,
        // at the start of the window.
        self.settle();
        // Integrate link volumes over the window *before* moving the
        // clock: the allocation is constant across it by construction.
        self.integrate(dt);
        self.clock_us += dt.as_micros();
        self.collect_completions(done);
    }

    /// Gathers the flows whose prediction is due by now and whose
    /// extrapolated remaining volume confirms it, touching nothing else.
    /// Local flows: due heap entries are popped and verified; stale ones
    /// (epoch mismatch or flow gone) are discarded, early ones requeued.
    /// Network flows: the slab is scanned, and only when its earliest
    /// prediction (as of the settle `advance_into` began with) is due.
    fn collect_completions(&mut self, done: &mut Vec<FlowId>) {
        let due_secs = self.clock_us as f64 / 1e6 + POP_SLACK_SECS;
        let mut requeue = std::mem::take(&mut self.requeue_scratch);
        requeue.clear();
        while let Some(entry) = self.completions.pop_if(|top| top.finish_secs <= due_secs) {
            match self.flows.get(entry.id.0) {
                Some(f) if f.epoch == entry.epoch => {
                    if f.remaining_at(self.clock_us) <= COMPLETION_EPSILON_MBIT {
                        done.push(entry.id);
                    } else {
                        // Predicted a hair early (f64 rounding): keep the
                        // entry, the flow finishes on a later advance.
                        requeue.push(entry);
                    }
                }
                _ => self.stats.stale_pops += 1,
            }
        }
        requeue.drain(..).for_each(|e| self.completions.push(e));
        self.requeue_scratch = requeue;
        for id in done.iter() {
            self.flows.remove(id.0);
        }

        if self.net_due_secs <= due_secs {
            self.stats.completion_scans += 1;
            let clock = self.clock_us;
            let local_done = done.len();
            // A slot predicted a hair early stays, like a requeued entry.
            let finished = self.slab.iter().filter(|f| {
                f.finish_secs <= due_secs && f.remaining_at(clock) <= COMPLETION_EPSILON_MBIT
            });
            done.extend(finished.map(|f| f.id));
            // Only a network completion releases link bandwidth (the
            // allocation goes stale); local completions never perturb it.
            #[expect(
                clippy::indexing_slicing,
                reason = "`local_done` is `done.len()` before the network completions were appended"
            )]
            for &id in &done[local_done..] {
                self.take_net_flow(id);
            }
        }
        done.sort_unstable();
        done.dedup();
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
        // exactly when no network flow remains), so they can never drift
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

    /// Running integral of `link`'s total load (background + flows) in
    /// megabits since the network's creation — the source feeding SNMP
    /// byte counters, maintained incrementally by `advance`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panic: `link` belongs to the network's topology"
    )]
    pub fn link_cumulative_mbit(&self, link: LinkId) -> f64 {
        self.link_cumulative_mbit[link.index()]
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

    /// Accumulates `dt` of the current total load into the per-link
    /// volume integrals. Only the active links (non-zero total load) are
    /// visited; adding `0.0 × dt` to the others would not change their
    /// counters anyway, so skipping them is bit-exact.
    fn integrate(&mut self, dt: SimDuration) {
        let secs = dt.as_secs_f64();
        #[expect(
            clippy::indexing_slicing,
            reason = "`active_links` lists link indices below `link_count`"
        )]
        for k in 0..self.active_links.len() {
            let i = self.active_links[k] as usize;
            self.link_cumulative_mbit[i] += self.total_load(i).as_f64() * secs;
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

    /// Transitions local flow `id` to `rate`: materializes the remaining
    /// volume at the current clock, bumps the flow's epoch (invalidating
    /// any predicted completion in flight) and pushes a fresh
    /// prediction. A bitwise-identical rate is a no-op, keeping the
    /// existing prediction valid.
    fn apply_rate(&mut self, id: FlowId, rate: Mbps) {
        let clock = self.clock_us;
        #[expect(
            clippy::expect_used,
            reason = "flow ids are handed out by the network itself"
        )]
        let flow = self.flows.get_mut(id.0).expect("flow exists");
        if flow.rate == rate {
            return;
        }
        flow.remaining_mbit = flow.remaining_at(clock);
        flow.synced_at = clock;
        flow.rate = rate;
        flow.epoch += 1;
        self.push_entry_for(id);
    }

    /// Pushes a completion prediction for local flow `id` at its current
    /// rate, if it has one (see [`predicted_finish`]).
    fn push_entry_for(&mut self, id: FlowId) {
        let Some(flow) = self.flows.get(id.0) else {
            return;
        };
        if let Some(finish_secs) = predicted_finish(flow.remaining_mbit, flow.synced_at, flow.rate)
        {
            self.stats.heap_pushes += 1;
            self.completions.push(HeapEntry {
                finish_secs,
                id,
                epoch: flow.epoch,
            });
        }
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
    /// the fill is what the last fill saw or no network flow is live to
    /// take one, hands the rates to the network flows and rebuilds link loads,
    /// completion schedule and active-link index. A no-op on a fresh
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

    /// One pass over the slab in creation order: every network flow
    /// takes its class's rate — only a flow whose rate actually moved is
    /// re-anchored and re-predicted — the per-link allocation cache is
    /// rebuilt (creation order is the summation order the golden traces
    /// pin), and the earliest predictions are recorded for
    /// `next_completion` and `collect_completions`. Then the links
    /// carrying any traffic at all are listed, in ascending order.
    fn apply_class_rates(&mut self) {
        let clock = self.clock_us;
        // From scratch rather than incrementally: no float drift, and
        // exactly zero when no network flow remains.
        self.link_loads.iter_mut().for_each(|l| *l = 0.0);
        self.net_due_secs = f64::INFINITY;
        self.net_next = None;
        let mut next_finish = f64::INFINITY;
        #[expect(
            clippy::indexing_slicing,
            reason = "a flow's `class` names a slot of `classes`, and class links belong to the topology"
        )]
        for (slot, flow) in self.slab.iter_mut().enumerate() {
            let class = &self.classes[flow.class as usize];
            if flow.rate != class.rate {
                flow.remaining_mbit = flow.remaining_at(clock);
                flow.synced_at = clock;
                flow.rate = class.rate;
                flow.finish_secs = predicted_finish(flow.remaining_mbit, clock, flow.rate)
                    .unwrap_or(f64::INFINITY);
                self.stats.flows_rerated += 1;
            }
            let rate = flow.rate.as_f64();
            for l in &class.links {
                self.link_loads[l.index()] += rate;
            }
            self.net_due_secs = self.net_due_secs.min(flow.finish_secs);
            // Ascending ids: the first of equal predictions stays.
            let sooner = flow.finish_secs.total_cmp(&next_finish) == Ordering::Less;
            if rate > 0.0 && (sooner || self.net_next.is_none()) {
                next_finish = flow.finish_secs;
                self.net_next = Some(slot);
            }
        }
        self.active_links.clear();
        let loads = self.link_loads.iter().zip(&self.background);
        for (i, (&flows, background)) in loads.enumerate() {
            if flows > 0.0 || background.as_f64() > 0.0 {
                self.active_links.push(i as u32);
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
    /// decrements every flow, every mutation refills every rate from
    /// scratch. It shares no logic with [`FlowNetwork`] — only the model
    /// (max-min progressive filling in creation order) — so agreement
    /// is evidence, not tautology.
    mod oracle {
        use super::super::{FlowError, FlowId, COMPLETION_EPSILON_MBIT};
        use crate::time::SimDuration;
        use std::collections::BTreeMap;
        use vod_net::{LinkId, Mbps, Topology};

        struct Flow {
            links: Vec<LinkId>,
            remaining_mbit: f64,
            rate: Mbps,
            local_rate_override: Option<Mbps>,
        }

        pub struct LockstepNetwork {
            topology: Topology,
            background: Vec<Mbps>,
            flows: BTreeMap<FlowId, Flow>,
            next_id: u64,
            local_rate: Mbps,
            link_loads: Vec<f64>,
            admin_down: Vec<bool>,
            capacity_scale: Vec<f64>,
            link_cumulative_mbit: Vec<f64>,
        }

        impl LockstepNetwork {
            pub fn new(topology: Topology) -> Self {
                let links = topology.link_count();
                LockstepNetwork {
                    topology,
                    background: vec![Mbps::ZERO; links],
                    flows: BTreeMap::new(),
                    next_id: 0,
                    local_rate: Mbps::new(100.0),
                    link_loads: vec![0.0; links],
                    admin_down: vec![false; links],
                    capacity_scale: vec![1.0; links],
                    link_cumulative_mbit: vec![0.0; links],
                }
            }

            pub fn set_local_rate(&mut self, rate: Mbps) {
                self.local_rate = rate;
                self.reallocate();
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
                Ok(self.insert(route_links.as_ref().to_vec(), volume_mbit, None))
            }

            pub fn add_local_flow(
                &mut self,
                volume_mbit: f64,
                rate: Mbps,
            ) -> Result<FlowId, FlowError> {
                Ok(self.insert(Vec::new(), volume_mbit, Some(rate)))
            }

            fn insert(
                &mut self,
                links: Vec<LinkId>,
                volume_mbit: f64,
                local_rate_override: Option<Mbps>,
            ) -> FlowId {
                let id = FlowId(self.next_id);
                self.next_id += 1;
                self.flows.insert(
                    id,
                    Flow {
                        links,
                        remaining_mbit: volume_mbit,
                        rate: Mbps::ZERO,
                        local_rate_override,
                    },
                );
                self.reallocate();
                id
            }

            pub fn remove_flow(&mut self, id: FlowId) -> Result<f64, FlowError> {
                let flow = self.flows.remove(&id).ok_or(FlowError::UnknownFlow(id))?;
                self.reallocate();
                Ok(flow.remaining_mbit)
            }

            pub fn rate(&self, id: FlowId) -> Result<Mbps, FlowError> {
                self.flows
                    .get(&id)
                    .map(|f| f.rate)
                    .ok_or(FlowError::UnknownFlow(id))
            }

            pub fn remaining_mbit(&self, id: FlowId) -> Result<f64, FlowError> {
                self.flows
                    .get(&id)
                    .map(|f| f.remaining_mbit)
                    .ok_or(FlowError::UnknownFlow(id))
            }

            pub fn flow_count(&self) -> usize {
                self.flows.len()
            }

            pub fn flow_ids(&self) -> impl Iterator<Item = FlowId> + '_ {
                self.flows.keys().copied()
            }

            pub fn link_flow_load(&self, link: LinkId) -> Mbps {
                Mbps::new(self.link_loads[link.index()].max(0.0))
            }

            pub fn link_cumulative_mbit(&self, link: LinkId) -> f64 {
                self.link_cumulative_mbit[link.index()]
            }

            /// Full scan for the soonest finisher among progressing
            /// flows, rounded up to the clock's microsecond.
            pub fn next_completion(&mut self) -> Option<(FlowId, SimDuration)> {
                self.flows
                    .iter()
                    .filter(|(_, f)| f.rate.as_f64() > 0.0)
                    .map(|(&id, f)| (id, f.remaining_mbit / f.rate.as_f64()))
                    .min_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)))
                    .map(|(id, secs)| (id, SimDuration::from_micros((secs * 1e6).ceil() as u64)))
            }

            /// Lockstep advance: integrate every link, decrement every
            /// flow, collect the finished in creation order.
            pub fn advance(&mut self, dt: SimDuration) -> Vec<FlowId> {
                let secs = dt.as_secs_f64();
                for i in 0..self.link_loads.len() {
                    let total = self.background[i] + self.link_flow_load(LinkId::new(i as u32));
                    self.link_cumulative_mbit[i] += total.as_f64() * secs;
                }
                let mut done = Vec::new();
                for (&id, flow) in self.flows.iter_mut() {
                    flow.remaining_mbit -= flow.rate.as_f64() * secs;
                    if flow.remaining_mbit <= COMPLETION_EPSILON_MBIT {
                        done.push(id);
                    }
                }
                for id in &done {
                    self.flows.remove(id);
                }
                if !done.is_empty() {
                    self.reallocate();
                }
                done
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

                // Dense view of network flows: (id, frozen?); local flows
                // get their fixed rate immediately.
                let local_rate = self.local_rate;
                let mut network: Vec<(FlowId, bool)> = Vec::with_capacity(self.flows.len());
                for (&id, f) in self.flows.iter_mut() {
                    if f.links.is_empty() {
                        f.rate = f.local_rate_override.unwrap_or(local_rate);
                    } else {
                        f.rate = Mbps::ZERO;
                        network.push((id, false));
                    }
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

    #[test]
    fn local_flows_use_local_rate() {
        let (t, ..) = two_hop();
        let mut net = FlowNetwork::new(t);
        net.set_local_rate(Mbps::new(50.0));
        let f = net.add_flow(vec![], 100.0).unwrap();
        assert_eq!(net.rate(f).unwrap(), Mbps::new(50.0));
        let (id, dt) = net.next_completion().unwrap();
        assert_eq!(id, f);
        assert_eq!(dt, SimDuration::from_secs(2));
    }

    #[test]
    fn local_flow_rate_override() {
        let (t, ..) = two_hop();
        let mut net = FlowNetwork::new(t);
        net.set_local_rate(Mbps::new(50.0));
        let slow_disk = net.add_local_flow(100.0, Mbps::new(10.0)).unwrap();
        let default = net.add_flow(vec![], 100.0).unwrap();
        assert_eq!(net.rate(slow_disk).unwrap(), Mbps::new(10.0));
        assert_eq!(net.rate(default).unwrap(), Mbps::new(50.0));
        assert!(net.add_local_flow(-1.0, Mbps::new(1.0)).is_err());
    }

    #[test]
    fn set_local_rate_rerates_live_default_flows() {
        on_both_kernels!(new, kernel => {
            let (t, ..) = two_hop();
            let mut net = new(t);
            net.set_local_rate(Mbps::new(50.0));
            let pinned = net.add_local_flow(100.0, Mbps::new(10.0)).unwrap();
            let floating = net.add_flow(vec![], 100.0).unwrap();
            net.set_local_rate(Mbps::new(25.0));
            assert_eq!(net.rate(pinned).unwrap(), Mbps::new(10.0));
            assert_eq!(net.rate(floating).unwrap(), Mbps::new(25.0));
            let (_, dt) = net.next_completion().unwrap();
            assert_eq!(dt, SimDuration::from_secs(4), "{kernel}");
        });
    }

    /// Local flows sit in an id window that network flows punch holes
    /// in. Ids still merge ascending, and a new default rate re-rates
    /// exactly the local flows without an override, walking them by id.
    #[test]
    fn interleaved_local_and_network_flows_keep_id_order() {
        let (t, l0, _) = two_hop();
        let mut net = FlowNetwork::new(t);
        net.set_local_rate(Mbps::new(50.0));
        let pinned_rate = Mbps::new(10.0);
        let (mut floating, mut pinned, mut network) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..12 {
            match i % 3 {
                0 => floating.push(net.add_flow(vec![], 100.0).unwrap()),
                1 => network.push(net.add_flow(vec![l0], 100.0).unwrap()),
                _ => pinned.push(net.add_local_flow(100.0, pinned_rate).unwrap()),
            }
        }
        // Holes of every kind, and a front that has moved on.
        for gone in [floating.remove(0), network.remove(1), pinned.remove(2)] {
            net.remove_flow(gone).unwrap();
        }
        let mut expected: Vec<FlowId> = [&floating[..], &network[..], &pinned[..]].concat();
        expected.sort_unstable();
        assert_eq!(net.flow_ids().collect::<Vec<_>>(), expected);
        assert_eq!(net.flow_count(), 9);
        let walked: Vec<u64> = net.flows.iter().map(|(id, _)| id).collect();
        assert!(walked.windows(2).all(|w| w[0] < w[1]), "{walked:?}");

        let network_rate = net.rate(network[0]).unwrap();
        let pushes = net.stats().heap_pushes;
        net.set_local_rate(Mbps::new(25.0));
        assert_eq!(net.stats().heap_pushes - pushes, floating.len() as u64);
        for &f in &floating {
            assert_eq!(net.rate(f).unwrap(), Mbps::new(25.0));
        }
        for &f in &pinned {
            assert_eq!(net.rate(f).unwrap(), pinned_rate);
        }
        for &f in &network {
            assert_eq!(net.rate(f).unwrap(), network_rate);
        }
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
            assert_eq!(net.next_completion(), None, "{kernel}");
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

    /// The satellite regression for the rounding contract: across extreme
    /// rates and volumes, the `ceil`-to-µs prediction plus
    /// [`COMPLETION_CHECK_SLACK`] fires at-or-after the true finish
    /// instant — advancing by the prediction completes the flow exactly
    /// once (no miss), and stopping 2 µs short never completes it early
    /// (no double-fire window).
    #[test]
    fn completion_rounding_contract() {
        let rates = [1e-3, 0.9, 2.0, 1234.5678, 1e9];
        let volumes = [1e-6, 0.7, 42.0, 9876.5];
        on_both_kernels!(new, kernel => {
            for &rate in &rates {
                for &volume in &volumes {
                    let (t, ..) = two_hop();
                    let mut net = new(t);
                    let f = net.add_local_flow(volume, Mbps::new(rate)).unwrap();
                    let (id, dt) = net.next_completion().unwrap();
                    assert_eq!(id, f);
                    let true_secs = volume / rate;
                    let ctx = format!("{kernel} rate={rate} vol={volume}");
                    // At-or-after the true finish, by less than 1 µs + fp.
                    assert!(
                        dt.as_secs_f64() >= true_secs * (1.0 - 1e-12),
                        "prediction fires early: {ctx}"
                    );
                    assert!(
                        dt.as_secs_f64() - true_secs <= 2e-6 + true_secs * 1e-12,
                        "prediction overshoots: {ctx}"
                    );
                    // No early fire: 2 µs before the prediction the flow
                    // is still live (when 2 µs of progress is resolvable
                    // above the completion epsilon).
                    if dt > SimDuration::from_micros(2)
                        && rate * 2e-6 > 10.0 * COMPLETION_EPSILON_MBIT
                    {
                        let early = dt - SimDuration::from_micros(2);
                        assert!(net.advance(early).is_empty(), "fired early: {ctx}");
                        let done = net.advance(dt - early + COMPLETION_CHECK_SLACK);
                        assert_eq!(done, vec![f], "missed completion: {ctx}");
                    } else {
                        let done = net.advance(dt + COMPLETION_CHECK_SLACK);
                        assert_eq!(done, vec![f], "missed completion: {ctx}");
                    }
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
    /// production network nothing per advance: it is never due, so the
    /// slab is not scanned, and no prediction exists anywhere to verify
    /// or requeue. Lifting the saturation thaws the flow identically in
    /// both.
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
        // The frozen flow was never re-rated and predicts nothing, so the
        // hour-long advance had nothing to scan, verify or requeue.
        let frozen = lazy.stats();
        assert_eq!(frozen.flows_rerated, 0);
        assert_eq!(frozen.completion_scans, 0);
        assert_eq!(frozen.heap_pushes, 0);
        assert_eq!(frozen.stale_pops, 0);

        // Lifting the saturation thaws the flow identically: both
        // settle on the 2 Mbps bottleneck and predict the same
        // completion.
        lazy.set_link_capacity_scale(l0, 1.0);
        lazy.set_background(l1, Mbps::ZERO);
        reference.set_link_capacity_scale(l0, 1.0);
        reference.set_background(l1, Mbps::ZERO);
        assert_eq!(lazy.rate(a).unwrap(), reference.rate(a).unwrap());
        assert_eq!(lazy.rate(a).unwrap(), Mbps::new(2.0));
        // One re-anchor for the thaw; still nothing on the heap.
        assert_eq!(lazy.stats().flows_rerated, 1);
        assert_eq!(lazy.stats().heap_pushes, 0);
        let (fa, dta) = lazy.next_completion().unwrap();
        let (fb, dtb) = reference.next_completion().unwrap();
        assert_eq!((fa, dta), (fb, dtb));
        assert_eq!(lazy.advance(dta), vec![a]);
        assert_eq!(reference.advance(dtb), vec![a]);
        assert_eq!(lazy.stats().completion_scans, 1);
    }

    /// A network flow and a local flow predicted to finish at the same
    /// instant, bit for bit: whichever was created first is the next
    /// completion — the heap's `(finish_secs, id)` order, kept across
    /// the heap (local flows) and the slab (network flows).
    #[test]
    fn completion_ties_break_by_flow_id_across_heap_and_slab() {
        on_both_kernels!(new, kernel => {
            for network_first in [true, false] {
                let (t, l0, _) = two_hop();
                let mut net = new(t);
                // 4 Mbit at 2 Mbps either way.
                let ids = if network_first {
                    let n = net.add_flow(vec![l0], 4.0).unwrap();
                    [n, net.add_local_flow(4.0, Mbps::new(2.0)).unwrap()]
                } else {
                    let l = net.add_local_flow(4.0, Mbps::new(2.0)).unwrap();
                    [l, net.add_flow(vec![l0], 4.0).unwrap()]
                };
                let (first, dt) = net.next_completion().unwrap();
                assert_eq!(first, ids[0], "{kernel} network_first={network_first}");
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
        net.add_flow(vec![], 10.0).unwrap();
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
    /// most one class per distinct route, and no heap traffic at all.
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
        assert_eq!(after.heap_pushes, 0);
        assert_eq!(after.stale_pops, 0);
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
        let mut ids: Vec<FlowId> = (0..60)
            .map(|i| {
                net.add_flow(&routes[i % routes.len()], 50.0 + i as f64)
                    .unwrap()
            })
            .collect();
        ids.push(net.add_local_flow(500.0, Mbps::new(2.0)).unwrap());
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

    /// A background refresh over an idle backbone — no network flow
    /// live, local serves or nothing — enters no fill and re-rates
    /// nothing, yet every reader sees the new loads: the total load, the
    /// snapshot and the volume the next advance integrates. The first
    /// network flow to join is then filled against the capacities as
    /// they stand.
    #[test]
    fn refresh_over_an_idle_backbone_runs_no_fill() {
        let (topo, routes) = grnet_with_routes();
        let links: Vec<LinkId> = topo.link_ids().collect();
        let mut net = FlowNetwork::new(topo);
        net.add_local_flow(1e6, Mbps::new(2.0)).unwrap();
        let mut snap = net.snapshot();
        let mut volumes = vec![0.0f64; links.len()];
        for minute in 1..=5u32 {
            let before = net.stats();
            let load = |l: LinkId| Mbps::new(0.01 * f64::from(minute) * (1 + l.index()) as f64);
            net.set_background_many(links.iter().map(|&l| (l, load(l))));
            assert_eq!(net.network_flow_count(), 0);
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
        let (t, l0, _) = two_hop();
        let mut net = FlowNetwork::new(t);
        net.set_background(l0, Mbps::ZERO); // skipped: already idle
        net.add_flow(vec![l0], 4.0).unwrap();
        net.add_local_flow(4.0, Mbps::new(1.0)).unwrap();
        net.advance(SimDuration::from_secs(2)); // settles, completes the flow
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
            fill_rounds: 1,
            classes_filled: 1,
            links_scanned: 1,
            flows_rerated: 1,
            completion_scans: 1,
            heap_pushes: 1,
            stale_pops: 0,
            queue: QueueStats::default(),
        };
        assert_eq!(run, expected);
        let mut total = run;
        total += run;
        total += KernelStats {
            stale_pops: 3,
            fills_unchanged: 5,
            queue: QueueStats {
                splits: 2,
                moved: 14,
            },
            ..KernelStats::default()
        };
        let doubled = KernelStats {
            settles: 4,
            reallocations: 4,
            fills_unchanged: 5,
            reallocations_skipped: 2,
            fill_rounds: 2,
            classes_filled: 2,
            links_scanned: 2,
            flows_rerated: 2,
            completion_scans: 2,
            heap_pushes: 2,
            stale_pops: 3,
            queue: QueueStats {
                splits: 2,
                moved: 14,
            },
        };
        assert_eq!(total, doubled);
    }

    /// The completion queue buckets by `HeapEntry::radix`, which must
    /// never decrease along the entry order — over every finite float,
    /// and over whatever `predicted_finish` can return: it divides only
    /// by a rate it has checked `> 0.0`, so the extremes overflow to an
    /// infinity at worst, never to a NaN.
    #[test]
    fn completion_radix_is_monotone_and_predictions_are_never_nan() {
        let volumes = [
            0.0,
            1e-12,
            COMPLETION_EPSILON_MBIT,
            1.0,
            6e4,
            1e300,
            f64::MAX,
        ];
        let rates = [
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            1e-9,
            1.5,
            100.0,
            1e300,
            f64::MAX,
        ];
        let clocks = [0, 1, 86_400_000_000, u64::MAX];
        let mut entries = Vec::new();
        for (id, &volume) in (0u64..).zip(&volumes) {
            for &rate in &rates {
                for &clock in &clocks {
                    let Some(finish_secs) = predicted_finish(volume, clock, Mbps::new(rate)) else {
                        assert!(rate == 0.0 && volume > COMPLETION_EPSILON_MBIT);
                        continue;
                    };
                    assert!(
                        !finish_secs.is_nan(),
                        "{volume} Mbit at {rate} Mbps from {clock}"
                    );
                    entries.extend([0, 1].map(|epoch| HeapEntry {
                        finish_secs,
                        id: FlowId(id),
                        epoch,
                    }));
                }
            }
        }
        let dust = [
            -0.0,
            0.0,
            -1e-9,
            1e-9,
            -5e-324,
            5e-324,
            f64::MIN,
            f64::NEG_INFINITY,
        ];
        entries.extend(dust.map(|finish_secs| HeapEntry {
            finish_secs,
            id: FlowId(9),
            epoch: 0,
        }));
        assert!(entries.iter().any(|e| e.finish_secs == f64::INFINITY));
        assert!(entries.iter().any(|e| e.finish_secs < 0.0));
        entries.sort();
        for pair in entries.windows(2) {
            assert!(
                pair[0].radix() <= pair[1].radix(),
                "{:?} then {:?}",
                pair[0],
                pair[1]
            );
        }
        assert_eq!(entries.first().map(RadixKey::radix), Some(0));
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
        /// through the same random schedule of adds (single and in
        /// bursts onto one route), removes (single and of a whole
        /// class, whose slot the next new route reuses), local flows
        /// (including ones that finish in the same microsecond as a
        /// network flow), local-rate and background changes
        /// (single-link and bulk), capacity degradations,
        /// administrative outages and advances, asserting after every
        /// operation that rates, link loads and SNMP volume integrals
        /// are *bitwise* equal, and that completions happen in the same
        /// order at the same events. An operation is one batch: the
        /// production network is not read inside it, so it settles once
        /// per operation, while the oracle refills after every single
        /// mutation.
        fn drive(ops: &[(u8, usize, f64)]) -> Result<(), TestCaseError> {
            let topo = line(4, Mbps::new(4.0));
            let links: Vec<LinkId> = topo.link_ids().collect();
            let pool = route_pool(&links);
            let mut lazy = FlowNetwork::new(topo.clone());
            let mut reference = LockstepNetwork::new(topo);
            // Live flows with the pool route they follow (`None`: local).
            let mut live: Vec<(FlowId, Option<usize>)> = Vec::new();
            for &(op, sel, val) in ops {
                match op {
                    0 => {
                        let route = sel % pool.len();
                        let a = lazy.add_flow(&pool[route], val).unwrap();
                        let b = reference.add_flow(&pool[route], val).unwrap();
                        prop_assert_eq!(a, b);
                        live.push((a, Some(route)));
                    }
                    1 => {
                        let a = lazy.add_local_flow(val, Mbps::new(val)).unwrap();
                        let b = reference.add_local_flow(val, Mbps::new(val)).unwrap();
                        prop_assert_eq!(a, b);
                        live.push((a, None));
                    }
                    2 if !live.is_empty() => {
                        let (id, _) = live.remove(sel % live.len());
                        let ra = lazy.remove_flow(id).unwrap();
                        let rb = reference.remove_flow(id).unwrap();
                        // Anchored vs stepwise remaining may differ at ulp.
                        prop_assert!((ra - rb).abs() <= 1e-6, "remove {}: {} vs {}", id, ra, rb);
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
                        lazy.set_local_rate(Mbps::new(val));
                        reference.set_local_rate(Mbps::new(val));
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
                        // A local flow at the network-wide default rate
                        // (the one `set_local_rate` re-rates).
                        let a = lazy.add_flow(vec![], val).unwrap();
                        let b = reference.add_flow(vec![], val).unwrap();
                        prop_assert_eq!(a, b);
                        live.push((a, None));
                    }
                    11 => {
                        // A burst onto one route: the class grows by
                        // dozens of members between two other events.
                        let route = sel % pool.len();
                        for k in 0..10 + sel % 40 {
                            let volume = val + k as f64 * 0.25;
                            let a = lazy.add_flow(&pool[route], volume).unwrap();
                            let b = reference.add_flow(&pool[route], volume).unwrap();
                            prop_assert_eq!(a, b);
                            live.push((a, Some(route)));
                        }
                    }
                    12 => {
                        // Empty a class, then open another route (it
                        // takes the retired slot) and the emptied one
                        // again.
                        let route = sel % pool.len();
                        for &(id, _) in live.iter().filter(|(_, r)| *r == Some(route)) {
                            lazy.remove_flow(id).unwrap();
                            reference.remove_flow(id).unwrap();
                        }
                        live.retain(|(_, r)| *r != Some(route));
                        for route in [(route + 1) % pool.len(), route] {
                            let a = lazy.add_flow(&pool[route], val).unwrap();
                            let b = reference.add_flow(&pool[route], val).unwrap();
                            prop_assert_eq!(a, b);
                            live.push((a, Some(route)));
                        }
                    }
                    13 => {
                        // A local flow with a progressing network flow's
                        // remaining volume and rate: both are predicted
                        // to finish in the same microsecond, so the heap
                        // top and the slab minimum tie (or nearly).
                        let twin = live
                            .iter()
                            .filter(|(_, r)| r.is_some())
                            .find_map(|&(id, _)| {
                                let rate = lazy.rate(id).unwrap();
                                let left = lazy.remaining_mbit(id).unwrap();
                                (rate.as_f64() > 0.0 && left > 0.0).then_some((left, rate))
                            });
                        if let Some((left, rate)) = twin {
                            let a = lazy.add_local_flow(left, rate).unwrap();
                            let b = reference.add_local_flow(left, rate).unwrap();
                            prop_assert_eq!(a, b);
                            live.push((a, None));
                        }
                    }
                    14 => {
                        // A cluster boundary: every network flow the
                        // advance completes is followed, at the same
                        // instant, by a new one along the same route.
                        if let Some((_, dt)) = lazy.next_completion() {
                            let da = lazy.advance(dt);
                            let db = reference.advance(dt);
                            prop_assert_eq!(&da, &db, "advance-to-completion disagrees");
                            let (done, rest): (Vec<_>, Vec<_>) =
                                live.drain(..).partition(|(id, _)| da.contains(id));
                            live = rest;
                            for (_, route) in done {
                                let Some(route) = route else { continue };
                                let a = lazy.add_flow(&pool[route], val).unwrap();
                                let b = reference.add_flow(&pool[route], val).unwrap();
                                prop_assert_eq!(a, b);
                                live.push((a, Some(route)));
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
                            let route = (sel + j) % pool.len();
                            let a = lazy.add_flow(&pool[route], val).unwrap();
                            let b = reference.add_flow(&pool[route], val).unwrap();
                            prop_assert_eq!(a, b);
                            live.push((a, Some(route)));
                        }
                    }
                    16 => {
                        // Setters interleaved with adds.
                        let l = links[sel % links.len()];
                        let bg = Mbps::new(val * 0.05);
                        let scale = (val / 40.0).min(1.0);
                        for step in 0..3 {
                            let route = (sel + step) % pool.len();
                            let a = lazy.add_flow(&pool[route], val).unwrap();
                            let b = reference.add_flow(&pool[route], val).unwrap();
                            prop_assert_eq!(a, b);
                            live.push((a, Some(route)));
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
                // Predictions agree to the µs-rounding of the contract.
                match (lazy.next_completion(), reference.next_completion()) {
                    (None, None) => {}
                    (Some((_, da)), Some((_, db))) => {
                        let diff = da.as_micros() as i128 - db.as_micros() as i128;
                        prop_assert!(
                            diff.abs() <= 1,
                            "predictions {} vs {} µs",
                            da.as_micros(),
                            db.as_micros()
                        );
                    }
                    other => prop_assert!(false, "prediction disagreement: {:?}", other),
                }
            }
            Ok(())
        }

        /// The idle-backbone path, deterministically: background
        /// (bulk and single-link), outages and degradations change over
        /// and over while nothing, then only local flows, are live —
        /// each followed by a timed advance that integrates the new
        /// loads — and network flows then join, complete and leave the
        /// backbone idle again, twice. The random schedules below reach
        /// such stretches only by chance, at their start.
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
            let mut ops = idle_churn(1); // nothing live at all
            ops.extend([(1, 0, 30.0), (10, 0, 25.0)]); // local serves only
            ops.extend(idle_churn(2));
            for round in 0..2 {
                // Network flows join the churned capacities, run dry …
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
