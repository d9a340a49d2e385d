//! The five benchmark workloads: a scenario (topology, library, trace,
//! background), the service configuration it runs under, and whether
//! the full obs stack is attached. The same seed gives the same inputs.

use std::time::Instant;

use vod_core::service::{PrefixTierConfig, ServiceConfig};
use vod_net::topologies::grnet::Grnet;
use vod_net::topologies::random::connected_gnp;
use vod_net::{Mbps, Topology};
use vod_sim::traffic::BackgroundModel;
use vod_sim::{SimDuration, SimTime};
use vod_storage::Megabytes;
use vod_workload::arrivals::HourlyShape;
use vod_workload::scenario::Scenario;
use vod_workload::{LibraryConfig, LibraryGenerator, Request, RequestTrace, TraceConfig};

/// One named workload. `why` is the one-line reason it exists (the
/// same sentence `BENCHMARK.json` carries).
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Run with `TeeSink(JsonlWriter, TimeSeriesSink)` instead of
    /// `NullSink` for the end-to-end metrics.
    pub sinks: bool,
    /// Builds the inputs from the seed.
    pub inputs: fn(u64) -> Inputs,
}

/// Everything a run needs, with the time trace generation took.
pub struct Inputs {
    pub scenario: Scenario,
    pub config: ServiceConfig,
    pub trace_gen_s: f64,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "local_scale",
        why: "400k sessions, every serve local: scheduler, session bookkeeping and trace storage do all the work; backbone kernel, routing and storage are bypassed",
        sinks: false,
        inputs: local_scale,
    },
    Workload {
        name: "backbone_contended",
        why: "2k sessions with one replica per title: over a thousand flows pile onto GRNET's 7 links far past saturation, so max-min reallocation on every flow add/remove is nearly all of the run",
        sinks: false,
        inputs: backbone_contended,
    },
    Workload {
        name: "gnp200_remote",
        why: "1.5k sessions on a 200-node random graph: hundreds of distinct multi-hop routes near saturation, the only workload where Dijkstra and route diversity are measurable",
        sinks: false,
        inputs: gnp200_remote,
    },
    Workload {
        name: "grnet_diurnal",
        why: "900 days of the paper's operating mode: SNMP polls and diurnal background refreshes re-run the allocation over live flows, DMA admits and evicts, sessions switch mid-stream",
        sinks: false,
        inputs: grnet_diurnal,
    },
    Workload {
        name: "steady_traced",
        why: "365 warm days with the prefix tier and the full obs stack on: nearly every fetch is a DMA/prefix hit, so cost is periodic machinery, storage decisions and event serialisation",
        sinks: true,
        inputs: steady_traced,
    },
];

/// The modelled deployment — topology, catalogue and with it the
/// seeded placement — is fixed; `--seed` draws the arrivals (on the two
/// small contended workloads only their instants, see
/// [`timed_demand`]). Catalogue sizes and the random graph move host
/// time by 2-6x between seeds, which no regression bound survives;
/// arrivals alone leave the operating point in place.
const DEPLOYMENT_SEED: u64 = 42;

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `Scenario::scale_stress` bundles trace generation with a 20-title
/// library and the GRNET constructor (both microseconds), so the whole
/// call is timed as trace generation.
fn scale_stress(seed: u64, sessions: usize) -> (Scenario, f64) {
    let t = Instant::now();
    let scenario = Scenario::scale_stress(seed, sessions);
    (scenario, t.elapsed().as_secs_f64())
}

fn local_scale(seed: u64) -> Inputs {
    let (scenario, trace_gen_s) = scale_stress(seed, 400_000);
    let config = ServiceConfig {
        initial_replicas: 6,
        local_rate: Mbps::new(2.0),
        ..ServiceConfig::default()
    };
    Inputs {
        scenario,
        config,
        trace_gen_s,
    }
}

/// The first `n` arrival instants of `arrivals`, asking for what the
/// first `n` requests of `demand` ask for, from where they ask it.
///
/// The two contended workloads are too small to average their demand
/// out, and too dear (reallocation is O(flows) per flow event) to be
/// larger. Which homes ask for which titles decides which links
/// saturate: with all of a request drawn per seed, `gnp200_remote`'s
/// `run_s` had an interquartile range of 21 % over eight seeds, against
/// 1.2 % for one seed eight times. So for them the demand belongs to
/// the deployment and `--seed` draws only *when* each request arrives
/// (4 %). The count is exact for the same reason: a Poisson count of
/// 1 906-2 144 moved the work by 8 %.
fn timed_demand(arrivals: &RequestTrace, demand: &RequestTrace, n: usize) -> RequestTrace {
    assert!(
        arrivals.len() >= n && demand.len() >= n,
        "over-drawn traces still short of {n}"
    );
    let requests = arrivals.iter().zip(demand.iter()).take(n);
    RequestTrace::new(
        requests
            .map(|(when, what)| Request {
                at: when.at,
                ..*what
            })
            .collect(),
    )
}

fn backbone_contended(seed: u64) -> Inputs {
    let (scenario, trace_gen_s) = scale_stress(seed, 2_200);
    let demand = Scenario::scale_stress(DEPLOYMENT_SEED, 2_200);
    let scenario = Scenario::new(
        scenario.name(),
        scenario.topology().clone(),
        scenario.library().clone(),
        timed_demand(scenario.trace(), demand.trace(), 2_000),
        scenario.background().clone(),
        seed,
    );
    let config = ServiceConfig {
        initial_replicas: 1,
        local_rate: Mbps::new(2.0),
        ..ServiceConfig::default()
    };
    Inputs {
        scenario,
        config,
        trace_gen_s,
    }
}

fn timed_trace(
    cfg: &TraceConfig,
    topology: &Topology,
    library: &vod_storage::video::VideoLibrary,
    seed: u64,
) -> (RequestTrace, f64) {
    let t = Instant::now();
    let trace = cfg.generate(topology, library, seed);
    (trace, t.elapsed().as_secs_f64())
}

fn gnp200_remote(seed: u64) -> Inputs {
    let topology = connected_gnp(200, 0.05, DEPLOYMENT_SEED);
    let library = LibraryGenerator::new(LibraryConfig {
        titles: 200,
        min_size_mb: 150.0,
        max_size_mb: 400.0,
        ..LibraryConfig::default()
    })
    .generate(DEPLOYMENT_SEED);
    let cfg = TraceConfig {
        start: SimTime::ZERO,
        duration: SimDuration::from_secs(3600),
        rate_per_sec: 1_650.0 / 3_600.0,
        shape: HourlyShape::flat(),
        zipf_skew: 0.8,
        client_weights: None,
    };
    let (arrivals, trace_gen_s) = timed_trace(&cfg, &topology, &library, seed);
    let demand = cfg.generate(&topology, &library, DEPLOYMENT_SEED);
    let trace = timed_demand(&arrivals, &demand, 1_500);
    let background = BackgroundModel::uniform(topology.link_count(), Mbps::ZERO);
    let scenario = Scenario::new("gnp200-remote", topology, library, trace, background, seed);
    let config = ServiceConfig {
        initial_replicas: 4,
        ..ServiceConfig::default()
    };
    Inputs {
        scenario,
        config,
        trace_gen_s,
    }
}

/// GRNET with the paper's Table 2 background and an evening-peak
/// Poisson trace starting at t = 0.
struct GrnetDays {
    name: &'static str,
    library: LibraryConfig,
    rate_per_sec: f64,
    zipf_skew: f64,
    days: u64,
    /// Weight of Patra (`U2`) as a client origin; every other city is 1.
    patra_weight: f64,
}

impl GrnetDays {
    fn scenario(self, seed: u64) -> (Scenario, f64) {
        let grnet = Grnet::new();
        let library = LibraryGenerator::new(self.library).generate(DEPLOYMENT_SEED);
        let patra = grnet.topology().find_node("U2");
        let weights = grnet
            .topology()
            .video_server_nodes()
            .into_iter()
            .map(|n| {
                (
                    n,
                    if Some(n) == patra {
                        self.patra_weight
                    } else {
                        1.0
                    },
                )
            })
            .collect();
        let cfg = TraceConfig {
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(self.days * 86_400),
            rate_per_sec: self.rate_per_sec,
            shape: HourlyShape::evening_peak(),
            zipf_skew: self.zipf_skew,
            client_weights: Some(weights),
        };
        let (trace, gen_s) = timed_trace(&cfg, grnet.topology(), &library, seed);
        let scenario = Scenario::new(
            self.name,
            grnet.topology().clone(),
            library,
            trace,
            BackgroundModel::grnet_table2(&grnet),
            seed,
        );
        (scenario, gen_s)
    }
}

fn grnet_diurnal(seed: u64) -> Inputs {
    // 0.0008 /s is the highest rate at which the 2 Mbps links drain
    // every night. From 0.001 /s up, evening pile-ups carry over and
    // grow to 100-330 sessions on some arrival seeds and 40 on others,
    // and host time follows (1.5-8.3 s at 0.0015 /s over 120 days).
    let (scenario, trace_gen_s) = GrnetDays {
        name: "grnet-diurnal",
        library: LibraryConfig {
            titles: 300,
            ..LibraryConfig::default()
        },
        rate_per_sec: 0.0008,
        zipf_skew: 0.8,
        days: 900,
        patra_weight: 1.0,
    }
    .scenario(seed);
    let config = ServiceConfig {
        initial_replicas: 1,
        disk_capacity: Megabytes::new(25_000.0),
        dma_admit_threshold: 1,
        ..ServiceConfig::default()
    };
    Inputs {
        scenario,
        config,
        trace_gen_s,
    }
}

fn steady_traced(seed: u64) -> Inputs {
    let (scenario, trace_gen_s) = GrnetDays {
        name: "steady-traced",
        library: LibraryConfig {
            titles: 200,
            min_size_mb: 150.0,
            max_size_mb: 350.0,
            ..LibraryConfig::default()
        },
        rate_per_sec: 0.006,
        zipf_skew: 1.2,
        days: 365,
        patra_weight: 5.0,
    }
    .scenario(seed);
    let config = ServiceConfig {
        initial_replicas: 1,
        prefix_tier: Some(PrefixTierConfig::default()),
        ..ServiceConfig::default()
    };
    Inputs {
        scenario,
        config,
        trace_gen_s,
    }
}
