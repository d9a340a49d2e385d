//! Ready-made experiment scenarios: topology + library + background
//! traffic + request trace, all derived from one seed.

use serde::{Deserialize, Serialize};

use vod_net::topologies::grnet::Grnet;
use vod_net::topologies::random::connected_gnp;
use vod_net::Topology;
use vod_sim::traffic::BackgroundModel;
use vod_sim::{SimDuration, SimTime};
use vod_storage::video::VideoLibrary;

use crate::arrivals::HourlyShape;
use crate::library::{LibraryConfig, LibraryGenerator};
use crate::trace::{RequestTrace, TraceConfig};

/// A complete experiment input: where requests happen (topology +
/// background traffic), what can be requested (library) and the requests
/// themselves (trace).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    name: String,
    topology: Topology,
    library: VideoLibrary,
    trace: RequestTrace,
    background: BackgroundModel,
    seed: u64,
}

impl Scenario {
    /// Builds a scenario from parts (for custom experiments).
    pub fn new(
        name: impl Into<String>,
        topology: Topology,
        library: VideoLibrary,
        trace: RequestTrace,
        background: BackgroundModel,
        seed: u64,
    ) -> Self {
        Scenario {
            name: name.into(),
            topology,
            library,
            trace,
            background,
            seed,
        }
    }

    /// The paper's case study brought to life: the GRNET backbone with
    /// its recorded Table 2 diurnal background traffic, a 100-title
    /// library, and Zipf(0.8) requests arriving across all six cities
    /// from 8:00 to 18:00 (the window the paper sampled).
    pub fn grnet_case_study(seed: u64) -> Self {
        let grnet = Grnet::new();
        let library = LibraryGenerator::new(LibraryConfig {
            titles: 100,
            ..LibraryConfig::default()
        })
        .generate(seed);
        let cfg = TraceConfig {
            start: SimTime::from_secs(8 * 3600),
            duration: SimDuration::from_secs(10 * 3600),
            rate_per_sec: 0.0015,
            shape: HourlyShape::evening_peak(),
            zipf_skew: 0.8,
            client_weights: None,
        };
        let trace = cfg.generate(grnet.topology(), &library, seed);
        Scenario {
            name: "grnet-case-study".into(),
            background: BackgroundModel::grnet_table2(&grnet),
            topology: grnet.topology().clone(),
            library,
            trace,
            seed,
        }
    }

    /// A flash crowd: nearly every request comes from one city (Patra)
    /// for a tiny, extremely skewed set of titles, during the evening
    /// peak — the stress case for the DMA's popularity cache and the
    /// VRA's congestion avoidance.
    pub fn flash_crowd(seed: u64) -> Self {
        let grnet = Grnet::new();
        let library = LibraryGenerator::new(LibraryConfig {
            titles: 20,
            // Short features: the crowd's pressure should come from its
            // volume, not from individual titles being undeliverable
            // over a 2 Mbit regional link.
            min_size_mb: 150.0,
            max_size_mb: 350.0,
            ..LibraryConfig::default()
        })
        .generate(seed);
        #[expect(clippy::expect_used, reason = "GRNET has Patra as U2")]
        let patra = grnet
            .topology()
            .find_node("U2")
            .expect("GRNET has Patra as U2");
        let weights = grnet
            .topology()
            .video_server_nodes()
            .into_iter()
            .map(|n| (n, if n == patra { 20.0 } else { 1.0 }))
            .collect();
        let cfg = TraceConfig {
            start: SimTime::from_secs(20 * 3600),
            duration: SimDuration::from_secs(2 * 3600),
            rate_per_sec: 0.015,
            shape: HourlyShape::flat(),
            zipf_skew: 2.0,
            client_weights: Some(weights),
        };
        let trace = cfg.generate(grnet.topology(), &library, seed);
        Scenario {
            name: "flash-crowd".into(),
            background: BackgroundModel::grnet_table2(&grnet),
            topology: grnet.topology().clone(),
            library,
            trace,
            seed,
        }
    }

    /// A kernel-scale stress: roughly `target_sessions` arrivals squeezed
    /// into a ten-minute window on GRNET, against a small library of
    /// identical 150 MB features (800 s of playout at 1.5 Mbps), so that
    /// essentially every session is still live when the last one arrives.
    /// Run it with every title replicated on all six cities (all serves
    /// local) and the event-driven flow kernel to hold 10⁵+ concurrent
    /// sessions; the arrival count is Poisson around the target
    /// (deterministic per seed).
    #[expect(
        clippy::disallowed_macros,
        reason = "config validation: at least one session; a typed error is ROADMAP 4(a)"
    )]
    pub fn scale_stress(seed: u64, target_sessions: usize) -> Self {
        assert!(target_sessions > 0, "need at least one session");
        let grnet = Grnet::new();
        let library = LibraryGenerator::new(LibraryConfig {
            titles: 20,
            min_size_mb: 150.0,
            max_size_mb: 150.0,
            ..LibraryConfig::default()
        })
        .generate(seed);
        let window = SimDuration::from_secs(600);
        let cfg = TraceConfig {
            start: SimTime::ZERO,
            duration: window,
            rate_per_sec: target_sessions as f64 / window.as_secs_f64(),
            shape: HourlyShape::flat(),
            zipf_skew: 0.8,
            client_weights: None,
        };
        let trace = cfg.generate(grnet.topology(), &library, seed);
        let background =
            BackgroundModel::uniform(grnet.topology().link_count(), vod_net::Mbps::ZERO);
        Scenario {
            name: "scale-stress".into(),
            topology: grnet.topology().clone(),
            library,
            trace,
            background,
            seed,
        }
    }

    /// A randomized 12-node network with idle background traffic and a
    /// flat request rate — for experiments that should not inherit
    /// GRNET's structure.
    pub fn random_network(seed: u64) -> Self {
        let topology = connected_gnp(12, 0.25, seed);
        let library = LibraryGenerator::new(LibraryConfig {
            titles: 60,
            min_size_mb: 150.0,
            max_size_mb: 400.0,
            ..LibraryConfig::default()
        })
        .generate(seed);
        let cfg = TraceConfig {
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(4 * 3600),
            rate_per_sec: 0.01,
            shape: HourlyShape::flat(),
            zipf_skew: 0.8,
            client_weights: None,
        };
        let trace = cfg.generate(&topology, &library, seed);
        let background = BackgroundModel::uniform(topology.link_count(), vod_net::Mbps::ZERO);
        Scenario {
            name: "random-network".into(),
            topology,
            library,
            trace,
            background,
            seed,
        }
    }

    /// The scenario's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The network the scenario runs on.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The title catalog.
    pub fn library(&self) -> &VideoLibrary {
        &self.library
    }

    /// The request trace.
    pub fn trace(&self) -> &RequestTrace {
        &self.trace
    }

    /// The background (non-VoD) traffic model.
    pub fn background(&self) -> &BackgroundModel {
        &self.background
    }

    /// The seed everything was derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grnet_scenario_is_complete_and_deterministic() {
        let s = Scenario::grnet_case_study(1);
        assert_eq!(s.name(), "grnet-case-study");
        assert_eq!(s.topology().node_count(), 6);
        assert_eq!(s.library().len(), 100);
        assert!(!s.trace().is_empty());
        assert_eq!(s.background().link_count(), 7);
        assert_eq!(s.seed(), 1);
        assert_eq!(Scenario::grnet_case_study(1), Scenario::grnet_case_study(1));
    }

    #[test]
    fn grnet_trace_is_in_the_sampled_window() {
        let s = Scenario::grnet_case_study(2);
        for r in s.trace().iter() {
            let h = r.at.as_hours_f64();
            assert!((8.0..=18.0).contains(&h), "request at {h}h");
        }
    }

    #[test]
    fn flash_crowd_concentrates_on_patra() {
        let s = Scenario::flash_crowd(3);
        let patra = s.topology().find_node("U2").unwrap();
        let at_patra = s.trace().iter().filter(|r| r.client == patra).count();
        assert!(
            at_patra * 2 > s.trace().len(),
            "flash crowd should mostly originate at Patra: {at_patra}/{}",
            s.trace().len()
        );
    }

    #[test]
    fn scale_stress_hits_its_target_within_poisson_noise() {
        let s = Scenario::scale_stress(5, 10_000);
        assert_eq!(s.name(), "scale-stress");
        assert_eq!(s.topology().node_count(), 6);
        assert_eq!(s.library().len(), 20);
        // Poisson(10_000) stays within ±5% with overwhelming probability.
        let n = s.trace().len() as f64;
        assert!((9_500.0..10_500.0).contains(&n), "got {n} arrivals");
        // All titles are the same 150 MB / 800 s feature, so every
        // session arriving in the 600 s window outlives it.
        for id in s.library().ids() {
            assert_eq!(s.library().get(id).unwrap().size().as_f64(), 150.0);
        }
        assert_eq!(
            Scenario::scale_stress(5, 100),
            Scenario::scale_stress(5, 100)
        );
    }

    #[test]
    fn random_network_is_connected_and_idle() {
        let s = Scenario::random_network(4);
        assert!(s.topology().is_connected());
        assert_eq!(s.background().link_count(), s.topology().link_count());
        assert!(!s.trace().is_empty());
    }
}
