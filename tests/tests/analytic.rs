//! Analytic oracles: the simulator against closed forms it does not
//! compute itself.
//!
//! Max-min fairness on one bottleneck. `n` flows of sizes
//! `s_1 < … < s_n` start together on a link of capacity `C` with no
//! background. While `k` flows are live each gets `C / k`, so the
//! `k`-th completion comes at
//!
//! ```text
//! t_k = t_{k-1} + (n - k + 1) (s_k - s_{k-1}) / C,   t_0 = 0, s_0 = 0.
//! ```
//!
//! The flow kernel rounds each completion up to the clock's microsecond,
//! so an instant may trail the closed form by at most that much.
//!
//! A cache under the independent reference model. Requests drawn
//! i.i.d. from a Zipf law over `n` equal-size titles, against a cache
//! that holds exactly `C` of them: the DMA (Figure 2) gives a title a
//! point per request and replaces the least popular resident only with
//! a title that has more points, so once the counts have settled it
//! holds the `C` most popular titles, and its hit ratio tends to their
//! Zipf mass `Σ_{i<C} pmf(i)`.
//!
//! A local serve on an idle service. A client whose home holds the
//! title streams it from its own disks at the configured rate `r`,
//! whatever else is running, so its first cluster of `v` megabits has
//! arrived exactly `⌈v / r⌉` microseconds after the request — the
//! startup delay, to the microsecond.

use vod_core::service::{ServiceConfig, VodService};
use vod_core::session::cluster_volume_mbit;
use vod_core::vra::Vra;
use vod_integration_tests::grnet;
use vod_net::topologies::grnet::GrnetLink;
use vod_net::Mbps;
use vod_obs::{Event, RingRecorder, TimeSeriesSink};
use vod_sim::flow::{FlowId, FlowNetwork};
use vod_sim::traffic::BackgroundModel;
use vod_sim::{SimDuration, SimTime};
use vod_storage::cluster::ClusterSize;
use vod_storage::dma::{DmaCache, DmaConfig, EvictionMode};
use vod_storage::video::{Megabytes, VideoId, VideoMeta};
use vod_workload::arrivals::HourlyShape;
use vod_workload::scenario::Scenario;
use vod_workload::{LibraryConfig, LibraryGenerator, TraceConfig, Zipf};

/// Completion instants of `sizes` (Mbit, ascending) on a link of
/// `capacity` Mbps, by the closed form.
fn closed_form(sizes: &[f64], capacity: f64) -> Vec<f64> {
    let n = sizes.len();
    let mut t = 0.0;
    let mut prev = 0.0;
    sizes
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            t += (n - i) as f64 * (s - prev) / capacity;
            prev = s;
            t
        })
        .collect()
}

/// Runs `sizes` (Mbit, ascending) together on GRNET's Patra–Athens
/// link and checks every rate and completion instant.
fn check_single_bottleneck(sizes: &[f64]) {
    let g = grnet();
    let link = g.link(GrnetLink::PatraAthens);
    let capacity = GrnetLink::PatraAthens.capacity().as_f64();
    assert_eq!(capacity, 2.0, "Patra–Athens is one of GRNET's 2 Mbps links");
    let mut net = FlowNetwork::new(g.topology().clone());
    let mut live: Vec<FlowId> = sizes
        .iter()
        .map(|&s| net.add_flow([link], s).expect("a valid flow"))
        .collect();

    let expected = closed_form(sizes, capacity);
    let mut clock = SimDuration::ZERO;
    for (k, &t_k) in expected.iter().enumerate() {
        let share = capacity / live.len() as f64;
        for &id in &live {
            let rate = net.rate(id).expect("a live flow").as_f64();
            assert!(
                (rate - share).abs() <= 1e-12 * capacity,
                "{} live flows: rate {rate}, expected C/k = {share}",
                live.len()
            );
        }
        let (next, dt) = net.next_completion().expect("a live flow progresses");
        assert_eq!(next, live[0], "the smallest live flow finishes first");
        clock += dt;
        let done = net.advance(dt);
        assert_eq!(done, [live[0]], "completion {} finishes one flow", k + 1);
        live.remove(0);
        let lag = clock.as_secs_f64() - t_k;
        assert!(
            (0.0..=1e-6 + 1e-9).contains(&lag),
            "completion {} at {} s, closed form {t_k} s",
            k + 1,
            clock.as_secs_f64()
        );
    }
    assert_eq!(net.flow_count(), 0);
}

#[test]
fn single_bottleneck_shares_and_completions_match_the_closed_form() {
    check_single_bottleneck(&[3.7, 11.2, 19.9, 26.05, 41.3]);
}

#[test]
fn single_bottleneck_holds_for_near_equal_sizes() {
    check_single_bottleneck(&[100.0, 100.000_5, 100.001, 250.0, 250.25]);
}

/// Little's law for the M/G/∞ queue an uncontended service is: with
/// Poisson arrivals at rate λ and every session served at once, the
/// mean number of live sessions is λ · E[duration], whatever the
/// duration's distribution. "Traffic Analysis for Storage Finding in
/// Video on Demand System" sizes storage on this model.
///
/// The scenario makes every serve local and stall-free: each of
/// GRNET's video servers holds every title, and a home disk streams at
/// far more than the playback bitrate. A session is then live (in the
/// series' `sessions` column, first cluster to playback end) for its
/// title's playback time, `size · 8 / bitrate`, so E[duration] is that
/// time weighted by the Zipf popularity of each title. λ, the Zipf law
/// and the sizes come from the generators, not from the run. The mean
/// is taken over the windows between the longest duration (the queue
/// fills from empty) and the last arrival (it drains after).
///
/// Over seeds 1–8 the per-seed error has a spread of 0.65 % and a
/// largest value of 1.25 %; the 3 % tolerance on seeds 1–4 sits past
/// four times that spread (EXPERIMENTS.md, "Little's law").
#[test]
fn mean_live_sessions_follow_littles_law() {
    const SEEDS: [u64; 4] = [1, 2, 3, 4];
    const TOLERANCE: f64 = 0.03;
    let library = LibraryConfig {
        titles: 50,
        min_size_mb: 100.0,
        max_size_mb: 200.0,
        ..LibraryConfig::default()
    };
    let arrivals = TraceConfig {
        start: SimTime::ZERO,
        duration: SimDuration::from_secs(24 * 3600),
        rate_per_sec: 0.25,
        shape: HourlyShape::flat(),
        zipf_skew: 0.8,
        client_weights: None,
    };
    let zipf = Zipf::new(library.titles, arrivals.zipf_skew);
    let steady_from_us = (8.0 * library.max_size_mb / library.bitrate_mbps * 1e6) as u64;

    let g = grnet();
    let config = ServiceConfig {
        initial_replicas: g.topology().video_server_nodes().len(),
        ..ServiceConfig::default()
    };
    for seed in SEEDS {
        let titles = LibraryGenerator::new(library.clone()).generate(seed);
        let mean_duration_s: f64 = titles
            .iter()
            .enumerate()
            .map(|(rank, t)| zipf.pmf(rank) * 8.0 * t.size().as_f64() / library.bitrate_mbps)
            .sum();
        let predicted = arrivals.rate_per_sec * mean_duration_s;

        let trace = arrivals.generate(g.topology(), &titles, seed);
        let background = BackgroundModel::uniform(g.topology().link_count(), Mbps::ZERO);
        let scenario = Scenario::new(
            "littles-law",
            g.topology().clone(),
            titles,
            trace,
            background,
            seed,
        );
        let service = VodService::with_sink(
            &scenario,
            Box::new(Vra::default()),
            config.clone(),
            TimeSeriesSink::new(),
        );
        let (report, series) = service.run_full();
        assert!(
            report
                .completed
                .iter()
                .all(|r| r.local_clusters == r.clusters && r.stall_count == 0),
            "every serve is local and stall-free"
        );
        let live: Vec<f64> = series
            .finish()
            .windows()
            .filter(|w| w.start_us >= steady_from_us && w.end_us <= arrivals.duration.as_micros())
            .map(|w| w.sessions as f64)
            .collect();
        let measured = live.iter().sum::<f64>() / live.len() as f64;
        assert!(
            (measured - predicted).abs() <= TOLERANCE * predicted,
            "seed {seed}: mean live sessions {measured:.2}, Little's law predicts λ·E[D] = {predicted:.2}"
        );
    }
}

/// Every session of an all-local run starts exactly `⌈v / r⌉` after its
/// request: `v` the title's first cluster, `r` the local rate. Each of
/// GRNET's video servers holds every title, so the VRA never leaves
/// the home, and a home's striped disks deliver far more than the
/// 3.3 Mbps ceiling, so the ceiling is the rate.
#[test]
fn local_startup_is_the_closed_form_transfer_time() {
    let g = grnet();
    let rate = 3.3;
    let config = ServiceConfig {
        initial_replicas: g.topology().video_server_nodes().len(),
        local_rate: Mbps::new(rate),
        ..ServiceConfig::default()
    };
    let library = LibraryConfig {
        titles: 30,
        min_size_mb: 40.0,
        max_size_mb: 90.0,
        ..LibraryConfig::default()
    };
    let titles = LibraryGenerator::new(library).generate(5);
    let arrivals = TraceConfig {
        start: SimTime::ZERO,
        duration: SimDuration::from_secs(6 * 3600),
        rate_per_sec: 0.05,
        shape: HourlyShape::flat(),
        zipf_skew: 0.8,
        client_weights: None,
    };
    let trace = arrivals.generate(g.topology(), &titles, 5);
    let background = BackgroundModel::uniform(g.topology().link_count(), Mbps::ZERO);
    let scenario = Scenario::new(
        "all-local",
        g.topology().clone(),
        titles.clone(),
        trace,
        background,
        5,
    );
    let sink = RingRecorder::new(1 << 20);
    let service = VodService::with_sink(&scenario, Box::new(Vra::default()), config.clone(), sink);
    let (report, recorder) = service.run_full();
    assert_eq!(recorder.dropped(), 0);

    let mut video_of = std::collections::BTreeMap::new();
    let mut started = 0;
    for (_, event) in recorder.iter() {
        match event {
            Event::VraSelect {
                session,
                cluster,
                video,
                local,
                ..
            } => {
                assert!(
                    *local,
                    "session {session} cluster {cluster} is served remotely"
                );
                video_of.entry(*session).or_insert(*video);
            }
            Event::SessionStart { session, startup } => {
                let meta = titles.get(video_of[session]).expect("a library title");
                let volume = cluster_volume_mbit(meta, config.cluster, 0);
                let micros = (volume / rate * 1e6).ceil() as u64;
                assert_eq!(
                    startup.as_micros(),
                    micros,
                    "session {session}: {volume} Mbit at {rate} Mbps"
                );
                started += 1;
            }
            _ => {}
        }
    }
    assert!(started > 500, "{started} sessions started");
    assert_eq!(started, report.completed.len());
}

/// The DMA's hit ratio under i.i.d. Zipf(0.8) requests over 100 equal
/// titles, with room for exactly 10, against the Zipf mass of the top
/// 10. Each seed draws 200 000 requests and measures the hit ratio
/// after the first 20 000, by which the points have sorted the top 10
/// from the rest. The tolerance and seeds are fixed in EXPERIMENTS.md
/// ("Cache hit ratio under Zipf"), from seeds 1–8.
#[test]
fn dma_hit_ratio_tends_to_the_top_c_zipf_mass() {
    use rand::{rngs::StdRng, SeedableRng};

    const SEEDS: [u64; 4] = [1, 2, 3, 4];
    const TOLERANCE: f64 = 0.005;
    const TITLES: usize = 100;
    const CAPACITY: usize = 10;
    const REQUESTS: usize = 200_000;
    const WARM_UP: usize = 20_000;
    let size = Megabytes::new(100.0);
    let titles: Vec<VideoMeta> = (0..TITLES as u32)
        .map(|i| VideoMeta::new(VideoId::new(i), format!("t{i}"), size, 1.5))
        .collect();
    let zipf = Zipf::new(TITLES, 0.8);
    let predicted: f64 = (0..CAPACITY).map(|rank| zipf.pmf(rank)).sum();
    for seed in SEEDS {
        // One disk with room for `CAPACITY` titles and half of another.
        let mut dma = DmaCache::new(DmaConfig {
            disk_count: 1,
            disk_capacity: Megabytes::new(size.as_f64() * (CAPACITY as f64 + 0.5)),
            cluster_size: ClusterSize::new(size),
            admit_threshold: 0,
            eviction: EvictionMode::SingleAttempt,
        })
        .expect("a valid DMA configuration");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut hits = 0usize;
        for n in 0..REQUESTS {
            let title = &titles[zipf.sample(&mut rng)];
            let hit = dma.on_request(title).is_hit();
            if n >= WARM_UP {
                hits += usize::from(hit);
            }
        }
        assert_eq!(dma.resident_ids().len(), CAPACITY, "seed {seed}");
        let measured = hits as f64 / (REQUESTS - WARM_UP) as f64;
        assert!(
            (measured - predicted).abs() <= TOLERANCE,
            "seed {seed}: hit ratio {measured:.4}, the top-{CAPACITY} Zipf mass is {predicted:.4}"
        );
    }
}
