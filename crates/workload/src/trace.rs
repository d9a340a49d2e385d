//! Request traces: timestamped `(client node, video)` pairs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vod_net::{NodeId, Topology};
use vod_sim::{SimDuration, SimTime};
use vod_storage::video::{VideoId, VideoLibrary};

use crate::arrivals::{ArrivalProcess, HourlyShape};
use crate::zipf::Zipf;

/// One client request: at `at`, a client attached to `client` asks for
/// `video`.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub struct Request {
    /// Arrival instant.
    pub at: SimTime,
    /// The node the requesting client is attached to (its home server).
    pub client: NodeId,
    /// The requested title.
    pub video: VideoId,
}

/// A time-ordered request trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RequestTrace {
    requests: Vec<Request>,
}

impl RequestTrace {
    /// Creates a trace from requests, sorting them by time (stable).
    pub fn new(mut requests: Vec<Request>) -> Self {
        requests.sort_by_key(|r| r.at);
        RequestTrace { requests }
    }

    /// The requests in time order.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Returns true if the trace has no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Iterates over the requests.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &Request> {
        self.requests.iter()
    }

    /// The span from first to last request (zero for < 2 requests).
    pub fn span(&self) -> SimDuration {
        match (self.requests.first(), self.requests.last()) {
            (Some(first), Some(last)) => last.at.duration_since(first.at),
            _ => SimDuration::ZERO,
        }
    }
}

impl FromIterator<Request> for RequestTrace {
    fn from_iter<I: IntoIterator<Item = Request>>(iter: I) -> Self {
        RequestTrace::new(iter.into_iter().collect())
    }
}

/// Parameters of a generated trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Trace starts at this instant.
    pub start: SimTime,
    /// Trace covers this span.
    pub duration: SimDuration,
    /// Base arrival rate over the whole network, in requests/second.
    pub rate_per_sec: f64,
    /// Hour-of-day modulation of the arrival rate.
    pub shape: HourlyShape,
    /// Zipf skew of title popularity (`VideoId` 0 is rank 0, the hottest).
    pub zipf_skew: f64,
    /// Relative weight of each video-server node as a client origin
    /// (`None` = uniform across all video-server nodes).
    pub client_weights: Option<Vec<(NodeId, f64)>>,
}

impl Default for TraceConfig {
    /// One request every 2 s for 2 hours, evening shape, skew 0.8.
    fn default() -> Self {
        TraceConfig {
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(2 * 3600),
            rate_per_sec: 0.5,
            shape: HourlyShape::flat(),
            zipf_skew: 0.8,
            client_weights: None,
        }
    }
}

impl TraceConfig {
    /// Generates the trace over `topology` and `library` with the given
    /// seed. Deterministic.
    ///
    /// # Panics
    ///
    /// Panics if the library is empty, the topology has no video-server
    /// nodes, or explicit client weights are empty / non-positive.
    #[expect(
        clippy::disallowed_macros,
        reason = "config validation: a non-empty library, servers to request from, and usable client weights; a typed error is ROADMAP 4(a)"
    )]
    pub fn generate(&self, topology: &Topology, library: &VideoLibrary, seed: u64) -> RequestTrace {
        assert!(!library.is_empty(), "library must not be empty");
        let origins: Vec<(NodeId, f64)> = match &self.client_weights {
            Some(w) => {
                assert!(!w.is_empty(), "client weights must not be empty");
                assert!(
                    w.iter().all(|&(_, weight)| weight >= 0.0)
                        && w.iter().any(|&(_, weight)| weight > 0.0),
                    "client weights must be non-negative and not all zero"
                );
                w.clone()
            }
            None => {
                let servers = topology.video_server_nodes();
                assert!(!servers.is_empty(), "topology has no video servers");
                servers.into_iter().map(|n| (n, 1.0)).collect()
            }
        };
        let total_weight: f64 = origins.iter().map(|&(_, w)| w).sum();
        let zipf = Zipf::new(library.len(), self.zipf_skew);
        let ids: Vec<VideoId> = library.ids().collect();
        let arrivals = ArrivalProcess::new(self.rate_per_sec, self.shape.clone());
        let mut rng = StdRng::seed_from_u64(seed);

        let end = self.start + self.duration;
        let mut t = self.start;
        let mut requests = Vec::new();
        loop {
            t = arrivals.next_after(&mut rng, t);
            if t > end {
                break;
            }
            let rank = zipf.sample(&mut rng);
            let client = pick_weighted(&origins, total_weight, &mut rng);
            #[expect(
                clippy::indexing_slicing,
                reason = "the Zipf sampler draws a rank below `library.len()`, the length of `ids`"
            )]
            requests.push(Request {
                at: t,
                client,
                video: ids[rank],
            });
        }
        RequestTrace::new(requests)
    }
}

fn pick_weighted<R: Rng + ?Sized>(origins: &[(NodeId, f64)], total: f64, rng: &mut R) -> NodeId {
    let mut x: f64 = rng.gen::<f64>() * total;
    for &(node, w) in origins {
        if x < w {
            return node;
        }
        x -= w;
    }
    #[expect(
        clippy::expect_used,
        reason = "`generate` asserts a non-empty origin list"
    )]
    origins.last().expect("origins non-empty").0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::{LibraryConfig, LibraryGenerator};
    use vod_net::topologies::grnet::{Grnet, GrnetNode};

    fn fixture() -> (Grnet, VideoLibrary) {
        let grnet = Grnet::new();
        let lib = LibraryGenerator::new(LibraryConfig {
            titles: 50,
            ..LibraryConfig::default()
        })
        .generate(1);
        (grnet, lib)
    }

    #[test]
    fn trace_is_time_ordered_and_bounded() {
        let (grnet, lib) = fixture();
        let cfg = TraceConfig::default();
        let trace = cfg.generate(grnet.topology(), &lib, 42);
        assert!(!trace.is_empty());
        let end = cfg.start + cfg.duration;
        let mut prev = SimTime::ZERO;
        for r in trace.iter() {
            assert!(r.at >= prev);
            assert!(r.at <= end);
            prev = r.at;
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let (grnet, lib) = fixture();
        let cfg = TraceConfig::default();
        let a = cfg.generate(grnet.topology(), &lib, 7);
        let b = cfg.generate(grnet.topology(), &lib, 7);
        assert_eq!(a, b);
        let c = cfg.generate(grnet.topology(), &lib, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn rate_controls_volume() {
        let (grnet, lib) = fixture();
        let slow = TraceConfig {
            rate_per_sec: 0.1,
            ..TraceConfig::default()
        }
        .generate(grnet.topology(), &lib, 3);
        let fast = TraceConfig {
            rate_per_sec: 1.0,
            ..TraceConfig::default()
        }
        .generate(grnet.topology(), &lib, 3);
        assert!(fast.len() > slow.len() * 5);
        // Expected counts: 0.1/s and 1/s over 7200 s.
        assert!((500..1000).contains(&slow.len()), "{}", slow.len());
        assert!((6500..8000).contains(&fast.len()), "{}", fast.len());
    }

    #[test]
    fn zipf_concentrates_on_hot_titles() {
        let (grnet, lib) = fixture();
        let trace = TraceConfig {
            zipf_skew: 1.2,
            rate_per_sec: 2.0,
            ..TraceConfig::default()
        }
        .generate(grnet.topology(), &lib, 5);
        let count = |video| trace.iter().filter(|r| r.video == video).count();
        let hottest = count(VideoId::new(0));
        let coldest = count(VideoId::new(49));
        assert!(
            hottest > coldest * 5,
            "hottest {hottest} vs coldest {coldest}"
        );
    }

    #[test]
    fn client_weights_bias_origins() {
        let (grnet, lib) = fixture();
        let patra = grnet.node(GrnetNode::Patra);
        let athens = grnet.node(GrnetNode::Athens);
        let trace = TraceConfig {
            client_weights: Some(vec![(patra, 9.0), (athens, 1.0)]),
            rate_per_sec: 2.0,
            ..TraceConfig::default()
        }
        .generate(grnet.topology(), &lib, 11);
        let patra_count = trace.iter().filter(|r| r.client == patra).count();
        let athens_count = trace.iter().filter(|r| r.client == athens).count();
        assert_eq!(patra_count + athens_count, trace.len());
        let ratio = patra_count as f64 / athens_count.max(1) as f64;
        assert!((6.0..14.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn trace_helpers() {
        let r = |secs, v| Request {
            at: SimTime::from_secs(secs),
            client: NodeId::new(0),
            video: VideoId::new(v),
        };
        let trace: RequestTrace = vec![r(5, 1), r(1, 0), r(3, 1)].into_iter().collect();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.requests()[0].at, SimTime::from_secs(1));
        assert_eq!(trace.span(), SimDuration::from_secs(4));
        assert_eq!(RequestTrace::default().span(), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "library must not be empty")]
    fn empty_library_rejected() {
        let grnet = Grnet::new();
        let _ = TraceConfig::default().generate(grnet.topology(), &VideoLibrary::new(), 1);
    }
}
