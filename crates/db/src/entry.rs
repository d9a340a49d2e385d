//! Database entries: one per server and one per link.
//!
//! Both belong to the paper's *limited-access* sub-module (network and
//! configuration information). The *full-access* part — the titles
//! available on each server — is the database's title-major catalog,
//! not a field of the server entry.
//!
//! A link entry keeps its last [`READING_HISTORY`] SNMP readings in a
//! ring: storage grows with the first readings to exactly that many
//! slots, after which each new reading overwrites the oldest in place —
//! a poll moves no retained reading. Readers see the ring oldest first,
//! and it serialises as that list.

use serde::{Deserialize, Serialize, Value};

use vod_net::units::Fraction;
use vod_net::{LinkId, Mbps, NodeId};
use vod_sim::SimTime;
use vod_storage::video::Megabytes;

/// Per-server configuration recorded during service initialization
/// ("Network links' bandwidth … the video titles available on each VoD
/// server") and updated by administrators on configuration changes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerConfig {
    /// Number of disks in the server's array.
    pub disk_count: usize,
    /// Space allocated to the VoD service per disk.
    pub disk_capacity: Megabytes,
    /// The bandwidth of the server's connection to the network.
    pub access_bandwidth: Mbps,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            disk_count: 4,
            disk_capacity: Megabytes::new(10_000.0),
            access_bandwidth: Mbps::new(2.0),
        }
    }
}

/// One server's database entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerEntry {
    node: NodeId,
    /// Limited-access sub-module: configuration information.
    config: ServerConfig,
}

impl ServerEntry {
    /// Creates an entry.
    pub fn new(node: NodeId, config: ServerConfig) -> Self {
        ServerEntry { node, config }
    }

    /// The server's node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The limited-access configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }
}

/// One SNMP utilization reading, as inserted by the statistics module.
#[derive(Debug, Copy, Clone, PartialEq, Serialize, Deserialize)]
pub struct UtilizationReading {
    /// When the reading was inserted.
    pub at: SimTime,
    /// Combined in+out traffic at that moment.
    pub used: Mbps,
    /// `used / capacity` per the paper's equation (5).
    pub utilization: Fraction,
}

/// Number of SNMP readings retained per link (at the paper's 2-minute
/// interval this is roughly one hour of history).
pub const READING_HISTORY: usize = 32;

/// The newest [`READING_HISTORY`] readings of one link.
#[derive(Debug, Clone, Default)]
struct ReadingRing {
    /// In arrival order while the ring fills (`head == 0`); once it
    /// holds [`READING_HISTORY`] readings, oldest first from `head`,
    /// wrapping.
    slots: Vec<UtilizationReading>,
    head: usize,
}

impl ReadingRing {
    fn push(&mut self, reading: UtilizationReading) {
        if self.slots.len() < READING_HISTORY {
            self.slots.push(reading);
        } else if let Some(oldest) = self.slots.get_mut(self.head) {
            *oldest = reading;
            self.head = (self.head + 1) % READING_HISTORY;
        }
    }

    /// The retained readings, oldest first.
    fn iter(&self) -> impl Iterator<Item = &UtilizationReading> + Clone {
        let (newer, older) = self.slots.split_at(self.head);
        older.iter().chain(newer)
    }
}

// Two rings are equal iff they retain the same readings in the same
// order, wherever each one's `head` happens to sit.
impl PartialEq for ReadingRing {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Serialize for ReadingRing {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl Deserialize for ReadingRing {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let slots = Vec::<UtilizationReading>::from_value(v)?;
        if slots.len() > READING_HISTORY {
            return Err(serde::Error::custom(format!(
                "a link retains at most {READING_HISTORY} readings, got {}",
                slots.len()
            )));
        }
        Ok(ReadingRing { slots, head: 0 })
    }
}

/// One link's database entry (limited access only — users never see link
/// state).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkEntry {
    link: LinkId,
    total_bandwidth: Mbps,
    last_reading: Option<UtilizationReading>,
    history: ReadingRing,
}

impl LinkEntry {
    /// Creates an entry with no readings yet.
    pub fn new(link: LinkId, total_bandwidth: Mbps) -> Self {
        LinkEntry {
            link,
            total_bandwidth,
            last_reading: None,
            history: ReadingRing::default(),
        }
    }

    /// The link this entry describes.
    pub fn link(&self) -> LinkId {
        self.link
    }

    /// The latest SNMP reading, if any has been inserted.
    pub fn last_reading(&self) -> Option<UtilizationReading> {
        self.last_reading
    }

    /// Age of the latest reading at `now` (`None` before the first poll).
    pub fn reading_age(&self, now: SimTime) -> Option<vod_sim::SimDuration> {
        self.last_reading.map(|r| now.duration_since(r.at))
    }

    /// The retained reading history, oldest first (at most
    /// [`READING_HISTORY`] entries, the newest equal to
    /// [`LinkEntry::last_reading`]).
    pub fn history(&self) -> impl Iterator<Item = UtilizationReading> + Clone + '_ {
        self.history.iter().copied()
    }

    /// Exponentially-weighted moving average of the recorded traffic,
    /// `alpha` being the weight of each newer reading (1.0 = latest
    /// reading only). Returns `None` before the first reading.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not within `(0, 1]`.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented panic: `alpha > 0.0 && alpha <= 1.0` is the caller's contract"
    )]
    pub fn smoothed_used(&self, alpha: f64) -> Option<Mbps> {
        assert!(
            alpha > 0.0 && alpha <= 1.0 && alpha.is_finite(),
            "alpha must be in (0, 1]"
        );
        let mut iter = self.history.iter();
        let first = iter.next()?;
        let mut acc = first.used.as_f64();
        for r in iter {
            acc = acc + alpha * (r.used.as_f64() - acc);
        }
        Some(Mbps::new(acc))
    }

    /// Inserts `reading` once per reporting agent (`copies` times); a
    /// link no agent reports keeps its state.
    pub(crate) fn record(&mut self, reading: UtilizationReading, copies: usize) {
        if copies == 0 {
            return;
        }
        self.last_reading = Some(reading);
        for _ in 0..copies {
            self.history.push(reading);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn reading(secs: u64, used: f64) -> UtilizationReading {
        UtilizationReading {
            at: SimTime::from_secs(secs),
            used: Mbps::new(used),
            utilization: Fraction::new(used / 2.0),
        }
    }

    #[test]
    fn history_is_bounded_and_ordered() {
        let mut e = LinkEntry::new(LinkId::new(0), Mbps::new(2.0));
        assert_eq!(e.history().count(), 0);
        for i in 0..(READING_HISTORY as u64 + 10) {
            e.record(reading(i * 120, (i % 5) as f64 * 0.1), 1);
        }
        let history: Vec<_> = e.history().collect();
        assert_eq!(history.len(), READING_HISTORY);
        // Oldest entries were dropped; the newest equals last_reading.
        assert_eq!(history.last().copied(), e.last_reading());
        assert!(history.windows(2).all(|w| w[0].at < w[1].at));
    }

    #[test]
    fn smoothing_blends_history() {
        let mut e = LinkEntry::new(LinkId::new(0), Mbps::new(2.0));
        assert_eq!(e.smoothed_used(0.5), None);
        e.record(reading(0, 0.0), 1);
        e.record(reading(120, 2.0), 1);
        // EWMA: 0 + 0.5*(2-0) = 1.0.
        assert!((e.smoothed_used(0.5).unwrap().as_f64() - 1.0).abs() < 1e-12);
        // alpha = 1: latest reading wins outright.
        assert!((e.smoothed_used(1.0).unwrap().as_f64() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_rejected() {
        let mut e = LinkEntry::new(LinkId::new(0), Mbps::new(2.0));
        e.record(reading(0, 1.0), 1);
        let _ = e.smoothed_used(0.0);
    }

    #[test]
    fn link_entry_readings() {
        let mut e = LinkEntry::new(LinkId::new(0), Mbps::new(2.0));
        assert_eq!(e.last_reading(), None);
        assert_eq!(e.reading_age(SimTime::from_secs(10)), None);
        let reading = UtilizationReading {
            at: SimTime::from_secs(60),
            used: Mbps::new(1.0),
            utilization: Fraction::new(0.5),
        };
        e.record(reading, 1);
        assert_eq!(e.last_reading(), Some(reading));
        assert_eq!(
            e.reading_age(SimTime::from_secs(90)),
            Some(vod_sim::SimDuration::from_secs(30))
        );
    }

    /// The history as it was before the ring: a `Vec` that drops its
    /// front (`remove(0)`) once full. Kept as the ring's reference.
    #[derive(Debug, Default, Serialize)]
    struct VecHistory {
        last_reading: Option<UtilizationReading>,
        history: Vec<UtilizationReading>,
    }

    impl VecHistory {
        fn record(&mut self, reading: UtilizationReading) {
            self.last_reading = Some(reading);
            if self.history.len() == READING_HISTORY {
                self.history.remove(0);
            }
            self.history.push(reading);
        }

        fn smoothed_used(&self, alpha: f64) -> Option<f64> {
            let mut iter = self.history.iter();
            let mut acc = iter.next()?.used.as_f64();
            for r in iter {
                acc = acc + alpha * (r.used.as_f64() - acc);
            }
            Some(acc)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Differential: after every write the ring reads, smooths and
        /// serialises exactly like the `Vec` it replaced — writes of
        /// several copies (a link two agents report) included.
        #[test]
        fn ring_matches_vec_history(
            writes in proptest::collection::vec(
                (0.0f64..20.0, 1usize..4),
                1..5 * READING_HISTORY,
            ),
        ) {
            let mut entry = LinkEntry::new(LinkId::new(3), Mbps::new(18.0));
            let mut reference = VecHistory::default();
            for (i, &(used, copies)) in writes.iter().enumerate() {
                let r = UtilizationReading {
                    at: SimTime::from_secs(120 * (i as u64 + 1)),
                    used: Mbps::new(used),
                    utilization: Fraction::new(used / 18.0),
                };
                entry.record(r, copies);
                for _ in 0..copies {
                    reference.record(r);
                }
                prop_assert_eq!(
                    entry.history().collect::<Vec<_>>(),
                    reference.history.clone()
                );
                prop_assert_eq!(entry.last_reading(), reference.last_reading);
                let now = r.at + vod_sim::SimDuration::from_secs(7);
                prop_assert_eq!(
                    entry.reading_age(now),
                    reference.last_reading.map(|l| now.duration_since(l.at))
                );
                for alpha in [0.1, 0.3, 1.0] {
                    prop_assert_eq!(
                        entry.smoothed_used(alpha).map(|m| m.as_f64().to_bits()),
                        reference.smoothed_used(alpha).map(f64::to_bits)
                    );
                }
                // On the wire: the oldest-first list, and no new field.
                let json = serde_json::to_string(&entry).unwrap();
                let wire = serde_json::to_string(&reference).unwrap();
                prop_assert_eq!(
                    &json,
                    &format!(
                        "{{\"link\":3,\"total_bandwidth\":18.0,{}",
                        wire.strip_prefix('{').unwrap()
                    )
                );
                let restored: LinkEntry = serde_json::from_str(&json).unwrap();
                prop_assert_eq!(&restored, &entry);
                prop_assert_eq!(
                    restored.history().collect::<Vec<_>>(),
                    reference.history.clone()
                );
            }
        }
    }

    #[test]
    fn overlong_history_is_rejected_on_the_wire() {
        let r = serde_json::to_string(&reading(60, 1.0)).unwrap();
        let list = vec![r.as_str(); READING_HISTORY + 1].join(",");
        let json = format!(
            "{{\"link\":0,\"total_bandwidth\":2.0,\"last_reading\":{r},\"history\":[{list}]}}"
        );
        let err = serde_json::from_str::<LinkEntry>(&json).unwrap_err();
        assert!(err.to_string().contains("at most 32 readings"), "{err}");
    }
}
