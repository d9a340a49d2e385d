//! The full-access catalog: which servers hold each title.
//!
//! The service asks the catalog one question per cluster — "who holds
//! this title?" — so the catalog is indexed by title: one map from a
//! title to its holders in node order. A selection walks the holders of
//! one title, and a replica count is the length of that list. Only a
//! server outage asks the other way round ("what did this server
//! hold?"), and that scan is the one read that touches every title.
//!
//! A title nobody holds has no entry, so two catalogs listing the same
//! placements are equal however they got there.

use std::collections::BTreeMap;

use vod_net::NodeId;
use vod_storage::video::VideoId;

/// Title → holders, each list ascending by node and never empty.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Catalog {
    holders: BTreeMap<VideoId, Vec<NodeId>>,
}

impl Catalog {
    /// The servers holding `video`, in node order.
    pub(crate) fn holders(&self, video: VideoId) -> &[NodeId] {
        self.holders.get(&video).map_or(&[], Vec::as_slice)
    }

    /// The titles `server` holds, in id order: a scan of every entry.
    pub(crate) fn titles_at(&self, server: NodeId) -> impl Iterator<Item = VideoId> + '_ {
        self.holders
            .iter()
            .filter(move |(_, holders)| holders.binary_search(&server).is_ok())
            .map(|(&video, _)| video)
    }

    /// Lists `video` at `server`; `false` if it was already listed.
    pub(crate) fn add_holder(&mut self, video: VideoId, server: NodeId) -> bool {
        let holders = self.holders.entry(video).or_default();
        match holders.binary_search(&server) {
            Ok(_) => false,
            Err(at) => {
                holders.insert(at, server);
                true
            }
        }
    }

    /// Unlists `video` at `server`; `false` if it was not listed.
    pub(crate) fn remove_holder(&mut self, video: VideoId, server: NodeId) -> bool {
        let Some(holders) = self.holders.get_mut(&video) else {
            return false;
        };
        let Ok(at) = holders.binary_search(&server) else {
            return false;
        };
        holders.remove(at);
        if holders.is_empty() {
            self.holders.remove(&video);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    use crate::Database;
    use vod_net::topologies::grnet::Grnet;
    use vod_storage::video::{Megabytes, VideoLibrary, VideoMeta};

    #[test]
    fn title_management() {
        let (a, b) = (NodeId::new(1), NodeId::new(4));
        let v = VideoId::new(5);
        let mut c = Catalog::default();
        assert!(c.holders(v).is_empty());
        assert!(c.add_holder(v, b));
        assert!(!c.add_holder(v, b));
        assert!(c.add_holder(v, a));
        // Holders stay in node order whatever the insertion order.
        assert_eq!(c.holders(v), &[a, b]);
        assert_eq!(c.titles_at(a).collect::<Vec<_>>(), vec![v]);
        assert!(c.titles_at(NodeId::new(2)).next().is_none());
        assert!(c.remove_holder(v, a));
        assert!(!c.remove_holder(v, a));
        assert!(!c.remove_holder(VideoId::new(6), a));
        assert!(c.remove_holder(v, b));
        // The last holder's removal drops the entry itself.
        assert_eq!(c, Catalog::default());
    }

    const TITLES: u32 = 8;

    fn database() -> (Vec<NodeId>, Database) {
        let grnet = Grnet::new();
        let library: VideoLibrary = (0..TITLES)
            .map(|i| VideoMeta::new(VideoId::new(i), format!("t{i}"), Megabytes::new(100.0), 1.5))
            .collect();
        let servers = grnet.topology().video_server_nodes();
        (servers, Database::from_topology(grnet.topology(), library))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Differential: random placements, evictions and server-outage
        /// withdrawals against the server-major layout the catalog
        /// replaced (a title set per server, scanned server by server).
        #[test]
        fn catalog_matches_per_server_sets(
            ops in proptest::collection::vec((0u8..3, 0usize..6, 0u32..TITLES), 1..200),
        ) {
            let (servers, mut db) = database();
            let mut per_server: BTreeMap<NodeId, BTreeSet<VideoId>> =
                servers.iter().map(|&s| (s, BTreeSet::new())).collect();
            for &(op, s, v) in &ops {
                let (server, video) = (servers[s], VideoId::new(v));
                let set = per_server.get_mut(&server).unwrap();
                match op {
                    0 => {
                        let added = db.limited_access().add_title(server, video);
                        prop_assert_eq!(added, Ok(set.insert(video)));
                    }
                    1 => {
                        let removed = db.limited_access().remove_title(server, video);
                        prop_assert_eq!(removed, Ok(set.remove(&video)));
                    }
                    _ => {
                        // A server outage: everything listed there goes.
                        let listed = db.full_access().titles_at(server).unwrap();
                        let mut la = db.limited_access();
                        for &title in &listed {
                            prop_assert_eq!(la.remove_title(server, title), Ok(true));
                        }
                        prop_assert_eq!(listed, set.iter().copied().collect::<Vec<_>>());
                        set.clear();
                    }
                }
                let fa = db.full_access();
                for v in 0..TITLES {
                    let video = VideoId::new(v);
                    let scan: Vec<NodeId> = per_server
                        .iter()
                        .filter(|(_, titles)| titles.contains(&video))
                        .map(|(&s, _)| s)
                        .collect();
                    prop_assert_eq!(fa.replica_count(video), scan.len());
                    prop_assert_eq!(fa.servers_with_title(video), scan);
                }
                for (&server, titles) in &per_server {
                    prop_assert_eq!(
                        fa.titles_at(server).unwrap(),
                        titles.iter().copied().collect::<Vec<_>>()
                    );
                }
            }
        }
    }
}
