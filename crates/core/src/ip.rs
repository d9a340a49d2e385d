//! Client-IP → home-server resolution.
//!
//! Figure 5's first two steps: *"Get the IP address of the client placing
//! the video request. Determine the server to whom the requesting user is
//! directly connected (referred to as home server) by this IP."*
//! [`HomeResolver`] implements the determination with longest-prefix
//! matching over administrator-configured IPv4 prefixes.

use std::net::Ipv4Addr;

use vod_net::NodeId;

/// One routing entry: clients inside `network/prefix_len` are homed at
/// `server`.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub struct HomePrefix {
    /// Network address.
    pub network: Ipv4Addr,
    /// Prefix length in bits (0–32).
    pub prefix_len: u8,
    /// The home server for clients in this prefix.
    pub server: NodeId,
}

/// Longest-prefix-match resolver from client IPs to home servers.
///
/// # Examples
///
/// ```
/// use std::net::Ipv4Addr;
/// use vod_core::ip::HomeResolver;
/// use vod_net::NodeId;
///
/// let mut resolver = HomeResolver::new();
/// resolver.add(Ipv4Addr::new(150, 140, 0, 0), 16, NodeId::new(1)).unwrap();
/// resolver.add(Ipv4Addr::new(150, 140, 8, 0), 24, NodeId::new(2)).unwrap();
/// // The /24 wins by longest prefix.
/// assert_eq!(resolver.resolve(Ipv4Addr::new(150, 140, 8, 7)), Some(NodeId::new(2)));
/// assert_eq!(resolver.resolve(Ipv4Addr::new(150, 140, 9, 7)), Some(NodeId::new(1)));
/// assert_eq!(resolver.resolve(Ipv4Addr::new(10, 0, 0, 1)), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HomeResolver {
    prefixes: Vec<HomePrefix>,
}

impl HomeResolver {
    /// Creates an empty resolver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a prefix entry.
    ///
    /// # Errors
    ///
    /// Returns `Err` with the invalid length when `prefix_len > 32` or
    /// the network address has bits set beyond the prefix.
    pub fn add(&mut self, network: Ipv4Addr, prefix_len: u8, server: NodeId) -> Result<(), String> {
        if prefix_len > 32 {
            return Err(format!("prefix length {prefix_len} exceeds 32"));
        }
        let raw = u32::from(network);
        let mask = mask_of(prefix_len);
        if raw & !mask != 0 {
            return Err(format!("{network}/{prefix_len} has host bits set"));
        }
        self.prefixes.push(HomePrefix {
            network,
            prefix_len,
            server,
        });
        Ok(())
    }

    /// Number of configured prefixes.
    pub fn len(&self) -> usize {
        self.prefixes.len()
    }

    /// Returns true when no prefixes are configured.
    pub fn is_empty(&self) -> bool {
        self.prefixes.is_empty()
    }

    /// Resolves `ip` to its home server (longest matching prefix; ties by
    /// insertion order).
    pub fn resolve(&self, ip: Ipv4Addr) -> Option<NodeId> {
        let raw = u32::from(ip);
        self.prefixes
            .iter()
            .filter(|p| raw & mask_of(p.prefix_len) == u32::from(p.network))
            .max_by_key(|p| p.prefix_len)
            .map(|p| p.server)
    }
}

fn mask_of(prefix_len: u8) -> u32 {
    if prefix_len == 0 {
        0
    } else {
        u32::MAX << (32 - prefix_len as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longest_prefix_wins() {
        let mut r = HomeResolver::new();
        r.add(Ipv4Addr::new(0, 0, 0, 0), 0, NodeId::new(0)).unwrap();
        r.add(Ipv4Addr::new(150, 140, 0, 0), 16, NodeId::new(1))
            .unwrap();
        r.add(Ipv4Addr::new(150, 140, 8, 0), 24, NodeId::new(2))
            .unwrap();
        assert_eq!(
            r.resolve(Ipv4Addr::new(150, 140, 8, 1)),
            Some(NodeId::new(2))
        );
        assert_eq!(
            r.resolve(Ipv4Addr::new(150, 140, 1, 1)),
            Some(NodeId::new(1))
        );
        assert_eq!(r.resolve(Ipv4Addr::new(8, 8, 8, 8)), Some(NodeId::new(0)));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn no_default_route_means_unresolved() {
        let mut r = HomeResolver::new();
        r.add(Ipv4Addr::new(10, 0, 0, 0), 8, NodeId::new(1))
            .unwrap();
        assert_eq!(r.resolve(Ipv4Addr::new(11, 0, 0, 1)), None);
    }

    #[test]
    fn exact_host_prefix() {
        let mut r = HomeResolver::new();
        r.add(Ipv4Addr::new(10, 0, 0, 5), 32, NodeId::new(9))
            .unwrap();
        assert_eq!(r.resolve(Ipv4Addr::new(10, 0, 0, 5)), Some(NodeId::new(9)));
        assert_eq!(r.resolve(Ipv4Addr::new(10, 0, 0, 6)), None);
    }

    #[test]
    fn invalid_prefixes_rejected() {
        let mut r = HomeResolver::new();
        assert!(r
            .add(Ipv4Addr::new(10, 0, 0, 0), 33, NodeId::new(0))
            .is_err());
        assert!(r
            .add(Ipv4Addr::new(10, 0, 0, 1), 24, NodeId::new(0))
            .is_err());
        assert!(r.is_empty());
    }
}
