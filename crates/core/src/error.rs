//! Error types for the VoD service core.

use std::error::Error;
use std::fmt;

use vod_net::{NetError, NodeId};
use vod_storage::video::VideoId;

/// Errors produced by server selection and the service loop.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// No server currently provides the requested title.
    NoCandidates(VideoId),
    /// None of the candidate servers is reachable from the home server.
    Unreachable {
        /// The requesting client's home server.
        home: NodeId,
        /// The candidates that were all unreachable.
        candidates: Vec<NodeId>,
    },
    /// The client's home node hosts no video server.
    NotAServer(NodeId),
    /// An underlying network-model error (bad weights, foreign ids, …).
    Net(NetError),
    /// An underlying database error.
    Db(vod_db::DbError),
    /// The service was constructed with an unusable configuration
    /// (no video servers, zero disks, seeded titles that do not fit, a
    /// malformed failure schedule, …).
    InvalidConfig(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NoCandidates(v) => write!(f, "no server provides video {v}"),
            CoreError::Unreachable { home, candidates } => write!(
                f,
                "no candidate server {candidates:?} is reachable from home {home}"
            ),
            CoreError::NotAServer(n) => write!(f, "node {n} hosts no video server"),
            CoreError::Net(e) => write!(f, "network model error: {e}"),
            CoreError::Db(e) => write!(f, "database error: {e}"),
            CoreError::InvalidConfig(why) => write!(f, "invalid service configuration: {why}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Net(e) => Some(e),
            CoreError::Db(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetError> for CoreError {
    fn from(e: NetError) -> Self {
        CoreError::Net(e)
    }
}

impl From<vod_db::DbError> for CoreError {
    fn from(e: vod_db::DbError) -> Self {
        CoreError::Db(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CoreError::NoCandidates(VideoId::new(3));
        assert!(e.to_string().contains("v3"));
        assert!(e.source().is_none());
        let n: CoreError = NetError::UnknownNode(NodeId::new(1)).into();
        assert!(n.source().is_some());
        let d: CoreError = vod_db::DbError::UnknownLink(vod_net::LinkId::new(2)).into();
        assert!(d.to_string().contains("database"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
