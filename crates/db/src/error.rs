//! Error types for the database module.

use std::error::Error;
use std::fmt;

use vod_net::{LinkId, NodeId};
use vod_storage::video::VideoId;

/// Errors produced by database operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DbError {
    /// No entry exists for this server node.
    UnknownServer(NodeId),
    /// No entry exists for this link.
    UnknownLink(LinkId),
    /// The video id is not in the service-wide library.
    UnknownVideo(VideoId),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::UnknownServer(id) => write!(f, "no server entry for node {id}"),
            DbError::UnknownLink(id) => write!(f, "no link entry for link {id}"),
            DbError::UnknownVideo(id) => write!(f, "video {id} is not in the library"),
        }
    }
}

impl Error for DbError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(DbError::UnknownServer(NodeId::new(2))
            .to_string()
            .contains("n2"));
        assert!(DbError::UnknownVideo(VideoId::new(4))
            .to_string()
            .contains("v4"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DbError>();
    }
}
