//! Integration test: the access split of the paper's web interface — a
//! full-access module for users and a limited-access module "to which only
//! the administrators of the service can have access".

use vod_db::{AdminCredential, Database};
use vod_integration_tests::grnet;
use vod_storage::video::VideoLibrary;

#[test]
fn users_cannot_reach_the_limited_access_module() {
    let g = grnet();
    let mut db = Database::from_topology(g.topology(), VideoLibrary::new());
    // A random user credential is rejected; the type system already
    // prevents FullAccess from exposing link state, this checks the
    // credential gate.
    assert!(db
        .limited_access(&AdminCredential::new("not-an-admin"))
        .is_err());
}
