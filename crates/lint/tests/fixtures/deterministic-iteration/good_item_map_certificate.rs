// lint-fixture-path: crates/core/src/topk_buffer.rs
// Draining an alias-typed map into `RunCertificate::new`, which sorts its
// resolved pairs by item id, restores a deterministic order.

use topk_lists::{ItemMap, Score};

use crate::result::RunCertificate;

pub fn certify(bounds: Option<Vec<Score>>, offered: ItemMap<Score>) -> RunCertificate {
    RunCertificate::new(bounds, offered.into_iter().collect())
}
