// lint-fixture-path: crates/core/src/topk_buffer.rs
// Draining an alias-typed map into a `Vec` for a constructor, with no
// sort on the way: the pairs arrive in hash order. No constructor is
// trusted to sort them, `RunCertificate::new` included.

use topk_lists::{ItemMap, Score};

use crate::result::RunCertificate;

pub fn certify(bounds: Option<Vec<Score>>, offered: ItemMap<Score>) -> RunCertificate {
    RunCertificate::new(bounds, offered.into_iter().collect())
}
