// lint-fixture-path: crates/lists/src/tracked.rs
// Every backend's reads run through the access core, so a panic here
// aborts a paged or remote query instead of surfacing its typed error.

pub struct Entry {
    pub piggyback: Option<f64>,
}

pub fn piggyback_on_last(entries: &mut [Entry], score: Option<f64>) {
    entries.last_mut().expect("entries checked non-empty").piggyback = score;
}
