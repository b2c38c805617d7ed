//! Rule 4, `fail-stop`: the access core, the storage layer and the
//! distributed layers fail through the failure contract, not through
//! panics.
//!
//! PR 4 established the failure model: a source that dies raises
//! `SourceError` and `run_on` (or statistics collection) converts the
//! panic into `Err` through one shared helper in `topk-core` — the only
//! place a source panic is caught.
//! A stray `.unwrap()` in the access core, the paged store or the
//! distributed source turns an injected I/O fault into an unclassified abort that the
//! fault-injection tests cannot distinguish from a bug. In the patrolled
//! modules, `.unwrap()`, `.expect(…)` and `panic!` are violations outside
//! tests; real failures route through `SourceError::raise()` or return
//! `io::Result`, and genuinely unreachable arms carry an allow with the
//! invariant that makes them unreachable.

use crate::rules::{under_any, Finding, Rule};
use crate::source::SourceFile;

/// Modules bound to the fail-stop contract: the access core every
/// backend's reads run through, the sharded shim, the paged stores, and the
/// distributed owner, source and runtime layers.
const SCOPE: &[&str] = &[
    "crates/lists/src/tracked.rs",
    "crates/lists/src/sharded.rs",
    "crates/storage/src/",
    "crates/distributed/src/owner.rs",
    "crates/distributed/src/source.rs",
    "crates/distributed/src/runtime.rs",
    "crates/distributed/src/fault.rs",
];

pub struct FailStop;

impl Rule for FailStop {
    fn name(&self) -> &'static str {
        "fail-stop"
    }

    fn description(&self) -> &'static str {
        "no unwrap/expect/panic! in the access core, storage or the distributed layers; use SourceError::raise()"
    }

    fn applies(&self, rel_path: &str) -> bool {
        under_any(rel_path, SCOPE)
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let toks = &file.tokens;
        let mut findings = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            if file.is_test_line(t.line) {
                continue;
            }
            let is_method_call = |name: &str| {
                t.is_ident(name)
                    && file.sig_prev(i).is_some_and(|p| toks[p].is_punct('.'))
                    && file.sig_next(i).is_some_and(|n| toks[n].is_punct('('))
            };
            let flagged = if is_method_call("unwrap") {
                Some(".unwrap()")
            } else if is_method_call("expect") {
                Some(".expect(…)")
            } else if t.is_ident("panic") && file.sig_next(i).is_some_and(|n| toks[n].is_punct('!'))
            {
                Some("panic!")
            } else {
                None
            };
            if let Some(what) = flagged {
                findings.push(Finding {
                    rule: self.name(),
                    line: t.line,
                    message: format!(
                        "{what} in a fail-stop module; raise `SourceError` or return an error, \
                         or add `// lint:allow(fail-stop) -- <the invariant that makes this \
                         unreachable>`"
                    ),
                });
            }
        }
        findings
    }
}
