//! Rule 2, `no-wall-clock`: the simulation must not read the wall clock.
//!
//! Every cost the reproduction reports — sorted/random accesses, rounds,
//! the latency model's virtual clock — is *simulated* so that runs are
//! reproducible and platform-independent. `std::time::Instant`,
//! `SystemTime` and `.elapsed()` reintroduce real time; a measurement that
//! sneaks onto a decision path (timeouts, adaptive batching) silently
//! breaks cross-run determinism. Wall time is legitimate in exactly three
//! places: the bench harness's human-facing wall-time report, the
//! end-to-end benchmark under `perfbench/` (whose metrics *are* wall
//! time), and the `RunStats::elapsed` plumbing. This confinement also
//! covers tracing: `topk_trace::TraceClock` implementations that read
//! real time (the `WallClock` feeding `TREND_*` files) live under
//! `crates/bench/`; the trace crate itself ships only the logical
//! clock, keeping its exports byte-deterministic.
//!
//! Flags any `Instant` or `SystemTime` identifier, and any `.elapsed()`
//! call, outside the allowlisted paths and outside test code.

use crate::lexer::TokenKind;
use crate::rules::{under_any, Finding, Rule};
use crate::source::SourceFile;

/// Paths where wall-clock use is expected: the bench harness reports
/// human-facing wall time, the end-to-end benchmark times whole queries
/// by design, and the vendored stand-ins mimic external crates' APIs.
const ALLOWED_PATHS: &[&str] = &["crates/bench/", "perfbench/", "vendor/"];

pub struct NoWallClock;

impl Rule for NoWallClock {
    fn name(&self) -> &'static str {
        "no-wall-clock"
    }

    fn description(&self) -> &'static str {
        "no Instant/SystemTime/.elapsed() outside the bench harness; simulated costs only"
    }

    fn applies(&self, rel_path: &str) -> bool {
        !under_any(rel_path, ALLOWED_PATHS)
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let toks = &file.tokens;
        let mut findings = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokenKind::Ident || file.is_test_line(t.line) {
                continue;
            }
            if t.is_ident("Instant") || t.is_ident("SystemTime") {
                findings.push(Finding {
                    rule: self.name(),
                    line: t.line,
                    message: format!(
                        "`{}` reads the wall clock; report simulated costs instead, or add \
                         `// lint:allow(no-wall-clock) -- <why real time is required here>`",
                        t.text
                    ),
                });
            } else if t.is_ident("elapsed") {
                let after_dot = file.sig_prev(i).is_some_and(|p| toks[p].is_punct('.'));
                let is_call = file.sig_next(i).is_some_and(|n| toks[n].is_punct('('));
                if after_dot && is_call {
                    findings.push(Finding {
                        rule: self.name(),
                        line: t.line,
                        message: ".elapsed() reads the wall clock; route timing through the \
                                  bench harness, or add `// lint:allow(no-wall-clock) -- <why>`"
                            .to_string(),
                    });
                }
            }
        }
        findings
    }
}
