//! topk-lint: first-party static analysis for the bpa-topk workspace.
//!
//! Enforces the invariants this reproduction's correctness story leans
//! on but `rustc`/`clippy` cannot see — cross-run determinism of the
//! *access sequence*, simulated (never wall-clock) costs, confinement of
//! `unsafe`, the storage layer's fail-stop contract, guard discipline
//! around the pool's blocking barrier, and the standing-query epoch
//! contract. See the README's "Static analysis" section for the rule
//! table and `crates/lint/SCHEMA.md` for the `--json` output schema.
//!
//! Like `vendor/`'s stand-ins for rand/proptest, this crate is
//! first-party and std-only because the workspace builds fully offline:
//! no `syn`, no `proc-macro2` — a hand-rolled, error-tolerant token
//! lexer ([`lexer`]) is enough for the conservative, token-level rules
//! in [`rules`].
//!
//! Findings are suppressed in source with
//! `// lint:allow(<rule>) -- <justification>`; the justification is
//! mandatory and audited (a bare allow is itself a finding).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;
pub mod walk;

use std::fs;
use std::io;
use std::path::Path;

use report::{Report, ReportAllow, ReportFinding};
use source::SourceFile;

/// Lints one already-loaded file. Returns the surviving findings (the
/// building block for fixture tests).
pub fn lint_source(rel_path: &str, text: &str) -> Vec<rules::Finding> {
    let file = SourceFile::new(rel_path.to_string(), text.to_string());
    rules::check_file(&file)
}

/// Lints every given file (paths relative to `root`) and assembles the
/// canonical [`Report`].
pub fn lint_files(root: &Path, rel_paths: &[String]) -> io::Result<Report> {
    let mut report = Report::default();
    for rel in rel_paths {
        let text = fs::read_to_string(root.join(rel))?;
        let file = SourceFile::new(rel.clone(), text);
        for f in rules::check_file(&file) {
            report.findings.push(ReportFinding {
                rule: f.rule.to_string(),
                file: rel.clone(),
                line: f.line,
                message: f.message,
            });
        }
        for a in &file.allows {
            if let Some(reason) = &a.reason {
                report.allows.push(ReportAllow {
                    rules: a.rules.clone(),
                    file: rel.clone(),
                    line: a.comment_line,
                    reason: reason.clone(),
                });
            }
        }
        report.files_scanned += 1;
    }
    report.finish();
    Ok(report)
}
