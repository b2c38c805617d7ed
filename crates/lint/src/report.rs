//! Report assembly and rendering: human-readable text, a deterministic
//! machine-readable JSON document (schema in `crates/lint/SCHEMA.md`),
//! and a strict verifier for that document so CI fails on schema drift.
//!
//! The document is written and re-parsed with the workspace's one JSON
//! codec, [`topk_trace::json`]; this module owns only the layout and the
//! checks. The verifier is deliberately rigid: it checks key *order* as
//! well as presence and types, so any change to the emitted schema
//! breaks `--verify-json` until SCHEMA.md and the version number are
//! updated in the same commit.

use topk_trace::json::{self, Value};

use crate::rules::{rule_names, MALFORMED_ALLOW};

/// The JSON schema version emitted and accepted. Bump together with
/// `SCHEMA.md` whenever the document shape changes.
pub const SCHEMA_VERSION: u64 = 1;

/// One finding, tagged with the file it was found in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportFinding {
    /// Rule name (or `malformed-allow`).
    pub rule: String,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable message.
    pub message: String,
}

/// One well-formed `lint:allow` directive, for audit trails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportAllow {
    /// Rules the directive suppresses.
    pub rules: Vec<String>,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line of the directive comment.
    pub line: u32,
    /// The mandatory justification.
    pub reason: String,
}

/// A full lint run over a set of files.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Findings that survived allow filtering.
    pub findings: Vec<ReportFinding>,
    /// Well-formed allow directives encountered (suppressing or not).
    pub allows: Vec<ReportAllow>,
}

impl Report {
    /// Sorts everything into the canonical (deterministic) order.
    pub fn finish(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
        self.allows
            .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    }

    /// Human-readable rendering, one `file:line: [rule] message` per
    /// finding plus a summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n",
                f.file, f.line, f.rule, f.message
            ));
        }
        out.push_str(&format!(
            "topk-lint: {} file(s) scanned, {} finding(s), {} allow(s)\n",
            self.files_scanned,
            self.findings.len(),
            self.allows.len()
        ));
        out
    }

    /// Deterministic JSON rendering (see SCHEMA.md).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
        out.push_str("  \"rules\": [");
        for (i, r) in rule_names().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json::string(r));
        }
        out.push_str("],\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            out.push_str(&format!(
                "{{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
                json::string(&f.rule),
                json::string(&f.file),
                f.line,
                json::string(&f.message)
            ));
        }
        out.push_str(if self.findings.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"allows\": [");
        for (i, a) in self.allows.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            let rules: Vec<String> = a.rules.iter().map(|r| json::string(r)).collect();
            out.push_str(&format!(
                "{{\"rules\": [{}], \"file\": {}, \"line\": {}, \"reason\": {}}}",
                rules.join(", "),
                json::string(&a.file),
                a.line,
                json::string(&a.reason)
            ));
        }
        out.push_str(if self.allows.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push_str("}\n");
        out
    }
}

// ---------------------------------------------------------------------
// Strict verification of an emitted document.

/// Parses `text` and checks it against the committed schema, including
/// key order, value types, known rule names and canonical sort order.
/// Returns a description of the first deviation found.
pub fn verify_json(text: &str) -> Result<(), String> {
    let root = json::parse(text)?;
    let top = root.with_keys(
        &[
            "schema_version",
            "rules",
            "files_scanned",
            "findings",
            "allows",
        ],
        "top level",
    )?;

    let version = top[0].1.as_u64("schema_version")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "schema_version must be {SCHEMA_VERSION}, got {version}"
        ));
    }

    let known = rule_names();
    let listed = top[1]
        .1
        .as_array("rules")?
        .iter()
        .map(|r| r.as_str("`rules` entry"))
        .collect::<Result<Vec<_>, _>>()?;
    if listed != known {
        return Err(format!(
            "`rules` is {listed:?}, this binary enforces {known:?}"
        ));
    }

    top[2].1.as_u64("files_scanned")?;

    let mut prev_key = None;
    for (i, f) in top[3].1.as_array("findings")?.iter().enumerate() {
        let key = verify_finding(f, &known).map_err(|e| format!("findings[{i}]: {e}"))?;
        if prev_key.is_some_and(|p| p > key) {
            return Err(format!(
                "findings[{i}] out of canonical (file, line, rule) order"
            ));
        }
        prev_key = Some(key);
    }

    let mut prev_key = None;
    for (i, a) in top[4].1.as_array("allows")?.iter().enumerate() {
        let key = verify_allow(a, &known).map_err(|e| format!("allows[{i}]: {e}"))?;
        if prev_key.is_some_and(|p| p > key) {
            return Err(format!("allows[{i}] out of canonical (file, line) order"));
        }
        prev_key = Some(key);
    }
    Ok(())
}

/// Checks one finding; returns its `(file, line, rule)` sort key.
fn verify_finding<'a>(f: &'a Value, known: &[&str]) -> Result<(&'a str, u64, &'a str), String> {
    let obj = f.with_keys(&["rule", "file", "line", "message"], "finding")?;
    let rule = obj[0].1.as_str("rule")?;
    if !known.contains(&rule) && rule != MALFORMED_ALLOW {
        return Err(format!("unknown rule `{rule}`"));
    }
    let file = obj[1].1.as_str("file")?;
    let line = line_number(&obj[2].1)?;
    obj[3].1.as_str("message")?;
    Ok((file, line, rule))
}

/// Checks one allow; returns its `(file, line)` sort key.
fn verify_allow<'a>(a: &'a Value, known: &[&str]) -> Result<(&'a str, u64), String> {
    let obj = a.with_keys(&["rules", "file", "line", "reason"], "allow")?;
    for r in obj[0].1.as_array("rules")? {
        let name = r.as_str("rules entry")?;
        if !known.contains(&name) {
            return Err(format!("unknown rule `{name}` in allow"));
        }
    }
    let file = obj[1].1.as_str("file")?;
    let line = line_number(&obj[2].1)?;
    obj[3].1.as_str("reason")?;
    Ok((file, line))
}

fn line_number(v: &Value) -> Result<u64, String> {
    match v.as_u64("line")? {
        0 => Err("`line` is not a positive integer: 0".to_string()),
        line => Ok(line),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report {
            files_scanned: 2,
            findings: vec![
                ReportFinding {
                    rule: "no-wall-clock".to_string(),
                    file: "b.rs".to_string(),
                    line: 3,
                    message: "uses \"Instant\"".to_string(),
                },
                ReportFinding {
                    rule: "fail-stop".to_string(),
                    file: "a.rs".to_string(),
                    line: 9,
                    message: "unwrap".to_string(),
                },
            ],
            allows: vec![ReportAllow {
                rules: vec!["fail-stop".to_string()],
                file: "a.rs".to_string(),
                line: 1,
                reason: "const-width slice".to_string(),
            }],
        };
        r.finish();
        r
    }

    #[test]
    fn finish_orders_findings_by_file_line_rule() {
        let r = sample();
        assert_eq!(r.findings[0].file, "a.rs");
        assert_eq!(r.findings[1].file, "b.rs");
    }

    #[test]
    fn emitted_json_passes_strict_verification() {
        let r = sample();
        verify_json(&r.render_json()).expect("own output must verify");
    }

    #[test]
    fn empty_report_json_passes_verification() {
        let mut r = Report::default();
        r.finish();
        verify_json(&r.render_json()).expect("empty output must verify");
    }

    #[test]
    fn verification_rejects_reordered_keys() {
        let r = sample();
        let drifted = r.render_json().replace(
            "\"rule\": \"fail-stop\", \"file\": \"a.rs\"",
            "\"file\": \"a.rs\", \"rule\": \"fail-stop\"",
        );
        assert!(verify_json(&drifted).is_err(), "key order drift must fail");
    }

    #[test]
    fn verification_rejects_wrong_schema_version() {
        let r = sample();
        let drifted = r
            .render_json()
            .replace("\"schema_version\": 1", "\"schema_version\": 2");
        assert!(verify_json(&drifted).is_err());
    }

    #[test]
    fn verification_rejects_unknown_rule_names() {
        let r = sample();
        let drifted = r.render_json().replace("fail-stop", "fail-sotp");
        assert!(verify_json(&drifted).is_err());
    }

    #[test]
    fn verification_rejects_out_of_order_findings() {
        let r = sample();
        let json = r.render_json();
        // Swap the two finding objects textually.
        let a =
            "{\"rule\": \"fail-stop\", \"file\": \"a.rs\", \"line\": 9, \"message\": \"unwrap\"}";
        let b = "{\"rule\": \"no-wall-clock\", \"file\": \"b.rs\", \"line\": 3, \"message\": \"uses \\\"Instant\\\"\"}";
        let swapped = json.replace(a, "@@A@@").replace(b, a).replace("@@A@@", b);
        assert_ne!(json, swapped, "test must actually swap the entries");
        assert!(verify_json(&swapped).is_err());
    }

    #[test]
    fn verification_rejects_out_of_order_allows() {
        let mut r = sample();
        r.allows.push(ReportAllow {
            rules: vec!["no-wall-clock".to_string()],
            file: "b.rs".to_string(),
            line: 2,
            reason: "bench timing".to_string(),
        });
        r.finish();
        let json = r.render_json();
        verify_json(&json).expect("sorted allows verify");
        // Swap the two allow objects textually.
        let a = "{\"rules\": [\"fail-stop\"], \"file\": \"a.rs\", \"line\": 1, \"reason\": \"const-width slice\"}";
        let b = "{\"rules\": [\"no-wall-clock\"], \"file\": \"b.rs\", \"line\": 2, \"reason\": \"bench timing\"}";
        let swapped = json.replace(a, "@@A@@").replace(b, a).replace("@@A@@", b);
        assert_ne!(json, swapped, "test must actually swap the entries");
        assert!(verify_json(&swapped)
            .unwrap_err()
            .contains("allows[1] out of canonical (file, line) order"));
    }
}
