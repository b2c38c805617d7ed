//! Rule 1, `deterministic-iteration`: no hash-order iteration on the
//! access path.
//!
//! The reproduction's headline guarantee is that answers *and access
//! sequences* are bit-identical across backends — physical-layer
//! observers (the paged backend's LRU hit/miss counters, the latency
//! model's per-lane schedules) only agree run-to-run because every
//! algorithm touches the lists in a deterministic order. `std::collections
//! ::HashMap`/`HashSet` iteration order is seeded per map, so iterating
//! one on the access path silently varies the sequence (the PR 6 incident:
//! FA phase 2 and TPUT phase 3 resolved candidates in hash order — totals
//! were stable, the *sequence* was not, and only a bench gate caught it).
//!
//! Function-local, token-level analysis. A name is *hash-typed* when a
//! `let` statement binding it mentions a hash container type, or a
//! field/parameter declaration `name: …HashMap…` does. The hash
//! container types are `HashMap`, `HashSet` and the workspace's alias
//! `topk_lists::ItemMap` (a `HashMap` on a fixed hasher: its order does
//! not vary between runs, but it is still hash order, which changes with
//! every capacity and insertion history). Iteration over a
//! hash-typed name (`.iter()`, `.into_iter()`, `.keys()`, `.values()`,
//! `.iter_mut()`, `.values_mut()`, `.drain(…)`, or `for … in [&]name`)
//! is a violation unless the surrounding statement visibly restores
//! determinism:
//!
//! * it sorts (`sort*` anywhere on the statement chain), or
//! * it ends in an order-insensitive reduction (`min`/`max`/`sum`/
//!   `count`/`len`/`all`/`any`/`is_empty` — note `min_by_key` and friends
//!   are *not* recognised: their tie-break is iteration order), or
//! * it collects back into an unordered/ordered set or map (a hash
//!   container type or `BTreeMap`/`BTreeSet` on the chain), or
//! * the immediately following statement sorts the binding the statement
//!   produced (the idiomatic `let mut v: Vec<_> = map.into_iter()
//!   .collect(); v.sort…();` pair).
//!
//! `for … in name` loop headers have no room for any of those, so direct
//! hash iteration in a `for` loop is always a violation — which is
//! exactly the shape of the PR 6 bug.

use std::collections::BTreeSet;

use crate::lexer::{Token, TokenKind};
use crate::rules::{under_any, Finding, Rule};
use crate::source::SourceFile;

/// The access-path modules this rule patrols.
const SCOPE: &[&str] = &[
    "crates/core/src/algorithms/",
    "crates/core/src/standing.rs",
    // Statistics collection issues counted accesses, and the paged
    // backend's LRU counters observe their order.
    "crates/core/src/stats.rs",
    // The answer buffer keeps far item ids in a hashed set beside its
    // resolution-ordered list, which it moves into the run certificate.
    "crates/core/src/topk_buffer.rs",
    "crates/lists/src/",
    "crates/storage/src/",
    "crates/distributed/src/",
    "crates/trace/src/",
];

/// Hash container types, including workspace aliases of them.
const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "ItemMap"];

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
];

/// Identifiers that, somewhere on the statement chain, restore a
/// deterministic order (or make order unobservable).
const CHAIN_SUPPRESSORS: &[&str] = &[
    "min", "max", "sum", "count", "len", "all", "any", "is_empty", "BTreeMap", "BTreeSet",
];

pub struct DeterministicIteration;

impl Rule for DeterministicIteration {
    fn name(&self) -> &'static str {
        "deterministic-iteration"
    }

    fn description(&self) -> &'static str {
        "no HashMap/HashSet/ItemMap iteration on the access path unless visibly sorted or order-insensitive"
    }

    fn applies(&self, rel_path: &str) -> bool {
        under_any(rel_path, SCOPE)
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let toks = &file.tokens;
        let mut findings = Vec::new();

        // Names declared with a hash type anywhere in the file
        // (struct fields and fn parameters: `name: …HashMap<…>`).
        let mut hash_names: BTreeSet<String> = BTreeSet::new();
        for i in 0..toks.len() {
            if toks[i].kind != TokenKind::Ident {
                continue;
            }
            let Some(colon) = file.sig_next(i) else {
                continue;
            };
            if !toks[colon].is_punct(':') {
                continue;
            }
            // `::` paths are not declarations.
            if file.sig_next(colon).is_some_and(|j| toks[j].is_punct(':'))
                || file.sig_prev(i).is_some_and(|j| toks[j].is_punct(':'))
            {
                continue;
            }
            // Scan the type tokens (bounded window, stop at item/stmt
            // punctuation) for a hash container name.
            let is_hash = (colon + 1..(colon + 40).min(toks.len()))
                .map(|j| &toks[j])
                .take_while(|t| {
                    !(t.is_punct(',')
                        || t.is_punct(';')
                        || t.is_punct('{')
                        || t.is_punct('=')
                        || t.is_punct(')'))
                })
                .any(is_hash_type);
            if is_hash {
                hash_names.insert(toks[i].text.clone());
            }
        }

        // Forward pass: `let` statements update the binding table at their
        // end (so a rebinding statement's own RHS is checked against the
        // old table — `let v: Vec<_> = map.into_iter()…` iterates the old
        // hash binding), iteration patterns are checked as encountered.
        let mut live: BTreeSet<String> = hash_names.clone();
        let mut pending: Vec<(usize, String, bool)> = Vec::new();
        let mut i = 0usize;
        while i < toks.len() {
            pending.retain(|(apply_at, name, is_hash)| {
                if i >= *apply_at {
                    if *is_hash {
                        live.insert(name.clone());
                    } else {
                        live.remove(name);
                    }
                    false
                } else {
                    true
                }
            });
            let t = &toks[i];
            if t.is_comment() {
                i += 1;
                continue;
            }
            if file.is_test_line(t.line) {
                i += 1;
                continue;
            }

            // `let [mut] name … ;` — queue the binding-table update.
            if t.is_ident("let") {
                let mut j = file.sig_next(i);
                if let Some(jj) = j {
                    if toks[jj].is_ident("mut") {
                        j = file.sig_next(jj);
                    }
                }
                if let Some(jj) = j {
                    if toks[jj].kind == TokenKind::Ident {
                        let end = file.statement_end(i);
                        let is_hash = file.sig_range(i, end).any(is_hash_type);
                        pending.push((end + 1, toks[jj].text.clone(), is_hash));
                    }
                }
            }

            // Method-chain iteration: `[self.]name.<iter-method>(`.
            if t.kind == TokenKind::Ident && live.contains(&t.text) {
                let receiver_ok = match file.sig_prev(i) {
                    Some(p) if toks[p].is_punct('.') => {
                        file.sig_prev(p).is_some_and(|pp| toks[pp].is_ident("self"))
                    }
                    Some(p) => !toks[p].is_punct('.') && !toks[p].is_ident("fn"),
                    None => true,
                };
                if receiver_ok {
                    if let Some(dot) = file.sig_next(i) {
                        if toks[dot].is_punct('.') {
                            if let Some(m) = file.sig_next(dot) {
                                let is_iter = ITER_METHODS.iter().any(|im| toks[m].is_ident(im));
                                let is_call =
                                    file.sig_next(m).is_some_and(|c| toks[c].is_punct('('));
                                if is_iter && is_call && !self.suppressed(file, i, &t.text.clone())
                                {
                                    findings.push(self.finding(&t.text, toks[m].line));
                                }
                            }
                        }
                    }
                }
            }

            // `for … in [&][mut] [self.]name {` — always a violation.
            if t.is_ident("in") {
                if let Some(name_at) = for_loop_hash_iterable(file, i, &live) {
                    findings.push(self.finding(&toks[name_at].text, toks[name_at].line));
                }
            }

            i += 1;
        }
        findings
    }
}

impl DeterministicIteration {
    fn finding(&self, name: &str, line: u32) -> Finding {
        Finding {
            rule: self.name(),
            line,
            message: format!(
                "iteration over hash-ordered `{name}` on the access path; collect and sort \
                 (or reduce order-insensitively), or add `// lint:allow(deterministic-iteration) \
                 -- <why the order is not observable>`"
            ),
        }
    }

    /// Whether the statement containing token `i` (or, for a `let`, the
    /// immediately following statement) visibly restores determinism.
    fn suppressed(&self, file: &SourceFile, i: usize, _name: &str) -> bool {
        let toks = &file.tokens;
        let start = file.statement_start(i);
        let chain_end = chain_span_end(file, i);
        if file
            .sig_range(start, chain_end)
            .any(|t| t.kind == TokenKind::Ident && is_suppressor(&t.text))
        {
            return true;
        }
        let end = file.statement_end(i);
        // `let bound = …collect(); bound.sort…();` — the next statement
        // sorts the binding this statement produced. The statement's
        // first *significant* token must be `let` (a comment block above
        // the statement is skipped over).
        let first_sig = (start..=i)
            .find(|&j| !toks[j].is_comment())
            .unwrap_or(start);
        if toks[first_sig].is_ident("let") {
            let mut j = file.sig_next(first_sig);
            if let Some(jj) = j {
                if toks[jj].is_ident("mut") {
                    j = file.sig_next(jj);
                }
            }
            if let Some(bound) = j.filter(|&jj| toks[jj].kind == TokenKind::Ident) {
                let bound_name = &toks[bound].text;
                if end + 1 < toks.len() {
                    let next_end = file.statement_end(end + 1);
                    let mentions_binding = file
                        .sig_range(end + 1, next_end)
                        .any(|t| t.is_ident(bound_name));
                    let sorts = file
                        .sig_range(end + 1, next_end)
                        .any(|t| t.kind == TokenKind::Ident && t.text.starts_with("sort"));
                    if mentions_binding && sorts {
                        return true;
                    }
                }
            }
        }
        false
    }
}

fn is_suppressor(ident: &str) -> bool {
    ident.starts_with("sort") || CHAIN_SUPPRESSORS.contains(&ident) || HASH_TYPES.contains(&ident)
}

fn is_hash_type(token: &Token) -> bool {
    token.kind == TokenKind::Ident && HASH_TYPES.contains(&token.text.as_str())
}

/// End of the *expression chain* containing token `i`: the first `;` at
/// the token's depth, or a block-opening `{` at the same depth outside
/// any parentheses/brackets (so a `for`/`if` header's chain stops at the
/// body, while closure braces inside call arguments are skipped).
fn chain_span_end(file: &SourceFile, i: usize) -> usize {
    let toks = &file.tokens;
    let d = file.depth[i];
    let cap = (i + 600).min(toks.len());
    let mut grouping = 0i32;
    for (j, t) in toks.iter().enumerate().take(cap).skip(i + 1) {
        if t.is_punct('(') || t.is_punct('[') {
            grouping += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            grouping -= 1;
        } else if grouping <= 0
            && ((t.is_punct(';') && file.depth[j] <= d) || (t.is_punct('{') && file.depth[j] == d))
        {
            return j;
        }
    }
    cap.saturating_sub(1)
}

/// If the tokens after the `in` at index `i` are exactly
/// `[&][mut] [self.]name` followed by `{`, and `name` is hash-typed,
/// returns the index of `name`.
fn for_loop_hash_iterable(file: &SourceFile, i: usize, live: &BTreeSet<String>) -> Option<usize> {
    let toks = &file.tokens;
    let mut j = file.sig_next(i)?;
    if toks[j].is_punct('&') {
        j = file.sig_next(j)?;
    }
    if toks[j].is_ident("mut") {
        j = file.sig_next(j)?;
    }
    if toks[j].is_ident("self") {
        let dot = file.sig_next(j)?;
        if !toks[dot].is_punct('.') {
            return None;
        }
        j = file.sig_next(dot)?;
    }
    if toks[j].kind != TokenKind::Ident || !live.contains(&toks[j].text) {
        return None;
    }
    let body = file.sig_next(j)?;
    toks[body].is_punct('{').then_some(j)
}
