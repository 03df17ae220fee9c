//! `parmac-lint`: a multi-pass workspace concurrency-invariant analyzer.
//!
//! `clippy` cannot see the invariants the serving substrate
//! (`crates/parmac-cluster/src/server/`) rests on: detached actor threads
//! must never panic, every blocking wait must be deadline- or
//! heartbeat-bounded, long-lived threads must come from the sanctioned named
//! spawn sites, bitwise-deterministic training paths must not read wall
//! clocks, mutex guards must not be held across blocking work, and the wire
//! codecs the ProcessBackend will live on must be complete and round-trip
//! tested. This crate is a hand-rolled Rust analyzer (offline — no syn, no
//! crates.io) that enforces those rules with `file:line` diagnostics.
//!
//! # Passes
//!
//! 1. **Lex + parse** ([`lexer`], [`parse`]): tokenise each file, then one
//!    brace-matching walk extracts `fn` / `impl` / `enum` items with spans,
//!    call sites, `spawn(...)` ranges, and the region line-sets.
//! 2. **Propagate** ([`graph`]): actor-region membership propagates
//!    transitively through the workspace call graph (a helper reachable only
//!    from actor regions inherits the actor rules), and functions are
//!    classified *blocking* via summaries (direct blocking ops, propagated
//!    caller-ward to a fixpoint).
//! 3. **Check** ([`rules`], [`wiresym`]): token rules driven by the
//!    propagated regions, the `blocking-while-locked` guard dataflow, and
//!    the wire-codec symmetry pass.
//!
//! # Rules
//!
//! | id | scope | invariant |
//! |----|-------|-----------|
//! | `actor-panic` | actor regions (named, fenced, or inherited), all crates | no `unwrap()` / `expect()` / `panic!` / `unreachable!` / `todo!` / `unimplemented!` — a panic kills a detached serving thread silently |
//! | `unbounded-recv` | `parmac-cluster`, plus inherited actor regions anywhere | no bare `.recv()`: every blocking wait must be deadline- or heartbeat-bounded |
//! | `raw-spawn` | all crates | no raw `thread::spawn`: named `thread::Builder` or scoped `thread::scope` only |
//! | `wallclock-determinism` | `parmac-core`, `parmac-retrieval` | no `Instant::now` / `SystemTime` in the bitwise-deterministic paths |
//! | `blocking-while-locked` | all crates | no blocking operation — direct (`recv` / `recv_timeout` / `send` / `join` / `wait` / `sleep`) or a call to a blocking-classified function — while a mutex guard is live, including `match` / `if let` / `for` scrutinee guards (edition-2021 temporary extension) |
//! | `wire-symmetry` | all crates | every `encode_wire` has `decode_wire`, every `// lint: wire-protocol` enum variant is codec'd / tag-only / local-only, every codec'd workspace type is named in a round-trip test |
//! | `stale-suppression` | all crates | an allowlist entry or inline `// lint: allow(...)` that suppresses nothing is itself reported |
//!
//! # Regions and escape hatches
//!
//! Actor regions are the bodies of functions named `*_actor` / `*_loop`,
//! spans fenced by `// lint: actor-region` … `// lint: end-actor-region`,
//! and — new in the transitive pass — bodies of functions whose every
//! non-test call site is in actor context. `// lint: non-actor` opts a
//! function out of inheritance; `// lint: blocking` / `// lint:
//! non-blocking` override the blocking classification; `// lint: wire(T)` /
//! `// lint: wire(tag-only)` / `// lint: local-only` declare a protocol
//! variant's wire form.
//!
//! # Exemptions
//!
//! * Test code — `#[cfg(test)]` items and `#[test]` functions — is exempt
//!   from every rule, as are `tests/`, `benches/`, `examples/` and `src/bin/`
//!   targets (only library sources are swept).
//! * An inline annotation `// lint: allow(rule-a, rule-b) — reason` covers
//!   its own line (trailing) or the next code line (standalone — attribute
//!   lines are skipped, so an allow above `#[inline]` reaches the item).
//! * The allowlist file (`parmac-lint.allow` at the workspace root) holds
//!   path-prefix suppressions: one `rule path-prefix` pair per line. An
//!   entry or inline allow that suppresses nothing is reported stale.

use std::collections::HashSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

mod graph;
mod lexer;
mod parse;
mod rules;
mod wiresym;

pub(crate) const RULE_ACTOR_PANIC: &str = "actor-panic";
pub(crate) const RULE_UNBOUNDED_RECV: &str = "unbounded-recv";
pub(crate) const RULE_RAW_SPAWN: &str = "raw-spawn";
pub(crate) const RULE_WALLCLOCK: &str = "wallclock-determinism";
pub(crate) const RULE_BLOCKING_WHILE_LOCKED: &str = "blocking-while-locked";
pub(crate) const RULE_WIRE_SYMMETRY: &str = "wire-symmetry";
pub(crate) const RULE_STALE: &str = "stale-suppression";

/// Every rule the analyzer knows, by stable kebab-case id.
pub const RULES: [&str; 7] = [
    RULE_ACTOR_PANIC,
    RULE_UNBOUNDED_RECV,
    RULE_RAW_SPAWN,
    RULE_WALLCLOCK,
    RULE_BLOCKING_WHILE_LOCKED,
    RULE_WIRE_SYMMETRY,
    RULE_STALE,
];

/// One diagnostic: a rule violation at a file:line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (one of [`RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

// ---------------------------------------------------------------------------
// Allowlist
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct AllowEntry {
    rule: String,
    prefix: String,
    /// 1-based line in `parmac-lint.allow`, for stale-entry diagnostics.
    line: u32,
}

/// Path-prefix suppressions loaded from the workspace allowlist file.
#[derive(Debug, Default, Clone)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parses the `rule path-prefix` line format (`#` comments, blank lines
    /// ignored). Unknown rule names are kept verbatim so a stale entry is
    /// visible in review rather than silently dead.
    pub fn parse(text: &str) -> Allowlist {
        let mut entries = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            if let (Some(rule), Some(prefix)) = (parts.next(), parts.next()) {
                entries.push(AllowEntry {
                    rule: rule.to_string(),
                    prefix: prefix.to_string(),
                    line: i as u32 + 1,
                });
            }
        }
        Allowlist { entries }
    }

    /// Loads `parmac-lint.allow` from `root`, or an empty list if absent.
    pub fn load(root: &Path) -> Allowlist {
        match fs::read_to_string(root.join("parmac-lint.allow")) {
            Ok(text) => Allowlist::parse(&text),
            Err(_) => Allowlist::default(),
        }
    }

    /// Index of the first entry suppressing `(rule, rel_path)`, if any.
    fn match_entry(&self, rule: &str, rel_path: &str) -> Option<usize> {
        self.entries.iter().position(|e| {
            (e.rule == "*" || e.rule == rule) && rel_path.starts_with(e.prefix.as_str())
        })
    }
}

// ---------------------------------------------------------------------------
// Analysis driver
// ---------------------------------------------------------------------------

/// Lints one file's source. `rel_path` must be workspace-relative with
/// forward slashes — it decides which crate-scoped rules apply. The file is
/// treated as a one-file workspace, so the transitive passes see only its
/// own call graph (exactly what the fixture tests want).
pub fn lint_source(rel_path: &str, source: &str, allowlist: &Allowlist) -> Vec<Finding> {
    let files = vec![(rel_path.to_string(), source.to_string())];
    lint_files(&files, allowlist)
}

/// Lints a set of in-memory files as one workspace: all passes, allowlist
/// applied, inline stale-suppression reported. Findings sorted by path then
/// line.
pub fn lint_files(files: &[(String, String)], allowlist: &Allowlist) -> Vec<Finding> {
    lint_files_inner(files, allowlist).0
}

fn lint_files_inner(
    files: &[(String, String)],
    allowlist: &Allowlist,
) -> (Vec<Finding>, HashSet<usize>) {
    let models: Vec<parse::FileModel> = files
        .iter()
        .map(|(_, src)| parse::parse_file(src).0)
        .collect();
    let ws = graph::analyze(&models);
    let rels: Vec<String> = files.iter().map(|(r, _)| r.clone()).collect();

    let mut reporters: Vec<rules::Reporter> =
        models.iter().map(|_| rules::Reporter::default()).collect();
    for (fi, m) in models.iter().enumerate() {
        let ctx = rules::FileCtx {
            rel: &rels[fi],
            krate: crate_of(&rels[fi]),
            fi,
            m,
            ws: &ws,
        };
        rules::run_token_rules(&ctx, &models, &mut reporters[fi]);
    }
    wiresym::run(&models, &rels, &mut reporters);

    // Inline allows that suppressed nothing are themselves findings.
    let mut findings = Vec::new();
    for (fi, m) in models.iter().enumerate() {
        let r = &mut reporters[fi];
        for (i, (line, _, rule_names)) in m.allows.iter().enumerate() {
            if !r.used_allows.contains(&i) {
                r.findings.push(Finding {
                    rule: RULE_STALE,
                    path: rels[fi].clone(),
                    line: *line,
                    message: format!(
                        "inline `lint: allow({})` suppresses nothing — the code it covered \
                         moved or was fixed; remove the annotation",
                        rule_names.join(", ")
                    ),
                });
            }
        }
        findings.append(&mut r.findings);
    }

    let mut used_entries = HashSet::new();
    findings.retain(|f| match allowlist.match_entry(f.rule, &f.path) {
        Some(i) => {
            used_entries.insert(i);
            false
        }
        None => true,
    });
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    (findings, used_entries)
}

/// `crates/<name>/...` → `<name>`; the facade's own `src/` → `parmac`.
fn crate_of(rel_path: &str) -> Option<&str> {
    if let Some(rest) = rel_path.strip_prefix("crates/") {
        rest.split('/').next()
    } else if rel_path.starts_with("src/") {
        Some("parmac")
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Output formats
// ---------------------------------------------------------------------------

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Machine-readable output: a JSON array of
/// `{"rule": …, "path": …, "line": …, "message": …}` objects.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            json_escape(f.rule),
            json_escape(&f.path),
            f.line,
            json_escape(&f.message)
        ));
    }
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

/// GitHub Actions workflow-command rendering of the same diagnostics: one
/// `::error file=…,line=…,title=…::message` annotation per finding.
pub fn render_github(findings: &[Finding]) -> String {
    let escape = |s: &str| {
        s.replace('%', "%25")
            .replace('\r', "%0D")
            .replace('\n', "%0A")
    };
    findings
        .iter()
        .map(|f| {
            format!(
                "::error file={},line={},title=parmac-lint/{}::{}\n",
                f.path,
                f.line,
                f.rule,
                escape(&f.message)
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Workspace driver
// ---------------------------------------------------------------------------

/// Library sources the sweep covers: `crates/*/src/**.rs` (excluding
/// `src/bin/`) plus the facade's own `src/`. Tests, benches, examples and
/// binaries are exempt by construction; `vendor/` and `target/` are never
/// visited.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    let facade_src = root.join("src");
    if facade_src.is_dir() {
        collect_rs(&facade_src, &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            // `src/bin/` targets are runnable tools, not library code.
            if path.file_name().is_some_and(|n| n == "bin") {
                continue;
            }
            collect_rs(&path, files)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Lints the whole workspace rooted at `root`, loading `parmac-lint.allow`
/// from there. All passes run over the full file set (the call graph is
/// workspace-wide), allowlist entries that suppress nothing are reported
/// stale, and findings are sorted by path then line.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let allowlist = Allowlist::load(root);
    let mut files = Vec::new();
    for path in workspace_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = fs::read_to_string(&path)?;
        files.push((rel, source));
    }
    let (mut findings, used_entries) = lint_files_inner(&files, &allowlist);
    for (i, entry) in allowlist.entries.iter().enumerate() {
        if !used_entries.contains(&i) {
            findings.push(Finding {
                rule: RULE_STALE,
                path: "parmac-lint.allow".to_string(),
                line: entry.line,
                message: format!(
                    "allowlist entry `{} {}` suppresses nothing — the findings it covered \
                     were fixed or the path moved; delete the entry",
                    entry.rule, entry.prefix
                ),
            });
        }
    }
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(findings)
}

/// Ascends from `start` to the first directory whose `Cargo.toml` declares
/// `[workspace]` — how the CLI finds the root when run via `cargo run`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_cluster(src: &str) -> Vec<Finding> {
        lint_source("crates/parmac-cluster/src/x.rs", src, &Allowlist::default())
    }

    #[test]
    fn literals_and_comments_never_fire() {
        let src = r###"
fn f() {
    let s = "rx.recv() // not code";
    let r = r#"rx.recv()"#;
    // rx.recv() in a comment
    /* rx.recv() in /* a nested */ block comment */
    let c = 'r';
    let lifetime: &'static str = s;
    let _ = (s, r, c, lifetime);
}
"###;
        assert!(lint_cluster(src).is_empty(), "{:?}", lint_cluster(src));
    }

    #[test]
    fn recv_fires_and_recv_timeout_does_not() {
        let src = "fn f(rx: &Receiver<u32>) { let _ = rx.recv(); let _ = rx.recv_timeout(t); }";
        let findings = lint_cluster(src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "unbounded-recv");
        // Same source outside parmac-cluster: clean.
        assert!(lint_source("crates/parmac-hash/src/x.rs", src, &Allowlist::default()).is_empty());
    }

    #[test]
    fn actor_region_by_name_fence_and_test_exemption() {
        let src = r#"
fn serving_actor(x: Option<u32>) {
    let _ = x.unwrap();
}
fn helper(x: Option<u32>) -> u32 {
    x.unwrap()
}
fn fenced(x: Option<u32>) {
    // lint: actor-region
    let _ = x.unwrap();
    // lint: end-actor-region
    let _ = x.unwrap();
}
#[cfg(test)]
mod tests {
    fn in_test_actor(x: Option<u32>) {
        let _ = x.unwrap();
    }
}
"#;
        let findings = lint_cluster(src);
        let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![3, 10], "{findings:?}");
        assert!(findings.iter().all(|f| f.rule == "actor-panic"));
    }

    #[test]
    fn transitive_actor_inheritance_fires_and_mixed_callers_do_not() {
        let src = r#"
fn serving_actor(x: Option<u32>) {
    deep_helper(x);
    shared(x);
    opted_out(x);
}
fn deep_helper(x: Option<u32>) -> u32 {
    x.unwrap()
}
fn shared(x: Option<u32>) -> u32 {
    x.unwrap()
}
// lint: non-actor
fn opted_out(x: Option<u32>) -> u32 {
    x.unwrap()
}
fn plain_entry(x: Option<u32>) {
    shared(x);
}
"#;
        let findings = lint_cluster(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 8);
        assert!(findings[0].message.contains("deep_helper"));
        assert!(findings[0].message.contains("serving_actor"));
    }

    #[test]
    fn transitive_inheritance_survives_recursion() {
        // A mutually-recursive pair reachable only from the actor loop stays
        // inherited; one plain call site demotes the whole component.
        let src = r#"
fn pump_loop(x: Option<u32>) {
    ping(x, 0);
}
fn ping(x: Option<u32>, n: u32) -> u32 {
    if n > 0 { pong(x, n - 1) } else { x.unwrap() }
}
fn pong(x: Option<u32>, n: u32) -> u32 {
    ping(x, n)
}
"#;
        let findings = lint_cluster(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 6);
    }

    #[test]
    fn inline_allow_suppresses_on_same_or_previous_line() {
        let src = r#"
fn serving_actor(x: Option<u32>) {
    // lint: allow(actor-panic) — invariant: always Some here
    let _ = x.unwrap();
    let _ = x.unwrap(); // lint: allow(actor-panic)
    let _ = x.unwrap();
}
"#;
        let findings = lint_cluster(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 6);
    }

    #[test]
    fn standalone_allow_skips_attribute_lines() {
        // The PR-8 bug: a standalone allow above `#[inline]` must reach the
        // item it annotates, not the attribute line.
        let src = r#"
fn serving_actor(x: Option<u32>) {
    go(x);
}
// lint: allow(actor-panic) — measured: the caller guarantees Some
#[inline]
fn go(x: Option<u32>) -> u32 { x.unwrap() }
"#;
        let findings = lint_cluster(src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn stale_inline_allow_is_reported() {
        let src = r#"
fn quiet(x: u32) -> u32 {
    // lint: allow(actor-panic) — nothing here fires any more
    x + 1
}
"#;
        let findings = lint_cluster(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "stale-suppression");
        assert_eq!(findings[0].line, 3);
    }

    #[test]
    fn allowlist_file_suppresses_by_path_prefix() {
        let src = "fn f(rx: &Receiver<u32>) { let _ = rx.recv(); }";
        let allow = Allowlist::parse("unbounded-recv crates/parmac-cluster/src/x");
        assert!(lint_source("crates/parmac-cluster/src/x.rs", src, &allow).is_empty());
        let other = Allowlist::parse("unbounded-recv crates/parmac-cluster/src/y");
        assert_eq!(
            lint_source("crates/parmac-cluster/src/x.rs", src, &other).len(),
            1
        );
    }

    #[test]
    fn guard_across_send_fires_and_scoped_guard_does_not() {
        let src = r#"
fn bad(m: &Mutex<u32>, tx: &Sender<u32>) {
    let guard = m.lock();
    let _ = tx.send(*guard);
}
fn scoped(m: &Mutex<u32>, tx: &Sender<u32>) {
    let v = {
        let guard = m.lock();
        *guard
    };
    let _ = tx.send(v);
}
fn dropped(m: &Mutex<u32>, tx: &Sender<u32>) {
    let guard = m.lock();
    let v = *guard;
    drop(guard);
    let _ = tx.send(v);
}
fn chained(m: &Mutex<Vec<u32>>, tx: &Sender<usize>) {
    let n = m.lock().len();
    let _ = tx.send(n);
}
fn deref_copy(m: &Mutex<u32>, tx: &Sender<u32>) {
    let v = *m.lock();
    let _ = tx.send(v);
}
"#;
        let findings = lint_cluster(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "blocking-while-locked");
        assert_eq!(findings[0].line, 4);
    }

    #[test]
    fn scrutinee_guard_and_transitive_blocking_fire() {
        let src = r#"
fn waits(rx: &Receiver<u32>) -> u32 {
    rx.recv_timeout(TICK).unwrap_or(0)
}
fn if_let_scrutinee(m: &Mutex<Option<u32>>, rx: &Receiver<u32>) {
    if let Some(v) = m.lock().take() {
        let _ = waits(rx) + v;
    }
}
fn through_helper(m: &Mutex<u32>, rx: &Receiver<u32>) {
    let g = m.lock();
    let _ = waits(rx) + *g;
}
fn spawn_is_another_thread(m: &Mutex<u32>, rx: &Receiver<u32>) {
    let g = m.lock();
    scope.spawn(move || {
        let _ = waits(rx);
    });
    let _ = *g;
}
"#;
        let findings = lint_cluster(src);
        let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![7, 12], "{findings:?}");
        assert!(findings.iter().all(|f| f.rule == "blocking-while-locked"));
    }

    #[test]
    fn non_blocking_override_silences_transitive_call() {
        let src = r#"
// lint: non-blocking
fn logs_only(rx: &Receiver<u32>) -> u32 {
    rx.recv_timeout(TICK).unwrap_or(0)
}
fn fine(m: &Mutex<u32>, rx: &Receiver<u32>) {
    let g = m.lock();
    let _ = logs_only(rx) + *g;
}
"#;
        let findings = lint_cluster(src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn raw_spawn_fires_but_builder_and_scope_do_not() {
        let src = r#"
fn f() {
    std::thread::spawn(|| {});
    thread::spawn(worker);
    let _ = thread::Builder::new();
    thread::scope(|s| { s.spawn(|| {}); });
}
"#;
        let findings = lint_cluster(src);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.rule == "raw-spawn"));
    }

    #[test]
    fn wallclock_fires_only_in_deterministic_crates() {
        let src = "fn f() { let t = Instant::now(); let s = SystemTime::now(); }";
        let core = lint_source("crates/parmac-core/src/x.rs", src, &Allowlist::default());
        assert_eq!(core.len(), 2, "{core:?}");
        assert!(
            lint_source("crates/parmac-cluster/src/x.rs", src, &Allowlist::default()).is_empty()
        );
    }

    #[test]
    fn render_json_escapes_and_shapes() {
        let findings = vec![Finding {
            rule: "actor-panic",
            path: "crates/x/src/a.rs".to_string(),
            line: 7,
            message: "say \"no\" to\npanics\\".to_string(),
        }];
        let json = render_json(&findings);
        assert_eq!(
            json,
            "[\n  {\"rule\":\"actor-panic\",\"path\":\"crates/x/src/a.rs\",\"line\":7,\
             \"message\":\"say \\\"no\\\" to\\npanics\\\\\"}\n]"
        );
        assert_eq!(render_json(&[]), "[]");
        let gh = render_github(&findings);
        assert!(
            gh.starts_with("::error file=crates/x/src/a.rs,line=7,title=parmac-lint/actor-panic::")
        );
        assert!(gh.contains("%0A"), "{gh}");
    }
}
