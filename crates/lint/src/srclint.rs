//! Pass 3 — the determinism & robustness source lint.
//!
//! A self-contained (no external deps, per the vendored-stub policy)
//! token-level scanner over the workspace's library `.rs` files. It
//! lexes each file — skipping comments, strings, char literals and
//! lifetimes — and flags:
//!
//! * `no-unwrap` — `.unwrap()` in library code (panic paths belong in
//!   bins and tests, not in code the sweep harness calls);
//! * `no-panic` — `panic!` in library code;
//! * `wallclock` — `Instant::now` / `SystemTime` inside *deterministic*
//!   crates, where any wall-clock read breaks bit-exact resume;
//! * `float-eq` — `==` / `!=` against a float literal (metrics must be
//!   compared with tolerances);
//! * `hash-order` — iterating a `HashMap`/`HashSet` binding declared in
//!   the same file (iteration order is randomized per process, which
//!   breaks byte-stable exports);
//! * `io-ignored` — `let _ = <expr>.write(...)` (or `write_all`,
//!   `flush`, `sync_*`, …) in library code: a swallowed I/O error turns
//!   a crash-consistent store into a silently corrupt one. Best-effort
//!   cleanup like `let _ = std::fs::remove_file(..)` is deliberately
//!   *not* flagged — only method-call results are;
//! * `forbid-unsafe` — every crate root must carry
//!   `#![forbid(unsafe_code)]`;
//! * `hot-alloc` — heap allocation (`Box::new`, `Vec::new` and `::new`
//!   of the other std collections and `String`, `::with_capacity` on any
//!   type, `vec![..]`, `format!`, `.collect(..)`, `.to_vec()`,
//!   `.to_string()`, `.to_owned()`) inside a function marked with a
//!   standalone `// rop-lint: hot` comment. Hot-marked functions are the
//!   engine/controller per-cycle paths that must stay allocation-free
//!   in steady state (scratch buffers are taken, refilled and put
//!   back instead);
//! * `cycle-cast` — in deterministic crates, a narrowing `as` cast on a
//!   cycle-flavored value (`now as u32` silently truncates once a run
//!   passes 2³² cycles), or an unchecked `+`/`*` on one inside a
//!   hot-marked function (overflow wraps silently in release builds;
//!   timing paths must use `saturating_*`/`checked_*` or carry an
//!   explicit allow);
//! * `lease-clock` — a wall-clock read (`Instant::now`, `SystemTime`,
//!   `.elapsed(`) inside any function whose *name* mentions leases,
//!   expiry or staleness, in **every** crate. Lease liveness must be
//!   decided by counting unchanged observations of `(epoch, worker,
//!   hb)` triples, never by clock arithmetic: two machines (or one
//!   machine under `faketime`, NTP steps, or suspend/resume) disagree
//!   about elapsed time, and a clock-based verdict turns that skew
//!   into split-brain double execution. Stamping forensic `ts`
//!   metadata via `unix_now` stays legal — timestamps may be *recorded*
//!   in lease paths, just never *compared*.
//!
//! Escapes and ratcheting:
//!
//! * an inline `// rop-lint: allow(<rule>)` comment suppresses the rule
//!   on its own line, or on the next line when the comment stands alone;
//! * a checked-in baseline file records accepted debt as
//!   `(rule, path, count)` triples; the gate fails on findings *above*
//!   the baseline count, so debt can shrink but never grow — and on
//!   *stale* entries matching no current finding at all, so paid-off
//!   debt cannot linger as a silent re-admission ticket.
//!
//! Scope: `src/` trees of workspace crates, excluding `bin/`, `tests/`,
//! `benches/`, `examples/`, `vendor/`, `target/`, and everything at or
//! after a `#[cfg(test)]` attribute (test modules sit at the end of
//! files in this codebase).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Crates whose simulation results must be bit-exact: wall-clock reads
/// are forbidden anywhere inside them.
const DETERMINISTIC_CRATES: &[&str] = &[
    "cache", "core", "cpu", "dram", "events", "memctrl", "sim", "stats", "trace",
];

/// All source-lint rule identifiers (for `allow(...)` validation).
pub const SRC_RULES: &[&str] = &[
    "no-unwrap",
    "no-panic",
    "wallclock",
    "float-eq",
    "hash-order",
    "io-ignored",
    "forbid-unsafe",
    "hot-alloc",
    "cycle-cast",
    "lease-clock",
];

/// Types whose `::new` the `hot-alloc` rule flags.
const HOT_ALLOC_NEW_TYPES: &[&str] = &[
    "Box",
    "Vec",
    "VecDeque",
    "BinaryHeap",
    "String",
    "BTreeMap",
    "BTreeSet",
    "HashMap",
    "HashSet",
];

/// Methods that copy into a fresh heap allocation, flagged by
/// `hot-alloc` as `.name(`.
const HOT_ALLOC_METHODS: &[&str] = &["collect", "to_vec", "to_string", "to_owned"];

/// One source-lint hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier.
    pub rule: &'static str,
    /// Path relative to the workspace root (always `/`-separated).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Short description of what was seen.
    pub what: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.what
        )
    }
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum TokKind {
    Ident,
    Int,
    Float,
    Punct,
}

#[derive(Debug, Clone)]
struct Tok {
    kind: TokKind,
    text: String,
    line: usize,
}

impl Tok {
    fn is(&self, kind: TokKind, text: &str) -> bool {
        self.kind == kind && self.text == text
    }
}

/// Lexes Rust source into identifier/number/punct tokens, discarding
/// comments, string and char literals, and lifetimes. Good enough for
/// pattern matching; not a full Rust lexer.
fn lex(src: &str) -> Vec<Tok> {
    let b: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line = 1;
    let n = b.len();
    while i < n {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c == '/' && i + 1 < n && b[i + 1] == '/' {
            while i < n && b[i] != '\n' {
                i += 1;
            }
        } else if c == '/' && i + 1 < n && b[i + 1] == '*' {
            // Nested block comments.
            let mut depth = 1;
            i += 2;
            while i < n && depth > 0 {
                if b[i] == '\n' {
                    line += 1;
                    i += 1;
                } else if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
        } else if c == '"' {
            i += 1;
            while i < n {
                if b[i] == '\\' {
                    i += 2;
                } else if b[i] == '"' {
                    i += 1;
                    break;
                } else {
                    if b[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
        } else if c == 'r' && i + 1 < n && (b[i + 1] == '"' || b[i + 1] == '#') {
            // Raw string r"..." / r#"..."# / r##"..."## ...
            let mut j = i + 1;
            let mut hashes = 0;
            while j < n && b[j] == '#' {
                hashes += 1;
                j += 1;
            }
            if j < n && b[j] == '"' {
                j += 1;
                'raw: while j < n {
                    if b[j] == '\n' {
                        line += 1;
                    }
                    if b[j] == '"' {
                        let mut k = 0;
                        while k < hashes && j + 1 + k < n && b[j + 1 + k] == '#' {
                            k += 1;
                        }
                        if k == hashes {
                            j += 1 + hashes;
                            break 'raw;
                        }
                    }
                    j += 1;
                }
                i = j;
            } else {
                // `r` was just an identifier start (e.g. `r#keyword`
                // without a quote never reaches here with j at quote).
                let start = i;
                while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text: b[start..i].iter().collect(),
                    line,
                });
            }
        } else if c == '\'' {
            // Lifetime or char literal.
            if i + 2 < n && b[i + 1] != '\\' && b[i + 2] != '\'' {
                // Lifetime: consume the quote and let the identifier
                // lexing pick up the name (it is discarded as a normal
                // ident; harmless).
                i += 1;
            } else {
                i += 1;
                while i < n {
                    if b[i] == '\\' {
                        i += 2;
                    } else if b[i] == '\'' {
                        i += 1;
                        break;
                    } else {
                        i += 1;
                    }
                }
            }
        } else if c.is_ascii_digit() {
            let start = i;
            let mut float = false;
            if c == '0' && i + 1 < n && matches!(b[i + 1], 'x' | 'o' | 'b') {
                i += 2;
                while i < n && (b[i].is_ascii_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
            } else {
                while i < n && (b[i].is_ascii_digit() || b[i] == '_') {
                    i += 1;
                }
                // A `.` starts a fraction only when followed by a digit
                // (so `1..x` and `1.max(2)` stay integers).
                if i + 1 < n && b[i] == '.' && b[i + 1].is_ascii_digit() {
                    float = true;
                    i += 1;
                    while i < n && (b[i].is_ascii_digit() || b[i] == '_') {
                        i += 1;
                    }
                }
                if i < n && (b[i] == 'e' || b[i] == 'E') {
                    let mut j = i + 1;
                    if j < n && (b[j] == '+' || b[j] == '-') {
                        j += 1;
                    }
                    if j < n && b[j].is_ascii_digit() {
                        float = true;
                        i = j;
                        while i < n && (b[i].is_ascii_digit() || b[i] == '_') {
                            i += 1;
                        }
                    }
                }
                // Type suffix (f64 makes it a float even without a dot).
                let sfx = i;
                while i < n && (b[i].is_ascii_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                let suffix: String = b[sfx..i].iter().collect();
                if suffix.starts_with('f') {
                    float = true;
                }
            }
            toks.push(Tok {
                kind: if float { TokKind::Float } else { TokKind::Int },
                text: b[start..i].iter().collect(),
                line,
            });
        } else if c.is_alphanumeric() || c == '_' {
            let start = i;
            while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text: b[start..i].iter().collect(),
                line,
            });
        } else {
            // Two-char operators worth keeping whole.
            let two: String = b[i..(i + 2).min(n)].iter().collect();
            if two == "==" || two == "!=" || two == "::" {
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text: two,
                    line,
                });
                i += 2;
            } else {
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text: c.to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    toks
}

// ---------------------------------------------------------------------
// Per-file scan
// ---------------------------------------------------------------------

/// Parses `// rop-lint: allow(rule-a, rule-b)` markers. A marker on a
/// code line covers that line; a marker on a standalone comment line
/// covers the following line.
fn allow_map(src: &str) -> BTreeMap<usize, Vec<String>> {
    let mut map: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for (idx, raw) in src.lines().enumerate() {
        let lineno = idx + 1;
        let Some(pos) = raw.find("rop-lint: allow(") else {
            continue;
        };
        let rest = &raw[pos + "rop-lint: allow(".len()..];
        let Some(end) = rest.find(')') else { continue };
        let rules: Vec<String> = rest[..end]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let target = if raw.trim_start().starts_with("//") {
            lineno + 1
        } else {
            lineno
        };
        map.entry(target).or_default().extend(rules);
    }
    map
}

/// Token-index ranges `[open_brace, close_brace]` of the bodies of
/// functions marked hot. A standalone `// rop-lint: hot` comment marks
/// the next `fn` (attributes and doc comments may sit in between); the
/// body extent is the brace-matched span starting at the first `{`
/// after that `fn` keyword. The lexer discards comments, so markers are
/// recovered from a raw line scan and mapped onto the token stream via
/// line numbers.
fn hot_extents(src: &str, toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut extents = Vec::new();
    for (idx, raw) in src.lines().enumerate() {
        // Only an exact plain line comment counts — doc comments that
        // merely *mention* the marker must not arm the rule.
        let t = raw.trim();
        let Some(body) = t.strip_prefix("//") else {
            continue;
        };
        if body.starts_with('/') || body.starts_with('!') || body.trim() != "rop-lint: hot" {
            continue;
        }
        let marker_line = idx + 1;
        let Some(fi) = toks
            .iter()
            .position(|t| t.line > marker_line && t.is(TokKind::Ident, "fn"))
        else {
            continue;
        };
        let Some(open) = (fi..toks.len()).find(|&j| toks[j].is(TokKind::Punct, "{")) else {
            continue;
        };
        let mut depth = 0usize;
        for (j, tok) in toks.iter().enumerate().skip(open) {
            if tok.is(TokKind::Punct, "{") {
                depth += 1;
            } else if tok.is(TokKind::Punct, "}") {
                depth -= 1;
                if depth == 0 {
                    extents.push((open, j));
                    break;
                }
            }
        }
    }
    extents
}

/// Token-index ranges `[open_brace, close_brace]` of the bodies of
/// functions whose names sound like lease-expiry logic: any `fn` whose
/// identifier contains `lease`, `expir` or `stale`. These are the
/// extents the `lease-clock` rule polices. A declaration that hits a
/// `;` before its body brace (trait method signatures) has no extent.
fn lease_extents(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut extents = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is(TokKind::Ident, "fn") {
            continue;
        }
        let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            continue;
        };
        if !["lease", "expir", "stale"]
            .iter()
            .any(|s| name.text.contains(s))
        {
            continue;
        }
        let Some(open) = (i + 2..toks.len())
            .find(|&j| toks[j].is(TokKind::Punct, "{") || toks[j].is(TokKind::Punct, ";"))
        else {
            continue;
        };
        if toks[open].is(TokKind::Punct, ";") {
            continue;
        }
        let mut depth = 0usize;
        for (j, tok) in toks.iter().enumerate().skip(open) {
            if tok.is(TokKind::Punct, "{") {
                depth += 1;
            } else if tok.is(TokKind::Punct, "}") {
                depth -= 1;
                if depth == 0 {
                    extents.push((open, j));
                    break;
                }
            }
        }
    }
    extents
}

/// Line of the first `#[cfg(test)]` attribute, if any — everything at
/// or after it is treated as test code and skipped.
fn test_cutoff(src: &str) -> Option<usize> {
    src.lines()
        .position(|l| l.trim_start().starts_with("#[cfg(test)]"))
        .map(|idx| idx + 1)
}

struct FileCtx<'a> {
    path: String,
    allows: BTreeMap<usize, Vec<String>>,
    cutoff: Option<usize>,
    findings: &'a mut Vec<Finding>,
}

impl FileCtx<'_> {
    fn emit(&mut self, rule: &'static str, line: usize, what: String) {
        if let Some(cut) = self.cutoff {
            if line >= cut {
                return;
            }
        }
        if self
            .allows
            .get(&line)
            .is_some_and(|rs| rs.iter().any(|r| r == rule))
        {
            return;
        }
        self.findings.push(Finding {
            rule,
            path: self.path.clone(),
            line,
            what,
        });
    }
}

/// Scans one library source file.
fn scan_file(path: &str, src: &str, crate_name: &str, is_crate_root: bool, out: &mut Vec<Finding>) {
    let mut ctx = FileCtx {
        path: path.to_string(),
        allows: allow_map(src),
        cutoff: test_cutoff(src),
        findings: out,
    };
    let toks = lex(src);
    let deterministic = DETERMINISTIC_CRATES.contains(&crate_name);
    let hot = hot_extents(src, &toks);
    let in_hot = |i: usize| hot.iter().any(|&(lo, hi)| lo <= i && i <= hi);
    let leases = lease_extents(&toks);
    let in_lease = |i: usize| leases.iter().any(|&(lo, hi)| lo <= i && i <= hi);

    // Bindings/fields declared as HashMap/HashSet in this file
    // (`name: HashMap<..>` or `name = HashMap::new()` shapes).
    let mut hash_names: Vec<&str> = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind == TokKind::Ident
            && (toks[i].text == "HashMap" || toks[i].text == "HashSet")
            && i >= 2
            && (toks[i - 1].is(TokKind::Punct, ":") || toks[i - 1].is(TokKind::Punct, "="))
            && toks[i - 2].kind == TokKind::Ident
        {
            hash_names.push(&toks[i - 2].text);
        }
    }

    /// Integer/float types an `as` cast can truncate a `Cycle` (u64)
    /// into. `u64`/`i128`/`u128`/`f64` keep every 40-something-bit
    /// cycle count exact; `usize` stays legal because the supported
    /// targets are 64-bit and index casts are pervasive.
    const NARROW_TYPES: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

    // Identifiers treated as carrying a `Cycle` value: the naming
    // convention the timing paths actually use. Exact names cover the
    // ubiquitous locals; the substring covers `cycle_count`,
    // `max_cycles`, `hit_cycle_cap`, …
    let cycleish = |t: &Tok| {
        t.kind == TokKind::Ident
            && (matches!(t.text.as_str(), "now" | "due" | "until" | "deadline")
                || t.text.contains("cycle"))
    };

    const ITER_METHODS: &[&str] = &[
        "iter",
        "iter_mut",
        "keys",
        "values",
        "values_mut",
        "into_iter",
        "into_keys",
        "into_values",
        "drain",
    ];

    /// Method calls whose `Result` must not be discarded with `let _ =`:
    /// each one can report the only evidence of data loss. Free-function
    /// forms (`std::fs::remove_file`) are best-effort cleanup and stay
    /// legal, which is why the pattern requires a `.` receiver.
    const IO_METHODS: &[&str] = &[
        "write",
        "write_all",
        "write_fmt",
        "write_vectored",
        "flush",
        "sync_all",
        "sync_data",
        "fsync",
    ];

    for i in 0..toks.len() {
        let t = &toks[i];
        // .unwrap()
        if t.is(TokKind::Punct, ".")
            && toks
                .get(i + 1)
                .is_some_and(|t| t.is(TokKind::Ident, "unwrap"))
            && toks.get(i + 2).is_some_and(|t| t.is(TokKind::Punct, "("))
            && toks.get(i + 3).is_some_and(|t| t.is(TokKind::Punct, ")"))
        {
            ctx.emit(
                "no-unwrap",
                toks[i + 1].line,
                ".unwrap() in library code".to_string(),
            );
        }
        // panic!(...)
        if t.is(TokKind::Ident, "panic")
            && toks.get(i + 1).is_some_and(|t| t.is(TokKind::Punct, "!"))
        {
            ctx.emit("no-panic", t.line, "panic! in library code".to_string());
        }
        // Wall-clock reads in deterministic crates.
        if deterministic {
            if t.is(TokKind::Ident, "Instant")
                && toks.get(i + 1).is_some_and(|t| t.is(TokKind::Punct, "::"))
                && toks.get(i + 2).is_some_and(|t| t.is(TokKind::Ident, "now"))
            {
                ctx.emit(
                    "wallclock",
                    t.line,
                    "Instant::now in a deterministic crate".to_string(),
                );
            }
            if t.is(TokKind::Ident, "SystemTime") {
                ctx.emit(
                    "wallclock",
                    t.line,
                    "SystemTime in a deterministic crate".to_string(),
                );
            }
        }
        // Wall-clock reads inside lease/expiry/staleness functions, in
        // every crate: lease liveness is decided by counting unchanged
        // `(epoch, worker, hb)` observations, never by clock
        // arithmetic. (Stamping forensic `ts` metadata via `unix_now`
        // is legal — timestamps are recorded, not compared.)
        if in_lease(i) {
            if t.is(TokKind::Ident, "Instant")
                && toks.get(i + 1).is_some_and(|t| t.is(TokKind::Punct, "::"))
                && toks.get(i + 2).is_some_and(|t| t.is(TokKind::Ident, "now"))
            {
                ctx.emit(
                    "lease-clock",
                    t.line,
                    "Instant::now in a lease-expiry function".to_string(),
                );
            }
            if t.is(TokKind::Ident, "SystemTime") {
                ctx.emit(
                    "lease-clock",
                    t.line,
                    "SystemTime in a lease-expiry function".to_string(),
                );
            }
            if t.is(TokKind::Punct, ".")
                && toks
                    .get(i + 1)
                    .is_some_and(|t| t.is(TokKind::Ident, "elapsed"))
                && toks.get(i + 2).is_some_and(|t| t.is(TokKind::Punct, "("))
            {
                ctx.emit(
                    "lease-clock",
                    toks[i + 1].line,
                    "`.elapsed()` in a lease-expiry function".to_string(),
                );
            }
        }
        // Float literal compared for exact equality.
        if t.kind == TokKind::Punct && (t.text == "==" || t.text == "!=") {
            let float_neighbor = (i > 0 && toks[i - 1].kind == TokKind::Float)
                || toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Float);
            if float_neighbor {
                ctx.emit(
                    "float-eq",
                    t.line,
                    format!("`{}` against a float literal", t.text),
                );
            }
        }
        // `let _ = <expr>.write(...)`-shaped discarded I/O results.
        // Scan the statement (up to the next `;`) for an I/O method
        // call on a receiver.
        if t.is(TokKind::Ident, "let")
            && toks.get(i + 1).is_some_and(|t| t.is(TokKind::Ident, "_"))
            && toks.get(i + 2).is_some_and(|t| t.is(TokKind::Punct, "="))
        {
            let mut j = i + 3;
            while j + 2 < toks.len() && !toks[j].is(TokKind::Punct, ";") {
                if toks[j].is(TokKind::Punct, ".")
                    && toks[j + 1].kind == TokKind::Ident
                    && IO_METHODS.contains(&toks[j + 1].text.as_str())
                    && toks[j + 2].is(TokKind::Punct, "(")
                {
                    ctx.emit(
                        "io-ignored",
                        toks[j + 1].line,
                        format!(
                            "I/O result of `.{}` discarded with `let _ =`",
                            toks[j + 1].text
                        ),
                    );
                    break;
                }
                j += 1;
            }
        }
        // Heap allocation inside a `// rop-lint: hot` function.
        if in_hot(i) {
            if t.kind == TokKind::Ident
                && HOT_ALLOC_NEW_TYPES.contains(&t.text.as_str())
                && toks.get(i + 1).is_some_and(|n| n.is(TokKind::Punct, "::"))
                && toks.get(i + 2).is_some_and(|n| n.is(TokKind::Ident, "new"))
            {
                ctx.emit(
                    "hot-alloc",
                    t.line,
                    format!("`{}::new` in a hot function", t.text),
                );
            }
            if t.is(TokKind::Punct, "::")
                && toks
                    .get(i + 1)
                    .is_some_and(|n| n.is(TokKind::Ident, "with_capacity"))
            {
                ctx.emit(
                    "hot-alloc",
                    t.line,
                    "`::with_capacity` in a hot function".into(),
                );
            }
            if t.is(TokKind::Ident, "vec")
                && toks.get(i + 1).is_some_and(|n| n.is(TokKind::Punct, "!"))
            {
                ctx.emit("hot-alloc", t.line, "`vec![..]` in a hot function".into());
            }
            if t.is(TokKind::Ident, "format")
                && toks.get(i + 1).is_some_and(|n| n.is(TokKind::Punct, "!"))
            {
                ctx.emit("hot-alloc", t.line, "`format!` in a hot function".into());
            }
            if t.is(TokKind::Punct, ".")
                && toks.get(i + 1).is_some_and(|n| {
                    n.kind == TokKind::Ident && HOT_ALLOC_METHODS.contains(&n.text.as_str())
                })
                && toks
                    .get(i + 2)
                    .is_some_and(|n| n.is(TokKind::Punct, "(") || n.is(TokKind::Punct, "::"))
            {
                ctx.emit(
                    "hot-alloc",
                    toks[i + 1].line,
                    format!("`.{}()` in a hot function", toks[i + 1].text),
                );
            }
        }
        // Cycle narrowing casts (file-wide) and unchecked cycle
        // arithmetic (hot functions), in deterministic crates only.
        if deterministic && cycleish(t) {
            if toks.get(i + 1).is_some_and(|n| n.is(TokKind::Ident, "as"))
                && toks.get(i + 2).is_some_and(|n| {
                    n.kind == TokKind::Ident && NARROW_TYPES.contains(&n.text.as_str())
                })
            {
                ctx.emit(
                    "cycle-cast",
                    t.line,
                    format!("`{} as {}` narrows a cycle value", t.text, toks[i + 2].text),
                );
            }
            if in_hot(i)
                && toks
                    .get(i + 1)
                    .is_some_and(|n| n.kind == TokKind::Punct && (n.text == "+" || n.text == "*"))
            {
                ctx.emit(
                    "cycle-cast",
                    t.line,
                    format!(
                        "unchecked `{}` on cycle value `{}` in a hot function",
                        toks[i + 1].text,
                        t.text
                    ),
                );
            }
        }
        // HashMap/HashSet iteration.
        if t.kind == TokKind::Ident && hash_names.contains(&t.text.as_str()) {
            if toks.get(i + 1).is_some_and(|n| n.is(TokKind::Punct, "."))
                && toks.get(i + 2).is_some_and(|n| {
                    n.kind == TokKind::Ident && ITER_METHODS.contains(&n.text.as_str())
                })
            {
                ctx.emit(
                    "hash-order",
                    t.line,
                    format!("iteration over hash collection `{}`", t.text),
                );
            }
            if i >= 1
                && (toks[i - 1].is(TokKind::Ident, "in")
                    || (toks[i - 1].is(TokKind::Punct, "&")
                        && i >= 2
                        && toks[i - 2].is(TokKind::Ident, "in")))
                && toks.get(i + 1).is_some_and(|n| n.is(TokKind::Punct, "{"))
            {
                ctx.emit(
                    "hash-order",
                    t.line,
                    format!("for-loop over hash collection `{}`", t.text),
                );
            }
        }
    }

    if is_crate_root && !src.contains("#![forbid(unsafe_code)]") {
        ctx.emit(
            "forbid-unsafe",
            1,
            "crate root missing #![forbid(unsafe_code)]".to_string(),
        );
    }
}

/// Scans a single source string as `crate_name` library code — the unit
/// the workspace walk applies per file. Public so tooling and the
/// known-bad rule table can lint snippets without touching the
/// filesystem.
pub fn scan_source(path: &str, src: &str, crate_name: &str, is_crate_root: bool) -> Vec<Finding> {
    let mut out = Vec::new();
    scan_file(path, src, crate_name, is_crate_root, &mut out);
    out
}

// ---------------------------------------------------------------------
// Workspace walk
// ---------------------------------------------------------------------

fn is_library_source(rel: &str) -> bool {
    let skip_dirs = ["/bin/", "/tests/", "/benches/", "/examples/"];
    if skip_dirs.iter().any(|d| rel.contains(d)) {
        return false;
    }
    !(rel.ends_with("/main.rs") || rel.ends_with("/build.rs"))
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            walk(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Scans the whole workspace rooted at `root`: `crates/*/src` plus the
/// façade crate's `src/`. Findings come back sorted by (path, line,
/// rule) so output and baselines are byte-stable.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let mut roots: Vec<(String, PathBuf)> = Vec::new(); // (crate name, src dir)
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        members.sort();
        for m in members {
            let src = m.join("src");
            if src.is_dir() {
                let name = m
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                roots.push((name, src));
            }
        }
    }
    if root.join("src").is_dir() {
        roots.push(("rop-sim".to_string(), root.join("src")));
    }

    for (crate_name, src_dir) in roots {
        let mut files = Vec::new();
        walk(&src_dir, &mut files)?;
        for file in files {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            if !is_library_source(&rel) {
                continue;
            }
            let src = fs::read_to_string(&file)?;
            let is_crate_root = rel.ends_with("/src/lib.rs") || rel == "src/lib.rs";
            scan_file(&rel, &src, &crate_name, is_crate_root, &mut findings);
        }
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(findings)
}

// ---------------------------------------------------------------------
// Baseline (ratchet)
// ---------------------------------------------------------------------

/// Accepted-debt counts keyed by (rule, path).
pub type Baseline = BTreeMap<(String, String), usize>;

/// Aggregates findings into baseline counts.
pub fn to_baseline(findings: &[Finding]) -> Baseline {
    let mut b = Baseline::new();
    for f in findings {
        *b.entry((f.rule.to_string(), f.path.clone())).or_insert(0) += 1;
    }
    b
}

/// Serializes a baseline (sorted, tab-separated, one entry per line).
pub fn render_baseline(b: &Baseline) -> String {
    let mut out = String::from(
        "# rop-lint source-lint baseline: accepted debt as `rule<TAB>path<TAB>count`.\n\
         # Regenerate with `rop-lint src --update-baseline`; counts may only shrink.\n",
    );
    for ((rule, path), count) in b {
        let _ = writeln!(out, "{rule}\t{path}\t{count}");
    }
    out
}

/// Parses a baseline file; unknown lines are rejected.
pub fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let mut b = Baseline::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split('\t');
        let (Some(rule), Some(path), Some(count)) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(format!(
                "baseline line {}: expected rule\\tpath\\tcount",
                idx + 1
            ));
        };
        let count: usize = count
            .parse()
            .map_err(|_| format!("baseline line {}: bad count {count:?}", idx + 1))?;
        b.insert((rule.to_string(), path.to_string()), count);
    }
    Ok(b)
}

/// Gate verdict: findings above baseline fail; shrunk entries are
/// surfaced so the baseline can be ratcheted down; entries matching no
/// current finding at all are *stale* and fail too — dead debt records
/// would silently re-admit a rule/path pair the moment someone
/// reintroduces the pattern.
#[derive(Debug, Clone)]
pub struct SrcReport {
    /// Findings in excess of the baseline, grouped per (rule, path).
    pub regressions: Vec<(String, String, usize, usize)>, // rule, path, baseline, current
    /// Entries where debt shrank but remains (baseline should be
    /// regenerated).
    pub improvements: Vec<(String, String, usize, usize)>,
    /// Baseline entries with zero current findings: (rule, path,
    /// accepted).
    pub stale: Vec<(String, String, usize)>,
    /// Total current findings.
    pub total: usize,
}

impl SrcReport {
    /// True when nothing exceeds the baseline and no entry is stale.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty() && self.stale.is_empty()
    }
}

/// Compares current findings against the accepted baseline.
pub fn compare(findings: &[Finding], baseline: &Baseline) -> SrcReport {
    let current = to_baseline(findings);
    let mut regressions = Vec::new();
    let mut improvements = Vec::new();
    let mut stale = Vec::new();
    for ((rule, path), &count) in &current {
        let accepted = baseline
            .get(&(rule.clone(), path.clone()))
            .copied()
            .unwrap_or(0);
        if count > accepted {
            regressions.push((rule.clone(), path.clone(), accepted, count));
        }
    }
    for ((rule, path), &accepted) in baseline {
        let count = current
            .get(&(rule.clone(), path.clone()))
            .copied()
            .unwrap_or(0);
        if count == 0 {
            stale.push((rule.clone(), path.clone(), accepted));
        } else if count < accepted {
            improvements.push((rule.clone(), path.clone(), accepted, count));
        }
    }
    SrcReport {
        regressions,
        improvements,
        stale,
        total: findings.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_str(src: &str, crate_name: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        scan_file("test.rs", src, crate_name, false, &mut out);
        out
    }

    #[test]
    fn flags_unwrap_and_panic_outside_tests() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\nfn g() { panic!(\"boom\"); }\n";
        let rules: Vec<&str> = scan_str(src, "harness").iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["no-unwrap", "no-panic"]);
    }

    #[test]
    fn comments_strings_and_tests_are_invisible() {
        let src = "\
// x.unwrap() in a comment\n\
const S: &str = \"panic!\"; // and a string\n\
#[cfg(test)]\n\
mod tests { fn t() { None::<u8>.unwrap(); panic!(); } }\n";
        assert!(scan_str(src, "harness").is_empty());
    }

    #[test]
    fn allow_marker_suppresses_same_and_next_line() {
        let inline = "fn f() { x.unwrap() } // rop-lint: allow(no-unwrap)\n";
        assert!(scan_str(inline, "harness").is_empty());
        let above = "// rop-lint: allow(no-panic)\nfn f() { panic!(); }\n";
        assert!(scan_str(above, "harness").is_empty());
        let wrong_rule = "fn f() { panic!(); } // rop-lint: allow(no-unwrap)\n";
        assert_eq!(scan_str(wrong_rule, "harness").len(), 1);
    }

    #[test]
    fn wallclock_only_in_deterministic_crates() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(scan_str(src, "sim").len(), 1);
        assert!(scan_str(src, "harness").is_empty());
    }

    #[test]
    fn float_eq_flagged_int_eq_not() {
        let f = scan_str("fn f(x: f64) -> bool { x == 0.5 }\n", "stats");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "float-eq");
        assert!(scan_str("fn f(x: u64) -> bool { x == 5 }\n", "stats").is_empty());
        // Ranges must not lex as floats.
        assert!(scan_str("fn f() { for _ in 0..10 {} }\n", "stats").is_empty());
    }

    #[test]
    fn hash_iteration_flagged_btree_not() {
        let src = "\
use std::collections::HashMap;\n\
fn f() {\n\
    let m: HashMap<u32, u32> = HashMap::new();\n\
    for (k, v) in m.iter() { let _ = (k, v); }\n\
}\n";
        let f = scan_str(src, "harness");
        assert!(f.iter().any(|f| f.rule == "hash-order"), "{f:?}");
        let src_btree = src.replace("HashMap", "BTreeMap");
        assert!(scan_str(&src_btree, "harness").is_empty());
    }

    #[test]
    fn discarded_io_results_flagged() {
        let f = scan_str(
            "fn f(mut w: std::fs::File) { let _ = w.write_all(b\"x\"); }\n",
            "harness",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "io-ignored");
        let f = scan_str(
            "fn f(w: &std::fs::File) { let _ = w.sync_data(); }\n",
            "sim",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        // Multi-token statements are scanned to the `;`.
        let f = scan_str(
            "fn f(w: &mut dyn std::io::Write) { let _ = w.by_ref().flush(); }\n",
            "harness",
        );
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn io_ignored_spares_legitimate_discards() {
        // Macro writes into a String are infallible by construction.
        assert!(scan_str(
            "fn f(out: &mut String) { let _ = writeln!(out, \"x\"); }\n",
            "harness"
        )
        .is_empty());
        // Best-effort cleanup through a free function.
        assert!(scan_str(
            "fn f(p: &std::path::Path) { let _ = std::fs::remove_file(p); }\n",
            "harness"
        )
        .is_empty());
        // Propagated results are the fix, not a violation.
        assert!(scan_str(
            "fn f(mut w: std::fs::File) -> std::io::Result<()> { w.write_all(b\"x\")?; w.flush() }\n",
            "harness"
        )
        .is_empty());
        // Channel sends are not I/O.
        assert!(scan_str("fn f(tx: &Tx) { let _ = tx.send(1); }\n", "harness").is_empty());
        // The allow escape works like every other rule.
        assert!(scan_str(
            "fn f(mut w: std::fs::File) { let _ = w.flush(); } // rop-lint: allow(io-ignored)\n",
            "harness"
        )
        .is_empty());
    }

    #[test]
    fn hot_alloc_flags_only_marked_functions() {
        // Unmarked functions may allocate freely.
        let cold = "fn f() -> Vec<u8> { let v = Vec::new(); v }\n";
        assert!(scan_str(cold, "memctrl").is_empty());
        // The marker covers the next fn's whole body...
        let hot = "\
// rop-lint: hot
fn f(n: usize) -> Vec<u64> {
    let mut v = Vec::new();
    for i in 0..n {
        v.push(i as u64);
    }
    v
}
fn cold() -> Vec<u8> { vec![1, 2] }
";
        let f = scan_str(hot, "memctrl");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "hot-alloc");
        assert_eq!(f[0].line, 3);
        // ...including attributes between marker and fn, turbofish
        // collect, vec! and Box::new.
        let all = "\
// rop-lint: hot
#[inline]
fn f(n: usize) -> Vec<u64> {
    let b = Box::new(n);
    let v = vec![*b as u64];
    v.iter().copied().collect::<Vec<u64>>()
}
";
        let rules: Vec<&str> = scan_str(all, "sim").iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["hot-alloc"; 3]);
    }

    #[test]
    fn hot_alloc_allow_escape_hatch() {
        let src = "\
// rop-lint: hot
fn f() -> Vec<u8> {
    Vec::new() // rop-lint: allow(hot-alloc)
}
";
        assert!(scan_str(src, "memctrl").is_empty(), "allow must suppress");
    }

    #[test]
    fn baseline_roundtrip_and_ratchet() {
        let findings = vec![
            Finding {
                rule: "no-unwrap",
                path: "a.rs".into(),
                line: 3,
                what: String::new(),
            },
            Finding {
                rule: "no-unwrap",
                path: "a.rs".into(),
                line: 9,
                what: String::new(),
            },
        ];
        let base = to_baseline(&findings);
        let parsed = parse_baseline(&render_baseline(&base)).expect("roundtrip");
        assert_eq!(parsed, base);

        // Same debt: clean.
        assert!(compare(&findings, &base).ok());
        // More debt: regression.
        let mut worse = findings.clone();
        worse.push(Finding {
            rule: "no-unwrap",
            path: "a.rs".into(),
            line: 20,
            what: String::new(),
        });
        let r = compare(&worse, &base);
        assert!(!r.ok());
        assert_eq!(r.regressions[0].3, 3);
        // Less debt: improvement, still clean.
        let better = &findings[..1];
        let r = compare(better, &base);
        assert!(r.ok());
        assert_eq!(r.improvements.len(), 1);
        assert!(r.stale.is_empty());
    }

    #[test]
    fn stale_baseline_entries_fail_the_gate() {
        let findings = vec![Finding {
            rule: "no-unwrap",
            path: "a.rs".into(),
            line: 3,
            what: String::new(),
        }];
        let base = to_baseline(&findings);
        // The debt was paid off entirely: its entry is now stale, and a
        // stale entry is a hard failure, not an improvement.
        let r = compare(&[], &base);
        assert!(!r.ok());
        assert_eq!(
            r.stale,
            vec![("no-unwrap".to_string(), "a.rs".to_string(), 1)]
        );
        assert!(r.improvements.is_empty());
        // A different (rule, path) with live findings leaves the dead
        // entry just as stale.
        let other = vec![Finding {
            rule: "no-panic",
            path: "b.rs".into(),
            line: 1,
            what: String::new(),
        }];
        let r = compare(&other, &base);
        assert!(!r.ok());
        assert_eq!(r.stale.len(), 1);
        // NB: `other` itself regresses against this baseline too.
        assert_eq!(r.regressions.len(), 1);
    }

    #[test]
    fn cycle_cast_narrowing_flagged_in_deterministic_crates() {
        let src = "fn f(now: Cycle) -> u32 { now as u32 }\n";
        let f = scan_str(src, "memctrl");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "cycle-cast");
        // Outside deterministic crates the pattern is legal.
        assert!(scan_str(src, "harness").is_empty());
        // Widening and same-width casts are fine.
        assert!(scan_str("fn f(now: Cycle) -> u64 { now as u64 }\n", "memctrl").is_empty());
        assert!(scan_str("fn f(now: Cycle) -> f64 { now as f64 }\n", "memctrl").is_empty());
        // Cycle-flavored names are matched by convention, not by type.
        let f = scan_str(
            "fn f(busy_cycles: u64) -> u16 { busy_cycles as u16 }\n",
            "dram",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        // Non-cycle identifiers narrow freely (address/index math).
        assert!(scan_str("fn f(row: usize) -> u16 { row as u16 }\n", "dram").is_empty());
    }

    #[test]
    fn cycle_cast_arithmetic_only_in_hot_functions() {
        // Unchecked cycle `+` in a hot function is flagged...
        let hot = "\
// rop-lint: hot
fn f(now: Cycle, t_rfc: Cycle) -> Cycle { now + t_rfc }
";
        let f = scan_str(hot, "memctrl");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "cycle-cast");
        // ...and so is `*` and compound assignment.
        let mul = "\
// rop-lint: hot
fn f(cycles: Cycle) -> Cycle { cycles * 2 }
";
        assert_eq!(scan_str(mul, "dram").len(), 1);
        // Cold functions may add cycles freely (setup paths).
        assert!(scan_str(
            "fn f(now: Cycle, t: Cycle) -> Cycle { now + t }\n",
            "memctrl"
        )
        .is_empty());
        // `saturating_add` is the prescribed fix and passes.
        let fixed = "\
// rop-lint: hot
fn f(now: Cycle, t_rfc: Cycle) -> Cycle { now.saturating_add(t_rfc) }
";
        assert!(scan_str(fixed, "memctrl").is_empty());
        // The allow escape works like every other rule.
        let allowed = "\
// rop-lint: hot
fn f(now: Cycle, t: Cycle) -> Cycle {
    now + t // rop-lint: allow(cycle-cast)
}
";
        assert!(scan_str(allowed, "memctrl").is_empty());
    }

    #[test]
    fn lease_clock_flags_clock_reads_in_lease_named_functions() {
        // `.elapsed()` inside a lease-liveness decision: the canonical
        // wrong design this rule exists to keep out.
        let bad = "fn lease_is_live(last_beat: std::time::Instant) -> bool {\n    \
                   last_beat.elapsed() < std::time::Duration::from_secs(30)\n}\n";
        let f = scan_str(bad, "harness");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "lease-clock");
        assert_eq!(f[0].line, 2);
        // Every crate is in scope, not just the deterministic ones.
        assert_eq!(scan_str(bad, "chaos").len(), 1);
        // Instant::now and SystemTime hit too, on `expir`/`stale` names.
        let f = scan_str(
            "fn lease_expired(t0: u64) -> bool { Instant::now().as_millis() > t0 }\n",
            "harness",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        let f = scan_str(
            "fn is_stale_peer() -> bool { SystemTime::now() > deadline() }\n",
            "harness",
        );
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn lease_clock_spares_counters_and_unrelated_functions() {
        // Counter-based expiry — the prescribed design — is clean.
        let good = "fn is_stale(&self, job: &str, threshold: u32) -> bool {\n    \
                    self.seen.get(job).is_some_and(|(_, n)| *n >= threshold)\n}\n";
        assert!(scan_str(good, "harness").is_empty());
        // Clock reads outside lease-flavoured functions are none of
        // this rule's business (pacing sleeps, status displays).
        let pacing = "fn poll_loop() { let t = Instant::now(); let _ = t.elapsed(); }\n";
        assert!(scan_str(pacing, "harness").is_empty());
        // Trait method *signatures* have no body to scan.
        let decl = "trait L { fn lease_expired(&self) -> bool; }\n\
                    fn after() { let _ = Instant::now(); }\n";
        assert!(scan_str(decl, "harness").is_empty());
        // Stamping a forensic timestamp is legal: `unix_now` is not a
        // comparison primitive.
        let stamp = "fn lease_record(&self) -> Rec { Rec { ts: unix_now() } }\n";
        assert!(scan_str(stamp, "harness").is_empty());
        // The allow escape works like every other rule.
        let allowed = "fn lease_debug() {\n    \
                       let _ = Instant::now(); // rop-lint: allow(lease-clock)\n}\n";
        assert!(scan_str(allowed, "harness").is_empty());
    }

    #[test]
    fn raw_strings_and_lifetimes_lex_cleanly() {
        let src = "fn f<'a>(s: &'a str) -> &'a str { let _r = r#\"panic!()\"#; s }\n";
        assert!(scan_str(src, "harness").is_empty());
    }
}
