//! The five project-invariant rules. Each rule is named, path-scoped,
//! and individually suppressable via `// lint: allow(<rule>) -- <why>`.
//!
//! | rule            | invariant                                                     |
//! |-----------------|---------------------------------------------------------------|
//! | `safety-comment`| every `unsafe` is preceded by a `SAFETY:` comment             |
//! | `no-panic`      | no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` in the |
//! |                 | serving path (the SQL parser included), the core query hot    |
//! |                 | path and the planner files it builds shapes with, or the      |
//! |                 | snapshot persistence layer                                    |
//! | `lock-recover`  | serve never calls `.lock().unwrap()`; use `lock_recover`      |
//! | `fast-map`      | session-hot modules use `FastMap`, not the SipHash default    |
//! | `determinism`   | no wall clocks / thread spawns outside their owner modules    |
//!
//! Scoping lives here, next to the checks, so the README and this file
//! can never drift apart silently: the workspace-clean integration test
//! re-derives both from the same constants.

use crate::engine::{Diagnostic, FileCtx};
use crate::lexer::TokKind;

/// Static rule metadata (driving `--list-rules`, pragma validation, and
/// the README table).
pub struct RuleInfo {
    pub name: &'static str,
    pub summary: &'static str,
}

pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "safety-comment",
        summary: "every `unsafe` block/fn/impl is immediately preceded by a `// SAFETY:` \
                  (or `/// # Safety`) comment [workspace-wide]",
    },
    RuleInfo {
        name: "no-panic",
        summary: "no `.unwrap()`/`.expect()`/`panic!`/`todo!`/`unimplemented!` in non-test \
                  code of crates/serve/src, the SQL parser, the core query hot path, the \
                  join-graph and spanning-forest planner files, or the snapshot \
                  persistence layer",
    },
    RuleInfo {
        name: "lock-recover",
        summary: "crates/serve must acquire mutexes through `lock_recover`, never \
                  `.lock().unwrap()`/`.lock().expect(..)`",
    },
    RuleInfo {
        name: "fast-map",
        summary: "session-hot modules must use `core::simd::hash::FastMap` (word-at-a-time \
                  FNV), not default-hasher `HashMap`/`HashSet` constructors",
    },
    RuleInfo {
        name: "determinism",
        summary: "no `Instant::now`/`SystemTime::now`/thread spawning in core or serve \
                  outside the modules that own time and the pool",
    },
];

pub fn rule_names() -> Vec<&'static str> {
    RULES.iter().map(|r| r.name).collect()
}

/// Marker accepted by `safety-comment`: the conventional `SAFETY:` tag or
/// the rustdoc `# Safety` section used on unsafe fns.
pub fn is_safety_marker(comment_text: &str) -> bool {
    comment_text.contains("SAFETY:") || comment_text.contains("# Safety")
}

// ---------------------------------------------------------------------
// Path scopes. All paths are workspace-relative with forward slashes.
// ---------------------------------------------------------------------

/// The core query hot path: files on the per-query serving critical path
/// (resolve → assemble → kernel) where a panic kills a worker and an
/// allocation shows up in the zero-alloc gate.
pub const CORE_HOT_FILES: &[&str] = &[
    "crates/core/src/clock_cache.rs",
    "crates/core/src/conditioning.rs",
    "crates/core/src/piecewise.rs",
    "crates/core/src/litcache.rs",
    "crates/core/src/pool.rs",
];

/// Modules that own wall-clock time or thread lifecycles; `determinism`
/// does not apply inside them.
pub const TIME_OWNER_FILES: &[&str] = &[
    // The scoped thread pool: spawning is its whole purpose.
    "crates/core/src/parallel.rs",
    // The offline builders report build wall-times as part of their
    // contract (build_ms, incremental_refresh_ms); timing never feeds
    // back into statistics content.
    "crates/core/src/stats.rs",
    "crates/core/src/incremental.rs",
    // The serving stack owns deadlines, idle timeouts, refresh cadence,
    // backoff, and the worker pool.
    "crates/serve/src/refresh.rs",
    "crates/serve/src/server.rs",
    "crates/serve/src/service.rs",
];

/// The snapshot persistence layer: the loader's whole contract is "a bad
/// file is a typed error, never a panic", and the writer runs on the
/// refresher thread where a panic would kill background refresh — so the
/// module is held to the same panic-free bar as the serving path.
pub const PERSIST_FILES: &[&str] = &["crates/core/src/snapshot_file.rs"];

/// The SQL parser: it runs on the connection thread, on whatever bytes a
/// client sent, outside the workers' `catch_unwind`.
pub const PARSER_FILES: &[&str] = &["crates/query/src/parser.rs"];

/// The planner files: shape-key staging and `Query::induced` run on every
/// estimate, join graph, bound plan and spanning-forest enumeration on
/// every shape build — also on an embedded optimizer thread (the
/// `plan_loop` workload) with no `catch_unwind` around it.
pub const PLANNER_FILES: &[&str] = &[
    "crates/query/src/ast.rs",
    "crates/query/src/join_graph.rs",
    "crates/query/src/spanning.rs",
];

fn in_serve_src(path: &str) -> bool {
    path.starts_with("crates/serve/src/")
}

fn in_parser(path: &str) -> bool {
    PARSER_FILES.contains(&path)
}

fn in_planner(path: &str) -> bool {
    PLANNER_FILES.contains(&path)
}

fn in_persist(path: &str) -> bool {
    PERSIST_FILES.contains(&path)
}

fn in_core_hot(path: &str) -> bool {
    CORE_HOT_FILES.contains(&path)
        || path.starts_with("crates/core/src/estimator/")
        || path.starts_with("crates/core/src/simd/")
}

/// Session-hot modules for `fast-map`: everything a warm `BoundSession`
/// touches per query, plus the serve batch dedup.
fn in_session_hot(path: &str) -> bool {
    in_core_hot(path) || path == "crates/serve/src/service.rs"
}

fn in_determinism_scope(path: &str) -> bool {
    (path.starts_with("crates/core/src/") || path.starts_with("crates/serve/src/"))
        && !TIME_OWNER_FILES.contains(&path)
        && !path.starts_with("crates/serve/src/bin/")
}

// ---------------------------------------------------------------------
// Rule implementations.
// ---------------------------------------------------------------------

/// Run every rule that applies to `ctx.path`.
pub fn run_all(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    safety_comment(ctx, &mut out);
    if in_serve_src(ctx.path)
        || in_parser(ctx.path)
        || in_planner(ctx.path)
        || in_core_hot(ctx.path)
        || in_persist(ctx.path)
    {
        no_panic(ctx, &mut out);
    }
    if in_serve_src(ctx.path) {
        lock_recover(ctx, &mut out);
    }
    if in_session_hot(ctx.path) {
        fast_map(ctx, &mut out);
    }
    if in_determinism_scope(ctx.path) {
        determinism(ctx, &mut out);
    }
    out
}

fn diag(ctx: &FileCtx<'_>, i: usize, rule: &'static str, message: String) -> Diagnostic {
    Diagnostic {
        file: ctx.path.to_string(),
        line: ctx.toks[i].line,
        col: ctx.toks[i].col,
        rule,
        message,
    }
}

/// L1: every `unsafe` keyword carries an adjacent `SAFETY:` comment.
/// Applies workspace-wide, test directories included — an unargued
/// `unsafe` is never acceptable — but `#[cfg(test)]` spans are exempt
/// like everywhere else.
fn safety_comment(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for (i, t) in ctx.toks.iter().enumerate() {
        if ctx.exempt[i] || !t.is_ident("unsafe") {
            continue;
        }
        if !ctx.safety_comment_covers(t.line) {
            out.push(diag(
                ctx,
                i,
                "safety-comment",
                "`unsafe` without an immediately preceding `// SAFETY:` comment \
                 arguing why the obligations hold"
                    .to_string(),
            ));
        }
    }
}

/// L2: the serving path and the core query hot path stay panic-free.
fn no_panic(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let toks = ctx.toks;
    for (i, t) in toks.iter().enumerate() {
        if ctx.exempt[i] || t.kind != TokKind::Ident {
            continue;
        }
        let prev_is = |c: char| i > 0 && toks[i - 1].is_punct(c);
        match t.text.as_str() {
            "unwrap" | "expect" if prev_is('.') || prev_is(':') => {
                out.push(diag(
                    ctx,
                    i,
                    "no-panic",
                    format!(
                        "`.{}()` in a panic-free path: handle the failure (return an \
                         error / degrade to `ERR`) or add an audited \
                         `// lint: allow(no-panic) -- <proof of unreachability>`",
                        t.text
                    ),
                ));
            }
            // Path segments (`std::panic::catch_unwind`) never match:
            // the next token there is `:`, not `!`.
            "panic" | "todo" | "unimplemented"
                if toks.get(i + 1).is_some_and(|n| n.is_punct('!')) =>
            {
                out.push(diag(
                    ctx,
                    i,
                    "no-panic",
                    format!(
                        "`{}!` in a panic-free path: a panic here kills a serving \
                         worker or poisons the kernel invariants",
                        t.text
                    ),
                ));
            }
            _ => {}
        }
    }
}

/// L3: serve-path mutexes must recover from poison via `lock_recover`.
fn lock_recover(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if ctx.exempt[i] {
            continue;
        }
        let seq_is = |off: usize, pred: &dyn Fn(&crate::lexer::Tok) -> bool| {
            toks.get(i + off).is_some_and(pred)
        };
        if toks[i].is_punct('.')
            && seq_is(1, &|t| t.is_ident("lock"))
            && seq_is(2, &|t| t.is_punct('('))
            && seq_is(3, &|t| t.is_punct(')'))
            && seq_is(4, &|t| t.is_punct('.'))
            && seq_is(5, &|t| t.is_ident("unwrap") || t.is_ident("expect"))
        {
            out.push(diag(
                ctx,
                i + 1,
                "lock-recover",
                "raw `.lock().unwrap()` propagates poison and cascades one worker \
                 panic into a dead server: acquire through `lock_recover` instead"
                    .to_string(),
            ));
        }
    }
}

/// L4: session-hot maps must use the FNV `FastMap`, not SipHash.
fn fast_map(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let toks = ctx.toks;
    for (i, t) in toks.iter().enumerate() {
        if ctx.exempt[i] || t.kind != TokKind::Ident {
            continue;
        }
        if (t.text == "HashMap" || t.text == "HashSet")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| {
                t.is_ident("new") || t.is_ident("default") || t.is_ident("with_capacity")
            })
        {
            out.push(diag(
                ctx,
                i,
                "fast-map",
                format!(
                    "default-hasher `{}` constructed in a session-hot module: use \
                     `core::simd::hash::FastMap` (word-at-a-time FNV) instead of SipHash",
                    t.text
                ),
            ));
        }
    }
}

/// L5: kernels and fault schedules stay deterministic — wall clocks and
/// thread spawns live only in the modules that own them.
fn determinism(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let toks = ctx.toks;
    for (i, t) in toks.iter().enumerate() {
        if ctx.exempt[i] || t.kind != TokKind::Ident {
            continue;
        }
        let path_next = |off: usize, name: &str| {
            toks.get(i + off).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + off + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + off + 2).is_some_and(|t| t.is_ident(name))
        };
        let hit = match t.text.as_str() {
            "Instant" | "SystemTime" if path_next(1, "now") => Some(format!("`{}::now()`", t.text)),
            "thread"
                if ["spawn", "Builder", "scope"]
                    .iter()
                    .any(|m| path_next(1, m)) =>
            {
                Some("thread spawning".to_string())
            }
            _ => None,
        };
        if let Some(what) = hit {
            out.push(diag(
                ctx,
                i,
                "determinism",
                format!(
                    "{what} outside the modules that own time and the pool \
                     ({}): kernels and fault schedules must be reproducible \
                     from their seeds alone",
                    TIME_OWNER_FILES.join(", ")
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::lint_source;

    fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
        lint_source(path, src).into_iter().map(|d| d.rule).collect()
    }

    #[test]
    fn scoping_gates_rules_by_path() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        // Hot paths flag…
        assert_eq!(rules_hit("crates/serve/src/server.rs", src), ["no-panic"]);
        for hot in [
            "crates/core/src/estimator/mod.rs",
            "crates/core/src/estimator/resolve.rs",
            "crates/core/src/clock_cache.rs",
        ] {
            assert_eq!(rules_hit(hot, src), ["no-panic"], "{hot}");
        }
        assert_eq!(
            rules_hit("crates/core/src/simd/search.rs", src),
            ["no-panic"]
        );
        // The snapshot persistence layer is panic-free by contract too.
        assert_eq!(
            rules_hit("crates/core/src/snapshot_file.rs", src),
            ["no-panic"]
        );
        // So is the SQL parser: it sees client bytes on the connection
        // thread.
        assert_eq!(rules_hit("crates/query/src/parser.rs", src), ["no-panic"]);
        // And the planner files every estimate and shape build runs
        // through.
        for planner in [
            "crates/query/src/ast.rs",
            "crates/query/src/join_graph.rs",
            "crates/query/src/spanning.rs",
        ] {
            assert_eq!(rules_hit(planner, src), ["no-panic"], "{planner}");
        }
        // …cold modules don't.
        assert!(rules_hit("crates/core/src/stats.rs", src).is_empty());
        assert!(rules_hit("crates/query/src/lib.rs", src).is_empty());
    }

    #[test]
    fn determinism_allowlist() {
        let src = "fn f() { let _t = Instant::now(); }\n";
        assert_eq!(rules_hit("crates/core/src/bound.rs", src), ["determinism"]);
        assert_eq!(
            rules_hit("crates/serve/src/faults.rs", src),
            ["determinism"]
        );
        assert!(rules_hit("crates/core/src/parallel.rs", src).is_empty());
        assert!(rules_hit("crates/serve/src/refresh.rs", src).is_empty());
        assert!(rules_hit("crates/bench/src/methods.rs", src).is_empty());
    }

    #[test]
    fn safety_marker_accepts_doc_safety_sections() {
        let doc = "/// # Safety\n/// Caller upholds X.\n#[target_feature(enable = \"avx2\")]\npub unsafe fn f() {}\n";
        assert!(rules_hit("crates/core/src/simd/x.rs", doc).is_empty());
        let bare = "pub unsafe fn f() {}\n";
        assert_eq!(
            rules_hit("crates/core/src/simd/x.rs", bare),
            ["safety-comment"]
        );
    }

    #[test]
    fn lock_recover_matches_through_comments() {
        let src = "fn f(m: &std::sync::Mutex<u32>) { let _ = m.lock() /* poison */ .unwrap(); }\n";
        let hits = rules_hit("crates/serve/src/service.rs", src);
        assert!(hits.contains(&"lock-recover"), "{hits:?}");
    }

    #[test]
    fn catch_unwind_path_is_not_a_panic_macro() {
        let src = "fn f() { let _ = std::panic::catch_unwind(|| 1); }\n";
        assert!(rules_hit("crates/serve/src/server.rs", src).is_empty());
    }
}
