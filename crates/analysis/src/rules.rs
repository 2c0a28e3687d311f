//! The ch-lint rules.
//!
//! | id               | checks                                               |
//! |------------------|------------------------------------------------------|
//! | `default-hasher` | R1: no `HashMap`/`HashSet` with std's random hasher  |
//! |                  | in determinism-critical crates                       |
//! | `nondeterminism` | R2: no `Instant::now` / `SystemTime::now` /          |
//! |                  | `thread_rng` outside `ch-bench` and test code        |
//! | `panic-path`     | R3: no `.unwrap()` / `.expect(…)` / `panic!` in the  |
//! |                  | library code of `ch-wifi`, `ch-arc`, `ch-attack`,    |
//! |                  | `ch-fleet`, `ch-detect`                              |
//! | `missing-decode` | R4: every public type in `ch-wifi::frame`/`::ie`     |
//! |                  | with an `encode*` method has a `decode*`/`parse*`    |
//! |                  | counterpart                                          |
//! | `ssid-clone`     | R5: no `.clone()` on an SSID-named value in the      |
//! |                  | library code of `ch-attack`/`ch-arc`/`ch-detect` —   |
//! |                  | the hot path works on interned `SsidId`s             |
//! | `hot-path-alloc` | R6: no allocating construct in any function          |
//! |                  | reachable from the configured `[hot-path]` roots     |
//! |                  | (call-graph rule; needs the workspace index)         |
//! | `seed-discipline`| R7: `SimRng`/`FaultRng` seeds in determinism crates  |
//! |                  | come from `derive_seed`, a parent `fork`, or a       |
//! |                  | config field — never a literal or a reused seed      |
//!
//! Any rule is suppressed at a site by a trailing (or directly preceding)
//! `// ch-lint: allow(<rule>)` comment.

use crate::config::HotPathRoot;
use crate::index::{functions, WorkspaceIndex};
use crate::lexer::{LexedFile, Token};
use crate::{FileContext, FileKind, Finding};

/// Crates whose state must be bit-for-bit reproducible across runs (R1).
pub const DETERMINISM_CRATES: &[&str] = &[
    "ch-sim",
    "ch-phone",
    "ch-mobility",
    "ch-fleet",
    "ch-scenarios",
    "ch-arc",
    "ch-attack",
    "ch-detect",
    "ch-serve",
];

/// Crates whose library code must not panic (R3). `ch-fleet` is in the
/// list because the engine's whole job is absorbing *other* code's
/// panics — it must not add its own; escalation goes through
/// `ch_sim::invariant::violation`.
pub const PANIC_FREE_CRATES: &[&str] = &[
    "ch-wifi",
    "ch-arc",
    "ch-attack",
    "ch-fleet",
    "ch-detect",
    "ch-serve",
];

/// Crates exempt from R2 (benchmarks legitimately read wall clocks).
pub const WALL_CLOCK_CRATES: &[&str] = &["ch-bench"];

/// Crates whose probe hot paths must stay on interned ids (R5).
pub const SSID_HOT_PATH_CRATES: &[&str] = &["ch-attack", "ch-arc", "ch-detect"];

/// All rule identifiers, for config validation and `--list-rules`.
pub const ALL_RULES: &[&str] = &[
    "default-hasher",
    "nondeterminism",
    "panic-path",
    "missing-decode",
    "ssid-clone",
    "hot-path-alloc",
    "seed-discipline",
];

/// Rationale and escape hatch for every rule, for `--explain`.
pub const RULE_EXPLANATIONS: &[(&str, &str)] = &[
    (
        "default-hasher",
        "Why: std's HashMap/HashSet seed their hasher per process, so iteration \
         order differs run to run — in a determinism crate that breaks the \
         bit-for-bit reproduction the paper artifacts depend on.\n\
         Instead: use ch_sim::DetHashMap/DetHashSet (fixed-seed Fx hash) or pass \
         an explicit hasher type parameter.\n\
         Escape: // ch-lint: allow(default-hasher) on the offending line.",
    ),
    (
        "nondeterminism",
        "Why: Instant::now/SystemTime::now read the wall clock and \
         thread_rng/rand::random draw OS-seeded randomness — any of them makes a \
         simulation run unreproducible.\n\
         Instead: take time from SimTime and randomness from a seeded SimRng; \
         wall-clock measurement belongs in ch-bench or the pinned fleet \
         telemetry module.\n\
         Escape: // ch-lint: allow(nondeterminism), or a [scoped-allow] entry in \
         ch-lint.toml for an architectural exemption.",
    ),
    (
        "panic-path",
        "Why: .unwrap()/.expect()/panic!/unreachable!/todo!/unimplemented! in \
         ch-wifi/ch-arc/ch-attack/ch-fleet/ch-detect library code can kill a \
         mid-campaign process on malformed input the codec should have surfaced \
         as a value.\n\
         Instead: return Result/Option; escalate real invariant violations \
         through ch_sim::invariant::violation.\n\
         Escape: // ch-lint: allow(panic-path) with a justification comment.",
    ),
    (
        "missing-decode",
        "Why: a public wire-format type that encodes but cannot decode breaks \
         round-tripping — capture replay and golden-frame tests silently lose \
         coverage.\n\
         Instead: give every encode* method a decode*/parse* counterpart on the \
         same type.\n\
         Escape: // ch-lint: allow(missing-decode) on the encode method.",
    ),
    (
        "ssid-clone",
        "Why: an SSID-named value cloned in ch-attack/ch-arc/ch-detect library \
         code is either a String, re-growing the allocations the interned-SsidId \
         hot path removed, or a 33-byte inline Ssid copy of a name the path \
         should carry as a 4-byte SsidId.\n\
         Instead: intern once, pass SsidId, resolve at the lure boundary \
         (db.resolve(id).clone() copies the inline Ssid, no heap, and does not \
         match).\n\
         Escape: // ch-lint: allow(ssid-clone) for justified copies.",
    ),
    (
        "hot-path-alloc",
        "Why: the probe loop's zero-alloc claim is only enforced at runtime on \
         branches the perfbench workload happens to execute; this rule walks the \
         workspace call graph from the [hot-path] roots in ch-lint.toml and bans \
         allocating constructs (Vec::new, vec![], format!, to_string, \
         String::from, to_vec, .collect(), Box::new, .clone()) in every function \
         reachable from them — cold branches included.\n\
         Limits: resolution is name-based with crate-dependency pruning; it \
         cannot see through trait objects or generics when the method name never \
         appears at the call site, and .clone() is flagged whatever the receiver \
         type (the lexer has no type information — Copy clones are already \
         denied by clippy::clone_on_copy; fixed-size inline copies such as \
         the 33-byte Ssid take the escape).\n\
         Escape: // ch-lint: allow(hot-path-alloc) with a justification comment.",
    ),
    (
        "seed-discipline",
        "Why: a hard-coded SimRng/FaultRng seed in a determinism crate silently \
         correlates runs that must be independent, and reusing one seed \
         expression twice in a function yields two RNGs drawing identical \
         streams — both break per-job determinism in fleet campaigns.\n\
         Instead: derive seeds with ch_fleet::derive_seed, fork a parent RNG \
         (rng.fork(label)), or take the seed from a Config/Spec field; literals \
         stay legal in tests, examples and ch-bench.\n\
         Escape: // ch-lint: allow(seed-discipline) on the construction line.",
    ),
];

/// Runs every per-file rule over one lexed file. The workspace-level rule
/// (R6 `hot-path-alloc`) runs in [`check_workspace`], which needs every
/// file plus the symbol index.
pub fn check_file(ctx: &FileContext, file: &LexedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    rule_default_hasher(ctx, file, &mut findings);
    rule_nondeterminism(ctx, file, &mut findings);
    rule_panic_path(ctx, file, &mut findings);
    rule_missing_decode(ctx, file, &mut findings);
    rule_ssid_clone(ctx, file, &mut findings);
    rule_seed_discipline(ctx, file, &mut findings);
    findings.sort_by(|a, b| a.line.cmp(&b.line).then_with(|| a.rule.cmp(b.rule)));
    findings
}

/// Runs the index-aware rules (pass 2) over the whole workspace. `files`
/// must be the slice the index was [built](WorkspaceIndex::build) from.
pub fn check_workspace(
    files: &[(FileContext, LexedFile)],
    index: &WorkspaceIndex,
    roots: &[HotPathRoot],
) -> Vec<Finding> {
    let mut findings = Vec::new();
    rule_hot_path_alloc(files, index, roots, &mut findings);
    findings
}

fn push_unless_allowed(
    findings: &mut Vec<Finding>,
    file: &LexedFile,
    ctx: &FileContext,
    rule: &'static str,
    line: u32,
    message: String,
) {
    if !file.is_allowed(rule, line) {
        findings.push(Finding {
            rule,
            path: ctx.path.clone(),
            line,
            message,
        });
    }
}

/// True when `tokens[i]` is production code for `ctx` (not a test target,
/// not inside `#[cfg(test)] mod`).
fn in_production(ctx: &FileContext, file: &LexedFile, i: usize) -> bool {
    ctx.kind == FileKind::Library && !file.is_test[i]
}

// --- R1: default-hasher ---------------------------------------------------

fn rule_default_hasher(ctx: &FileContext, file: &LexedFile, findings: &mut Vec<Finding>) {
    if !DETERMINISM_CRATES.contains(&ctx.crate_name.as_str()) {
        return;
    }
    let toks = &file.tokens;
    for (i, tok) in toks.iter().enumerate() {
        let Some(name) = tok.ident() else { continue };
        if name != "HashMap" && name != "HashSet" {
            continue;
        }
        if !in_production(ctx, file, i) {
            continue;
        }
        // A hasher type parameter makes the collection deterministic:
        // `HashMap<K, V, S>` has two top-level commas, `HashSet<T, S>` one.
        let needed_commas = if name == "HashMap" { 2 } else { 1 };
        if generic_arg_commas(toks, i + 1) >= Some(needed_commas) {
            continue;
        }
        push_unless_allowed(
            findings,
            file,
            ctx,
            "default-hasher",
            tok.line,
            format!(
                "`{name}` with std's randomly seeded hasher in determinism-critical \
                 crate `{}`; use `ch_sim::Det{name}` (or pass an explicit hasher)",
                ctx.crate_name
            ),
        );
    }
}

/// If the token at `i` (optionally after a `::` turbofish) opens a generic
/// argument list, returns the number of top-level commas inside it.
fn generic_arg_commas(toks: &[Token], mut i: usize) -> Option<usize> {
    if toks.get(i)?.is_punct(':')
        && toks.get(i + 1)?.is_punct(':')
        && toks.get(i + 2)?.is_punct('<')
    {
        i += 2;
    }
    if !toks.get(i)?.is_punct('<') {
        return None;
    }
    let mut depth = 0usize;
    let mut commas = 0usize;
    loop {
        let t = toks.get(i)?;
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            depth -= 1;
            if depth == 0 {
                return Some(commas);
            }
        } else if t.is_punct(',') && depth == 1 {
            commas += 1;
        } else if t.is_punct(';') || t.is_punct('{') {
            // Not a generic list after all (e.g. a `<` comparison).
            return None;
        }
        i += 1;
    }
}

// --- R2: nondeterminism ---------------------------------------------------

fn rule_nondeterminism(ctx: &FileContext, file: &LexedFile, findings: &mut Vec<Finding>) {
    if WALL_CLOCK_CRATES.contains(&ctx.crate_name.as_str()) {
        return;
    }
    let toks = &file.tokens;
    for (i, tok) in toks.iter().enumerate() {
        let Some(name) = tok.ident() else { continue };
        if !in_production(ctx, file, i) {
            continue;
        }
        let offending = match name {
            "Instant" | "SystemTime" if path_call(toks, i, "now") => {
                format!("`{name}::now()` reads the wall clock")
            }
            "thread_rng" => "`thread_rng` draws OS-seeded randomness".to_string(),
            "rand" if path_call(toks, i, "random") => {
                "`rand::random` draws OS-seeded randomness".to_string()
            }
            _ => continue,
        };
        push_unless_allowed(
            findings,
            file,
            ctx,
            "nondeterminism",
            tok.line,
            format!(
                "{offending}; simulations must take time from `SimTime` and \
                 randomness from a seeded `SimRng`"
            ),
        );
    }
}

/// `tokens[i]` followed by `:: method`.
fn path_call(toks: &[Token], i: usize, method: &str) -> bool {
    toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 3).is_some_and(|t| t.ident() == Some(method))
}

// --- R3: panic-path -------------------------------------------------------

fn rule_panic_path(ctx: &FileContext, file: &LexedFile, findings: &mut Vec<Finding>) {
    if !PANIC_FREE_CRATES.contains(&ctx.crate_name.as_str()) {
        return;
    }
    let toks = &file.tokens;
    for (i, tok) in toks.iter().enumerate() {
        let Some(name) = tok.ident() else { continue };
        if !in_production(ctx, file, i) {
            continue;
        }
        let what = match name {
            "unwrap" | "expect"
                if i > 0
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|t| t.is_punct('(')) =>
            {
                format!(".{name}()")
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if toks.get(i + 1).is_some_and(|t| t.is_punct('!')) =>
            {
                format!("{name}!")
            }
            _ => continue,
        };
        push_unless_allowed(
            findings,
            file,
            ctx,
            "panic-path",
            tok.line,
            format!(
                "`{what}` in library code of panic-free crate `{}`; return a \
                 Result/Option or justify with an allow comment",
                ctx.crate_name
            ),
        );
    }
}

// --- R4: missing-decode ---------------------------------------------------

/// Path suffixes R4 applies to: the ch-wifi wire-format modules.
const CODEC_MODULES: &[&str] = &["src/frame.rs", "src/ie.rs"];

fn rule_missing_decode(ctx: &FileContext, file: &LexedFile, findings: &mut Vec<Finding>) {
    if ctx.crate_name != "ch-wifi" {
        return;
    }
    let unix_path = ctx.path.replace('\\', "/");
    if !CODEC_MODULES.iter().any(|m| unix_path.ends_with(m)) {
        return;
    }
    let toks = &file.tokens;

    // Public type declarations: `pub struct X` / `pub enum X`.
    let mut public_types: Vec<&str> = Vec::new();
    for i in 0..toks.len() {
        if toks[i].ident() == Some("pub")
            && toks
                .get(i + 1)
                .is_some_and(|t| matches!(t.ident(), Some("struct" | "enum")))
        {
            if let Some(name) = toks.get(i + 2).and_then(Token::ident) {
                public_types.push(name);
            }
        }
    }

    // Inherent-impl methods, with the line of each `fn`.
    for (type_name, methods) in inherent_impl_methods(toks) {
        if !public_types.contains(&type_name) {
            continue;
        }
        let has_decoder = methods
            .iter()
            .any(|(m, _)| m.starts_with("decode") || m.starts_with("parse"));
        for (method, line) in &methods {
            if method.starts_with("encode") && !has_decoder {
                push_unless_allowed(
                    findings,
                    file,
                    ctx,
                    "missing-decode",
                    *line,
                    format!(
                        "public type `{type_name}` can `{method}` but has no \
                         `decode*`/`parse*` counterpart; wire formats must \
                         round-trip"
                    ),
                );
            }
        }
    }
}

/// Collects `(type_name, [(method, line)])` for every inherent `impl` block
/// (trait impls are skipped — their methods belong to the trait contract).
fn inherent_impl_methods(toks: &[Token]) -> Vec<(&str, Vec<(&str, u32)>)> {
    let mut out: Vec<(&str, Vec<(&str, u32)>)> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].ident() != Some("impl") {
            i += 1;
            continue;
        }
        i += 1;
        // Skip `impl<...>` generics.
        if toks.get(i).is_some_and(|t| t.is_punct('<')) {
            i = match skip_balanced(toks, i, '<', '>') {
                Some(j) => j,
                None => break,
            };
        }
        // Read the type path up to `{`, `for`, or `where`.
        let mut type_name: Option<&str> = None;
        let mut is_trait_impl = false;
        let mut in_where = false;
        while let Some(t) = toks.get(i) {
            if t.is_punct('{') {
                break;
            }
            if let Some(id) = t.ident() {
                if id == "for" {
                    is_trait_impl = true;
                } else if id == "where" {
                    // Bounds follow; the head type is already recorded.
                    in_where = true;
                } else if !in_where {
                    // Later path segments overwrite: `fmt::Display` → Display.
                    type_name = Some(id);
                }
            } else if t.is_punct('<') {
                i = match skip_balanced(toks, i, '<', '>') {
                    Some(j) => j,
                    None => return out,
                };
                continue;
            }
            i += 1;
        }
        let Some(body_open) = toks.get(i).filter(|t| t.is_punct('{')).map(|_| i) else {
            continue;
        };
        let body_close = match skip_balanced(toks, body_open, '{', '}') {
            Some(j) => j,
            None => toks.len(),
        };
        if is_trait_impl {
            i = body_close;
            continue;
        }
        let mut methods = Vec::new();
        let mut depth = 0i32;
        for j in body_open..body_close {
            if toks[j].is_punct('{') {
                depth += 1;
            } else if toks[j].is_punct('}') {
                depth -= 1;
            } else if depth == 1 && toks[j].ident() == Some("fn") {
                if let Some(name) = toks.get(j + 1).and_then(Token::ident) {
                    methods.push((name, toks[j + 1].line));
                }
            }
        }
        if let Some(name) = type_name {
            match out.iter_mut().find(|(t, _)| *t == name) {
                Some((_, ms)) => ms.extend(methods),
                None => out.push((name, methods)),
            }
        }
        i = body_close;
    }
    out
}

// --- R5: ssid-clone -------------------------------------------------------

fn rule_ssid_clone(ctx: &FileContext, file: &LexedFile, findings: &mut Vec<Finding>) {
    if !SSID_HOT_PATH_CRATES.contains(&ctx.crate_name.as_str()) {
        return;
    }
    let toks = &file.tokens;
    for (i, tok) in toks.iter().enumerate() {
        // The receiver must be a *named* SSID value: `<ssid-ish ident> . clone (`.
        // `db.resolve(id).clone()` deliberately does not match — the token
        // before `.clone(` there is `)`, and resolving an id is the
        // sanctioned way to materialize an `Ssid` at the edge.
        if tok.ident() != Some("clone")
            || i < 2
            || !toks[i - 1].is_punct('.')
            || !toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            continue;
        }
        let Some(receiver) = toks[i - 2].ident() else {
            continue;
        };
        if !receiver.to_ascii_lowercase().contains("ssid") {
            continue;
        }
        if !in_production(ctx, file, i) {
            continue;
        }
        push_unless_allowed(
            findings,
            file,
            ctx,
            "ssid-clone",
            tok.line,
            format!(
                "`{receiver}.clone()` in the library code of `{}`; the probe \
                 hot path compares interned `SsidId`s — intern the SSID (or \
                 justify the copy with an allow comment)",
                ctx.crate_name
            ),
        );
    }
}

// --- R6: hot-path-alloc ---------------------------------------------------

/// The banned allocating constructs, as token predicates. Deliberate
/// growth patterns (`Vec::with_capacity`, `extend` into reserved space,
/// `resize` for lazy scratch growth) are *not* banned: the zero-alloc
/// claim is "no allocation at steady state", and those amortize to zero.
/// `.clone()` is flagged unconditionally — the lexer cannot see types, so
/// `Copy` clones (already denied workspace-wide by `clippy::clone_on_copy`)
/// and sanctioned fixed-size copies with no heap (the inline `Ssid`) both
/// need the allow comment.
fn allocating_construct(toks: &[Token], i: usize) -> Option<String> {
    let name = toks[i].ident()?;
    let prev_dot = i >= 1 && toks[i - 1].is_punct('.');
    let next_bang = toks.get(i + 1).is_some_and(|t| t.is_punct('!'));
    let next_paren = toks.get(i + 1).is_some_and(|t| t.is_punct('('));
    let turbofish = toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 3).is_some_and(|t| t.is_punct('<'));
    match name {
        "Vec" if path_call(toks, i, "new") => Some("Vec::new()".to_string()),
        "String" if path_call(toks, i, "from") => Some("String::from(…)".to_string()),
        "Box" if path_call(toks, i, "new") => Some("Box::new(…)".to_string()),
        "vec" if next_bang => Some("vec![…]".to_string()),
        "format" if next_bang => Some("format!(…)".to_string()),
        "to_string" | "to_vec" | "clone" if prev_dot && next_paren => Some(format!(".{name}()")),
        "collect" if prev_dot && (next_paren || turbofish) => Some(".collect()".to_string()),
        _ => None,
    }
}

fn rule_hot_path_alloc(
    files: &[(FileContext, LexedFile)],
    index: &WorkspaceIndex,
    roots: &[HotPathRoot],
    findings: &mut Vec<Finding>,
) {
    // Resolve each configured root to definitions: the function name must
    // match and the defining file must be the root's scope (exact file) or
    // sit under it (directory scope — how one root covers every impl of a
    // trait method).
    let mut root_defs: Vec<usize> = Vec::new();
    for root in roots {
        for &d in index.defs_named(&root.name) {
            let path = files[index.defs[d].file].0.path.as_str();
            let in_scope = path == root.scope
                || path
                    .strip_prefix(root.scope.as_str())
                    .is_some_and(|rest| rest.starts_with('/'));
            if in_scope && !index.defs[d].is_test && !root_defs.contains(&d) {
                root_defs.push(d);
            }
        }
    }
    for (d, from) in index.reachable_from(&root_defs) {
        let def = &index.defs[d];
        let (ctx, file) = &files[def.file];
        let root = &index.defs[from];
        let root_desc = format!(
            "{}::{}",
            files[root.file].0.path.trim_end_matches(".rs"),
            root.name
        );
        let toks = &file.tokens;
        for i in def.body.0..def.body.1.min(toks.len()) {
            let Some(construct) = allocating_construct(toks, i) else {
                continue;
            };
            if !in_production(ctx, file, i) {
                continue;
            }
            push_unless_allowed(
                findings,
                file,
                ctx,
                "hot-path-alloc",
                toks[i].line,
                format!(
                    "`{construct}` allocates inside `{}`, which is reachable \
                     from hot-path root `{root_desc}`; reuse a caller-owned \
                     buffer/interned id (or justify with an allow comment)",
                    def.name
                ),
            );
        }
    }
}

// --- R7: seed-discipline --------------------------------------------------

/// RNG types whose construction R7 polices.
const SEEDED_RNGS: &[&str] = &["SimRng", "FaultRng"];

fn rule_seed_discipline(ctx: &FileContext, file: &LexedFile, findings: &mut Vec<Finding>) {
    if !DETERMINISM_CRATES.contains(&ctx.crate_name.as_str()) {
        return;
    }
    let toks = &file.tokens;
    // Duplicate-seed detection is scoped per function body: two RNGs built
    // from the same seed expression draw identical streams — the caller
    // wanted `fork`.
    for def in functions(ctx, file, 0) {
        let mut seen_args: Vec<String> = Vec::new();
        let mut i = def.body.0;
        while i < def.body.1.min(toks.len()) {
            let is_ctor = toks[i].ident().is_some_and(|n| SEEDED_RNGS.contains(&n))
                && path_call(toks, i, "seed_from");
            if !is_ctor {
                i += 1;
                continue;
            }
            let rng = toks[i].ident().unwrap_or_default();
            let call_line = toks[i].line;
            // Argument token range: `(` after `seed_from` to its match.
            let open = i + 4;
            let close = if toks.get(open).is_some_and(|t| t.is_punct('(')) {
                skip_balanced(toks, open, '(', ')').unwrap_or(open + 1)
            } else {
                i += 1;
                continue;
            };
            let args = &toks[open + 1..close.saturating_sub(1)];
            if in_production(ctx, file, i) {
                if args.len() == 1 && args[0].number().is_some() {
                    push_unless_allowed(
                        findings,
                        file,
                        ctx,
                        "seed-discipline",
                        call_line,
                        format!(
                            "`{rng}::seed_from({})` hard-codes a seed in \
                             determinism crate `{}`; take it from \
                             `ch_fleet::derive_seed`, a parent `fork`, or a \
                             config/spec field (literals are fine in tests, \
                             examples and ch-bench)",
                            args[0].number().unwrap_or_default(),
                            ctx.crate_name
                        ),
                    );
                } else {
                    let text = render_tokens(args);
                    if !text.is_empty() && seen_args.contains(&text) {
                        push_unless_allowed(
                            findings,
                            file,
                            ctx,
                            "seed-discipline",
                            call_line,
                            format!(
                                "`{rng}::seed_from({text})` reuses a seed \
                                 already consumed in `{}`; two RNGs seeded \
                                 alike draw identical streams — derive a \
                                 distinct seed with `fork`/`derive_seed`",
                                def.name
                            ),
                        );
                    }
                    seen_args.push(text);
                }
            }
            i = close;
        }
    }
}

/// Canonical text of an argument token run, for duplicate comparison.
fn render_tokens(toks: &[Token]) -> String {
    let mut out = String::new();
    for t in toks {
        if !out.is_empty() {
            out.push(' ');
        }
        match &t.kind {
            crate::lexer::TokenKind::Ident(s) => out.push_str(s),
            crate::lexer::TokenKind::Number(s) => out.push_str(s),
            crate::lexer::TokenKind::Punct(c) => out.push(*c),
        }
    }
    out
}

/// From `toks[open]` (which must be `open_c`), returns the index just past
/// the matching `close_c`.
fn skip_balanced(toks: &[Token], open: usize, open_c: char, close_c: char) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = open;
    while let Some(t) = toks.get(i) {
        if t.is_punct(open_c) {
            depth += 1;
        } else if t.is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return Some(i + 1);
            }
        }
        i += 1;
    }
    None
}
