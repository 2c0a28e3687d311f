//! Pass 1 of the analyzer: a workspace symbol index.
//!
//! The per-file rules (R1–R5, R7) are token patterns; the hot-path rule
//! (R6) is a *workspace* property — "no allocation in any function the
//! probe loop can reach" — so it needs to know, across every crate, which
//! functions exist and who calls whom. This module extracts that from the
//! lexer's token streams:
//!
//! * [`functions`] finds every `fn` definition in a file, with its
//!   enclosing `impl` type (the *self* type — for `impl Attacker for
//!   KarmaAttacker`, `KarmaAttacker`) and the token range of its body;
//! * [`calls_in`] lists the calls a body makes, classified as bare
//!   (`helper(…)`), qualified (`Type::method(…)` / `module::func(…)`) or
//!   method-style (`value.method(…)`);
//! * [`WorkspaceIndex`] stitches those into an approximate call graph and
//!   answers reachability queries from configured hot-path roots.
//!
//! The graph is deliberately **conservative and name-based** — there is no
//! type inference:
//!
//! * a method call `x.select(…)` gets an edge to *every* workspace method
//!   named `select`, whatever type it is defined on;
//! * a qualified call `Type::new(…)` resolves by impl-type when the index
//!   knows a matching method, and falls back to free functions of that
//!   name (covers `module::func` paths); `Self::helper(…)` resolves to the
//!   methods of the caller's own impl type;
//! * calls that resolve to nothing (std, closures, trait-object dispatch
//!   through `dyn`/generics where the method name never appears at the
//!   call site) produce no edges — this is the approximation's blind spot
//!   and is documented in DESIGN §8.
//!
//! Over-approximation yields false reachability (pinned with allow
//! comments where it bites); under-approximation is limited to dispatch a
//! token stream cannot see.

use std::collections::HashMap;

use crate::lexer::{LexedFile, Token};
use crate::{FileContext, FileKind};

/// One `fn` definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Index of the owning file in the slice handed to
    /// [`WorkspaceIndex::build`].
    pub file: usize,
    /// The function's name.
    pub name: String,
    /// The *self* type of the enclosing `impl`, if any (`None` for free
    /// functions and trait declarations' default methods).
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range `[start, end)` of the body, braces included.
    pub body: (usize, usize),
    /// `true` when the definition sits inside a `#[cfg(test)] mod` or a
    /// test-target file: such functions never carry hot-path edges.
    pub is_test: bool,
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `helper(…)` — resolves to free functions.
    Bare,
    /// `Qualifier::name(…)` — resolves by impl-type, falling back to free
    /// functions (module paths); `Self` is the caller's impl type.
    Qualified(String),
    /// `value.name(…)` — resolves to every method of that name.
    Method,
}

/// One call made inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    pub name: String,
    pub kind: CallKind,
    pub line: u32,
}

/// Keywords that look like `ident (` but are not calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "match", "loop", "return", "fn", "in", "as", "move", "unsafe",
    "where", "impl", "dyn", "let", "mut", "ref", "pub", "use", "mod", "crate", "super", "self",
    "Self",
];

/// Extracts every `fn` definition from a lexed file.
///
/// `file_idx` is recorded into each [`FnDef::file`]; test-target files and
/// `#[cfg(test)]` regions mark their definitions [`FnDef::is_test`].
pub fn functions(ctx: &FileContext, file: &LexedFile, file_idx: usize) -> Vec<FnDef> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    // `impl` self-type for every token index (innermost impl wins).
    let impl_of = impl_regions(toks);
    let mut i = 0;
    while i < toks.len() {
        if toks[i].ident() != Some("fn") {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            break;
        };
        let Some(name) = name_tok.ident() else {
            i += 1;
            continue;
        };
        // Find the body's opening brace, skipping the signature. A `;`
        // first means a trait-method declaration or extern — no body.
        let mut j = i + 2;
        let mut angle_depth = 0i32;
        let body_open = loop {
            let Some(t) = toks.get(j) else {
                break None;
            };
            if t.is_punct('<') {
                angle_depth += 1;
            } else if t.is_punct('>') {
                angle_depth -= 1;
            } else if t.is_punct(';') && angle_depth <= 0 {
                break None;
            } else if t.is_punct('{') && angle_depth <= 0 {
                break Some(j);
            }
            j += 1;
        };
        let Some(body_open) = body_open else {
            i += 2;
            continue;
        };
        let body_close = skip_balanced(toks, body_open, '{', '}').unwrap_or(toks.len());
        out.push(FnDef {
            file: file_idx,
            name: name.to_string(),
            impl_type: impl_of[i].map(str::to_string),
            line: toks[i].line,
            body: (body_open, body_close),
            is_test: ctx.kind == FileKind::TestTarget || file.is_test[i],
        });
        // Nested fns are rare; recursing into the body keeps them indexed.
        i = body_open + 1;
    }
    out
}

/// For each token index, the owner type of the innermost enclosing `impl`
/// (self type) or `trait` (trait name) block — `None` outside both.
fn impl_regions(toks: &[Token]) -> Vec<Option<&str>> {
    let mut out = vec![None; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].ident() == Some("trait") {
            // `trait Name<…>: Super { … }` — default methods belong to
            // the trait; the name is the first ident after the keyword.
            let Some(name) = toks.get(i + 1).and_then(Token::ident) else {
                i += 1;
                continue;
            };
            let mut j = i + 2;
            let body_open = loop {
                let Some(t) = toks.get(j) else {
                    break None;
                };
                if t.is_punct('<') {
                    j = match skip_balanced(toks, j, '<', '>') {
                        Some(k) => k,
                        None => break None,
                    };
                    continue;
                }
                if t.is_punct(';') {
                    break None; // `trait Alias = …;` or opaque forms
                }
                if t.is_punct('{') {
                    break Some(j);
                }
                j += 1;
            };
            let Some(body_open) = body_open else {
                i = j.max(i + 1);
                continue;
            };
            let body_close = skip_balanced(toks, body_open, '{', '}').unwrap_or(toks.len());
            for slot in out.iter_mut().take(body_close).skip(body_open) {
                *slot = Some(name);
            }
            i = body_open + 1;
            continue;
        }
        if toks[i].ident() != Some("impl") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_punct('<')) {
            j = match skip_balanced(toks, j, '<', '>') {
                Some(k) => k,
                None => break,
            };
        }
        // Head reading, as in the R4 helper: the last path segment before
        // `{`/`where` is the type; a `for` resets it (trait impls record
        // the self type, which follows the `for`).
        let mut self_type: Option<&str> = None;
        let mut in_where = false;
        while let Some(t) = toks.get(j) {
            if t.is_punct('{') {
                break;
            }
            if let Some(id) = t.ident() {
                if id == "for" {
                    self_type = None; // the self type follows
                } else if id == "where" {
                    in_where = true;
                } else if !in_where {
                    self_type = Some(id);
                }
            } else if t.is_punct('<') {
                j = match skip_balanced(toks, j, '<', '>') {
                    Some(k) => k,
                    None => return out,
                };
                continue;
            }
            j += 1;
        }
        let Some(body_open) = toks.get(j).filter(|t| t.is_punct('{')).map(|_| j) else {
            i = j;
            continue;
        };
        let body_close = skip_balanced(toks, body_open, '{', '}').unwrap_or(toks.len());
        for slot in out.iter_mut().take(body_close).skip(body_open) {
            *slot = self_type;
        }
        // Keep scanning *inside* the impl too: nested impls are legal.
        i = body_open + 1;
    }
    out
}

/// Lists the calls inside one body token range.
pub fn calls_in(toks: &[Token], body: (usize, usize)) -> Vec<Call> {
    let mut out = Vec::new();
    for i in body.0..body.1.min(toks.len()) {
        let Some(name) = toks[i].ident() else {
            continue;
        };
        if NON_CALL_KEYWORDS.contains(&name) {
            continue;
        }
        // A call is `name (` or the turbofish `name ::< … > (`.
        let after = i + 1;
        let open_paren = if toks.get(after).is_some_and(|t| t.is_punct('(')) {
            true
        } else if toks.get(after).is_some_and(|t| t.is_punct(':'))
            && toks.get(after + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(after + 2).is_some_and(|t| t.is_punct('<'))
        {
            skip_balanced(toks, after + 2, '<', '>')
                .is_some_and(|j| toks.get(j).is_some_and(|t| t.is_punct('(')))
        } else {
            false
        };
        if !open_paren {
            continue;
        }
        // Macros (`name!(…)`) are not function calls.
        if toks.get(i + 1).is_some_and(|t| t.is_punct('!')) {
            continue;
        }
        let kind = if i >= 1 && toks[i - 1].is_punct('.') {
            CallKind::Method
        } else if i >= 3
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && toks[i - 3].ident().is_some()
        {
            CallKind::Qualified(toks[i - 3].ident().unwrap_or_default().to_string())
        } else {
            CallKind::Bare
        };
        out.push(Call {
            name: name.to_string(),
            kind,
            line: toks[i].line,
        });
    }
    out
}

/// The workspace-wide symbol index: every function definition, the calls
/// each makes, and a name-resolved call graph.
#[derive(Debug, Default)]
pub struct WorkspaceIndex {
    pub defs: Vec<FnDef>,
    /// `calls[d]` are the calls made by `defs[d]`.
    pub calls: Vec<Vec<Call>>,
    /// `edges[d]` are indices into `defs` the resolver connected.
    pub edges: Vec<Vec<usize>>,
    /// Function name → indices into `defs`, insertion-ordered.
    by_name: HashMap<String, Vec<usize>>,
}

impl WorkspaceIndex {
    /// Builds the index over every file of the workspace (pass 1) with no
    /// crate-dependency information: any crate may call into any other.
    /// The slice order defines [`FnDef::file`] indices and must match the
    /// `files` later handed to the index-aware rules.
    pub fn build(files: &[(FileContext, LexedFile)]) -> WorkspaceIndex {
        WorkspaceIndex::build_with_deps(files, &[])
    }

    /// [`build`](WorkspaceIndex::build), additionally pruning edges that
    /// contradict the crate dependency graph: a call site in crate A only
    /// resolves to a definition in crate B when A == B or `deps` records
    /// B among A's direct dependencies. This kills the name-collision
    /// class of false edge (a runtime crate "calling" a same-named method
    /// of a tool crate nothing links against). An empty `deps` slice means
    /// "no information" and keeps every edge.
    pub fn build_with_deps(
        files: &[(FileContext, LexedFile)],
        deps: &[(String, Vec<String>)],
    ) -> WorkspaceIndex {
        let mut index = WorkspaceIndex::default();
        let mut crate_of: Vec<String> = Vec::new();
        for (file_idx, (ctx, lexed)) in files.iter().enumerate() {
            for def in functions(ctx, lexed, file_idx) {
                index.calls.push(calls_in(&lexed.tokens, def.body));
                index
                    .by_name
                    .entry(def.name.clone())
                    .or_default()
                    .push(index.defs.len());
                crate_of.push(ctx.crate_name.clone());
                index.defs.push(def);
            }
        }
        let edge_ok = |caller: usize, target: usize| -> bool {
            if deps.is_empty() || crate_of[caller] == crate_of[target] {
                return true;
            }
            deps.iter()
                .find(|(name, _)| *name == crate_of[caller])
                .is_some_and(|(_, ds)| ds.contains(&crate_of[target]))
        };
        index.edges = (0..index.defs.len())
            .map(|d| index.resolve_all(d, &edge_ok))
            .collect();
        index
    }

    /// Resolves one definition's calls to candidate definitions. Test
    /// functions never carry edges (their callees are not hot-path
    /// reachable through them).
    fn resolve_all(&self, d: usize, edge_ok: &dyn Fn(usize, usize) -> bool) -> Vec<usize> {
        if self.defs[d].is_test {
            return Vec::new();
        }
        let mut out: Vec<usize> = Vec::new();
        for call in &self.calls[d] {
            let Some(candidates) = self.by_name.get(&call.name) else {
                continue;
            };
            for &c in candidates {
                let target = &self.defs[c];
                if target.is_test || !edge_ok(d, c) {
                    continue;
                }
                let matches = match &call.kind {
                    CallKind::Bare => target.impl_type.is_none(),
                    CallKind::Method => target.impl_type.is_some(),
                    // `Self::helper` names a method of the caller's own
                    // impl (or trait) type.
                    CallKind::Qualified(q) if q == "Self" => {
                        target.impl_type.is_some() && target.impl_type == self.defs[d].impl_type
                    }
                    CallKind::Qualified(q) => {
                        // `Type::method` by impl type; `module::func` falls
                        // through to free functions.
                        target.impl_type.as_deref() == Some(q.as_str())
                            || target.impl_type.is_none()
                    }
                };
                if matches && !out.contains(&c) {
                    out.push(c);
                }
            }
        }
        out
    }

    /// All definitions named `name`, in index order.
    pub fn defs_named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Breadth-first reachability from `roots` (indices into `defs`).
    /// Returns, for every reachable definition, the root it was first
    /// reached from — roots map to themselves.
    pub fn reachable_from(&self, roots: &[usize]) -> Vec<(usize, usize)> {
        let mut from_root = vec![usize::MAX; self.defs.len()];
        let mut queue = std::collections::VecDeque::new();
        for &r in roots {
            if r < self.defs.len() && from_root[r] == usize::MAX {
                from_root[r] = r;
                queue.push_back(r);
            }
        }
        let mut out = Vec::new();
        while let Some(d) = queue.pop_front() {
            out.push((d, from_root[d]));
            for &next in &self.edges[d] {
                if from_root[next] == usize::MAX {
                    from_root[next] = from_root[d];
                    queue.push_back(next);
                }
            }
        }
        out
    }
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
            depth = depth.checked_sub(1)?;
            if depth == 0 {
                return Some(i + 1);
            }
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx(kind: FileKind) -> FileContext {
        FileContext {
            crate_name: "ch-test".to_string(),
            path: "crates/test/src/x.rs".to_string(),
            kind,
        }
    }

    #[test]
    fn functions_record_impl_type_and_body() {
        let src = "\
pub fn free() { helper(); }
struct S;
impl S { fn method(&self) -> u8 { 1 } }
trait T { fn declared(&self); fn defaulted(&self) { self.declared(); } }
impl T for S { fn declared(&self) { self.method(); } }
";
        let file = lex(src);
        let defs = functions(&ctx(FileKind::Library), &file, 0);
        let names: Vec<(&str, Option<&str>)> = defs
            .iter()
            .map(|d| (d.name.as_str(), d.impl_type.as_deref()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free", None),
                ("method", Some("S")),
                ("defaulted", Some("T")),
                ("declared", Some("S")), // trait impl records the self type
            ]
        );
        assert_eq!(defs[0].line, 1);
    }

    #[test]
    fn calls_classified_by_shape() {
        let src = "fn f() { helper(); Type::make(); x.method(); v.iter().collect::<Vec<_>>(); }";
        let file = lex(src);
        let defs = functions(&ctx(FileKind::Library), &file, 0);
        let calls = calls_in(&file.tokens, defs[0].body);
        let got: Vec<(&str, &CallKind)> =
            calls.iter().map(|c| (c.name.as_str(), &c.kind)).collect();
        assert_eq!(
            got,
            vec![
                ("helper", &CallKind::Bare),
                ("make", &CallKind::Qualified("Type".to_string())),
                ("method", &CallKind::Method),
                ("iter", &CallKind::Method),
                ("collect", &CallKind::Method),
            ]
        );
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let src = "fn f(x: u8) { if (x > 0) { vec![1]; format!(\"{x}\"); } for i in (0..x) {} }";
        let file = lex(src);
        let defs = functions(&ctx(FileKind::Library), &file, 0);
        let calls = calls_in(&file.tokens, defs[0].body);
        assert!(calls.is_empty(), "{calls:?}");
    }

    #[test]
    fn reachability_walks_call_edges_but_not_test_code() {
        let src = "\
pub fn root() { step(); }
pub fn step() { leaf_a(); }
pub fn leaf_a() {}
pub fn unrelated() { leaf_b(); }
pub fn leaf_b() {}
#[cfg(test)]
mod tests {
    fn t() { super::leaf_b(); }
}
";
        let file = lex(src);
        let files = vec![(ctx(FileKind::Library), file)];
        let index = WorkspaceIndex::build(&files);
        let roots = index.defs_named("root").to_vec();
        let reached: Vec<&str> = index
            .reachable_from(&roots)
            .iter()
            .map(|&(d, _)| index.defs[d].name.as_str())
            .collect();
        assert_eq!(reached, vec!["root", "step", "leaf_a"]);
    }

    #[test]
    fn trait_method_roots_cover_every_impl() {
        let src_trait = "pub trait A { fn go(&mut self); }";
        let src_one = "impl A for One { fn go(&mut self) { alloc_here(); } }";
        let src_two = "impl A for Two { fn go(&mut self) {} }";
        let files: Vec<(FileContext, LexedFile)> = [src_trait, src_one, src_two]
            .iter()
            .map(|s| (ctx(FileKind::Library), lex(s)))
            .collect();
        let index = WorkspaceIndex::build(&files);
        assert_eq!(index.defs_named("go").len(), 2, "declaration has no body");
    }
}
