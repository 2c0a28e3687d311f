//! Fixture-driven tests for the ch-lint rules: each fixture contains
//! known violations; the tests pin rule ids *and* line numbers, plus the
//! `// ch-lint: allow(...)` suppression behaviour. The workspace-level
//! rule (R6 `hot-path-alloc`) is driven through [`analyze_files`] with a
//! config carrying `[hot-path]` roots.

use ch_analysis::config::Config;
use ch_analysis::{analyze_files, analyze_source, FileContext, FileKind, Finding};

fn run(crate_name: &str, path: &str, kind: FileKind, source: &str) -> Vec<(String, u32)> {
    let ctx = FileContext {
        crate_name: crate_name.to_string(),
        path: path.to_string(),
        kind,
    };
    analyze_source(&ctx, source)
        .into_iter()
        .map(|f: Finding| (f.rule.to_string(), f.line))
        .collect()
}

#[test]
fn r1_default_hasher_fixture() {
    let src = include_str!("fixtures/default_hasher.rs");
    let got = run(
        "ch-sim",
        "crates/sim/src/fixture.rs",
        FileKind::Library,
        src,
    );
    assert_eq!(
        got,
        vec![
            ("default-hasher".to_string(), 2),  // use … HashMap
            ("default-hasher".to_string(), 6),  // HashMap<u64, u32> (no hasher)
            ("default-hasher".to_string(), 7),  // HashSet<u64>
            ("default-hasher".to_string(), 11), // HashMap::new()
        ],
        "line 3 is allow-suppressed; lines 10/14 carry explicit hashers; the \
         #[cfg(test)] mod is exempt"
    );
}

#[test]
fn r1_does_not_apply_outside_determinism_crates() {
    let src = include_str!("fixtures/default_hasher.rs");
    let got = run(
        "ch-analysis",
        "crates/analysis/src/x.rs",
        FileKind::Library,
        src,
    );
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn r2_nondeterminism_fixture() {
    let src = include_str!("fixtures/nondeterminism.rs");
    let got = run(
        "ch-geo",
        "crates/geo/src/fixture.rs",
        FileKind::Library,
        src,
    );
    assert_eq!(
        got,
        vec![
            ("nondeterminism".to_string(), 5),  // Instant::now()
            ("nondeterminism".to_string(), 9),  // SystemTime::now()
            ("nondeterminism".to_string(), 19), // thread_rng()
            ("nondeterminism".to_string(), 23), // rand::random()
        ],
        "line 14 is allow-suppressed; strings, comments and the test mod \
         must not fire"
    );
}

#[test]
fn r2_exempts_bench_crate_and_test_targets() {
    let src = include_str!("fixtures/nondeterminism.rs");
    let bench = run("ch-bench", "crates/bench/src/x.rs", FileKind::Library, src);
    assert!(bench.is_empty(), "{bench:?}");
    let test_target = run("ch-geo", "crates/geo/tests/x.rs", FileKind::TestTarget, src);
    assert!(test_target.is_empty(), "{test_target:?}");
}

#[test]
fn r3_panic_path_fixture() {
    let src = include_str!("fixtures/panic_path.rs");
    let got = run(
        "ch-wifi",
        "crates/wifi/src/fixture.rs",
        FileKind::Library,
        src,
    );
    assert_eq!(
        got,
        vec![
            ("panic-path".to_string(), 5),  // .unwrap()
            ("panic-path".to_string(), 9),  // .expect(…)
            ("panic-path".to_string(), 18), // panic!
            ("panic-path".to_string(), 37), // unreachable!
            ("panic-path".to_string(), 42), // todo!
            ("panic-path".to_string(), 46), // unimplemented!
        ],
        "lines 14 and 53 are allow-suppressed; bare `unwrap`/`expect` \
         identifiers and test code must not fire"
    );
}

#[test]
fn r3_covers_fleet_library_code() {
    // The engine absorbs other code's panics; its own library code is
    // held to the same panic-free bar as the data-plane crates.
    let src = include_str!("fixtures/panic_path.rs");
    let got = run(
        "ch-fleet",
        "crates/fleet/src/fixture.rs",
        FileKind::Library,
        src,
    );
    assert_eq!(
        got,
        vec![
            ("panic-path".to_string(), 5),
            ("panic-path".to_string(), 9),
            ("panic-path".to_string(), 18),
            ("panic-path".to_string(), 37),
            ("panic-path".to_string(), 42),
            ("panic-path".to_string(), 46),
        ],
        "ch-fleet library code is in R3 scope"
    );
    let test_target = run(
        "ch-fleet",
        "crates/fleet/tests/x.rs",
        FileKind::TestTarget,
        src,
    );
    assert!(test_target.is_empty(), "{test_target:?}");
}

#[test]
fn detect_library_code_is_in_r3_r5_and_r7_scope() {
    // The detector rides the same frame stream as the clients, so it is
    // held to the data-plane bars: panic-free (R3), interned-SSID hot
    // path (R5) and seed discipline (R7, via the determinism set).
    let panic_src = include_str!("fixtures/panic_path.rs");
    let got = run(
        "ch-detect",
        "crates/detect/src/fixture.rs",
        FileKind::Library,
        panic_src,
    );
    assert_eq!(
        got.iter().filter(|(rule, _)| rule == "panic-path").count(),
        6,
        "ch-detect library code is in R3 scope: {got:?}"
    );
    let ssid_src = include_str!("fixtures/ssid_clone.rs");
    let got = run(
        "ch-detect",
        "crates/detect/src/fixture.rs",
        FileKind::Library,
        ssid_src,
    );
    assert_eq!(
        got,
        vec![
            ("ssid-clone".to_string(), 5),
            ("ssid-clone".to_string(), 14)
        ],
        "ch-detect library code is in R5 scope"
    );
    let seed_src = include_str!("fixtures/seed_discipline.rs");
    let got = run(
        "ch-detect",
        "crates/detect/src/fixture.rs",
        FileKind::Library,
        seed_src,
    );
    assert_eq!(
        got,
        vec![
            ("seed-discipline".to_string(), 8),
            ("seed-discipline".to_string(), 25),
        ],
        "ch-detect library code is in R7 scope"
    );
}

#[test]
fn r3_does_not_apply_to_non_panic_free_crates() {
    let src = include_str!("fixtures/panic_path.rs");
    let got = run("ch-sim", "crates/sim/src/x.rs", FileKind::Library, src);
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn r4_missing_decode_fixture() {
    let src = include_str!("fixtures/missing_decode.rs");
    let got = run("ch-wifi", "crates/wifi/src/ie.rs", FileKind::Library, src);
    assert_eq!(
        got,
        vec![("missing-decode".to_string(), 9)], // BeaconStub::encode_into
        "ProbeStub pairs encode/parse, SplitStub decodes in a second impl, \
         ScratchStub is private, Display is a trait impl"
    );
}

#[test]
fn r4_scoped_to_wire_format_modules() {
    let src = include_str!("fixtures/missing_decode.rs");
    // Same crate, different module: out of scope.
    let got = run(
        "ch-wifi",
        "crates/wifi/src/codec.rs",
        FileKind::Library,
        src,
    );
    assert!(got.is_empty(), "{got:?}");
    // Same path shape, different crate: out of scope.
    let got = run("ch-sim", "crates/sim/src/ie.rs", FileKind::Library, src);
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn r5_ssid_clone_fixture() {
    let src = include_str!("fixtures/ssid_clone.rs");
    let got = run(
        "ch-attack",
        "crates/attack/src/fixture.rs",
        FileKind::Library,
        src,
    );
    assert_eq!(
        got,
        vec![
            ("ssid-clone".to_string(), 5),  // probe_ssid.clone()
            ("ssid-clone".to_string(), 14), // probe.ssid.clone()
        ],
        "line 18 is allow-suppressed; resolve(..).clone() and non-SSID \
         clones must not fire; the #[cfg(test)] mod is exempt"
    );
}

#[test]
fn r5_scoped_to_hot_path_crates_and_library_code() {
    let src = include_str!("fixtures/ssid_clone.rs");
    // Same shape, non-hot-path crate: out of scope.
    let got = run(
        "ch-scenarios",
        "crates/scenarios/src/x.rs",
        FileKind::Library,
        src,
    );
    assert!(got.is_empty(), "{got:?}");
    // Test targets of an in-scope crate: out of scope.
    let got = run(
        "ch-attack",
        "crates/attack/tests/x.rs",
        FileKind::TestTarget,
        src,
    );
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn allow_comment_suppresses_only_its_rule() {
    let src =
        "pub fn f(v: Option<u8>) -> u8 {\n    v.unwrap() // ch-lint: allow(nondeterminism)\n}\n";
    let got = run("ch-arc", "crates/arc/src/x.rs", FileKind::Library, src);
    assert_eq!(got, vec![("panic-path".to_string(), 2)]);
}

// --- R6: hot-path-alloc (workspace-level, via analyze_files) --------------

fn hot_path_files() -> Vec<(FileContext, String)> {
    let ctx = |path: &str| FileContext {
        crate_name: "ch-attack".to_string(),
        path: path.to_string(),
        kind: FileKind::Library,
    };
    vec![
        (
            ctx("crates/attack/src/hot_entry.rs"),
            include_str!("fixtures/hot_path_entry.rs").to_string(),
        ),
        (
            ctx("crates/attack/src/hot_cold.rs"),
            include_str!("fixtures/hot_path_cold.rs").to_string(),
        ),
    ]
}

fn hot_path_config(root: &str) -> Config {
    let mut config = Config::default();
    config.add_hot_path_root(root).expect("valid root");
    config
}

/// The acceptance-criteria scenario: the allocation sits on a branch the
/// perfbench workload never executes (`cold == true`), two call-graph hops
/// and one file away from the root. The runtime alloc-counter gate is
/// blind to it; the reachability walk is not.
#[test]
fn r6_catches_allocation_on_unexecuted_cold_branch() {
    let files = hot_path_files();
    let config = hot_path_config("crates/attack/src/hot_entry.rs::respond");
    let got: Vec<(String, String, u32)> = analyze_files(&files, &config)
        .into_iter()
        .map(|f| (f.rule.to_string(), f.path, f.line))
        .collect();
    assert_eq!(
        got,
        vec![(
            "hot-path-alloc".to_string(),
            "crates/attack/src/hot_cold.rs".to_string(),
            4, // format! in cold_diagnostics
        )],
        "line 7's .to_vec() is allow-suppressed; not_reachable's \
         String::from and the #[cfg(test)] vec! must not fire"
    );
    let finding = &analyze_files(&files, &config)[0];
    assert!(
        finding.message.contains("hot-path root"),
        "message names the root: {}",
        finding.message
    );
}

/// `Self::helper(…)` resolves to the caller's own impl type: the root
/// reaches the allocation only that way, and a same-named method of
/// another type stays out of reach.
#[test]
fn r6_follows_self_qualified_calls_into_the_callers_impl() {
    let files = vec![(
        FileContext {
            crate_name: "ch-wifi".to_string(),
            path: "crates/wifi/src/parser.rs".to_string(),
            kind: FileKind::Library,
        },
        include_str!("fixtures/hot_path_self.rs").to_string(),
    )];
    let config = hot_path_config("crates/wifi/src/parser.rs::parse");
    let got: Vec<(String, u32)> = analyze_files(&files, &config)
        .into_iter()
        .map(|f| (f.rule.to_string(), f.line))
        .collect();
    assert_eq!(
        got,
        vec![("hot-path-alloc".to_string(), 13)],
        "Parser::copy_payload's .to_vec() fires; Printer's format! must not"
    );
}

#[test]
fn r6_directory_scope_and_unmatched_roots() {
    let files = hot_path_files();
    // A directory scope covers every file under it.
    let config = hot_path_config("crates/attack/src::respond");
    let got = analyze_files(&files, &config);
    assert_eq!(got.len(), 1, "{got:?}");
    // A root that matches nothing on either axis finds nothing.
    for dud in [
        "crates/attack/src/hot_entry.rs::no_such_fn",
        "crates/wifi/src::respond",
    ] {
        let got = analyze_files(&files, &hot_path_config(dud));
        assert!(got.is_empty(), "{dud}: {got:?}");
    }
    // No roots configured: R6 is inert.
    assert!(analyze_files(&files, &Config::default()).is_empty());
}

// --- R7: seed-discipline ---------------------------------------------------

#[test]
fn r7_seed_discipline_fixture() {
    let src = include_str!("fixtures/seed_discipline.rs");
    let got = run(
        "ch-sim",
        "crates/sim/src/fixture.rs",
        FileKind::Library,
        src,
    );
    assert_eq!(
        got,
        vec![
            ("seed-discipline".to_string(), 8),  // SimRng::seed_from(42)
            ("seed-discipline".to_string(), 25), // cfg.seed reused in `reused`
        ],
        "config fields, derive_seed and fork are legitimate; line 36 is \
         allow-suppressed; the #[cfg(test)] mod is exempt"
    );
}

#[test]
fn r7_exempts_non_determinism_crates_and_test_targets() {
    let src = include_str!("fixtures/seed_discipline.rs");
    let bench = run("ch-bench", "crates/bench/src/x.rs", FileKind::Library, src);
    assert!(bench.is_empty(), "{bench:?}");
    let test_target = run("ch-sim", "crates/sim/tests/x.rs", FileKind::TestTarget, src);
    assert!(test_target.is_empty(), "{test_target:?}");
}

// --- Lexer edge cases: constructs that must never produce findings --------

#[test]
fn raw_strings_mentioning_banned_tokens_do_not_fire() {
    let src = "pub fn doc() -> &'static str {\n    \
               r#\"call .unwrap() or panic!(\"x\") or Instant::now()\"#\n}\n";
    let got = run("ch-arc", "crates/arc/src/x.rs", FileKind::Library, src);
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn byte_strings_mentioning_banned_tokens_do_not_fire() {
    let src = "pub fn blob() -> &'static [u8] {\n    \
               b\"thread_rng() .expect(panic!)\"\n}\n\
               pub fn raw_blob() -> &'static [u8] {\n    \
               br#\"SystemTime::now() \"quoted\" todo!()\"#\n}\n";
    let got = run("ch-arc", "crates/arc/src/x.rs", FileKind::Library, src);
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn nested_modules_inside_cfg_test_stay_exempt() {
    let src = "#[cfg(test)]\nmod outer {\n    mod inner {\n        \
               pub fn f(v: Option<u8>) -> u8 {\n            \
               v.unwrap()\n        }\n        \
               pub fn t() -> u32 {\n            \
               rand::thread_rng().gen()\n        }\n    }\n}\n";
    let got = run("ch-arc", "crates/arc/src/x.rs", FileKind::Library, src);
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn doc_comments_mentioning_unwrap_do_not_fire() {
    let src = "/// Call `.unwrap()` here and panic!(\"boom\") there.\n\
               /** Or `.expect(\"x\")`, or unreachable!(). */\n\
               //! Even thread_rng() and SimRng::seed_from(42).\n\
               pub fn documented() {}\n";
    let got = run("ch-arc", "crates/arc/src/x.rs", FileKind::Library, src);
    assert!(got.is_empty(), "{got:?}");
}
