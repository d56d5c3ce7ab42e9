//! Runs mvasd-lint in-process over the workspace: `cargo test` enforces the
//! numeric and hot-path contracts without a separate CI step, and seeded
//! violations prove each rule actually fires.

use mvasd_lint::rules::lint_file;
use mvasd_lint::{run, Options};

fn workspace_root() -> std::path::PathBuf {
    // CARGO_MANIFEST_DIR of the root package IS the workspace root.
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_is_lint_clean() {
    let outcome = run(&Options::at_root(workspace_root())).expect("lint run on the checkout");
    assert!(
        outcome.clean(),
        "the tree must lint clean:\n{}",
        outcome.render_text()
    );
    assert!(outcome.files_scanned > 50, "scan found the workspace");
    assert!(
        outcome.stale.is_empty(),
        "baseline is looser than reality; run `cargo run -p mvasd-lint -- --fix-baseline`:\n{}",
        outcome.render_text()
    );
}

#[test]
fn baseline_ratchet_is_below_the_issue_count() {
    // 462 naked `unwrap()` sites existed when the ratchet was introduced;
    // the recorded debt must only ever go down.
    let outcome = run(&Options::at_root(workspace_root())).expect("lint run on the checkout");
    assert!(
        outcome.baseline_unwrap_total < 462,
        "baseline records {} unwrap sites, ratchet requires < 462",
        outcome.baseline_unwrap_total
    );
}

#[test]
fn json_report_parses_with_the_obsv_parser() {
    let outcome = run(&Options::at_root(workspace_root())).expect("lint run on the checkout");
    let parsed = mvasd_suite::obsv::json::parse(&outcome.render_json()).expect("valid JSON");
    let schema = parsed
        .get("schema")
        .and_then(|v| v.as_str())
        .expect("schema field");
    assert_eq!(schema, "mvasd-lint/1");
}

/// Each seeded violation must produce exactly the advertised rule code when
/// dropped into a library source path.
#[test]
fn seeded_violations_fire_per_rule() {
    let lib = "crates/demo/src/lib.rs";
    let mva = "crates/queueing/src/mva/seeded.rs";
    let cases: &[(&str, &str, &str)] = &[
        ("L1", "float-eq", "fn f(x: f64) -> bool { x == 0.0 }"),
        ("L2", "log-domain", "fn f(x: f64) -> f64 { x.exp() }"),
        ("L3", "unwrap", "fn f(x: Option<u8>) -> u8 { x.unwrap() }"),
        (
            "L4",
            "no-alloc",
            "// lint: no-alloc\nfn f(v: &mut Vec<u8>) { v.push(1); }",
        ),
        ("L5", "allow-justify", "#[allow(dead_code)]\nfn f() {}"),
        (
            "L7",
            "log-as-linear",
            "fn f(a: f64, b: f64) -> f64 { a.ln() * b.ln() }",
        ),
        (
            "L8",
            "captured-mut",
            "fn f() { let mut hits = 0; pool::scoped_indexed(4, 2, |i| { hits += 1; i }); }",
        ),
        (
            "L9",
            "reduction-order",
            "// lint: bit-identical\nfn f(rx: &Receiver<f64>) -> f64 { rx.recv().unwrap_or(0.0) }",
        ),
    ];
    for (rule, code, src) in cases {
        let path = if *rule == "L2" { mva } else { lib };
        let findings = lint_file(path, src);
        let expect = format!("{rule}:{code}");
        assert!(
            findings.iter().any(|f| f.rule_code() == expect),
            "{expect} did not fire on {src:?}: {findings:?}"
        );
    }
}

/// The escape hatches must suppress — with a reason — and A0 must catch a
/// reasonless annotation.
#[test]
fn annotations_suppress_and_demand_reasons() {
    let lib = "crates/demo/src/lib.rs";
    let ok = "// lint: float-eq-ok zero is an exact sentinel\nfn f(x: f64) -> bool { x == 0.0 }";
    assert!(
        lint_file(lib, ok).is_empty(),
        "justified annotation must suppress L1"
    );
    let bare = "// lint: float-eq-ok\nfn f(x: f64) -> bool { x == 0.0 }";
    let findings = lint_file(lib, bare);
    assert!(
        findings.iter().any(|f| f.rule_code() == "A0:annotation"),
        "reasonless annotation must fire A0: {findings:?}"
    );
}

fn real_source(rel: &str) -> (String, String) {
    let path = workspace_root().join(rel);
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    (rel.replace('\\', "/"), src)
}

fn codes(path: &str, src: &str) -> Vec<String> {
    lint_file(path, src).iter().map(|f| f.rule_code()).collect()
}

/// Mutation testing against the real tree: each shipped hot-path file is
/// clean as-is, and a single seeded mutation — the exact failure mode the
/// rule exists to catch — makes the rule fire. This proves the rules run
/// with teeth on the code they guard, not just on synthetic snippets.
#[test]
fn seeded_mutations_of_real_sources_fire_l7_l8_l9() {
    // L7: the convolution workspace binds its one logarithm, the health
    // probe's `ln G`, to a ln-named binding; squaring it is log-as-linear.
    let (path, src) = real_source("crates/queueing/src/mva/convolution/workspace.rs");
    assert!(!codes(&path, &src).iter().any(|c| c.starts_with("L7")));
    let mutated = src.replace("let ln_g = g.ln();", "let ln_g = g.ln() * g.ln();");
    assert_ne!(
        mutated, src,
        "L7 mutation anchor vanished from workspace.rs"
    );
    assert!(
        codes(&path, &mutated).contains(&"L7:log-as-linear".to_string()),
        "L7 must fire on a log*log mutation of workspace.rs"
    );

    // L8: the sweep's pool closure locks per-group job slots under an
    // interference-ok annotation; deleting the annotation exposes the
    // interior mutability to the rule.
    let (path, src) = real_source("crates/core/src/sweep.rs");
    assert!(!codes(&path, &src).iter().any(|c| c.starts_with("L8")));
    let mutated: String = src
        .lines()
        .filter(|l| !l.contains("lint: interference-ok"))
        .collect::<Vec<_>>()
        .join("\n");
    assert_ne!(mutated, src, "L8 mutation anchor vanished from sweep.rs");
    assert!(
        codes(&path, &mutated).contains(&"L8:interior-mut".to_string()),
        "L8 must fire when sweep.rs loses its interference-ok annotation"
    );

    // L8 commit-phase: deleting the commit-phase markers turns the
    // post-pool cache writes into unmarked commits.
    let mutated: String = src
        .lines()
        .filter(|l| !l.contains("lint: commit-phase"))
        .collect::<Vec<_>>()
        .join("\n");
    assert!(
        codes(&path, &mutated).contains(&"L8:unmarked-commit".to_string()),
        "L8 must fire when sweep.rs loses its commit-phase markers"
    );

    // L9: the sweep's `run` is marked bit-identical; a channel receive
    // inside it would make results depend on completion order.
    assert!(!codes(&path, &src).iter().any(|c| c.starts_with("L9")));
    let mutated = src.replace(
        "let mut first_error: Option<QueueingError> = None;",
        "let _probe = self.status_rx.recv();\n        \
         let mut first_error: Option<QueueingError> = None;",
    );
    assert_ne!(mutated, src, "L9 mutation anchor vanished from sweep.rs");
    assert!(
        codes(&path, &mutated).contains(&"L9:reduction-order".to_string()),
        "L9 must fire on a recv() seeded into the bit-identical run fn"
    );
}

/// L6 against the real kernel: `kernel.rs` is clean as shipped, and
/// stripping the `// lint: no-alloc` marker from `dot_rev` trips the
/// ratchet even though the other cells keep theirs.
#[test]
fn seeded_mutation_of_the_real_kernel_fires_l6() {
    let (path, src) = real_source("crates/queueing/src/mva/convolution/kernel.rs");
    assert!(codes(&path, &src).is_empty());
    let mutated = src.replace(
        "// lint: no-alloc\n#[inline]\npub(crate) fn dot_rev(",
        "#[inline]\npub(crate) fn dot_rev(",
    );
    assert_ne!(mutated, src, "L6 mutation anchor vanished from kernel.rs");
    assert_eq!(codes(&path, &mutated), ["L6:kernel-ratchet"]);
}

/// Test-only code is exempt: the same unwrap under `#[cfg(test)]` is fine.
#[test]
fn cfg_test_regions_are_exempt() {
    let lib = "crates/demo/src/lib.rs";
    let src = "#[cfg(test)]\nmod tests {\n fn f(x: Option<u8>) -> u8 { x.unwrap() }\n}";
    assert!(
        lint_file(lib, src).is_empty(),
        "cfg(test) regions must be exempt from L3"
    );
}
