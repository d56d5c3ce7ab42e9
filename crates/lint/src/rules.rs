//! The rule engine: repo-specific contracts checked over the token stream.
//!
//! | Rule | Contract |
//! |------|----------|
//! | `L1:float-eq`    | no `f64`/`f32` literal `==`/`!=` in library `src/` trees |
//! | `L2:log-domain`  | no `.exp()`/`.ln()`/`.powf()` family inside `queueing::mva` |
//! | `L3:unwrap` etc. | no `unwrap()`/non-literal `expect()`/`panic!`/literal indexing in library `src/` trees (baseline-ratcheted) |
//! | `L4:no-alloc`    | functions marked `// lint: no-alloc` contain no allocating tokens |
//! | `L5:allow-justify` | every `#[allow(...)]` carries a trailing justification comment |
//! | `L6:kernel-ratchet`, `L6:sweep-ratchet` | `convolution/kernel.rs` keeps `// lint: no-alloc` on `conv_cell`; `core/src/sweep.rs` keeps `// lint: bit-identical` on `run` |
//! | `L7:log-domain dataflow` | tracked log-domain values never flow into linear-domain arithmetic (see [`crate::dataflow`]) |
//! | `L8:parallel-interference` | pool closures do not mutate captured state, touch interior mutability, or commit mid-plan |
//! | `L9:reduction-order` | `// lint: bit-identical` fns contain no completion-order-dependent float reductions |
//! | `A0:annotation`  | `// lint:` annotations themselves must be well-formed |
//!
//! Escape hatches: `// lint: float-eq-ok <reason>` (L1),
//! `// lint: log-domain-ok <reason>` (L2/L7), and
//! `// lint: interference-ok <reason>` (L8/L9), trailing on the offending
//! line, standalone on the line above, or — new with the AST engine —
//! covering the *whole statement* that starts on the next line (so one
//! annotation can sanction a multi-line loop). `// lint: commit-phase`
//! (no reason needed: the region name is the contract) marks post-pool
//! commit writes. L3 has no annotation — existing sites live in
//! `lint-baseline.toml` and may only disappear. `#[cfg(test)]` items
//! inside `src/` files are exempt from L1–L3 and L7–L9, as are `tests/`,
//! `benches/`, and `examples/` trees.
//!
//! L1–L6 are *token-level* heuristics: `x == 0.0` is flagged because a
//! float literal sits next to the operator; `a == b` between two `f64`
//! bindings is invisible without type inference and out of scope by
//! design (see DESIGN.md §9). L7–L9 run over the [`crate::ast`] tree and
//! the [`crate::dataflow`] facts computed from it (DESIGN.md §14).

use std::collections::HashSet;

use crate::ast::{self, Ast, Expr, ExprKind, Stmt};
use crate::dataflow::{analyze_fn, FlowReport};
use crate::lexer::{lex, TokKind, Token};

/// One diagnostic: `file:line:rule` plus a human message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Rule family: `L1`..`L5` or `A0`.
    pub rule: &'static str,
    /// Specific code within the rule (e.g. `unwrap`, `float-eq`).
    pub code: &'static str,
    /// What went wrong and how to fix it.
    pub message: String,
}

impl Finding {
    /// The `RULE:code` pair used in diagnostics and the baseline file.
    pub fn rule_code(&self) -> String {
        format!("{}:{}", self.rule, self.code)
    }

    /// Whether this finding may be absorbed by `lint-baseline.toml`
    /// (only the ratcheted L3 family is).
    pub fn baselineable(&self) -> bool {
        self.rule == "L3"
    }
}

/// Long-form documentation for one rule family, rendered by
/// `mvasd-lint --explain <RULE>` so a CI failure links straight to the
/// contract it enforces.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule.to_ascii_uppercase().as_str() {
        "L1" => {
            "L1 float-eq: no f64/f32 literal ==/!= in library src/ trees.\n\
             Float equality against literals is almost always a tolerance bug on\n\
             iterative MVA output. Fix: compare with a tolerance helper or\n\
             to_bits(), or annotate `// lint: float-eq-ok <reason>`.\n\
             (numerics/src/dd.rs is allowlisted: exact comparison IS its algorithm.)"
        }
        "L2" => {
            "L2 log-domain: no raw .exp()/.ln()/.powf() family inside queueing::mva\n\
             unless the L7 dataflow pass sanctions the site. Sanctioned shapes:\n\
             discharging a tracked log value, binding into an ln_*/log_* name,\n\
             accumulate-then-.ln() (log-sum-exp), and .exp().ln_1p() chains.\n\
             Everything else routes through convolution/kernel.rs or carries\n\
             `// lint: log-domain-ok <reason>` (covers the next statement)."
        }
        "L3" => {
            "L3 unwrap/expect/panic/index: no .unwrap(), no .expect(<non-literal>),\n\
             no panic!, no indexing by integer literal in library src/ trees.\n\
             Existing sites are grandfathered in lint-baseline.toml and ratcheted:\n\
             counts may only shrink. Fix: typed errors, .get()/.first()/.split_first(),\n\
             slice patterns, or .expect(\"<invariant>\") with a literal message."
        }
        "L4" => {
            "L4 no-alloc: a fn marked `// lint: no-alloc` must not allocate\n\
             (.push/.collect/.to_vec/.clone/.to_string/.to_owned, format!/vec!,\n\
             Box::new/String::from). The steady-state MVA hot path is allocation-free\n\
             (tests/alloc_steady_state.rs); the marker makes that machine-checked."
        }
        "L5" => {
            "L5 allow-justify: every #[allow(...)] needs a trailing `// <why>`\n\
             comment on the closing bracket's line. An allow without a reason is\n\
             a suppressed warning nobody can audit."
        }
        "L6" => {
            "L6 ratchets: structural markers that may never disappear.\n\
             kernel-ratchet — convolution/kernel.rs keeps `// lint: no-alloc` on\n\
             conv_cell (the zero-allocation steady state).\n\
             sweep-ratchet — core/src/sweep.rs keeps `// lint: bit-identical` on\n\
             run (the scenario sweep's model-group fan-out promises bitwise\n\
             equality with serial; the interleaving explorer in numerics::pool\n\
             witnesses it)."
        }
        "L7" => {
            "L7 log-domain dataflow: the AST pass tracks values produced by\n\
             .ln()-family calls (and ln_*/log_* names) through let bindings and\n\
             arithmetic. Findings: log-as-linear (Log*Log, Log/Log, powf on Log),\n\
             double-ln (ln of a logarithm), double-exp (exp of an exp result).\n\
             These are wrong in every reading; there is no annotation that makes\n\
             log(log(x)) a probability. Restructure the flow, or if the analysis\n\
             is mistaken annotate `// lint: log-domain-ok <reason>`."
        }
        "L8" => {
            "L8 parallel-interference: inside scoped_indexed/spawn closures —\n\
             captured-mut: writes or &mut borrows of captured state (tasks race);\n\
             interior-mut: .lock()/.borrow_mut()/atomics on captured values\n\
             (annotate `// lint: interference-ok <reason>` for disjoint-by-\n\
             construction idioms like per-index slots);\n\
             plan-commit: telemetry counters or cache stores inside the closure\n\
             commit observable state in completion order;\n\
             unmarked-commit: serial commit writes after the pool call must sit\n\
             under `// lint: commit-phase`."
        }
        "L9" => {
            "L9 reduction-order: a fn marked `// lint: bit-identical` promises\n\
             schedule-independent output. Flags channel .recv() (completion-order\n\
             consumption) and +=/-=/*= accumulation into shared state from inside\n\
             a pool closure. Fix: collect per-index results, reduce serially in\n\
             index order. Witnessed dynamically by numerics::pool::explore_schedules."
        }
        "A0" => {
            "A0 annotation: `// lint: <key> ...` comments must use a known key\n\
             (float-eq-ok, log-domain-ok, no-alloc, commit-phase, interference-ok,\n\
             bit-identical) and carry a reason where one is required. A typo'd\n\
             escape hatch suppresses nothing — it fails the build instead."
        }
        _ => return None,
    })
}

/// A parsed `// lint: <key> <reason>` annotation.
struct Annotation {
    line: u32,
    key: AnnKey,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AnnKey {
    FloatEqOk,
    LogDomainOk,
    NoAlloc,
    /// Marks a post-pool commit region: the serial half of the
    /// plan/commit protocol, where counter bumps and cache stores are
    /// the *point* (L8 `unmarked-commit` requires it).
    CommitPhase,
    /// Declares a shared-state touch inside a pool closure sound
    /// (slot-claim idioms, per-index locks); the reason is mandatory.
    InterferenceOk,
    /// Declares a fn's parallel output bit-identical to its serial
    /// order; arms L9 and is itself required on `ScenarioSweep::run`.
    BitIdentical,
}

/// `.exp()`-family methods banned on the MVA hot path (L2); the batched
/// log-sum-exp kernel (`convolution/kernel.rs`) and the workspace that
/// drives it (`convolution/workspace.rs`) are the only sanctioned homes
/// for them.
const LOG_DOMAIN_METHODS: &[&str] = &[
    "exp", "ln", "powf", "ln_1p", "exp_m1", "exp2", "log", "log2", "log10",
];

/// Method calls that allocate (or can allocate) and are therefore banned
/// inside `// lint: no-alloc` functions (L4).
const ALLOC_METHODS: &[&str] = &[
    "push",
    "to_vec",
    "collect",
    "clone",
    "to_string",
    "to_owned",
];

/// Macros that allocate (L4).
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// Lints one file. `relpath` is the workspace-relative path and drives the
/// per-rule scoping; `src` is the file contents.
pub fn lint_file(relpath: &str, src: &str) -> Vec<Finding> {
    let path = relpath.replace('\\', "/");
    let toks = lex(src);
    let mut out = Vec::new();

    // Significant (non-comment) tokens, for syntactic pattern matching.
    let sig: Vec<Token> = toks
        .iter()
        .copied()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let in_test = test_regions(&sig, src);
    let annotations = parse_annotations(&path, src, &toks, &mut out);

    let scope = Scope::of(&path);
    let tree = ast::parse(&sig, src);
    let stmt_lines = stmt_line_ranges(&tree, &sig);
    let ctx = Ctx {
        path: &path,
        src,
        toks: &toks,
        sig: &sig,
        in_test: &in_test,
    };

    // The intraprocedural dataflow pass: sanctioned exp/ln sites feed
    // L2's exemptions, trouble feeds L7.
    let mut flow = FlowReport::default();
    if scope.l2 || scope.l7 {
        ast::for_each_fn(&tree.items, &mut |f| {
            if !in_test.get(f.span.lo).copied().unwrap_or(false) {
                flow.merge(analyze_fn(f, &sig));
            }
        });
    }

    if scope.l1 {
        check_float_eq(&ctx, &mut out);
    }
    if scope.l2 {
        check_log_domain(&ctx, &flow.sanctioned, &mut out);
    }
    if scope.l3 {
        check_panic_paths(&ctx, &mut out);
    }
    if scope.l7 {
        for t in &flow.trouble {
            out.push(Finding {
                file: path.clone(),
                line: t.line,
                rule: "L7",
                code: t.code,
                message: t.message.clone(),
            });
        }
    }
    if scope.l8 {
        check_parallel_interference(&ctx, &tree, &mut out);
        check_reduction_order(&ctx, &tree, &annotations, &mut out);
    }
    check_no_alloc(&ctx, &annotations, &mut out);
    check_allow_justified(&ctx, &mut out);
    if path.ends_with("queueing/src/mva/convolution/kernel.rs") {
        check_kernel_ratchet(&ctx, &annotations, &mut out);
    }
    if path.ends_with("core/src/sweep.rs") {
        check_sweep_ratchet(&ctx, &tree, &annotations, &mut out);
    }

    // Apply annotation suppression: an escape-hatch annotation covers
    // findings on its own line, on the line directly below it, and — via
    // the AST — anywhere inside the statement that starts on the line
    // directly below it (so one annotation sanctions a whole loop).
    out.retain(|f| {
        let keys: &[AnnKey] = match (f.rule, f.code) {
            ("L1", _) => &[AnnKey::FloatEqOk],
            ("L2", _) | ("L7", _) => &[AnnKey::LogDomainOk],
            ("L8", "interior-mut") => &[AnnKey::InterferenceOk, AnnKey::CommitPhase],
            ("L8", "unmarked-commit") => &[AnnKey::CommitPhase],
            ("L8", _) => &[AnnKey::InterferenceOk],
            ("L9", _) => &[AnnKey::InterferenceOk],
            _ => return true,
        };
        !annotations
            .iter()
            .any(|a| keys.contains(&a.key) && ann_covers(a, f.line, &stmt_lines))
    });
    out.sort_by(|a, b| (a.line, a.rule, a.code).cmp(&(b.line, b.rule, b.code)));
    out
}

/// Does the annotation on line `a.line` cover a finding on `line`?
/// Same line, next line, or anywhere within a statement that *starts*
/// on the next line.
fn ann_covers(a: &Annotation, line: u32, stmt_lines: &[(u32, u32)]) -> bool {
    if a.line == line || a.line + 1 == line {
        return true;
    }
    stmt_lines
        .iter()
        .any(|&(s, e)| s == a.line + 1 && line >= s && line <= e)
}

/// `(first_line, last_line)` of every statement in every fn body.
fn stmt_line_ranges(tree: &Ast, sig: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    ast::for_each_fn(&tree.items, &mut |f| {
        if let Some(body) = &f.body {
            ast::for_each_stmt(body, &mut |stmt| {
                let sp = stmt.span();
                if sp.hi > sp.lo {
                    if let (Some(a), Some(b)) = (sig.get(sp.lo), sig.get(sp.hi - 1)) {
                        ranges.push((a.line, b.line));
                    }
                }
            });
        }
    });
    ranges
}

/// Which rule families apply to a given path.
struct Scope {
    l1: bool,
    l2: bool,
    l3: bool,
    /// L7 log-domain dataflow (library `src/` trees).
    l7: bool,
    /// L8 parallel-interference and L9 reduction-order (library `src/`).
    l8: bool,
}

impl Scope {
    fn of(path: &str) -> Self {
        let in_src = (path.starts_with("src/") || path.contains("/src/"))
            && !path.contains("/tests/")
            && !path.contains("/benches/")
            && !path.contains("/examples/");
        Self {
            // `numerics::dd` is the allowlisted double-double module: its
            // exact float comparisons ARE the algorithm.
            l1: in_src && !path.ends_with("numerics/src/dd.rs"),
            // Since the L7 dataflow pass learned to sanction the batched
            // exp boundary per-site, the kernel and workspace are no
            // longer blanket-exempt: every exp/ln there must either be
            // provably safe by dataflow or carry its own annotation.
            l2: path.contains("queueing/src/mva/"),
            l3: in_src,
            l7: in_src,
            l8: in_src,
        }
    }
}

struct Ctx<'a> {
    path: &'a str,
    src: &'a str,
    toks: &'a [Token],
    sig: &'a [Token],
    in_test: &'a [bool],
}

impl Ctx<'_> {
    fn text(&self, t: &Token) -> &str {
        t.text(self.src)
    }

    fn is_punct(&self, i: usize, c: char) -> bool {
        self.sig.get(i).is_some_and(|t| t.kind == TokKind::Punct(c))
    }

    fn ident_at(&self, i: usize) -> Option<&str> {
        let t = self.sig.get(i)?;
        (t.kind == TokKind::Ident).then(|| t.text(self.src))
    }

    fn float_at(&self, i: usize) -> bool {
        self.sig
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Number { float: true })
    }

    fn int_at(&self, i: usize) -> bool {
        self.sig
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Number { float: false })
    }

    /// Two tokens with nothing (not even whitespace) between them, the way
    /// `==` arrives as two adjacent `=` puncts.
    fn adjacent(&self, i: usize, j: usize) -> bool {
        match (self.sig.get(i), self.sig.get(j)) {
            (Some(a), Some(b)) => a.end == b.start,
            _ => false,
        }
    }

    fn finding(
        &self,
        out: &mut Vec<Finding>,
        i: usize,
        rule: &'static str,
        code: &'static str,
        message: String,
    ) {
        let line = self.sig.get(i).map(|t| t.line).unwrap_or(0);
        out.push(Finding {
            file: self.path.to_string(),
            line,
            rule,
            code,
            message,
        });
    }
}

/// Marks every significant token inside a `#[cfg(test)]` item (usually the
/// trailing `mod tests { ... }`) so library rules skip test code embedded
/// in `src/` files.
fn test_regions(sig: &[Token], src: &str) -> Vec<bool> {
    let mut in_test = vec![false; sig.len()];
    let mut i = 0;
    while i < sig.len() {
        if !(sig_punct(sig, i, '#') && sig_punct(sig, i + 1, '[')) {
            i += 1;
            continue;
        }
        let Some(close) = match_bracket(sig, i + 1, '[', ']') else {
            i += 1;
            continue;
        };
        if !is_cfg_test_attr(sig, src, i + 2, close) {
            i = close + 1;
            continue;
        }
        // Skip any further attributes between `#[cfg(test)]` and the item.
        let mut k = close + 1;
        while sig_punct(sig, k, '#') && sig_punct(sig, k + 1, '[') {
            match match_bracket(sig, k + 1, '[', ']') {
                Some(c) => k = c + 1,
                None => break,
            }
        }
        // The item body is the first `{ ... }` before any `;`.
        let mut m = k;
        let end = loop {
            if m >= sig.len() {
                break sig.len().saturating_sub(1);
            }
            if sig_punct(sig, m, ';') {
                break m;
            }
            if sig_punct(sig, m, '{') {
                break match_bracket(sig, m, '{', '}').unwrap_or(sig.len() - 1);
            }
            m += 1;
        };
        for flag in in_test.iter_mut().take(end + 1).skip(i) {
            *flag = true;
        }
        i = end + 1;
    }
    in_test
}

fn sig_punct(sig: &[Token], i: usize, c: char) -> bool {
    sig.get(i).is_some_and(|t| t.kind == TokKind::Punct(c))
}

/// Do the tokens in `(start..close)` spell exactly `cfg ( test )`?
fn is_cfg_test_attr(sig: &[Token], src: &str, start: usize, close: usize) -> bool {
    close == start + 4
        && ident_is(sig, src, start, "cfg")
        && sig_punct(sig, start + 1, '(')
        && ident_is(sig, src, start + 2, "test")
        && sig_punct(sig, start + 3, ')')
}

fn ident_is(sig: &[Token], src: &str, i: usize, word: &str) -> bool {
    sig.get(i)
        .is_some_and(|t| t.kind == TokKind::Ident && t.text(src) == word)
}

/// Finds the matching close bracket for the open bracket at `open_idx`.
fn match_bracket(sig: &[Token], open_idx: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in sig.iter().enumerate().skip(open_idx) {
        if t.kind == TokKind::Punct(open) {
            depth += 1;
        } else if t.kind == TokKind::Punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Collects `// lint: <key> <reason>` annotations; malformed ones become
/// `A0:annotation` findings so a typo'd escape hatch can never silently
/// suppress anything.
fn parse_annotations(
    path: &str,
    src: &str,
    toks: &[Token],
    out: &mut Vec<Finding>,
) -> Vec<Annotation> {
    let mut anns = Vec::new();
    for t in toks {
        if t.kind != TokKind::LineComment {
            continue;
        }
        let body = t
            .text(src)
            .trim_start_matches('/')
            .trim_start_matches('!')
            .trim();
        let Some(rest) = body.strip_prefix("lint:") else {
            continue;
        };
        let mut words = rest.split_whitespace();
        let key_text = words.next().unwrap_or("");
        let reason = words.next();
        let (key, needs_reason) = match key_text {
            "float-eq-ok" => (Some(AnnKey::FloatEqOk), true),
            "log-domain-ok" => (Some(AnnKey::LogDomainOk), true),
            "no-alloc" => (Some(AnnKey::NoAlloc), false),
            "commit-phase" => (Some(AnnKey::CommitPhase), false),
            "interference-ok" => (Some(AnnKey::InterferenceOk), true),
            "bit-identical" => (Some(AnnKey::BitIdentical), false),
            other => {
                out.push(Finding {
                    file: path.to_string(),
                    line: t.line,
                    rule: "A0",
                    code: "annotation",
                    message: format!(
                        "unknown lint annotation key `{other}` (expected \
                         float-eq-ok, log-domain-ok, no-alloc, commit-phase, \
                         interference-ok, or bit-identical)"
                    ),
                });
                (None, false)
            }
        };
        if let Some(key) = key {
            if needs_reason && reason.is_none() {
                out.push(Finding {
                    file: path.to_string(),
                    line: t.line,
                    rule: "A0",
                    code: "annotation",
                    message: format!(
                        "`lint: {key_text}` requires a justification: \
                         `// lint: {key_text} <reason>`"
                    ),
                });
            } else {
                anns.push(Annotation { line: t.line, key });
            }
        }
    }
    anns
}

/// L1: a float literal adjacent to `==`/`!=`.
fn check_float_eq(ctx: &Ctx, out: &mut Vec<Finding>) {
    let mut i = 0;
    while i + 1 < ctx.sig.len() {
        let is_eq = ctx.is_punct(i, '=') && ctx.is_punct(i + 1, '=') && ctx.adjacent(i, i + 1);
        let is_ne = ctx.is_punct(i, '!') && ctx.is_punct(i + 1, '=') && ctx.adjacent(i, i + 1);
        if !(is_eq || is_ne) || ctx.in_test.get(i).copied().unwrap_or(false) {
            i += 1;
            continue;
        }
        // `a === b` / `!==` can't occur in Rust; `x != =` neither. The
        // operand on the left is sig[i-1]; on the right sig[i+2], or
        // sig[i+3] behind a unary minus.
        let lhs_float = i > 0 && ctx.float_at(i - 1);
        let rhs_float = ctx.float_at(i + 2) || (ctx.is_punct(i + 2, '-') && ctx.float_at(i + 3));
        if lhs_float || rhs_float {
            let op = if is_eq { "==" } else { "!=" };
            ctx.finding(
                out,
                i,
                "L1",
                "float-eq",
                format!(
                    "floating-point literal compared with `{op}`; use a tolerance \
                     helper, bitwise `to_bits()`, or annotate \
                     `// lint: float-eq-ok <reason>` if exactness is intended"
                ),
            );
        }
        i += 2;
    }
}

/// L2: `.exp()` / `.ln()` / `.powf()` family on the MVA path, minus the
/// sites the L7 dataflow pass sanctions (proper log-domain boundaries).
fn check_log_domain(ctx: &Ctx, sanctioned: &HashSet<usize>, out: &mut Vec<Finding>) {
    for i in 0..ctx.sig.len() {
        if !ctx.is_punct(i, '.') || ctx.in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        let Some(name) = ctx.ident_at(i + 1) else {
            continue;
        };
        if LOG_DOMAIN_METHODS.contains(&name)
            && ctx.is_punct(i + 2, '(')
            && !sanctioned.contains(&(i + 1))
        {
            ctx.finding(
                out,
                i + 1,
                "L2",
                "log-domain",
                format!(
                    "`.{name}()` inside `queueing::mva` that the dataflow pass \
                     cannot sanction: raw exp/ln underflows the Alg. 2/3 \
                     recursions near n=1500; keep the log-domain provenance \
                     visible (bind to an `ln_*` name, discharge a tracked log \
                     value, accumulate-then-`.ln()`), route through the \
                     kernel in `convolution/kernel.rs`, or annotate \
                     `// lint: log-domain-ok <reason>`"
                ),
            );
        }
    }
}

/// L3: panic-prone constructs in library code (ratcheted by baseline).
fn check_panic_paths(ctx: &Ctx, out: &mut Vec<Finding>) {
    for i in 0..ctx.sig.len() {
        if ctx.in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        // `.unwrap()` and `.expect(<non-literal>)`.
        if ctx.is_punct(i, '.') {
            if let Some(name) = ctx.ident_at(i + 1) {
                if name == "unwrap" && ctx.is_punct(i + 2, '(') && ctx.is_punct(i + 3, ')') {
                    ctx.finding(
                        out,
                        i + 1,
                        "L3",
                        "unwrap",
                        "`.unwrap()` in library code: convert to `.expect(\"<invariant>\")` \
                         or propagate a typed error"
                            .to_string(),
                    );
                } else if name == "expect" && ctx.is_punct(i + 2, '(') {
                    let arg_is_literal = ctx
                        .sig
                        .get(i + 3)
                        .is_some_and(|t| matches!(t.kind, TokKind::Str | TokKind::RawStr));
                    if !arg_is_literal {
                        ctx.finding(
                            out,
                            i + 1,
                            "L3",
                            "expect",
                            "`.expect(..)` without a string-literal invariant message; \
                             state the invariant inline or propagate a typed error"
                                .to_string(),
                        );
                    }
                }
            }
        }
        // `panic!(...)`.
        if ctx.ident_at(i) == Some("panic") && ctx.is_punct(i + 1, '!') {
            ctx.finding(
                out,
                i,
                "L3",
                "panic",
                "`panic!` in library code: return a typed error instead".to_string(),
            );
        }
        // Indexing by an integer literal: `expr[0]`.
        if ctx.is_punct(i, '[')
            && ctx.int_at(i + 1)
            && ctx.is_punct(i + 2, ']')
            && i > 0
            && ctx.sig.get(i - 1).is_some_and(|t| {
                t.kind == TokKind::Ident
                    || t.kind == TokKind::Punct(')')
                    || t.kind == TokKind::Punct(']')
            })
        {
            ctx.finding(
                out,
                i + 1,
                "L3",
                "index",
                "indexing by integer literal can panic; prefer `.first()`/`.get(..)` \
                 with explicit handling"
                    .to_string(),
            );
        }
    }
}

/// L4: allocation tokens inside `// lint: no-alloc` functions.
fn check_no_alloc(ctx: &Ctx, annotations: &[Annotation], out: &mut Vec<Finding>) {
    for ann in annotations {
        if ann.key != AnnKey::NoAlloc {
            continue;
        }
        // The marker applies to the next `fn` item after the comment line.
        let Some(fn_idx) = ctx
            .sig
            .iter()
            .position(|t| t.line > ann.line && t.kind == TokKind::Ident && ctx.text(t) == "fn")
        else {
            continue;
        };
        let fn_name = ctx.ident_at(fn_idx + 1).unwrap_or("<unnamed>").to_string();
        // Skip the parameter list, then take the first `{ ... }` as the body.
        let Some(params_open) = (fn_idx..ctx.sig.len()).find(|&k| ctx.is_punct(k, '(')) else {
            continue;
        };
        let Some(params_close) = match_bracket(ctx.sig, params_open, '(', ')') else {
            continue;
        };
        let Some(body_open) = (params_close..ctx.sig.len()).find(|&k| ctx.is_punct(k, '{')) else {
            continue;
        };
        let body_close = match_bracket(ctx.sig, body_open, '{', '}').unwrap_or(ctx.sig.len() - 1);

        for k in body_open..body_close {
            if ctx.is_punct(k, '.') {
                if let Some(name) = ctx.ident_at(k + 1) {
                    if ALLOC_METHODS.contains(&name) {
                        let name = name.to_string();
                        ctx.finding(
                            out,
                            k + 1,
                            "L4",
                            "no-alloc",
                            format!(
                                "`.{name}` inside `// lint: no-alloc` fn `{fn_name}`; \
                                 the steady-state hot path must not allocate \
                                 (see tests/alloc_steady_state.rs)"
                            ),
                        );
                    }
                }
            }
            if let Some(name) = ctx.ident_at(k) {
                if ALLOC_MACROS.contains(&name) && ctx.is_punct(k + 1, '!') {
                    let name = name.to_string();
                    ctx.finding(
                        out,
                        k,
                        "L4",
                        "no-alloc",
                        format!("`{name}!` inside `// lint: no-alloc` fn `{fn_name}`"),
                    );
                }
                let path_new = (name == "Box" && path_seg_is(ctx, k, "new"))
                    || (name == "String" && path_seg_is(ctx, k, "from"));
                if path_new {
                    let name = name.to_string();
                    ctx.finding(
                        out,
                        k,
                        "L4",
                        "no-alloc",
                        format!(
                            "`{name}::..` constructor inside `// lint: no-alloc` fn `{fn_name}`"
                        ),
                    );
                }
            }
        }
    }
}

/// L6: the batched log-sum-exp kernel is exempt from L2 precisely because
/// it *is* the sanctioned exp/ln home — in exchange its `conv_cell` entry
/// point must keep the `// lint: no-alloc` ratchet (the L4 marker) so the
/// steady-state allocation contract can never silently regress. Not
/// baselineable: the marker either precedes `conv_cell` or the tree fails.
fn check_kernel_ratchet(ctx: &Ctx, annotations: &[Annotation], out: &mut Vec<Finding>) {
    let covered = annotations.iter().any(|ann| {
        ann.key == AnnKey::NoAlloc
            && ctx
                .sig
                .iter()
                .position(|t| t.line > ann.line && t.kind == TokKind::Ident && ctx.text(t) == "fn")
                .is_some_and(|fn_idx| ctx.ident_at(fn_idx + 1) == Some("conv_cell"))
    });
    if covered {
        return;
    }
    let line = ctx
        .sig
        .windows(2)
        .find_map(|w| match w {
            [f, n]
                if f.kind == TokKind::Ident
                    && ctx.text(f) == "fn"
                    && n.kind == TokKind::Ident
                    && ctx.text(n) == "conv_cell" =>
            {
                Some(f.line)
            }
            _ => None,
        })
        .unwrap_or(1);
    out.push(Finding {
        file: ctx.path.to_string(),
        line,
        rule: "L6",
        code: "kernel-ratchet",
        message: "the batched kernel's `conv_cell` must carry `// lint: no-alloc`: \
                  it runs inside the zero-allocation steady state of every \
                  convolution sweep (see tests/alloc_steady_state.rs)"
            .to_string(),
    });
}

/// Entry points that hand a closure to the worker pool; their closure
/// arguments execute concurrently on arbitrary threads.
const POOL_FNS: &[&str] = &["scoped_indexed", "spawn"];

/// Methods that reach through interior mutability; inside a pool closure
/// each call is a potential cross-task interference point.
const INTERIOR_MUT_METHODS: &[&str] = &[
    "lock",
    "borrow_mut",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "fetch_update",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Free functions whose call inside a pool closure commits telemetry
/// mid-plan (the plan/commit protocol defers these to the serial phase).
const COMMIT_COUNTER_FNS: &[&str] = &["counter", "gauge"];

/// The innermost name an lvalue-ish chain hangs off: `self.cache` →
/// `cache`, `jobs[j]` → `jobs`, `*slot` → `slot`.
fn expr_base_name(e: &Expr) -> Option<&str> {
    match &e.kind {
        ExprKind::Path(segs) => match segs.as_slice() {
            [seg] => Some(seg.as_str()),
            _ => None,
        },
        ExprKind::Field { name, .. } => Some(name.as_str()),
        ExprKind::Index { recv, .. } => expr_base_name(recv),
        ExprKind::Unary { inner, .. } | ExprKind::Ref { inner, .. } => expr_base_name(inner),
        _ => None,
    }
}

/// Every name bound *inside* a closure body: parameters, `let` bindings,
/// loop/`if let`/`match` pattern names, nested closure params. Anything
/// else the closure touches is captured from the enclosing scope.
fn closure_bound_names(params: &[String], body: &Expr) -> HashSet<String> {
    let mut bound: HashSet<String> = params.iter().cloned().collect();
    ast::walk_expr(body, &mut |e| match &e.kind {
        ExprKind::Closure { params, .. } => bound.extend(params.iter().cloned()),
        ExprKind::Flow { bound: b, .. } => bound.extend(b.iter().cloned()),
        ExprKind::Block(blk) => {
            for stmt in &blk.stmts {
                if let Stmt::Let(l) = stmt {
                    bound.extend(l.names.iter().cloned());
                }
            }
        }
        _ => {}
    });
    bound
}

/// Is this expression a pool dispatch? Returns the closure arguments
/// (the code that will run concurrently).
fn pool_closures(e: &Expr) -> Option<Vec<&Expr>> {
    let (name, args) = match &e.kind {
        ExprKind::Call { callee, args } => match &callee.kind {
            ExprKind::Path(segs) => (segs.last()?.as_str(), args),
            _ => return None,
        },
        ExprKind::Method { name, args, .. } => (name.as_str(), args),
        _ => return None,
    };
    if !POOL_FNS.contains(&name) {
        return None;
    }
    let closures: Vec<&Expr> = args
        .iter()
        .filter(|a| matches!(a.kind, ExprKind::Closure { .. }))
        .collect();
    if closures.is_empty() {
        None
    } else {
        Some(closures)
    }
}

fn line_of_expr(ctx: &Ctx, e: &Expr) -> u32 {
    ctx.sig.get(e.span.lo).map(|t| t.line).unwrap_or(0)
}

/// L8: parallel-interference. Inside `scoped_indexed`/`spawn` closures:
/// no writes to captured state (`captured-mut`), no interior mutability
/// on captured values (`interior-mut`, annotatable), no telemetry or
/// cache commits mid-plan (`plan-commit`); and the serial commit writes
/// *after* a pool call must sit under `// lint: commit-phase`
/// (`unmarked-commit`).
fn check_parallel_interference(ctx: &Ctx, tree: &Ast, out: &mut Vec<Finding>) {
    ast::for_each_fn(&tree.items, &mut |f| {
        if ctx.in_test.get(f.span.lo).copied().unwrap_or(false) {
            return;
        }
        let Some(body) = &f.body else { return };

        // Pass 1: the closures handed to the pool.
        ast::walk_block_exprs(body, &mut |e| {
            let Some(closures) = pool_closures(e) else {
                return;
            };
            for closure in closures {
                let ExprKind::Closure { params, body } = &closure.kind else {
                    continue;
                };
                let bound = closure_bound_names(params, body);
                lint_pool_closure(ctx, body, &bound, out);
            }
        });

        // Pass 2: commit writes after the pool call need the marker.
        let pool_stmt = body.stmts.iter().position(|stmt| {
            let mut found = false;
            each_stmt_expr(stmt, &mut |e| {
                if pool_closures(e).is_some() {
                    found = true;
                }
            });
            found
        });
        if let Some(p) = pool_stmt {
            for stmt in body.stmts.iter().skip(p + 1) {
                each_stmt_expr(stmt, &mut |e| {
                    if let Some(what) = commit_sink(e) {
                        out.push(Finding {
                            file: ctx.path.to_string(),
                            line: line_of_expr(ctx, e),
                            rule: "L8",
                            code: "unmarked-commit",
                            message: format!(
                                "{what} after a parallel section: this is the serial \
                                 commit half of the plan/commit protocol and must be \
                                 marked `// lint: commit-phase`"
                            ),
                        });
                    }
                });
            }
        }
    });
}

/// Walks every expression of one statement.
fn each_stmt_expr<'ast>(stmt: &'ast Stmt, f: &mut dyn FnMut(&'ast Expr)) {
    match stmt {
        Stmt::Let(l) => {
            if let Some(init) = &l.init {
                ast::walk_expr(init, f);
            }
        }
        Stmt::Expr(e) => ast::walk_expr(&e.expr, f),
        Stmt::Item(_) => {}
    }
}

/// Is this expression a commit-phase write (telemetry bump or cache
/// store)? Returns a description for the diagnostic.
fn commit_sink(e: &Expr) -> Option<String> {
    match &e.kind {
        ExprKind::Call { callee, args: _ } => {
            if let ExprKind::Path(segs) = &callee.kind {
                let last = segs.last()?;
                if COMMIT_COUNTER_FNS.contains(&last.as_str()) {
                    return Some(format!("telemetry `{last}(..)` call"));
                }
            }
            None
        }
        ExprKind::Method { recv, name, .. } => {
            if name.starts_with("note_") {
                return Some(format!("telemetry `.{name}(..)` call"));
            }
            if (name == "store" || name == "insert")
                && expr_base_name(recv).is_some_and(|b| b.contains("cache"))
            {
                return Some(format!("cache `.{name}(..)` write"));
            }
            None
        }
        _ => None,
    }
}

/// The body of one pool closure: flag interference with the enclosing
/// scope.
fn lint_pool_closure(ctx: &Ctx, body: &Expr, bound: &HashSet<String>, out: &mut Vec<Finding>) {
    let captured = |e: &Expr| -> Option<String> {
        let base = expr_base_name(e)?;
        if base == "_" || bound.contains(base) {
            None
        } else {
            Some(base.to_string())
        }
    };
    ast::walk_expr(body, &mut |e| match &e.kind {
        ExprKind::Assign { target, .. } => {
            if let Some(base) = captured(target) {
                out.push(Finding {
                    file: ctx.path.to_string(),
                    line: line_of_expr(ctx, e),
                    rule: "L8",
                    code: "captured-mut",
                    message: format!(
                        "write to captured `{base}` inside a pool closure: tasks \
                             race on shared state; return a value per index and \
                             reduce serially after the pool call"
                    ),
                });
            }
        }
        ExprKind::Ref {
            mutable: true,
            inner,
        } => {
            if let Some(base) = captured(inner) {
                out.push(Finding {
                    file: ctx.path.to_string(),
                    line: line_of_expr(ctx, e),
                    rule: "L8",
                    code: "captured-mut",
                    message: format!(
                        "`&mut {base}` borrow of captured state inside a pool \
                             closure: tasks race on shared state; make the state \
                             per-index or move it out of the closure"
                    ),
                });
            }
        }
        ExprKind::Method { recv, name, .. } => {
            if let Some(base) = INTERIOR_MUT_METHODS
                .contains(&name.as_str())
                .then(|| captured(recv))
                .flatten()
            {
                out.push(Finding {
                    file: ctx.path.to_string(),
                    line: line_of_expr(ctx, e),
                    rule: "L8",
                    code: "interior-mut",
                    message: format!(
                        "`.{name}()` on captured `{base}` inside a pool closure \
                             reaches through interior mutability; if the access is \
                             disjoint by construction annotate \
                             `// lint: interference-ok <reason>`"
                    ),
                });
            }
            if name.starts_with("note_") {
                out.push(Finding {
                    file: ctx.path.to_string(),
                    line: line_of_expr(ctx, e),
                    rule: "L8",
                    code: "plan-commit",
                    message: format!(
                        "telemetry `.{name}(..)` inside a pool closure commits \
                             observable state mid-plan in completion order; defer it \
                             to the serial commit phase"
                    ),
                });
            }
            if (name == "store" || name == "insert")
                && expr_base_name(recv).is_some_and(|b| b.contains("cache"))
            {
                out.push(Finding {
                    file: ctx.path.to_string(),
                    line: line_of_expr(ctx, e),
                    rule: "L8",
                    code: "plan-commit",
                    message: format!(
                        "cache `.{name}(..)` inside a pool closure commits in \
                             completion order; collect per-index results and commit \
                             serially after the pool call"
                    ),
                });
            }
        }
        ExprKind::Call { callee, .. } => {
            if let ExprKind::Path(segs) = &callee.kind {
                if let Some(last) = segs.last() {
                    if COMMIT_COUNTER_FNS.contains(&last.as_str()) {
                        out.push(Finding {
                            file: ctx.path.to_string(),
                            line: line_of_expr(ctx, e),
                            rule: "L8",
                            code: "plan-commit",
                            message: format!(
                                "telemetry `{last}(..)` inside a pool closure \
                                     commits counters mid-plan in completion order; \
                                     defer it to the serial commit phase"
                            ),
                        });
                    }
                }
            }
        }
        _ => {}
    });
}

/// L9: reduction-order stability inside `// lint: bit-identical` fns.
/// The annotation promises the fn's output is bit-identical across task
/// schedules, so nothing inside may reduce floats in completion order:
/// no channel receives, no accumulation into shared state from within a
/// pool closure.
fn check_reduction_order(
    ctx: &Ctx,
    tree: &Ast,
    annotations: &[Annotation],
    out: &mut Vec<Finding>,
) {
    let marked: Vec<u32> = annotations
        .iter()
        .filter(|a| a.key == AnnKey::BitIdentical)
        .map(|a| a.line)
        .collect();
    if marked.is_empty() {
        return;
    }
    // Each marker arms the first fn that starts after it.
    let mut fn_lines: Vec<u32> = Vec::new();
    ast::for_each_fn(&tree.items, &mut |f| fn_lines.push(f.line));
    fn_lines.sort_unstable();
    let armed: HashSet<u32> = marked
        .iter()
        .filter_map(|&l| fn_lines.iter().find(|&&fl| fl > l).copied())
        .collect();
    ast::for_each_fn(&tree.items, &mut |f| {
        if ctx.in_test.get(f.span.lo).copied().unwrap_or(false) {
            return;
        }
        if !armed.contains(&f.line) {
            return;
        }
        let Some(body) = &f.body else { return };
        ast::walk_block_exprs(body, &mut |e| {
            if let ExprKind::Method { name, .. } = &e.kind {
                if name == "recv" || name == "try_recv" || name == "recv_timeout" {
                    out.push(Finding {
                        file: ctx.path.to_string(),
                        line: line_of_expr(ctx, e),
                        rule: "L9",
                        code: "reduction-order",
                        message: format!(
                            "`.{name}()` in a `// lint: bit-identical` fn consumes \
                             results in completion order; collect per-index slots \
                             so the reduction order is schedule-independent"
                        ),
                    });
                }
            }
            if let Some(closures) = pool_closures(e) {
                for closure in closures {
                    let ExprKind::Closure { params, body } = &closure.kind else {
                        continue;
                    };
                    let bound = closure_bound_names(params, body);
                    ast::walk_expr(body, &mut |inner| {
                        if let ExprKind::Assign {
                            op: Some(op),
                            target,
                            ..
                        } = &inner.kind
                        {
                            let shared = match expr_base_name(target) {
                                Some(base) => !bound.contains(base),
                                None => true,
                            };
                            if matches!(op.as_str(), "+" | "-" | "*") && shared {
                                out.push(Finding {
                                    file: ctx.path.to_string(),
                                    line: line_of_expr(ctx, inner),
                                    rule: "L9",
                                    code: "reduction-order",
                                    message: format!(
                                        "`{op}=` accumulation into shared state inside \
                                         a pool closure of a `// lint: bit-identical` \
                                         fn: float reduction follows task completion \
                                         order; accumulate per index and reduce \
                                         serially in index order"
                                    ),
                                });
                            }
                        }
                    });
                }
            }
        });
    });
}

/// L6 (`sweep-ratchet`): the scenario sweep's `run` fans independent
/// model groups across the pool and commits them serially; its whole
/// contract is bitwise equality with the serial order, so it must carry —
/// and keep — the `// lint: bit-identical` marker that arms L9 over its
/// body.
fn check_sweep_ratchet(ctx: &Ctx, tree: &Ast, annotations: &[Annotation], out: &mut Vec<Finding>) {
    let mut fns: Vec<(u32, String)> = Vec::new();
    ast::for_each_fn(&tree.items, &mut |f| {
        fns.push((f.line, f.name.clone()));
    });
    fns.sort_unstable();
    let covered = annotations.iter().any(|a| {
        a.key == AnnKey::BitIdentical
            && fns
                .iter()
                .find(|(l, _)| *l > a.line)
                .is_some_and(|(_, name)| name == "run")
    });
    if covered {
        return;
    }
    let line = fns
        .iter()
        .find(|(_, name)| name == "run")
        .map(|(l, _)| *l)
        .unwrap_or(1);
    out.push(Finding {
        file: ctx.path.to_string(),
        line,
        rule: "L6",
        code: "sweep-ratchet",
        message: "the scenario sweep's `run` must carry `// lint: bit-identical`: \
                  its model-group fan-out promises bitwise equality with the \
                  serial schedule (see the interleaving explorer in \
                  numerics::pool and tests/interleaving.rs)"
            .to_string(),
    });
}

/// Is `sig[k] :: <seg>` with the given trailing segment name?
fn path_seg_is(ctx: &Ctx, k: usize, seg: &str) -> bool {
    ctx.is_punct(k + 1, ':') && ctx.is_punct(k + 2, ':') && ctx.ident_at(k + 3) == Some(seg)
}

/// L5: `#[allow(...)]` / `#![allow(...)]` needs a trailing `// why`.
fn check_allow_justified(ctx: &Ctx, out: &mut Vec<Finding>) {
    for i in 0..ctx.sig.len() {
        if !ctx.is_punct(i, '#') {
            continue;
        }
        let bracket = if ctx.is_punct(i + 1, '[') {
            i + 1
        } else if ctx.is_punct(i + 1, '!') && ctx.is_punct(i + 2, '[') {
            i + 2
        } else {
            continue;
        };
        if ctx.ident_at(bracket + 1) != Some("allow") {
            continue;
        }
        let Some(close) = match_bracket(ctx.sig, bracket, '[', ']') else {
            continue;
        };
        let close_tok = ctx.sig[close];
        let justified = ctx.toks.iter().any(|t| {
            t.kind == TokKind::LineComment
                && t.line == close_tok.line
                && t.start >= close_tok.end
                && t.text(ctx.src).trim_start_matches('/').trim().len() > 1
        });
        if !justified {
            ctx.finding(
                out,
                i,
                "L5",
                "allow-justify",
                "`#[allow(...)]` without a trailing justification comment; \
                 append `// <why this allow is sound>`"
                    .to_string(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(path: &str, src: &str) -> Vec<String> {
        lint_file(path, src)
            .into_iter()
            .map(|f| f.rule_code())
            .collect()
    }

    const LIB: &str = "crates/demo/src/lib.rs";
    const MVA: &str = "crates/queueing/src/mva/solver.rs";

    #[test]
    fn l1_flags_float_literal_comparisons() {
        assert_eq!(
            codes(LIB, "fn f(x: f64) -> bool { x == 0.0 }"),
            ["L1:float-eq"]
        );
        assert_eq!(
            codes(LIB, "fn f(x: f64) -> bool { 1.5 != x }"),
            ["L1:float-eq"]
        );
        assert_eq!(
            codes(LIB, "fn f(x: f64) -> bool { x == -0.25 }"),
            ["L1:float-eq"]
        );
        // Integers, orderings, and bit comparisons are fine.
        assert!(codes(LIB, "fn f(x: u32) -> bool { x == 0 }").is_empty());
        assert!(codes(LIB, "fn f(x: f64) -> bool { x <= 0.0 }").is_empty());
        assert!(codes(
            LIB,
            "fn f(a: f64, b: f64) -> bool { a.to_bits() == b.to_bits() }"
        )
        .is_empty());
    }

    #[test]
    fn l1_respects_annotations_and_scope() {
        let trailing = "fn f(x: f64) -> bool { x == 0.0 } // lint: float-eq-ok exact sentinel";
        assert!(codes(LIB, trailing).is_empty());
        let above = "// lint: float-eq-ok exact sentinel\nfn f(x: f64) -> bool { x == 0.0 }";
        assert!(codes(LIB, above).is_empty());
        // Annotation without a reason is itself a finding and suppresses nothing.
        let bare = "// lint: float-eq-ok\nfn f(x: f64) -> bool { x == 0.0 }";
        assert_eq!(codes(LIB, bare), ["A0:annotation", "L1:float-eq"]);
        // dd.rs is allowlisted; tests/ trees are out of scope.
        assert!(codes(
            "crates/numerics/src/dd.rs",
            "fn f(x: f64) -> bool { x == 0.0 }"
        )
        .is_empty());
        assert!(codes(
            "crates/demo/tests/t.rs",
            "fn f(x: f64) -> bool { x == 0.0 }"
        )
        .is_empty());
    }

    #[test]
    fn l2_flags_exp_family_only_on_mva_path() {
        assert_eq!(
            codes(MVA, "fn f(x: f64) -> f64 { x.exp() }"),
            ["L2:log-domain"]
        );
        assert_eq!(
            codes(MVA, "fn f(x: f64) -> f64 { x.powf(2.0) }"),
            ["L2:log-domain"]
        );
        assert!(codes(LIB, "fn f(x: f64) -> f64 { x.exp() }").is_empty());
        let annotated =
            "fn f(x: f64) -> f64 {\n    // lint: log-domain-ok reference oracle\n    x.exp()\n}";
        assert!(codes(MVA, annotated).is_empty());
    }

    #[test]
    fn l2_dataflow_sanctions_proper_log_boundaries() {
        // Discharging a tracked log value is a sanctioned boundary.
        assert!(codes(MVA, "fn f(d: f64) -> f64 { let ln_d = d.ln(); ln_d.exp() }").is_empty());
        // Accumulate-then-ln is the log-sum-exp re-entry.
        let lse = "fn f(a: f64, b: f64, m: f64) -> f64 {\n\
                       let mut acc = 0.0;\n\
                       acc += (a - m).exp();\n\
                       acc += (b - m).exp();\n\
                       m + acc.ln()\n\
                   }";
        assert!(codes(MVA, lse).is_empty());
        // The kernel and workspace are no longer blanket-exempt: an exp
        // the dataflow cannot justify fires even there.
        let kernel = "crates/queueing/src/mva/convolution/kernel.rs";
        assert_eq!(
            codes(
                kernel,
                "// lint: no-alloc\npub fn conv_cell(q: f64) -> f64 { q.exp() }"
            ),
            ["L2:log-domain"]
        );
    }

    #[test]
    fn annotations_cover_the_whole_next_statement() {
        let src = "fn f(x: f64) -> f64 {\n\
                       // lint: log-domain-ok oracle comparison loop\n\
                       let v = [x, x]\n\
                           .iter()\n\
                           .map(|t| t.powf(2.0))\n\
                           .fold(0.0, |a, b| a + b);\n\
                       v\n\
                   }";
        assert!(codes(MVA, src).is_empty());
        let bare = src.replace("// lint: log-domain-ok oracle comparison loop\n", "");
        assert_eq!(codes(MVA, &bare), ["L2:log-domain"]);
    }

    #[test]
    fn l7_flags_log_domain_misuse_anywhere_in_src() {
        assert_eq!(
            codes(
                LIB,
                "fn f(x: f64, y: f64) -> f64 { let a = x.ln(); let b = y.ln(); a * b }"
            ),
            ["L7:log-as-linear"]
        );
        assert_eq!(
            codes(LIB, "fn f(x: f64) -> f64 { let a = x.ln(); a.ln() }"),
            ["L7:double-ln"]
        );
        assert_eq!(
            codes(LIB, "fn g(x: f64) -> f64 { x.exp().exp() }"),
            ["L7:double-exp"]
        );
        // The same escape hatch as L2 applies when the analysis is wrong.
        let ann = "fn f(x: f64) -> f64 {\n\
                       let a = x.ln();\n\
                       // lint: log-domain-ok iterated log is intended here\n\
                       a.ln()\n\
                   }";
        assert!(codes(LIB, ann).is_empty());
        // Test modules are exempt.
        let test_mod =
            "#[cfg(test)]\nmod tests {\n    fn f(x: f64) -> f64 { let a = x.ln(); a.ln() }\n}";
        assert!(codes(LIB, test_mod).is_empty());
    }

    #[test]
    fn l8_flags_interference_inside_pool_closures() {
        // Write to captured state.
        let src = "fn f(n: usize) -> usize {\n\
                       let mut hits = 0;\n\
                       pool::scoped_indexed(n, 4, |i| {\n\
                           hits += 1;\n\
                           i\n\
                       });\n\
                       hits\n\
                   }";
        assert!(codes(LIB, src).contains(&"L8:captured-mut".to_string()));
        // Interior mutability on a captured value, and its escape hatch.
        let src = "fn f(n: usize, next: &AtomicUsize) {\n\
                       scoped_indexed(n, 4, |i| {\n\
                           next.fetch_add(1, Ordering::Relaxed);\n\
                           i\n\
                       });\n\
                   }";
        assert_eq!(codes(LIB, src), ["L8:interior-mut"]);
        // The annotation above the pool statement covers the whole call.
        let ann = src.replace(
            "scoped_indexed",
            "// lint: interference-ok per-index claim, each task gets a unique slot\n\
             scoped_indexed",
        );
        assert!(codes(LIB, &ann).is_empty());
        // Telemetry mid-plan.
        let src = "fn f(n: usize) {\n\
                       scoped_indexed(n, 4, |i| {\n\
                           obsv::counter(\"solves\", 1);\n\
                           i\n\
                       });\n\
                   }";
        assert_eq!(codes(LIB, src), ["L8:plan-commit"]);
        // Closure-local state is not interference.
        let local = "fn f(n: usize) {\n\
                         scoped_indexed(n, 4, |i| {\n\
                             let mut acc = 0.0;\n\
                             for k in 0..i {\n\
                                 acc += k as f64;\n\
                             }\n\
                             acc\n\
                         });\n\
                     }";
        assert!(codes(LIB, local).is_empty());
    }

    #[test]
    fn l8_requires_commit_phase_markers_after_the_pool() {
        let src = "fn f(&mut self, n: usize) {\n\
                       let r = pool::scoped_indexed(n, 4, |i| i);\n\
                       self.cache.insert(n, r);\n\
                   }";
        assert_eq!(codes(LIB, src), ["L8:unmarked-commit"]);
        let marked = "fn f(&mut self, n: usize) {\n\
                          let r = pool::scoped_indexed(n, 4, |i| i);\n\
                          // lint: commit-phase\n\
                          self.cache.insert(n, r);\n\
                      }";
        assert!(codes(LIB, marked).is_empty());
    }

    #[test]
    fn l9_fires_inside_bit_identical_fns() {
        // Completion-order channel consumption.
        let src = "// lint: bit-identical\n\
                   fn reduce(n: usize, rx: &Receiver<f64>) -> f64 {\n\
                       let mut acc = 0.0;\n\
                       for _ in 0..n {\n\
                           acc += rx.recv().expect(\"worker sends once\");\n\
                       }\n\
                       acc\n\
                   }";
        assert_eq!(codes(LIB, src), ["L9:reduction-order"]);
        // Completion-order accumulation from inside a pool closure (also
        // an L8 captured-mut interference).
        let src = "// lint: bit-identical\n\
                   fn reduce(n: usize) -> f64 {\n\
                       let mut acc = 0.0;\n\
                       scoped_indexed(n, 4, |i| {\n\
                           acc += i as f64;\n\
                           i\n\
                       });\n\
                       acc\n\
                   }";
        let found = codes(LIB, src);
        assert!(
            found.contains(&"L9:reduction-order".to_string()),
            "{found:?}"
        );
        // Unmarked fns with the same shape are L8's business, not L9's.
        let unmarked = src.replace("// lint: bit-identical\n", "");
        assert!(!codes(LIB, &unmarked).contains(&"L9:reduction-order".to_string()));
    }

    #[test]
    fn l6_requires_the_sweep_bit_identical_ratchet() {
        let sweep = "crates/core/src/sweep.rs";
        let ok = "// lint: bit-identical\npub fn run(&mut self) {}";
        assert!(codes(sweep, ok).is_empty());
        let missing = "pub fn run(&mut self) {}";
        assert_eq!(codes(sweep, missing), ["L6:sweep-ratchet"]);
        // A marker on some other fn does not satisfy the ratchet.
        let wrong = "// lint: bit-identical\nfn other() {}\npub fn run(&mut self) {}";
        assert_eq!(codes(sweep, wrong), ["L6:sweep-ratchet"]);
    }

    #[test]
    fn explain_covers_every_rule_family() {
        for rule in ["L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9", "A0"] {
            assert!(explain(rule).is_some(), "missing explain({rule})");
        }
        assert!(explain("L10").is_none());
        assert!(explain("l7").is_some(), "explain is case-insensitive");
    }

    #[test]
    fn l3_flags_panic_paths() {
        assert_eq!(
            codes(LIB, "fn f(x: Option<u32>) -> u32 { x.unwrap() }"),
            ["L3:unwrap"]
        );
        assert_eq!(
            codes(LIB, "fn f(x: Option<u32>, m: &str) -> u32 { x.expect(m) }"),
            ["L3:expect"]
        );
        assert!(codes(
            LIB,
            "fn f(x: Option<u32>) -> u32 { x.expect(\"invariant\") }"
        )
        .is_empty());
        assert_eq!(codes(LIB, "fn f() { panic!(\"boom\") }"), ["L3:panic"]);
        assert_eq!(codes(LIB, "fn f(v: &[u32]) -> u32 { v[0] }"), ["L3:index"]);
        // Array literals and macro brackets are not indexing.
        assert!(codes(LIB, "fn f() -> [u32; 2] { [0, 1] }").is_empty());
        assert!(codes(LIB, "fn f() -> Vec<u32> { vec![0] }").is_empty());
    }

    #[test]
    fn l3_exempts_cfg_test_modules() {
        let src = "fn ok() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let v = vec![1]; assert_eq!(v[0], Some(1).unwrap()); }\n}\n";
        assert!(codes(LIB, src).is_empty());
    }

    #[test]
    fn l4_flags_alloc_tokens_in_marked_fns() {
        let src = "// lint: no-alloc\nfn hot(&mut self) { self.buf.push(1); }";
        assert_eq!(codes(LIB, src), ["L4:no-alloc"]);
        let src = "// lint: no-alloc\nfn hot(x: &str) -> String { format!(\"{x}\") }";
        assert_eq!(codes(LIB, src), ["L4:no-alloc"]);
        let src = "// lint: no-alloc\nfn hot(x: u32) -> Box<u32> { Box::new(x) }";
        assert_eq!(codes(LIB, src), ["L4:no-alloc"]);
        // Unmarked functions may allocate freely.
        assert!(codes(LIB, "fn cold(&mut self) { self.buf.push(1); }").is_empty());
        // The marked fn's body ends where its braces do.
        let src = "// lint: no-alloc\nfn hot(x: u32) -> u32 { x + 1 }\nfn cold() { let v = vec![1].clone(); drop(v); }";
        assert!(codes(LIB, src).is_empty());
    }

    #[test]
    fn l6_requires_the_kernel_no_alloc_ratchet() {
        let kernel = "crates/queueing/src/mva/convolution/kernel.rs";
        let ok = "// lint: no-alloc\npub fn conv_cell(a: &[f64]) -> f64 { 0.0 }";
        assert!(codes(kernel, ok).is_empty());
        let missing = "pub fn conv_cell(a: &[f64]) -> f64 { 0.0 }";
        assert_eq!(codes(kernel, missing), ["L6:kernel-ratchet"]);
        // A marker on some *other* fn does not satisfy the ratchet.
        let wrong = "// lint: no-alloc\nfn other() {}\npub fn conv_cell(a: &[f64]) -> f64 { 0.0 }";
        assert_eq!(codes(kernel, wrong), ["L6:kernel-ratchet"]);
        // Only the kernel path is in scope.
        assert!(codes(LIB, missing).is_empty());
    }

    #[test]
    fn l5_requires_trailing_justification() {
        assert_eq!(
            codes(LIB, "#[allow(dead_code)]\nfn f() {}"),
            ["L5:allow-justify"]
        );
        assert!(codes(
            LIB,
            "#[allow(dead_code)] // kept for the ffi layer\nfn f() {}"
        )
        .is_empty());
        // Other attributes are untouched.
        assert!(codes(LIB, "#[inline]\nfn f() {}").is_empty());
    }

    #[test]
    fn string_and_comment_contents_never_trigger() {
        let src = r##"
fn f() -> &'static str {
    // example: x == 0.0 and v.unwrap() and .exp()
    /* also panic!("no") */
    r#"x == 0.0 .unwrap() panic!"#
}
"##;
        assert!(codes(MVA, src).is_empty());
    }
}
