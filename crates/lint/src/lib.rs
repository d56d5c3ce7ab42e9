//! `mvasd-lint`: in-house static analysis for the MVASD workspace.
//!
//! The MVASD hot path depends on invariants the compiler cannot see:
//! magnitudes stay in extended-exponent cells or in tracked logarithms
//! (naked `exp()`/`ln()` underflows the PAPER.md Alg. 2/3 recursions near
//! n = 1500), steady-state stepping must not allocate, and library crates
//! must not panic. Instead of pulling in dylint/clippy plugins — the
//! workspace builds offline with an empty registry — this crate is a small
//! hand-rolled lexer ([`lexer`]) plus a rule engine ([`rules`]) that walks
//! every `.rs` file and enforces those contracts, with a ratcheted
//! baseline ([`baseline`]) for the pre-existing `unwrap()` debt.
//!
//! # Quickstart
//!
//! ```text
//! cargo run -p mvasd-lint                # human-readable diagnostics
//! cargo run -p mvasd-lint -- --json     # machine-readable (mvasd-lint/1)
//! cargo run -p mvasd-lint -- --fix-baseline   # tighten lint-baseline.toml
//! ```
//!
//! The binary exits 0 when the tree is clean (modulo baseline), 1 on any
//! finding, 2 on usage/IO errors. `tests/lint_clean.rs` at the workspace
//! root runs the same engine in-process so `cargo test` enforces the
//! contracts without a separate CI step.

#![forbid(unsafe_code)]

pub mod ast;
pub mod baseline;
pub mod dataflow;
pub mod lexer;
pub mod rules;

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use baseline::Baseline;
use mvasd_obsv::json;
use rules::Finding;

/// How a lint run is configured.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workspace root to scan.
    pub root: PathBuf,
    /// Path to the ratchet file (usually `<root>/lint-baseline.toml`).
    pub baseline_path: PathBuf,
    /// Rewrite the baseline with the current (hopefully lower) counts.
    pub fix_baseline: bool,
}

impl Options {
    /// Options rooted at `root` with the conventional baseline path.
    pub fn at_root(root: impl Into<PathBuf>) -> Self {
        let root = root.into();
        let baseline_path = root.join("lint-baseline.toml");
        Self {
            root,
            baseline_path,
            fix_baseline: false,
        }
    }
}

/// A failed run (not "findings found" — real IO/parse errors).
#[derive(Debug)]
pub enum LintError {
    /// Reading a source file or the baseline failed.
    Io {
        /// The offending path.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The baseline file exists but does not parse.
    Baseline(baseline::BaselineError),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io { path, source } => {
                write!(f, "io error on {}: {source}", path.display())
            }
            LintError::Baseline(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LintError {}

/// One stale baseline entry: the tree now has fewer findings than the
/// ratchet allows, so the baseline should be tightened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaleEntry {
    /// Workspace-relative file.
    pub file: String,
    /// `rule:code` pair.
    pub rule_code: String,
    /// Count the baseline grandfathers.
    pub allowed: u64,
    /// Count actually found (strictly less than `allowed`).
    pub found: u64,
}

/// The result of a lint run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Findings that fail the run (non-baselineable rules, plus L3 groups
    /// exceeding their grandfathered count).
    pub errors: Vec<Finding>,
    /// L3 findings absorbed by the baseline.
    pub baselined: u64,
    /// Baseline entries that are now looser than reality.
    pub stale: Vec<StaleEntry>,
    /// Total `L3:unwrap` sites the (possibly just-rewritten) baseline
    /// records — the number the acceptance ratchet watches.
    pub baseline_unwrap_total: u64,
}

impl Outcome {
    /// Whether the run passes.
    pub fn clean(&self) -> bool {
        self.errors.is_empty()
    }

    /// Per-`rule:code` error counts, sorted.
    pub fn error_counts(&self) -> BTreeMap<String, usize> {
        let mut m = BTreeMap::new();
        for f in &self.errors {
            *m.entry(f.rule_code()).or_insert(0) += 1;
        }
        m
    }

    /// Human-readable report: one `file:line: rule: message` per error
    /// plus a summary trailer.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.errors {
            out.push_str(&format!(
                "{}:{}: {}: {}\n",
                f.file,
                f.line,
                f.rule_code(),
                f.message
            ));
        }
        for s in &self.stale {
            out.push_str(&format!(
                "note: baseline is stale for {} {} (allows {}, found {}); \
                 run --fix-baseline to tighten\n",
                s.file, s.rule_code, s.allowed, s.found
            ));
        }
        out.push_str(&format!(
            "mvasd-lint: {} file(s), {} error(s), {} baselined finding(s), \
             {} unwrap site(s) in baseline\n",
            self.files_scanned,
            self.errors.len(),
            self.baselined,
            self.baseline_unwrap_total
        ));
        out
    }

    /// Machine-readable report (schema `mvasd-lint/1`), in the same
    /// hand-built JSON style as `mvasd-obsv`'s sinks and validated by its
    /// bundled parser in the test suite.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"mvasd-lint/1\"");
        out.push_str(&format!(",\"files_scanned\":{}", self.files_scanned));
        out.push_str(&format!(",\"clean\":{}", self.clean()));
        out.push_str(",\"errors\":[");
        for (i, f) in self.errors.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"code\":\"{}\",\
                 \"message\":\"{}\"}}",
                json::escape(&f.file),
                f.line,
                f.rule,
                f.code,
                json::escape(&f.message)
            ));
        }
        out.push(']');
        out.push_str(",\"error_counts\":{");
        for (i, (rc, n)) in self.error_counts().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{n}", json::escape(rc)));
        }
        out.push('}');
        out.push_str(&format!(",\"baselined\":{}", self.baselined));
        out.push_str(&format!(
            ",\"baseline_unwrap_total\":{}",
            self.baseline_unwrap_total
        ));
        out.push_str(&format!(",\"stale_baseline_entries\":{}", self.stale.len()));
        out.push('}');
        out
    }
}

/// Recursively collects the workspace's `.rs` files (skipping `target/`,
/// VCS metadata, and other dot-directories), sorted for deterministic
/// diagnostics.
pub fn collect_rs_files(root: &Path) -> Result<Vec<PathBuf>, LintError> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = std::fs::read_dir(&dir).map_err(|source| LintError::Io {
            path: dir.clone(),
            source,
        })?;
        for entry in entries {
            let entry = entry.map_err(|source| LintError::Io {
                path: dir.clone(),
                source,
            })?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Runs the full pipeline: walk, lint, apply the baseline ratchet, and
/// (optionally) rewrite the baseline.
pub fn run(opts: &Options) -> Result<Outcome, LintError> {
    let files = collect_rs_files(&opts.root)?;
    let mut all: Vec<Finding> = Vec::new();
    for path in &files {
        let src = std::fs::read_to_string(path).map_err(|source| LintError::Io {
            path: path.clone(),
            source,
        })?;
        let rel = path
            .strip_prefix(&opts.root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        all.extend(rules::lint_file(&rel, &src));
    }

    let mut baseline = match std::fs::read_to_string(&opts.baseline_path) {
        Ok(text) => Baseline::parse(&text).map_err(LintError::Baseline)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Baseline::empty(),
        Err(source) => {
            return Err(LintError::Io {
                path: opts.baseline_path.clone(),
                source,
            })
        }
    };

    if opts.fix_baseline {
        let mut tightened = Baseline::empty();
        for ((file, rule_code), group) in group_baselineable(&all) {
            tightened.set(&file, &rule_code, group.len() as u64);
        }
        std::fs::write(&opts.baseline_path, tightened.render()).map_err(|source| {
            LintError::Io {
                path: opts.baseline_path.clone(),
                source,
            }
        })?;
        baseline = tightened;
    }
    let mut outcome = apply_baseline(all, &baseline, files.len());
    outcome.baseline_unwrap_total = baseline.total_for("L3:unwrap");
    Ok(outcome)
}

/// Groups baselineable findings by `(file, rule:code)`.
fn group_baselineable(findings: &[Finding]) -> BTreeMap<(String, String), Vec<Finding>> {
    let mut groups: BTreeMap<(String, String), Vec<Finding>> = BTreeMap::new();
    for f in findings {
        if f.baselineable() {
            groups
                .entry((f.file.clone(), f.rule_code()))
                .or_default()
                .push(f.clone());
        }
    }
    groups
}

/// Splits findings into hard errors vs baseline-absorbed, recording stale
/// entries. Exposed for the in-process test harness (`tests/lint_clean.rs`
/// seeds synthetic findings through it).
pub fn apply_baseline(findings: Vec<Finding>, baseline: &Baseline, files: usize) -> Outcome {
    let mut outcome = Outcome {
        files_scanned: files,
        ..Outcome::default()
    };
    let mut grouped: BTreeMap<(String, String), Vec<Finding>> = BTreeMap::new();
    for f in findings {
        if f.baselineable() {
            grouped
                .entry((f.file.clone(), f.rule_code()))
                .or_default()
                .push(f);
        } else {
            outcome.errors.push(f);
        }
    }
    // Baseline entries with no current findings at all are maximally stale.
    for (file, rule_code, allowed) in baseline.entries() {
        if allowed > 0 && !grouped.contains_key(&(file.to_string(), rule_code.to_string())) {
            outcome.stale.push(StaleEntry {
                file: file.to_string(),
                rule_code: rule_code.to_string(),
                allowed,
                found: 0,
            });
        }
    }
    for ((file, rule_code), group) in grouped {
        let allowed = baseline.allowed(&file, &rule_code);
        let found = group.len() as u64;
        if found > allowed {
            for mut f in group {
                f.message
                    .push_str(&format!(" [{found} found, baseline allows {allowed}]"));
                outcome.errors.push(f);
            }
        } else {
            outcome.baselined += found;
            if found < allowed {
                outcome.stale.push(StaleEntry {
                    file,
                    rule_code,
                    allowed,
                    found,
                });
            }
        }
    }
    outcome.errors.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule, a.code).cmp(&(b.file.as_str(), b.line, b.rule, b.code))
    });
    outcome
}

/// Walks up from `start` to find the workspace root (a directory whose
/// `Cargo.toml` declares `[workspace]`).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
