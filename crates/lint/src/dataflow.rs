//! Intraprocedural log-domain dataflow over the [`crate::ast`] tree.
//!
//! The MVA kernels keep magnitudes as *logarithms*; mixing a log-domain
//! value into linear-domain arithmetic is the class of bug the paper's
//! Alg. 2/3 recursions cannot survive (a probability that is actually a
//! log-probability is silently wrong by hundreds of orders of
//! magnitude). This pass walks each function body once, in source
//! order, and tracks which bindings hold log-domain values:
//!
//! - **Producers**: `.ln()`-family calls, and any call, binding, field,
//!   or parameter with an `ln_*`/`log_*` name (the naming discipline the
//!   convolution workspace and its scratch reference already follow).
//! - **Propagation**: `+`/`-` keep the log domain (log-space products
//!   and quotients), simple copies via `let`, and `-x` negation.
//! - **Discharge**: `.exp()` on a log-domain value returns to the
//!   linear domain.
//! - **Compensated accumulators**: a binding fed by `x += e.exp()` (or
//!   the running-maximum rescale `x = x * e.exp() + 1.0`) is an
//!   *exp-sum*; taking `.ln()` of it is the sanctioned log-sum-exp
//!   re-entry, which retroactively sanctions the feeding `exp` sites.
//!
//! The result is two-fold: a set of **sanctioned** `exp`/`ln` call
//! sites (used by rule L2 to replace its old blanket file allowlist
//! with per-site reasoning), and **L7 findings** for flows that are
//! wrong in any reading: multiplying two log-domain values, `ln` of a
//! log-domain value, `exp` of an `exp`, and `powf` on a log-domain
//! value.

use std::collections::{HashMap, HashSet};

use crate::ast::{walk_expr, Block, Expr, ExprKind, FnItem, Stmt};
use crate::lexer::Token;

/// The abstract value a binding can hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// A logarithm of a magnitude (`d.ln()`, `log_conv_cell(..)`, `ln_*` names).
    Log,
    /// A sum of `exp(..)` terms awaiting its `.ln()` re-entry.
    ExpSum,
    /// A plain linear-domain number (literals, discharged `exp`).
    Linear,
    /// No information.
    Unknown,
}

/// One L7 diagnostic from the flow walk.
#[derive(Debug, Clone)]
pub struct Trouble {
    /// 1-based source line.
    pub line: u32,
    /// Finding code within the L7 family.
    pub code: &'static str,
    /// Human explanation.
    pub message: String,
}

/// The per-function analysis result.
#[derive(Debug, Default)]
pub struct FlowReport {
    /// Significant-token indices of `exp`/`ln`-family method-name tokens
    /// the dataflow pass sanctions (the L2 scan skips these).
    pub sanctioned: HashSet<usize>,
    /// L7 findings.
    pub trouble: Vec<Trouble>,
}

impl FlowReport {
    /// Merges another report into this one.
    pub fn merge(&mut self, other: FlowReport) {
        self.sanctioned.extend(other.sanctioned);
        self.trouble.extend(other.trouble);
    }
}

const EXP_FAMILY: &[&str] = &["exp", "exp_m1", "exp2"];
const LN_FAMILY: &[&str] = &["ln", "ln_1p", "log", "log2", "log10"];

fn log_named(name: &str) -> bool {
    name.starts_with("ln_") || name.starts_with("log_")
}

/// Analyzes one function body.
pub fn analyze_fn(f: &FnItem, sig: &[Token]) -> FlowReport {
    let mut a = Analyzer {
        sig,
        facts: HashMap::new(),
        pending_exp: HashMap::new(),
        report: FlowReport::default(),
    };
    for p in &f.params {
        if log_named(p) {
            a.facts.insert(p.clone(), Domain::Log);
        }
    }
    if let Some(body) = &f.body {
        a.eval_block(body);
    }
    a.report
}

struct Analyzer<'a> {
    sig: &'a [Token],
    facts: HashMap<String, Domain>,
    /// Unsanctioned `exp` sites feeding each exp-sum accumulator; the
    /// accumulator's `.ln()` re-entry sanctions them retroactively.
    pending_exp: HashMap<String, Vec<usize>>,
    report: FlowReport,
}

impl Analyzer<'_> {
    fn line_of(&self, sig_idx: usize) -> u32 {
        self.sig.get(sig_idx).map(|t| t.line).unwrap_or(0)
    }

    fn line_of_span(&self, e: &Expr) -> u32 {
        self.line_of(e.span.lo)
    }

    fn eval_block(&mut self, block: &Block) -> Domain {
        let mut last = Domain::Unknown;
        for stmt in &block.stmts {
            last = Domain::Unknown;
            match stmt {
                Stmt::Let(l) => {
                    let d = match &l.init {
                        Some(init) => self.eval(init),
                        None => Domain::Unknown,
                    };
                    if let [name] = l.names.as_slice() {
                        let d = if log_named(name) { Domain::Log } else { d };
                        // `let ln_x = e.ln();` — the naming makes the
                        // domain explicit, which sanctions the call.
                        if log_named(name) {
                            if let Some(init) = &l.init {
                                self.sanction_direct_ln(init);
                            }
                        }
                        self.facts.insert(name.clone(), d);
                    } else {
                        for name in &l.names {
                            let d = if log_named(name) {
                                Domain::Log
                            } else {
                                Domain::Unknown
                            };
                            self.facts.insert(name.clone(), d);
                        }
                    }
                }
                Stmt::Expr(es) => last = self.eval(&es.expr),
                Stmt::Item(_) => {}
            }
        }
        last
    }

    /// Sanctions `e` when it is a direct `ln`-family method call.
    fn sanction_direct_ln(&mut self, e: &Expr) {
        if let ExprKind::Method { name, name_idx, .. } = &e.kind {
            if LN_FAMILY.contains(&name.as_str()) {
                self.report.sanctioned.insert(*name_idx);
            }
        }
    }

    /// The base identifier of an lvalue-ish chain (`self.ln_d[k]` → `ln_d`,
    /// `acc` → `acc`): the innermost log-relevant name.
    fn base_name<'e>(&self, e: &'e Expr) -> Option<&'e str> {
        match &e.kind {
            ExprKind::Path(segs) => segs.last().map(|s| s.as_str()),
            ExprKind::Field { name, .. } => Some(name.as_str()),
            ExprKind::Index { recv, .. } => self.base_name(recv),
            ExprKind::Unary { inner, .. } | ExprKind::Ref { inner, .. } => self.base_name(inner),
            _ => None,
        }
    }

    /// Does `value` mention the identifier `name`?
    fn mentions(&self, value: &Expr, name: &str) -> bool {
        let mut found = false;
        walk_expr(value, &mut |e| {
            if let ExprKind::Path(segs) = &e.kind {
                if matches!(segs.as_slice(), [seg] if seg == name) {
                    found = true;
                }
            }
        });
        found
    }

    /// Collects the `name_idx` of every exp-family method call in `value`.
    fn exp_sites(&self, value: &Expr) -> Vec<usize> {
        let mut sites = Vec::new();
        walk_expr(value, &mut |e| {
            if let ExprKind::Method { name, name_idx, .. } = &e.kind {
                if EXP_FAMILY.contains(&name.as_str()) {
                    sites.push(*name_idx);
                }
            }
        });
        sites
    }

    fn eval(&mut self, e: &Expr) -> Domain {
        match &e.kind {
            ExprKind::Path(segs) => {
                if let [seg] = segs.as_slice() {
                    if let Some(d) = self.facts.get(seg) {
                        return *d;
                    }
                    if log_named(seg) {
                        return Domain::Log;
                    }
                }
                Domain::Unknown
            }
            ExprKind::Lit => Domain::Linear,
            ExprKind::Tuple(xs) => {
                // A one-element "tuple" is a parenthesized group: `(a - b)`
                // keeps its inner domain so `(ln_a - ln_b).exp()` sanctions.
                if let [inner] = xs.as_slice() {
                    return self.eval(inner);
                }
                for x in xs {
                    self.eval(x);
                }
                Domain::Unknown
            }
            ExprKind::Call { callee, args } => {
                for a in args {
                    self.eval(a);
                }
                self.eval(callee);
                if let ExprKind::Path(segs) = &callee.kind {
                    if let Some(last) = segs.last() {
                        if log_named(last) {
                            return Domain::Log;
                        }
                    }
                }
                Domain::Unknown
            }
            ExprKind::MacroCall { args, .. } => {
                for a in args {
                    self.eval(a);
                }
                Domain::Unknown
            }
            ExprKind::Method {
                recv,
                name,
                name_idx,
                args,
            } => self.eval_method(recv, name, *name_idx, args),
            ExprKind::Field { recv, name } => {
                self.eval(recv);
                if log_named(name) {
                    Domain::Log
                } else {
                    Domain::Unknown
                }
            }
            ExprKind::Index { recv, index } => {
                self.eval(index);
                // Indexing a log-named table (`ln_d[k]`) reads a log value.
                self.eval(recv)
            }
            ExprKind::Unary { op, inner } => {
                let d = self.eval(inner);
                if *op == '-' || *op == '*' {
                    d
                } else {
                    Domain::Unknown
                }
            }
            ExprKind::Ref { inner, .. } | ExprKind::Cast { inner } => self.eval(inner),
            ExprKind::Binary { op, lhs, rhs } => {
                let dl = self.eval(lhs);
                let dr = self.eval(rhs);
                match op.as_str() {
                    "+" | "-" => {
                        if dl == Domain::Log || dr == Domain::Log {
                            Domain::Log
                        } else if dl == Domain::ExpSum || dr == Domain::ExpSum {
                            Domain::ExpSum
                        } else if dl == Domain::Linear && dr == Domain::Linear {
                            Domain::Linear
                        } else {
                            Domain::Unknown
                        }
                    }
                    "*" | "/" => {
                        if dl == Domain::Log && dr == Domain::Log {
                            self.report.trouble.push(Trouble {
                                line: self.line_of_span(e),
                                code: "log-as-linear",
                                message: format!(
                                    "`{op}` between two log-domain values: log-space \
                                     products are *sums*; `exp()` back to the linear \
                                     domain first, or keep the magnitude in the \
                                     workspace's extended-exponent cells"
                                ),
                            });
                            Domain::Unknown
                        } else if dl == Domain::ExpSum || dr == Domain::ExpSum {
                            // Running-maximum rescale: `acc * (m - t).exp()`.
                            Domain::ExpSum
                        } else if dl == Domain::Linear && dr == Domain::Linear {
                            Domain::Linear
                        } else {
                            Domain::Unknown
                        }
                    }
                    _ => Domain::Unknown,
                }
            }
            ExprKind::Assign { op, target, value } => {
                self.eval_assign(op.as_deref(), target, value);
                Domain::Unknown
            }
            ExprKind::Closure { body, .. } => {
                self.eval(body);
                Domain::Unknown
            }
            ExprKind::Block(b) => self.eval_block(b),
            ExprKind::Flow { children, .. } => {
                for c in children {
                    self.eval(c);
                }
                Domain::Unknown
            }
            ExprKind::StructLit { fields, .. } => {
                for f in fields {
                    self.eval(f);
                }
                Domain::Unknown
            }
            ExprKind::Unknown => Domain::Unknown,
        }
    }

    fn eval_method(&mut self, recv: &Expr, name: &str, name_idx: usize, args: &[Expr]) -> Domain {
        let arg_domains: Vec<Domain> = args.iter().map(|a| self.eval(a)).collect();
        let d_recv = self.eval(recv);

        // Storing into a log-named container (`self.ln_rate.set(r, j, x.ln())`)
        // sanctions direct ln-family arguments: the slot name declares the
        // domain.
        if let Some(base) = self.base_name(recv) {
            if log_named(base) {
                for a in args {
                    if let ExprKind::Method {
                        name: an,
                        name_idx: ai,
                        ..
                    } = &a.kind
                    {
                        if LN_FAMILY.contains(&an.as_str()) {
                            self.report.sanctioned.insert(*ai);
                        }
                    }
                }
            }
        }

        if EXP_FAMILY.contains(&name) {
            if d_recv == Domain::Log {
                // Proper discharge of a log-domain value.
                self.report.sanctioned.insert(name_idx);
            } else if matches!(
                &recv.kind,
                ExprKind::Method { name: inner, .. } if EXP_FAMILY.contains(&inner.as_str())
            ) {
                self.report.trouble.push(Trouble {
                    line: self.line_of(name_idx),
                    code: "double-exp",
                    message: "`.exp()` of an `.exp()` result: the receiver is already \
                              in the linear domain"
                        .to_string(),
                });
            }
            return Domain::Linear;
        }

        if LN_FAMILY.contains(&name) {
            // Log-sum-exp re-entry: `.ln()` of an exp-sum accumulator
            // sanctions this call *and* the exp sites that fed it.
            if let ExprKind::Path(segs) = &recv.kind {
                if let [seg] = segs.as_slice() {
                    if self.facts.get(seg) == Some(&Domain::ExpSum) {
                        self.report.sanctioned.insert(name_idx);
                        if let Some(sites) = self.pending_exp.remove(seg) {
                            self.report.sanctioned.extend(sites);
                        }
                        return Domain::Log;
                    }
                }
            }
            // Compensated chain: `(lo - hi).exp().ln_1p()` — the exp is
            // immediately re-logged, so the round trip is safe by
            // construction.
            if let ExprKind::Method {
                name: inner,
                name_idx: inner_idx,
                ..
            } = &recv.kind
            {
                if EXP_FAMILY.contains(&inner.as_str()) {
                    self.report.sanctioned.insert(name_idx);
                    self.report.sanctioned.insert(*inner_idx);
                    return Domain::Log;
                }
            }
            if d_recv == Domain::Log {
                self.report.trouble.push(Trouble {
                    line: self.line_of(name_idx),
                    code: "double-ln",
                    message: format!(
                        "`.{name}()` of a value that is already a logarithm; this \
                         produces log(log(x)), which is never what the MVA \
                         recursions want"
                    ),
                });
            }
            return Domain::Log;
        }

        match name {
            "powf" | "powi" | "sqrt" => {
                if d_recv == Domain::Log {
                    self.report.trouble.push(Trouble {
                        line: self.line_of(name_idx),
                        code: "log-as-linear",
                        message: format!(
                            "`.{name}()` on a log-domain value treats a logarithm as a \
                             linear magnitude; `exp()` first or stay in log space"
                        ),
                    });
                }
                Domain::Unknown
            }
            "max" | "min" => {
                // max/min of same-domain values keeps the domain.
                if arg_domains.iter().all(|&d| d == d_recv) {
                    d_recv
                } else {
                    Domain::Unknown
                }
            }
            // Table reads (`Grid::at`) return an element of the table's
            // domain: `self.ln_prefix.at(i, j)` is a log value.
            "at" | "abs" | "copied" | "cloned" | "clone" => d_recv,
            _ => Domain::Unknown,
        }
    }

    fn eval_assign(&mut self, op: Option<&str>, target: &Expr, value: &Expr) {
        let dv = self.eval(value);
        let exp_sites = self.exp_sites(value);

        // Assignment into a log-named slot sanctions a direct ln value.
        if let Some(base) = self.base_name(target) {
            if log_named(base) {
                self.sanction_direct_ln(value);
            }
        }

        // Only single-ident targets get tracked facts.
        let ExprKind::Path(segs) = &target.kind else {
            return;
        };
        let [name] = segs.as_slice() else { return };
        let name = name.clone();

        let accumulates = matches!(op, Some("+")) || (op.is_none() && self.mentions(value, &name));
        if accumulates && !exp_sites.is_empty() {
            // `acc += e.exp()` / `acc = acc * e.exp() + 1.0`: exp-sum
            // accumulator; its exp sites stay pending until `.ln()`.
            self.facts.insert(name.clone(), Domain::ExpSum);
            self.pending_exp.entry(name).or_default().extend(exp_sites);
            return;
        }
        match op {
            None => {
                let d = if log_named(&name) { Domain::Log } else { dv };
                self.facts.insert(name, d);
            }
            Some("+") | Some("-") => {
                let cur = self.facts.get(&name).copied().unwrap_or(Domain::Unknown);
                let joined = if cur == Domain::ExpSum || dv == Domain::ExpSum {
                    Domain::ExpSum
                } else if cur == Domain::Log || dv == Domain::Log {
                    Domain::Log
                } else if cur == Domain::Linear && dv == Domain::Linear {
                    Domain::Linear
                } else {
                    Domain::Unknown
                };
                self.facts.insert(name, joined);
            }
            _ => {
                self.facts.insert(name, Domain::Unknown);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{for_each_fn, parse};
    use crate::lexer::{lex, TokKind};

    fn analyze(src: &str) -> FlowReport {
        let toks = lex(src);
        let sig: Vec<Token> = toks
            .into_iter()
            .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .collect();
        let ast = parse(&sig, src);
        let mut report = FlowReport::default();
        for_each_fn(&ast.items, &mut |f| {
            report.merge(analyze_fn(f, &sig));
        });
        report
    }

    fn codes(r: &FlowReport) -> Vec<&'static str> {
        r.trouble.iter().map(|t| t.code).collect()
    }

    #[test]
    fn discharge_of_tracked_log_value_is_sanctioned() {
        let r = analyze(
            "fn f(d: f64) -> f64 {\n\
                 let ld = d.ln();\n\
                 let lo = ld - 3.0;\n\
                 lo.exp()\n\
             }",
        );
        // `d.ln()` itself is unsanctioned (plain binding name), but the
        // `.exp()` of the tracked log value is a proper boundary.
        assert_eq!(r.sanctioned.len(), 1, "{:?}", r.sanctioned);
        assert!(codes(&r).is_empty());
    }

    #[test]
    fn ln_named_bindings_sanction_their_producer() {
        let r = analyze("fn f(d: f64) -> f64 { let ln_d = d.ln(); ln_d.exp() }");
        // Both the `.ln()` (named slot) and the `.exp()` (log receiver).
        assert_eq!(r.sanctioned.len(), 2, "{:?}", r.sanctioned);
        assert!(codes(&r).is_empty());
    }

    #[test]
    fn exp_sum_accumulator_round_trip_is_sanctioned() {
        let r = analyze(
            "fn scalar(a: &[f64], n: usize) -> f64 {\n\
                 let mut m = f64::NEG_INFINITY;\n\
                 let mut acc = 0.0;\n\
                 for j in 0..n {\n\
                     let t = a[j];\n\
                     if t <= m {\n\
                         acc += (t - m).exp();\n\
                     } else {\n\
                         acc = acc * (m - t).exp() + 1.0;\n\
                         m = t;\n\
                     }\n\
                 }\n\
                 m + acc.ln()\n\
             }",
        );
        // Two pending exp sites plus the ln re-entry.
        assert_eq!(r.sanctioned.len(), 3, "{:?}", r.sanctioned);
        assert!(codes(&r).is_empty());
    }

    #[test]
    fn split_lane_accumulators_stay_unsanctioned() {
        // A four-lane log-sum-exp's shape: lanes feed a second
        // accumulator; the lane exps are beyond one-step reasoning and
        // need annotations.
        let r = analyze(
            "fn cell(t: &[f64], m: f64) -> f64 {\n\
                 let mut a0 = 0.0;\n\
                 let mut acc = 0.0;\n\
                 for x in t {\n\
                     a0 += (x - m).exp();\n\
                 }\n\
                 acc += a0;\n\
                 m + acc.ln()\n\
             }",
        );
        // Only the final ln is sanctioned (acc is an exp-sum via a0);
        // the lane exp stays pending under `a0`, which is never ln'd.
        assert!(codes(&r).is_empty());
        assert_eq!(r.sanctioned.len(), 1, "{:?}", r.sanctioned);
    }

    #[test]
    fn compensated_chain_is_sanctioned() {
        let r = analyze("fn lse2(a: f64, b: f64) -> f64 { a + (b - a).exp().ln_1p() }");
        assert_eq!(r.sanctioned.len(), 2, "{:?}", r.sanctioned);
        assert!(codes(&r).is_empty());
    }

    #[test]
    fn log_times_log_is_trouble() {
        let r = analyze(
            "fn f(x: f64, y: f64) -> f64 {\n\
                 let a = x.ln();\n\
                 let b = y.ln();\n\
                 a * b\n\
             }",
        );
        assert_eq!(codes(&r), ["log-as-linear"]);
    }

    #[test]
    fn double_ln_and_double_exp_are_trouble() {
        let r = analyze("fn f(x: f64) -> f64 { let a = x.ln(); a.ln() }");
        assert_eq!(codes(&r), ["double-ln"]);
        let r = analyze("fn g(x: f64) -> f64 { x.exp().exp() }");
        assert_eq!(codes(&r), ["double-exp"]);
    }

    #[test]
    fn powf_on_log_value_is_trouble() {
        let r = analyze("fn f(x: f64) -> f64 { let ld = x.ln(); ld.powf(2.0) }");
        assert_eq!(codes(&r), ["log-as-linear"]);
    }

    #[test]
    fn log_named_tables_sanction_stores() {
        let r = analyze(
            "fn f(&mut self, j: usize) {\n\
                 self.ln_int[j] = (j as f64).ln();\n\
                 self.ln_rate.set(j, self.rate(j).ln());\n\
             }",
        );
        assert_eq!(r.sanctioned.len(), 2, "{:?}", r.sanctioned);
        assert!(codes(&r).is_empty());
    }
}
