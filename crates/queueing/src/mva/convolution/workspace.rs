//! The incremental convolution workspace: Buzen's algorithm with carried
//! state, zero heap allocation per step once warm, and no O(n) cell on the
//! prefix or suffix chains.
//!
//! [`ConvWorkspace`] owns every array the recursion touches as a flat,
//! stride-indexed buffer ([`Grid`]). The network runs as a chain of
//! **stages** whose order is re-derived whenever the demands change:
//!
//! 1. stage 0, one merged infinite-server stage `Poisson(Z + Σ D)` over the
//!    think time and every delay station that tracks no marginals (Poisson
//!    columns convolve into a Poisson column);
//! 2. the light stations, which never need `G₍₋ₖ₎`;
//! 3. the `H` heavy stations: rate-table stations and every station that
//!    tracks marginals.
//!
//! The ascending prefix chain `prefix[i] = f_0 ⊛ … ⊛ f_{i−1}` ends in `G`.
//! The descending suffix chain `suffix[i] = f_i ⊛ … ⊛ f_{total−1}` exists
//! only inside the heavy group, where it feeds the complements
//! `G₍₋ₖ₎ = prefix[k] ⊛ suffix[k+1]`. The last heavy stage needs no
//! complement cell: its `G₍₋ₖ₎` is `prefix[total−1]`. Light single-server
//! stations carry O(1)-state queue accumulators instead. One [`advance`]
//! appends exactly one cell to each live column; nothing already written is
//! ever mutated, which is what makes the incremental, snapshot/resume, and
//! rebuild paths **bit-for-bit identical** — they all execute the same
//! per-cell code in the same order.
//!
//! Per-stage work is specialized by [`StageKind`]:
//!
//! * `Zero` — zero demand: the factor column is the convolution identity,
//!   so chain cells are plain copies.
//! * `Geo` — single-server-like (`f(j) = D^j`): the convolution with a
//!   geometric column telescopes, `(A ⊛ f)(n) = A(n) ⊕ (ln D + (A ⊛ f)(n−1))`
//!   (`⊕` = log-sum-exp), one O(1) update. A light single-server station
//!   also skips `G₍₋ₖ₎`: its queue satisfies `h(n) = D·(G(n−1) + h(n−1))`,
//!   `Q(n) = h(n)/G(n)`, carried as one log-domain scalar per population.
//! * `Exp` — infinite-server (`f(j) = D^j/j!`), with `ln j` read from a
//!   table. As stage 0 it convolves with the identity, so its prefix cell is
//!   its factor cell; a delay station that tracks marginals keeps a full
//!   O(n) cell.
//! * `Table` — multi-server / custom rate, `f(j) = D^j / ∏ α(i)`, with
//!   `ln α(j)` precomputed per station. From the saturation index `C` on
//!   (`C` servers, or the custom table length, past which the rate clamps)
//!   the factor is geometric: `f(j) = f(C)·ρ^{j−C}` with `ρ = D/α(C)`. So
//!   the tail sum `T(m) = Σ_{j≥C} f(j)·A(m−j)` carries as
//!   `T(m) = f(C)·A(m−C) + ρ·T(m−1)`, and a cell past `C` is a `C`-wide
//!   head plus one tail term ([`kernel::head_tail_cell`]): O(C), not O(m).
//!   Below `C` the cell is the full O(m) convolution.
//!
//! Every column is scaled by `sᵐ` with `s = min_k(α_k(∞)/D_k)` over the
//! queueing stations, i.e. every stage runs on the demand `s·D`. The
//! bottleneck's tail ratio becomes 1 and every other ratio is at most 1,
//! so no carried recurrence grows with the population and the log values
//! stay small enough to keep their low-order bits. Throughput takes the
//! scale back out, `X = s·G′(n−1)/G′(n)`; queues and marginals are ratios
//! of equal powers of `s` and need no correction. The `conv.lse` health
//! probe still watches the unscaled `ln G(n) = ln G′(n) − n·ln s`.
//!
//! What remains O(m) per population: the `H − 1` complement cells of the
//! heavy stations other than the last ([`kernel::conv_cell`]), table cells
//! below their saturation index, and delay stations that track marginals.
//! Those cells run on the batched kernel, whose [`kernel::CellScratch`] the
//! workspace carries and sizes alongside every other buffer.
//!
//! Changing the demand vector ([`solve_at`]) re-runs the recursion from
//! population 0 inside the same buffers — zero allocation and zero `ln()`
//! calls beyond one `ln D` per station — which is what the quasi-static
//! MVASD phase does at every population step.
//!
//! [`advance`]: ConvWorkspace::advance
//! [`solve_at`]: ConvWorkspace::solve_at

use super::super::loaddep::{validate_stations, LdStation, RateFunction};
use super::kernel::{self, lse2};
use crate::QueueingError;
use mvasd_obsv as obsv;

/// How the workspace extends one stage's factor and chain cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StageKind {
    /// Zero demand: `f = (1, 0, 0, …)`, the convolution identity.
    Zero,
    /// Single-server-like: `f(j) = D^j`, telescoping O(1) updates.
    Geo,
    /// Infinite-server: `f(j) = D^j / j!`.
    Exp,
    /// Rate-table station (multi-server or custom): `f(j) = D^j / ∏ α(i)`,
    /// geometric past the saturation index.
    Table,
}

/// One link of the convolution chain.
#[derive(Debug, Clone, Copy)]
struct Stage {
    kind: StageKind,
    /// Station index; [`NO_ROW`] for the merged infinite-server stage.
    station: usize,
    /// `ln(s·D)`, the scaled demand (`−∞` when zero).
    ln_d: f64,
    /// Table stages: the saturation index `C` where the tail starts.
    width: usize,
    /// Table stages: `ln ρ = ln(s·D) − ln α(C)`.
    ln_ratio: f64,
    /// Table stages: row in `ln_rate` and in both tail grids.
    row: usize,
}

impl Stage {
    /// A zero-demand stage with no station behind it.
    const IDENTITY: Stage = Stage {
        kind: StageKind::Zero,
        station: NO_ROW,
        ln_d: f64::NEG_INFINITY,
        width: 0,
        ln_ratio: f64::NEG_INFINITY,
        row: NO_ROW,
    };
}

/// A fixed number of equally-long `f64` rows in one flat allocation.
/// `cap` is the per-row stride; rows grow together and keep their first
/// `keep` entries on reallocation.
#[derive(Debug, Clone)]
struct Grid {
    buf: Vec<f64>,
    rows: usize,
    cap: usize,
}

impl Grid {
    fn new(rows: usize) -> Self {
        Self {
            buf: Vec::new(),
            rows,
            cap: 0,
        }
    }

    #[inline]
    fn row(&self, r: usize) -> &[f64] {
        &self.buf[r * self.cap..(r + 1) * self.cap]
    }

    #[inline]
    fn at(&self, r: usize, j: usize) -> f64 {
        self.buf[r * self.cap + j]
    }

    #[inline]
    fn set(&mut self, r: usize, j: usize, v: f64) {
        self.buf[r * self.cap + j] = v;
    }

    fn grow(&mut self, new_cap: usize, keep: usize) {
        debug_assert!(new_cap > self.cap);
        // NaN poison: any read of a never-written cell is loudly wrong.
        let mut next = vec![f64::NAN; self.rows * new_cap];
        for r in 0..self.rows {
            next[r * new_cap..r * new_cap + keep]
                .copy_from_slice(&self.buf[r * self.cap..r * self.cap + keep]);
        }
        self.buf = next;
        self.cap = new_cap;
    }

    fn bytes(&self) -> usize {
        self.buf.len() * std::mem::size_of::<f64>()
    }
}

/// Sentinel for "this station has no row in that grid".
const NO_ROW: usize = usize::MAX;

/// The merged infinite-server stage always heads the chain.
const IS_STAGE: usize = 0;

/// Incremental log-domain convolution engine. See the module docs for the
/// layout and the per-kind update rules.
///
/// Cloning snapshots the entire recursion state (a handful of `memcpy`s),
/// which is what makes solver snapshots cheap.
#[derive(Debug, Clone)]
pub struct ConvWorkspace {
    stations: Vec<LdStation>,
    think_time: f64,
    limits: Vec<usize>,

    /// Last population evaluated (0 = fresh).
    n: usize,
    /// The chain, stage 0 first; re-derived on every demand change.
    stages: Vec<Stage>,
    /// Stage of each station ([`NO_ROW`] when folded into stage 0).
    stage_of: Vec<usize>,
    /// First stage of the heavy group (`stages.len()` when there is none).
    first_heavy: usize,
    /// Whether station `k` currently needs the `G₍₋ₖ₎` marginal path.
    heavy: Vec<bool>,
    /// `ln s`, the per-population column scale (module docs).
    ln_s: f64,
    /// Prefix, suffix and complement cells written per extension.
    cells_per_step: u64,

    /// Saturation index `C` of each rate-table station (0 otherwise).
    sat_index: Vec<usize>,
    /// `ln α_k(C)`, the saturated rate (0 for single servers).
    ln_top_rate: Vec<f64>,
    /// Row of `ln_g_minus` for stations that can ever be heavy (else NO_ROW).
    g_row: Vec<usize>,
    /// Row of `ln_lq` for light single-server-like stations (else NO_ROW).
    lq_row: Vec<usize>,
    /// Row of `ln_rate` and the tail grids for rate-table stations.
    rate_row: Vec<usize>,

    /// `ln j` for `j = 1..cap` (index 0 unused), shared by all Exp stages.
    ln_int: Vec<f64>,
    /// `ln α_k(j)` per rate-table station, computed once per growth.
    ln_rate: Grid,

    /// `ln_factors[i][j] = ln f_i(j)` per stage (scaled).
    ln_factors: Grid,
    /// `ln_prefix[i] = f_0 ⊛ … ⊛ f_{i−1}`; the last row is `ln G′`.
    /// `ln_prefix[0]` is the identity and is never read past `j = 0`.
    ln_prefix: Grid,
    /// `suffix[i] = f_i ⊛ … ⊛ f_{total−1}` (`suffix[total]` = identity),
    /// maintained only past the first heavy stage.
    suffix: Grid,
    /// Carried tails `T(m)` of the table stages' prefix cells.
    ln_tail_prefix: Grid,
    /// Carried tails `T(m)` of the table stages' suffix cells.
    ln_tail_suffix: Grid,
    /// `ln_g_minus[row] = ln G₍₋ₖ₎` for heavy stations but the last.
    ln_g_minus: Grid,
    /// `ln_lq[row][n]`: the light single-server queue numerator `h(n)`.
    ln_lq: Grid,

    // Per-population outputs, overwritten in place by `compute_outputs`.
    out_x: f64,
    out_queues: Vec<f64>,
    /// Marginal snapshots `p_k(0..limit−1 | n)`, packed back to back.
    out_marginals: Vec<f64>,
    /// Offset of station `k`'s marginal block in `out_marginals`.
    marg_off: Vec<usize>,

    /// Scratch for the batched log-sum-exp kernel, sized alongside the
    /// grids so full cells never allocate.
    cell: kernel::CellScratch,

    extend_ctr: obsv::CounterBatch,
    cells_ctr: obsv::CounterBatch,
    /// Watches the unscaled `ln G` per extension (log-sum-exp dynamic
    /// range, NaN-poison trips) and counts marginal-term underflows.
    /// Locally buffered; flushed by [`flush_metrics`](Self::flush_metrics)
    /// and on drop.
    health: obsv::HealthProbe,
}

impl ConvWorkspace {
    /// Builds a workspace over validated load-dependent stations.
    /// `marginal_limits[k]` requests the first `limit` marginal
    /// probabilities per population (0 = skip; missing entries = 0).
    pub fn new(
        stations: &[LdStation],
        think_time: f64,
        marginal_limits: &[usize],
    ) -> Result<Self, QueueingError> {
        validate_stations(stations, think_time)?;
        Self::from_validated(stations.to_vec(), think_time, marginal_limits.to_vec())
    }

    /// [`new`](Self::new) over stations the caller already validated (or
    /// built valid by construction); only an empty list is rejected.
    pub(crate) fn from_validated(
        stations: Vec<LdStation>,
        think_time: f64,
        mut limits: Vec<usize>,
    ) -> Result<Self, QueueingError> {
        if stations.is_empty() {
            return Err(QueueingError::EmptyNetwork);
        }
        let k_count = stations.len();
        limits.resize(k_count, 0);

        let mut sat_index = vec![0usize; k_count];
        let mut ln_top_rate = vec![0.0f64; k_count];
        let mut g_row = vec![NO_ROW; k_count];
        let mut lq_row = vec![NO_ROW; k_count];
        let mut rate_row = vec![NO_ROW; k_count];
        let (mut g_rows, mut lq_rows, mut rate_rows) = (0, 0, 0);
        for (k, s) in stations.iter().enumerate() {
            let sat = match &s.rate {
                RateFunction::MultiServer(c) if *c >= 2 => *c,
                RateFunction::Custom(t) => t.len(),
                _ => 0,
            };
            if sat > 0 {
                sat_index[k] = sat;
                ln_top_rate[k] = s.rate.rate(sat).ln();
                rate_row[k] = rate_rows;
                rate_rows += 1;
            }
            if limits[k] > 0 || sat > 0 {
                g_row[k] = g_rows;
                g_rows += 1;
            } else if !matches!(s.rate, RateFunction::Delay) {
                lq_row[k] = lq_rows;
                lq_rows += 1;
            }
        }
        let merged = stations
            .iter()
            .zip(&limits)
            .filter(|&(s, &limit)| folds_into_stage_0(s, limit))
            .count();
        let total = 1 + k_count - merged;

        let mut marg_off = Vec::with_capacity(k_count);
        let mut off = 0usize;
        for &limit in &limits {
            marg_off.push(off);
            off += limit;
        }

        let mut ws = Self {
            stations,
            think_time,
            limits,
            n: 0,
            stages: vec![Stage::IDENTITY; total],
            stage_of: vec![NO_ROW; k_count],
            first_heavy: total,
            heavy: vec![false; k_count],
            ln_s: 0.0,
            cells_per_step: 0,
            sat_index,
            ln_top_rate,
            g_row,
            lq_row,
            rate_row,
            ln_int: Vec::new(),
            ln_rate: Grid::new(rate_rows),
            ln_factors: Grid::new(total),
            ln_prefix: Grid::new(total + 1),
            suffix: Grid::new(total + 1),
            ln_tail_prefix: Grid::new(rate_rows),
            ln_tail_suffix: Grid::new(rate_rows),
            ln_g_minus: Grid::new(g_rows),
            ln_lq: Grid::new(lq_rows),
            out_x: 0.0,
            out_queues: vec![0.0; k_count],
            out_marginals: vec![0.0; off],
            marg_off,
            cell: kernel::CellScratch::new(),
            extend_ctr: obsv::CounterBatch::new("conv.workspace.extend", 64),
            cells_ctr: obsv::CounterBatch::new("convolution.cells", 64),
            health: obsv::HealthProbe::new("conv.lse"),
        };
        ws.refresh_kinds();
        ws.ensure_capacity(1);
        ws.reset();
        Ok(ws)
    }

    /// The model's stations (names, current demands, rates).
    pub(crate) fn stations(&self) -> &[LdStation] {
        &self.stations
    }

    /// The model's think time.
    pub(crate) fn think_time(&self) -> f64 {
        self.think_time
    }

    /// Last population evaluated (0 = fresh).
    pub fn population(&self) -> usize {
        self.n
    }

    /// Pre-sizes every buffer for populations up to `n_max`, so no further
    /// allocation happens before the sweep passes it.
    pub fn reserve(&mut self, n_max: usize) {
        self.ensure_capacity(n_max + 1);
    }

    /// Throughput `X(n)` of the last `advance`/`solve_at`.
    pub fn throughput(&self) -> f64 {
        self.out_x
    }

    /// Mean queue lengths of the last `advance`/`solve_at`.
    pub fn queues(&self) -> &[f64] {
        &self.out_queues
    }

    /// Marginal probabilities `p_k(0..limit−1 | n)` of the last
    /// `advance`/`solve_at` (empty when the station tracks none).
    pub fn marginals_of(&self, k: usize) -> &[f64] {
        let limit = self.limits.get(k).copied().unwrap_or(0);
        let off = self.marg_off.get(k).copied().unwrap_or(0);
        &self.out_marginals[off..off + limit]
    }

    /// Flushes the batched instrumentation counters and the numeric-health
    /// probe to the recorder.
    pub fn flush_metrics(&mut self) {
        self.extend_ctr.flush();
        self.cells_ctr.flush();
        self.health.flush();
    }

    /// Re-derives the stage chain from the current demands: kinds, order
    /// (stage 0, light, heavy), the column scale and the scaled demands
    /// and tail ratios. Allocation-free.
    fn refresh_kinds(&mut self) {
        let total = self.stages.len();
        let mut ln_s = f64::INFINITY;
        let mut is_demand = self.think_time;
        // Light stages fill upward from 1, heavy stages downward from the end.
        let (mut lo, mut hi) = (1, total);
        for (k, s) in self.stations.iter().enumerate() {
            self.heavy[k] = false;
            if folds_into_stage_0(s, self.limits[k]) {
                is_demand += s.demand;
                continue;
            }
            let (kind, ld) = if s.demand <= 0.0 {
                (StageKind::Zero, f64::NEG_INFINITY)
            } else {
                let kind = match s.rate {
                    RateFunction::Delay => StageKind::Exp,
                    RateFunction::SingleServer | RateFunction::MultiServer(1) => StageKind::Geo,
                    _ => StageKind::Table,
                };
                let ln_demand = s.demand.ln();
                if kind != StageKind::Exp {
                    ln_s = ln_s.min(self.ln_top_rate[k] - ln_demand);
                }
                (kind, ln_demand)
            };
            let heavy = self.limits[k] > 0 || kind == StageKind::Table;
            let i = if heavy {
                hi -= 1;
                hi
            } else {
                lo += 1;
                lo - 1
            };
            self.heavy[k] = heavy;
            self.stage_of[k] = i;
            self.stages[i] = Stage {
                kind,
                station: k,
                ln_d: ld,
                width: self.sat_index[k],
                ln_ratio: f64::NEG_INFINITY,
                row: self.rate_row[k],
            };
        }
        debug_assert_eq!(lo, hi);
        self.first_heavy = hi;
        // Delay stages alone never saturate: nothing to balance.
        let ln_s = if ln_s.is_finite() { ln_s } else { 0.0 };
        self.ln_s = ln_s;
        self.stages[IS_STAGE] = if is_demand > 0.0 {
            let ln_is_demand = is_demand.ln();
            Stage {
                kind: StageKind::Exp,
                ln_d: ln_is_demand,
                ..Stage::IDENTITY
            }
        } else {
            Stage::IDENTITY
        };
        for st in self.stages.iter_mut() {
            if st.kind == StageKind::Zero {
                continue;
            }
            st.ln_d += ln_s;
            if st.kind == StageKind::Table {
                st.ln_ratio = st.ln_d - self.ln_top_rate[st.station];
            }
        }
        let complements = (total - self.first_heavy).saturating_sub(1);
        self.cells_per_step = (total + 2 * complements) as u64;
    }

    /// Grows every grid so populations `0..len` fit, extending the `ln`
    /// tables for the new range. Growth is the only allocation the
    /// workspace ever performs after construction.
    fn ensure_capacity(&mut self, len: usize) {
        if len <= self.ln_factors.cap {
            return;
        }
        let new_cap = len.next_power_of_two().max(self.ln_factors.cap * 2).max(64);
        let old_cap = self.ln_factors.cap;
        let keep = (self.n + 1).min(old_cap);
        for grid in [
            &mut self.ln_factors,
            &mut self.ln_prefix,
            &mut self.suffix,
            &mut self.ln_tail_prefix,
            &mut self.ln_tail_suffix,
            &mut self.ln_g_minus,
            &mut self.ln_lq,
        ] {
            grid.grow(new_cap, keep);
        }
        self.cell.ensure(new_cap);

        self.ln_int.resize(new_cap, 0.0);
        let from = old_cap.max(1);
        for j in from..new_cap {
            self.ln_int[j] = (j as f64).ln();
        }
        self.ln_rate.grow(new_cap, old_cap);
        for (k, s) in self.stations.iter().enumerate() {
            let r = self.rate_row[k];
            if r == NO_ROW {
                continue;
            }
            if old_cap == 0 {
                self.ln_rate.set(r, 0, 0.0); // j = 0 is never read
            }
            for j in from..new_cap {
                self.ln_rate.set(r, j, s.rate.rate(j).ln());
            }
        }

        if obsv::enabled() {
            let bytes = self.ln_factors.bytes()
                + self.ln_prefix.bytes()
                + self.suffix.bytes()
                + self.ln_tail_prefix.bytes()
                + self.ln_tail_suffix.bytes()
                + self.ln_g_minus.bytes()
                + self.ln_lq.bytes()
                + self.ln_rate.bytes()
                + self.ln_int.len() * std::mem::size_of::<f64>();
            obsv::counter("conv.workspace.alloc", 1);
            obsv::gauge("conv.workspace.bytes", bytes as f64);
        }
    }

    /// Rewinds to population 0, re-initializing only the `j = 0` cells:
    /// `f(0) = G(0) = G₍₋ₖ₎(0) = 1`, `h(0) = T(0) = 0`.
    fn reset(&mut self) {
        self.n = 0;
        let total = self.stages.len();
        for i in 0..total {
            self.ln_factors.set(i, 0, 0.0);
        }
        for i in 0..=total {
            self.ln_prefix.set(i, 0, 0.0);
            self.suffix.set(i, 0, 0.0);
        }
        for r in 0..self.ln_g_minus.rows {
            self.ln_g_minus.set(r, 0, 0.0);
        }
        for r in 0..self.ln_lq.rows {
            self.ln_lq.set(r, 0, f64::NEG_INFINITY);
        }
        for r in 0..self.ln_tail_prefix.rows {
            self.ln_tail_prefix.set(r, 0, f64::NEG_INFINITY);
            self.ln_tail_suffix.set(r, 0, f64::NEG_INFINITY);
        }
    }

    /// Extends every live column by the cell for population `self.n + 1`.
    /// Cells are append-only, so values never depend on how far the
    /// workspace is later extended — the root of the bit-for-bit guarantee.
    // lint: no-alloc
    fn extend_one(&mut self) -> Result<(), QueueingError> {
        let m = self.n + 1;
        self.ensure_capacity(m + 1);
        let total = self.stages.len();

        for (i, st) in self.stages.iter().enumerate() {
            let prev = self.ln_factors.at(i, m - 1);
            let v = match st.kind {
                StageKind::Zero => f64::NEG_INFINITY,
                StageKind::Geo => prev + st.ln_d,
                StageKind::Exp => prev + (st.ln_d - self.ln_int[m]),
                StageKind::Table => prev + (st.ln_d - self.ln_rate.at(st.row, m)),
            };
            self.ln_factors.set(i, m, v);
        }

        // Stage 0 convolves with the identity `prefix[0]`: its prefix cell
        // is its factor cell.
        self.ln_prefix
            .set(IS_STAGE + 1, m, self.ln_factors.at(IS_STAGE, m));
        for i in IS_STAGE + 1..total {
            let v = chain_cell(
                &self.stages[i],
                self.ln_prefix.row(i),
                self.ln_factors.row(i),
                self.ln_prefix.at(i + 1, m - 1),
                &mut self.ln_tail_prefix,
                m,
                &mut self.cell,
            );
            self.ln_prefix.set(i + 1, m, v);
        }

        let g_m = self.ln_prefix.at(total, m);
        let ln_g = g_m - m as f64 * self.ln_s;
        self.health.watch(ln_g);
        if g_m == f64::NEG_INFINITY && self.ln_prefix.at(total, m - 1) != f64::NEG_INFINITY {
            return Err(QueueingError::InvalidParameter {
                what: "normalization constant vanished (all-zero demands?)",
            });
        }

        if self.first_heavy < total {
            self.suffix.set(total, m, f64::NEG_INFINITY); // identity
            for i in (self.first_heavy + 1..total).rev() {
                let v = chain_cell(
                    &self.stages[i],
                    self.suffix.row(i + 1),
                    self.ln_factors.row(i),
                    self.suffix.at(i, m - 1),
                    &mut self.ln_tail_suffix,
                    m,
                    &mut self.cell,
                );
                self.suffix.set(i, m, v);
            }
            for i in self.first_heavy..total - 1 {
                let v = kernel::conv_cell(
                    self.ln_prefix.row(i),
                    self.suffix.row(i + 1),
                    m,
                    &mut self.cell,
                );
                self.ln_g_minus
                    .set(self.g_row[self.stages[i].station], m, v);
            }
        }

        for (k, &r) in self.lq_row.iter().enumerate() {
            if r == NO_ROW || self.heavy[k] {
                continue;
            }
            let st = &self.stages[self.stage_of[k]];
            if st.kind == StageKind::Geo {
                let v = st.ln_d + lse2(self.ln_lq.at(r, m - 1), self.ln_prefix.at(total, m - 1));
                self.ln_lq.set(r, m, v);
            }
        }

        self.n = m;
        self.extend_ctr.add(1);
        if obsv::enabled() {
            self.cells_ctr.add(self.cells_per_step);
            obsv::gauge("convolution.ln_g", ln_g);
        }
        Ok(())
    }

    /// Fills the output slots (`throughput`/`queues`/`marginals_of`) for
    /// population `n ≤ self.n`. Read-only over the columns; allocates
    /// nothing.
    // lint: no-alloc
    fn compute_outputs(&mut self, n: usize) {
        debug_assert!(n >= 1 && n <= self.n);
        let total = self.stages.len();
        let g_n = self.ln_prefix.at(total, n);
        let x = (self.ln_s + (self.ln_prefix.at(total, n - 1) - g_n)).exp();
        self.out_x = x;
        for k in 0..self.stations.len() {
            let i = self.stage_of[k];
            if self.heavy[k] {
                let limit = self.limits[k];
                let off = self.marg_off[k];
                self.out_marginals[off..off + limit].fill(0.0);
                // The last heavy stage's complement is the prefix before it.
                let ln_g_minus = if i + 1 == total {
                    self.ln_prefix.row(i)
                } else {
                    self.ln_g_minus.row(self.g_row[k])
                };
                let mut q = 0.0;
                for j in 0..=n {
                    let lp = self.ln_factors.at(i, j) + ln_g_minus[n - j] - g_n;
                    if lp > -700.0 {
                        let p = lp.exp();
                        q += j as f64 * p;
                        if j < limit {
                            self.out_marginals[off + j] = p;
                        }
                    } else if lp != f64::NEG_INFINITY {
                        // A finite marginal term too small for exp():
                        // dropped, which is safe but worth counting.
                        self.health.count_underflow();
                    }
                }
                self.out_queues[k] = q;
            } else if i == NO_ROW {
                // Folded into the infinite-server stage: Q = X·D (Little).
                self.out_queues[k] = x * self.stations[k].demand;
            } else {
                self.out_queues[k] = match self.stages[i].kind {
                    StageKind::Zero => 0.0,
                    StageKind::Geo => (self.ln_lq.at(self.lq_row[k], n) - g_n).exp(),
                    StageKind::Exp | StageKind::Table => {
                        unreachable!("delay stages are merged or heavy; table stages are heavy")
                    }
                };
            }
        }
    }

    /// Advances one population and refreshes the outputs — the streaming
    /// hot path, zero allocation once capacity is there.
    ///
    /// On error the columns are poisoned (partially extended) and the
    /// workspace must be discarded; all errors here are deterministic model
    /// errors, so a retry could not succeed anyway.
    // lint: no-alloc
    pub fn advance(&mut self) -> Result<(), QueueingError> {
        self.extend_one()?;
        self.compute_outputs(self.n);
        Ok(())
    }

    /// Evaluates population `n` under `demands` (one per station), reusing
    /// as much carried state as possible:
    ///
    /// * same demands, `n > population()` — incremental extension;
    /// * same demands, `n ≤ population()` — pure read-back, zero cells;
    /// * changed demands — in-buffer rebuild (reset + extend to `n`),
    ///   counted as `conv.workspace.rebuild`.
    ///
    /// Demand equality is bitwise: the quasi-static caller hands back the
    /// exact floats it got from the interpolator, so an epsilon would only
    /// blur the rebuild accounting.
    pub fn solve_at(&mut self, n: usize, demands: &[f64]) -> Result<(), QueueingError> {
        if n == 0 {
            return Err(QueueingError::InvalidParameter {
                what: "population must be >= 1",
            });
        }
        if demands.len() != self.stations.len() {
            return Err(QueueingError::InvalidParameter {
                what: "demand vector length does not match the station count",
            });
        }
        let changed = self
            .stations
            .iter()
            .zip(demands)
            .any(|(s, d)| s.demand.to_bits() != d.to_bits());
        if changed {
            for (s, &d) in self.stations.iter_mut().zip(demands) {
                s.demand = d;
            }
            self.refresh_kinds();
            obsv::counter("conv.workspace.rebuild", 1);
            self.reset();
        }
        while self.n < n {
            self.extend_one()?;
        }
        self.compute_outputs(n);
        Ok(())
    }
}

/// Whether a station joins the merged infinite-server stage 0: a delay
/// station that tracks no marginals.
fn folds_into_stage_0(s: &LdStation, limit: usize) -> bool {
    matches!(s.rate, RateFunction::Delay) && limit == 0
}

/// One chain cell `(a ⊛ f)(m)` of stage `st`: `a` is the chain row the
/// stage extends (prefix before it, or suffix after it) and `own_prev` the
/// stage's own chain cell at `m − 1`. Table stages also append their
/// carried tail `T(m)` to their row of `tails`.
// lint: no-alloc
fn chain_cell(
    st: &Stage,
    a: &[f64],
    f: &[f64],
    own_prev: f64,
    tails: &mut Grid,
    m: usize,
    cell: &mut kernel::CellScratch,
) -> f64 {
    match st.kind {
        StageKind::Zero => a[m],
        StageKind::Geo => lse2(a[m], st.ln_d + own_prev),
        StageKind::Exp => kernel::conv_cell(a, f, m, cell),
        StageKind::Table => {
            let c = st.width;
            if m < c {
                tails.set(st.row, m, f64::NEG_INFINITY);
                kernel::conv_cell(a, f, m, cell)
            } else {
                let ln_tail = lse2(f[c] + a[m - c], st.ln_ratio + tails.at(st.row, m - 1));
                tails.set(st.row, m, ln_tail);
                kernel::head_tail_cell(f, a, m, c, ln_tail)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::scratch;
    use super::*;
    use mvasd_numerics::propcheck::{check, Config, Gen};

    fn st(name: &str, demand: f64, rate: RateFunction) -> LdStation {
        LdStation::new(name, demand, rate)
    }

    fn ws_of(stations: &[LdStation], z: f64, limits: &[usize]) -> ConvWorkspace {
        ConvWorkspace::from_validated(stations.to_vec(), z, limits.to_vec()).unwrap()
    }

    fn rel_close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
    }

    /// Workspace vs the from-scratch reference on a fixed mixed network.
    #[test]
    fn agrees_with_scratch_reference() {
        let stations = vec![
            st("cpu", 0.03, RateFunction::MultiServer(4)),
            st("disk", 0.01, RateFunction::SingleServer),
            st("lan", 0.005, RateFunction::Delay),
            st("ghost", 0.0, RateFunction::SingleServer),
        ];
        let limits = [4usize, 1, 0, 0];
        let mut ws = ws_of(&stations, 0.7, &limits);
        for n in 1..=150usize {
            ws.advance().unwrap();
            let (x, q, m) = scratch::solve_at(&stations, 0.7, n, &limits).unwrap();
            assert!(rel_close(ws.throughput(), x, 1e-12), "x at n={n}");
            for (k, &qk) in q.iter().enumerate() {
                assert!(rel_close(ws.queues()[k], qk, 1e-11), "q[{k}] at n={n}");
            }
            for (j, &mv) in m[0].iter().enumerate() {
                assert!((ws.marginals_of(0)[j] - mv).abs() <= 1e-12, "m0[{j}] n={n}");
            }
            assert!((ws.marginals_of(1)[0] - m[1][0]).abs() <= 1e-12, "m1 n={n}");
        }
    }

    /// An incrementally-extended workspace and a fresh one at each
    /// population produce bit-identical outputs (same code, same order).
    #[test]
    fn incremental_is_bitwise_identical_to_fresh() {
        let stations = vec![
            st("cpu", 0.02, RateFunction::MultiServer(16)),
            st("disk", 0.012, RateFunction::SingleServer),
            st("lan", 0.004, RateFunction::Delay),
        ];
        let mut carried = ws_of(&stations, 1.0, &[0, 0, 0]);
        for n in 1..=80usize {
            carried.advance().unwrap();
            let mut fresh = ws_of(&stations, 1.0, &[0, 0, 0]);
            for _ in 0..n {
                fresh.advance().unwrap();
            }
            assert_eq!(carried.throughput().to_bits(), fresh.throughput().to_bits());
            for k in 0..3 {
                assert_eq!(carried.queues()[k].to_bits(), fresh.queues()[k].to_bits());
            }
        }
    }

    /// Revisiting a lower population is a pure read-back of the same cells.
    #[test]
    fn decreasing_population_reads_back_identical_values() {
        let stations = vec![
            st("cpu", 0.03, RateFunction::MultiServer(4)),
            st("disk", 0.01, RateFunction::SingleServer),
        ];
        let demands = [0.03, 0.01];
        let mut ws = ws_of(&stations, 1.0, &[4, 0]);
        let mut seen: Vec<(u64, u64, u64)> = Vec::new();
        for n in 1..=60usize {
            ws.solve_at(n, &demands).unwrap();
            seen.push((
                ws.throughput().to_bits(),
                ws.queues()[0].to_bits(),
                ws.marginals_of(0)[1].to_bits(),
            ));
        }
        for n in (1..=60usize).rev() {
            ws.solve_at(n, &demands).unwrap();
            let now = (
                ws.throughput().to_bits(),
                ws.queues()[0].to_bits(),
                ws.marginals_of(0)[1].to_bits(),
            );
            assert_eq!(now, seen[n - 1], "read-back at n={n}");
        }
    }

    /// A demand change rebuilds in place; the result must be bit-identical
    /// to a fresh workspace built with the new demands.
    #[test]
    fn demand_change_rebuild_matches_fresh_workspace() {
        let base = vec![
            st("cpu", 0.02, RateFunction::MultiServer(8)),
            st("disk", 0.008, RateFunction::SingleServer),
            st("lan", 0.003, RateFunction::Delay),
        ];
        let mut ws = ws_of(&base, 0.5, &[8, 0, 0]);
        // Warm it on the original demands first.
        ws.solve_at(40, &[0.02, 0.008, 0.003]).unwrap();
        for (i, scale) in [1.1f64, 0.7, 1.0, 0.0].iter().enumerate() {
            let demands = [0.02 * scale, 0.008 * scale, 0.003 * scale];
            let n = 25 + i;
            ws.solve_at(n, &demands).unwrap();
            let mut fresh_sts = base.clone();
            for (s, &d) in fresh_sts.iter_mut().zip(&demands) {
                s.demand = d;
            }
            let mut fresh = ws_of(&fresh_sts, 0.5, &[8, 0, 0]);
            fresh.solve_at(n, &demands).unwrap();
            assert_eq!(ws.throughput().to_bits(), fresh.throughput().to_bits());
            for k in 0..3 {
                assert_eq!(ws.queues()[k].to_bits(), fresh.queues()[k].to_bits());
            }
            for j in 0..8 {
                assert_eq!(
                    ws.marginals_of(0)[j].to_bits(),
                    fresh.marginals_of(0)[j].to_bits()
                );
            }
        }
    }

    /// The light single-server path (telescoped queue accumulator, no
    /// G₍₋ₖ₎) agrees with the closed-form machine-repair model.
    #[test]
    fn light_single_server_matches_machine_repair() {
        let stations = vec![st("s", 0.25, RateFunction::SingleServer)];
        let mut ws = ws_of(&stations, 1.0, &[0]);
        for n in 1..=200usize {
            ws.advance().unwrap();
            let (xe, qe) = mvasd_numerics::erlang::machine_repair(n, 1, 0.25, 1.0).unwrap();
            assert!(rel_close(ws.throughput(), xe, 1e-9), "x at n={n}");
            assert!(rel_close(ws.queues()[0], qe, 1e-8), "q at n={n}");
        }
    }

    /// Incremental-workspace `solve_at` ≡ from-scratch `solve_at` across
    /// random mixed networks with random marginal limits, under a random
    /// schedule of population jumps (up, down, deep past every saturation
    /// index, and demand changes) against ONE reused workspace.
    #[test]
    fn propcheck_workspace_equals_scratch_on_random_networks() {
        check(
            "propcheck_workspace_equals_scratch_on_random_networks",
            &Config::default().cases(24),
            |g: &mut Gen| {
                let k_count = g.usize_in(1, 4);
                let mut stations = Vec::new();
                let mut limits = Vec::new();
                for i in 0..k_count {
                    let rate = match g.usize_in(0, 3) {
                        0 => RateFunction::SingleServer,
                        1 => RateFunction::MultiServer(g.usize_in(2, 8)),
                        2 => RateFunction::Delay,
                        _ => {
                            let len = g.usize_in(1, 4);
                            RateFunction::Custom(
                                (0..len)
                                    .map(|j| 1.0 + j as f64 * g.f64_in(0.1, 1.0))
                                    .collect(),
                            )
                        }
                    };
                    let limit = match &rate {
                        RateFunction::MultiServer(c) if g.bool() => *c,
                        _ => {
                            if g.bool() {
                                g.usize_in(0, 3)
                            } else {
                                0
                            }
                        }
                    };
                    stations.push(st(&format!("s{i}"), g.f64_in(0.001, 0.2), rate));
                    limits.push(limit);
                }
                let z = g.f64_in(0.0, 2.0);
                if z <= 0.0 && stations.iter().all(|s| s.demand <= 0.0) {
                    return;
                }
                let mut ws = ConvWorkspace::from_validated(stations.clone(), z, limits.clone())
                    .expect("valid network");

                // A random walk of population requests over one workspace:
                // increasing, decreasing, and demand-perturbed steps.
                let mut demands: Vec<f64> = stations.iter().map(|s| s.demand).collect();
                for _ in 0..g.usize_in(3, 8) {
                    if g.bool() {
                        let k = g.usize_in(0, k_count - 1);
                        demands[k] = g.f64_in(0.001, 0.2);
                    }
                    // Mostly shallow, sometimes far past every saturation
                    // index, where the carried tails do the work.
                    let n = if g.usize_in(0, 7) == 0 {
                        g.usize_in(150, 400)
                    } else {
                        g.usize_in(1, 40)
                    };
                    ws.solve_at(n, &demands).unwrap();

                    let mut ref_sts = stations.clone();
                    for (s, &d) in ref_sts.iter_mut().zip(&demands) {
                        s.demand = d;
                    }
                    assert_matches_scratch(&ws, &ref_sts, z, n, &limits, "random");
                }
            },
        );
    }

    /// Asserts the workspace's outputs at population `n` against the
    /// from-scratch reference at the suite's bars: 1e-12 on X, 1e-11 on
    /// queues, 1e-12 (absolute) on marginals.
    fn assert_matches_scratch(
        ws: &ConvWorkspace,
        stations: &[LdStation],
        z: f64,
        n: usize,
        limits: &[usize],
        label: &str,
    ) {
        let (x, q, m) = scratch::solve_at(stations, z, n, limits).unwrap();
        assert!(
            rel_close(ws.throughput(), x, 1e-12),
            "{label}: x {} vs {x} at n={n}",
            ws.throughput()
        );
        for (k, &qk) in q.iter().enumerate() {
            assert!(
                rel_close(ws.queues()[k], qk, 1e-11),
                "{label}: q[{k}] {} vs {qk} at n={n}",
                ws.queues()[k]
            );
            for (j, &mv) in m[k].iter().enumerate() {
                assert!(
                    (ws.marginals_of(k)[j] - mv).abs() <= 1e-12,
                    "{label}: marginal[{k}][{j}] {} vs {mv} at n={n}",
                    ws.marginals_of(k)[j]
                );
            }
        }
    }

    /// Deep saturating populations, where the carried geometric tails do
    /// nearly all the work: every rate-table shape (C = 2, 16, 64, clamped
    /// custom tables), heavy single-server and delay stations, zero-demand
    /// stations and Z = 0. The first case is the 16-core model whose
    /// bottleneck tail drifts past the queue bar without column scaling.
    #[test]
    fn deep_saturating_populations_match_scratch() {
        let cases: Vec<(&str, Vec<LdStation>, f64, Vec<usize>)> = vec![
            (
                "cpu16+disk",
                vec![
                    st("cpu", 0.16, RateFunction::MultiServer(16)),
                    st("disk", 0.004, RateFunction::SingleServer),
                ],
                1.0,
                vec![16, 0],
            ),
            (
                "two-server",
                vec![
                    st("cpu", 0.05, RateFunction::MultiServer(2)),
                    st("disk", 0.01, RateFunction::SingleServer),
                    st("lan", 0.02, RateFunction::Delay),
                ],
                0.5,
                vec![2, 0, 0],
            ),
            (
                "cpu64",
                vec![
                    st("cpu", 0.6, RateFunction::MultiServer(64)),
                    st("disk", 0.006, RateFunction::SingleServer),
                    st("cpu16", 0.1, RateFunction::MultiServer(16)),
                ],
                1.0,
                vec![8, 0, 0],
            ),
            (
                "clamped-custom",
                vec![
                    st("fes", 0.03, RateFunction::Custom(vec![1.0, 1.7, 2.2, 2.5])),
                    st("nic", 0.02, RateFunction::Custom(vec![1.0, 1.5])),
                    st("one", 0.009, RateFunction::Custom(vec![0.8])),
                    st("disk", 0.004, RateFunction::SingleServer),
                ],
                0.3,
                vec![3, 0, 1, 0],
            ),
            (
                "heavy-single-server-batch",
                vec![
                    st("disk", 0.02, RateFunction::SingleServer),
                    st("cpu", 0.07, RateFunction::MultiServer(4)),
                ],
                0.0,
                vec![2, 0],
            ),
            (
                "heavy-delay-and-ghosts",
                vec![
                    st("lan", 0.05, RateFunction::Delay),
                    st("ghost", 0.0, RateFunction::SingleServer),
                    st("cpu", 0.16, RateFunction::MultiServer(16)),
                    st("idle", 0.0, RateFunction::MultiServer(8)),
                    st("disk", 0.006, RateFunction::SingleServer),
                ],
                1.0,
                vec![3, 0, 16, 2, 0],
            ),
            (
                "batch-with-ghost",
                vec![
                    st("cpu", 0.16, RateFunction::MultiServer(16)),
                    st("disk", 0.004, RateFunction::SingleServer),
                    st("ghost", 0.0, RateFunction::SingleServer),
                ],
                0.0,
                vec![0, 0, 0],
            ),
        ];
        for (label, stations, z, limits) in &cases {
            let demands: Vec<f64> = stations.iter().map(|s| s.demand).collect();
            let mut ws = ws_of(stations, *z, limits);
            for n in [300usize, 600] {
                ws.solve_at(n, &demands).unwrap();
                assert_matches_scratch(&ws, stations, *z, n, limits, label);
            }
        }
    }

    #[test]
    fn growth_preserves_carried_columns() {
        let stations = vec![
            st("cpu", 0.05, RateFunction::MultiServer(4)),
            st("disk", 0.02, RateFunction::SingleServer),
        ];
        // Tiny initial capacity (64), then force several regrowths.
        let mut ws = ws_of(&stations, 1.0, &[4, 0]);
        let mut fresh = ws_of(&stations, 1.0, &[4, 0]);
        fresh.reserve(600);
        for _ in 0..600 {
            ws.advance().unwrap();
            fresh.advance().unwrap();
        }
        assert_eq!(ws.throughput().to_bits(), fresh.throughput().to_bits());
        assert_eq!(ws.queues()[0].to_bits(), fresh.queues()[0].to_bits());
        assert_eq!(ws.queues()[1].to_bits(), fresh.queues()[1].to_bits());
    }

    #[test]
    fn rejects_bad_requests() {
        assert!(matches!(
            ConvWorkspace::from_validated(Vec::new(), 1.0, Vec::new()),
            Err(QueueingError::EmptyNetwork)
        ));
        let stations = vec![st("s", 0.1, RateFunction::SingleServer)];
        let mut ws = ws_of(&stations, 1.0, &[0]);
        assert!(ws.solve_at(0, &[0.1]).is_err());
        assert!(ws.solve_at(5, &[0.1, 0.2]).is_err());
        assert!(ws.solve_at(5, &[0.1]).is_ok());
    }

    #[test]
    fn public_face_validates_stations() {
        let good = [LdStation::new("s", 0.1, RateFunction::SingleServer)];
        let mut ws = ConvWorkspace::new(&good, 1.0, &[0]).unwrap();
        ws.advance().unwrap();
        assert!(ws.throughput() > 0.0);
        let bad = [LdStation::new("s", f64::NAN, RateFunction::SingleServer)];
        assert!(ConvWorkspace::new(&bad, 1.0, &[0]).is_err());
    }

    #[test]
    fn emits_workspace_metrics() {
        let _guard = mvasd_obsv_test_lock();
        let collector = std::sync::Arc::new(obsv::Collector::new());
        let scope = obsv::scoped(collector.clone());
        let stations = vec![st("s", 0.1, RateFunction::SingleServer)];
        let mut ws = ws_of(&stations, 1.0, &[0]);
        for _ in 0..10 {
            ws.advance().unwrap();
        }
        ws.solve_at(5, &[0.2]).unwrap();
        ws.flush_metrics();
        let snap = collector.snapshot();
        drop(scope);
        // 10 incremental advances + 5 rebuild extensions.
        assert_eq!(snap.counter("conv.workspace.extend"), 15);
        assert_eq!(snap.counter("conv.workspace.rebuild"), 1);
        assert!(snap.counter("conv.workspace.alloc") >= 1);
        assert!(snap.gauge("conv.workspace.bytes").unwrap_or(0.0) > 0.0);
        // Numeric-health probe: one ln G watched per extension, no NaN
        // reads, and a nonzero log-sum-exp envelope.
        assert_eq!(snap.counter("health.conv.lse.samples"), 15);
        assert_eq!(snap.counter("health.conv.lse.nan_poison"), 0);
        let lo = snap.gauge("health.conv.lse.lo").expect("lse lo");
        let hi = snap.gauge("health.conv.lse.hi").expect("lse hi");
        let range = snap.gauge("health.conv.lse.range").expect("lse range");
        assert!(hi >= lo);
        assert!((range - (hi - lo)).abs() < 1e-12);
        assert!(range > 0.0);
    }

    /// Serializes against other tests touching the global recorder.
    fn mvasd_obsv_test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }
}
