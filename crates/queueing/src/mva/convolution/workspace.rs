//! The incremental convolution workspace: Buzen's algorithm with carried
//! state, zero heap allocation per step once warm, no libm call per cell,
//! and no O(n) cell on the prefix or suffix chains.
//!
//! [`ConvWorkspace`] owns every array the recursion touches as a flat,
//! stride-indexed buffer ([`Grid`]) of extended-exponent values
//! ([`Ext`]: an `f64` mantissa with its own binary exponent). Buzen's
//! recursion only multiplies and adds positive terms, so every cell is a
//! multiply-add with exponent alignment and no column ever leaves the
//! linear domain. The network runs as a chain of **stages** whose order is
//! re-derived whenever the demands change:
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
//! only inside the heavy group, and its last column is the last stage's
//! factor column itself, never stored. A heavy station `k` at stage `i`
//! reads its queue off `G₍₋ₖ₎ = prefix[i] ⊛ suffix[i+1]` in one of three
//! ways:
//!
//! * The last heavy stage needs no column of its own: its `G₍₋ₖ₎` is
//!   `prefix[total−1]`, and its queue and marginals are one O(n) sum at
//!   output time.
//! * A station that tracks marginals carries the complement column
//!   `G₍₋ₖ₎` itself, one O(m) cell per extension.
//! * Every other rate-table station carries a **tangent column**
//!   `T(m) = Σ_j j·f(j)·P(m−j)` with `P = prefix[i]`, and its queue is
//!   `Q_k(n) = (T ⊛ suffix[i+1])(n) / G(n)`: one O(n) cell per output.
//!   With `C` servers `j·f(j) = D·f(j−1)` up to `j = C`, so
//!   `T(m) = D·prefix[i+1](m−1) + ρ·Y(m−1)` with the carried
//!   `Y(m) = f(C)·P(m−C) + ρ·(Y(m−1) + V(m−1))`, where `ρ = D/C`, `V` is
//!   the stage's own prefix tail and `Y = 0` below `C`: O(1) per
//!   extension. A custom rate table of length `L` has no such identity and
//!   pays an `L`-wide head plus the carried
//!   `W(m) = L·f(L)·P(m−L) + ρ·(W(m−1) + V(m−1))`.
//!
//! Light single-server stations carry O(1)-state queue accumulators
//! instead. One [`advance`] appends exactly one cell to each live column;
//! nothing already written is ever mutated, which is what makes the
//! incremental, clone/resume, and rebuild paths **bit-for-bit
//! identical** — they all execute the same per-cell code in the same order.
//!
//! **Body and point evaluation.** The *body* is every column except `G`
//! and the light accumulators read off `G`. [`advance`] extends the body,
//! then `G`, and reads its outputs off the columns, so a streaming sweep
//! pays O(1) per light output. [`solve_at`] at a population `n` that `G`
//! does not hold extends the body to `n` and *point-evaluates*: `G(n)`,
//! `G(n − 1)` and each light queue at `n` are single O(n) cells over
//! `P = prefix[total−1]`, the prefix before the last stage, taken in one
//! fused pass over the last factor column ([`kernel::point_sums`]). A light
//! station carries `h^P(m) = D·(P(m−1) + h^P(m−1))` in the body, and its
//! queue is `(f_last ⊛ h^P)(n) / G(n)`: the `h(n)` below regrouped, since
//! `G = P ⊛ f_last`. The last stage, light or heavy, reads its queue off
//! `P`. An `advance` after a point evaluation first extends `G` up to the
//! body, so it equals an advance-only workspace bit for bit, and a point
//! evaluation equals a fresh workspace's, since both read the same body
//! cells by the same code. Point and column outputs differ in the last
//! bits only.
//!
//! Per-stage work is specialized by [`StageKind`]:
//!
//! * `Zero` — zero demand: the factor column is the convolution identity,
//!   so chain cells are plain copies.
//! * `Geo` — single-server-like (`f(j) = D^j`): the convolution with a
//!   geometric column telescopes, `(A ⊛ f)(n) = A(n) + D·(A ⊛ f)(n−1)`, one
//!   O(1) update. A light single-server station also skips `G₍₋ₖ₎`: its
//!   queue satisfies `h(n) = D·(G(n−1) + h(n−1))`, `Q(n) = h(n)/G(n)`.
//! * `Exp` — infinite-server (`f(j) = D^j/j!`). As stage 0 it convolves
//!   with the identity, so its prefix cell is its factor cell; a delay
//!   station that tracks marginals keeps a full O(n) cell.
//! * `Table` — multi-server / custom rate, `f(j) = D^j / ∏ α(i)`. From the
//!   saturation index `C` on (`C` servers, or the custom table length,
//!   past which the rate clamps) the factor is geometric:
//!   `f(j) = f(C)·ρ^{j−C}` with `ρ = D/α(C)`. So the tail sum
//!   `V(m) = Σ_{j≥C} f(j)·A(m−j)` carries as
//!   `V(m) = f(C)·A(m−C) + ρ·V(m−1)`, and a cell past `C` is a `C`-wide
//!   head plus one tail term: O(C), not O(m). Below `C` the cell is the
//!   full O(m) convolution.
//!
//! A cell adds its terms at the largest term's exponent
//! ([`kernel::dot_rev`]), so no magnitude overflows however deep the sweep
//! runs, and the column needs no scaling. The `conv.lse` health probe
//! samples `ln G(n)` once per `advance` and once per point evaluation
//! while instrumentation is on; that is the recursion's only
//! transcendental call, and every output is a ratio of two extended values
//! ([`Ext::ratio`]).
//!
//! What remains O(m) per population: the complement cells of stations
//! that track marginals (but the last heavy one), table cells below their
//! saturation index, and delay stations that track marginals. A point
//! evaluation adds two O(n) cells and one O(n) sum per light station.
//!
//! The body extends over a population range in one call: each factor
//! column is one multiply chain that normalizes only the cells it stores
//! ([`kernel::scale_chain`]), and the chain columns follow population by
//! population. [`advance`] is the range of one.
//!
//! Changing the demand vector ([`solve_at`]) re-runs the body from
//! population 0 inside the same buffers — zero allocation and no libm call
//! — and point-evaluates, which is what the quasi-static MVASD phase does
//! at every population step; `G` then holds no population past 0. A
//! rebuild keeps the leading light stages whose kind, station and demand
//! bits did not change, with their factor and prefix cells, and the
//! light accumulators over `P` when every stage but the last is kept:
//! those cells are exactly what a fresh workspace would compute, so
//! extension recomputes only the stages from the first changed one on, for
//! the populations the kept cells cover.
//!
//! [`advance`]: ConvWorkspace::advance
//! [`solve_at`]: ConvWorkspace::solve_at

use super::super::loaddep::{validate_stations, LdStation, RateFunction};
use super::kernel::{self, dot_rev, pow2, scale_chain, Ext, PointSum};
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
    /// The demand `D` (0 when zero).
    d: f64,
    /// Table stages: the saturation index `C` where the tail starts.
    width: usize,
    /// Table stages: the tail ratio `ρ = D/α(C)`.
    ratio: f64,
    /// Table stages: row in `rate` and in both tail grids.
    row: usize,
}

impl Stage {
    /// Whether this stage computes the same factor cells as `other`, and
    /// so the same prefix cells after an unchanged chain: same kind,
    /// station and demand bits (the other fields follow from the station).
    fn same_cells(&self, other: &Stage) -> bool {
        self.kind == other.kind
            && self.station == other.station
            && self.d.to_bits() == other.d.to_bits()
    }

    /// A zero-demand stage with no station behind it.
    const IDENTITY: Stage = Stage {
        kind: StageKind::Zero,
        station: NO_ROW,
        d: 0.0,
        width: 0,
        ratio: 0.0,
        row: NO_ROW,
    };
}

/// A fixed number of equally-long rows in one flat allocation. `cap` is
/// the per-row stride; rows grow together and keep their first `keep`
/// entries on reallocation.
#[derive(Debug, Clone)]
struct Grid<T> {
    buf: Vec<T>,
    rows: usize,
    cap: usize,
}

impl<T: Copy> Grid<T> {
    fn new(rows: usize) -> Self {
        Self {
            buf: Vec::new(),
            rows,
            cap: 0,
        }
    }

    #[inline]
    fn row(&self, r: usize) -> &[T] {
        &self.buf[r * self.cap..(r + 1) * self.cap]
    }

    #[inline]
    fn row_mut(&mut self, r: usize) -> &mut [T] {
        &mut self.buf[r * self.cap..(r + 1) * self.cap]
    }

    #[inline]
    fn at(&self, r: usize, j: usize) -> T {
        self.buf[r * self.cap + j]
    }

    #[inline]
    fn set(&mut self, r: usize, j: usize, v: T) {
        self.buf[r * self.cap + j] = v;
    }

    /// Regrows to `new_cap` per row, filling new cells with `poison` so
    /// any read of a never-written cell is loudly wrong.
    fn grow(&mut self, new_cap: usize, keep: usize, poison: T) {
        debug_assert!(new_cap > self.cap);
        let mut next = vec![poison; self.rows * new_cap];
        for r in 0..self.rows {
            next[r * new_cap..r * new_cap + keep]
                .copy_from_slice(&self.buf[r * self.cap..r * self.cap + keep]);
        }
        self.buf = next;
        self.cap = new_cap;
    }

    fn bytes(&self) -> usize {
        self.buf.len() * std::mem::size_of::<T>()
    }
}

/// Sentinel for "this station has no row in that grid".
const NO_ROW: usize = usize::MAX;

/// The merged infinite-server stage always heads the chain.
const IS_STAGE: usize = 0;

/// Incremental extended-exponent convolution engine. See the module docs
/// for the layout and the per-kind update rules.
///
/// Cloning copies the entire recursion state (a handful of `memcpy`s);
/// the hierarchy's `ProfileCache` hands out such copies of solved
/// subsystems.
#[derive(Debug, Clone)]
pub struct ConvWorkspace {
    stations: Vec<LdStation>,
    think_time: f64,
    limits: Vec<usize>,

    /// Population the body columns reach (0 = fresh).
    n: usize,
    /// Population up to which `G` and the light accumulators over it hold
    /// (at most `n`).
    g_upto: usize,
    /// The chain, stage 0 first; re-derived on every demand change.
    stages: Vec<Stage>,
    /// Stage of each station ([`NO_ROW`] when folded into stage 0).
    stage_of: Vec<usize>,
    /// First stage of the heavy group (`stages.len()` when there is none).
    first_heavy: usize,
    /// Whether station `k` currently needs the `G₍₋ₖ₎` marginal path.
    heavy: Vec<bool>,
    /// Body prefix, suffix and complement or tangent cells per extension,
    /// kept prefix cells included.
    cells_per_step: u64,
    /// Leading light stages kept by the last rebuild: their factor and
    /// prefix cells hold for the current demands up to `kept_upto`.
    kept: usize,
    /// Population up to which the kept stages' cells hold.
    kept_upto: usize,

    /// Saturation index `C` of each rate-table station (0 otherwise).
    sat_index: Vec<usize>,
    /// Row of `g_minus` for stations that track marginals (else NO_ROW).
    g_row: Vec<usize>,
    /// Row of the tangent grids for rate-table stations that track no
    /// marginals (else NO_ROW).
    t_row: Vec<usize>,
    /// Row of `lq` for light single-server-like stations (else NO_ROW).
    lq_row: Vec<usize>,
    /// Row of `rate` and the tail grids for rate-table stations.
    rate_row: Vec<usize>,

    /// `α_k(j)` per rate-table station, filled once per growth.
    rate: Grid<f64>,

    /// `factors[i][j] = f_i(j)` per stage.
    factors: Grid<Ext>,
    /// `prefix[i] = f_0 ⊛ … ⊛ f_{i−1}`; the last row is `G`.
    /// `prefix[0]` is the identity and is never read past `j = 0`.
    prefix: Grid<Ext>,
    /// `suffix[i] = f_i ⊛ … ⊛ f_{total−1}`, maintained only past the first
    /// heavy stage and before the last (`suffix_row` reads the last).
    suffix: Grid<Ext>,
    /// Carried tails `V(m)` of the table stages' prefix cells.
    tail_prefix: Grid<Ext>,
    /// Carried tails of the table stages' suffix cells.
    tail_suffix: Grid<Ext>,
    /// `g_minus[row] = G₍₋ₖ₎` for stations that track marginals, written
    /// while they are heavy but not last.
    g_minus: Grid<Ext>,
    /// Tangent columns `T(m) = Σ_j j·f(j)·prefix[i](m−j)`.
    tangent: Grid<Ext>,
    /// Their carried tails: `Y(m)` (multi-server) or `W(m)` (custom).
    tangent_tail: Grid<Ext>,
    /// `lq[row][n]`: the light single-server queue numerator `h(n)`,
    /// carried on `G`.
    lq: Grid<Ext>,
    /// `lq_p[row][n]`: the same station's `h^P(n)`, carried on
    /// `P = prefix[total − 1]`, so that `h = f_last ⊛ h^P`.
    lq_p: Grid<Ext>,
    /// Per `lq` row, the light queue numerator `(f_last ⊛ h^P)(n)` of the
    /// last point evaluation; live for the light single-server-like
    /// stations before the last stage, which carry `h^P`.
    point: Vec<PointSum>,

    // Per-population outputs, overwritten in place by `compute_outputs`.
    out_x: f64,
    out_queues: Vec<f64>,
    /// Marginal snapshots `p_k(0..limit−1 | n)`, packed back to back.
    out_marginals: Vec<f64>,
    /// Offset of station `k`'s marginal block in `out_marginals`.
    marg_off: Vec<usize>,

    extend_ctr: obsv::CounterBatch,
    /// Cells written.
    cells_ctr: obsv::CounterBatch,
    /// Kept prefix cells read instead of written.
    reused_ctr: obsv::CounterBatch,
    /// Watches `ln G` per extension (dynamic range, NaN-poison trips) and
    /// counts marginal terms below the `f64` range. Locally buffered;
    /// flushed by [`flush_metrics`](Self::flush_metrics) and on drop.
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
        let mut g_row = vec![NO_ROW; k_count];
        let mut t_row = vec![NO_ROW; k_count];
        let mut lq_row = vec![NO_ROW; k_count];
        let mut rate_row = vec![NO_ROW; k_count];
        let (mut g_rows, mut t_rows, mut lq_rows, mut rate_rows) = (0, 0, 0, 0);
        for (k, s) in stations.iter().enumerate() {
            let sat = match &s.rate {
                RateFunction::MultiServer(c) if *c >= 2 => *c,
                RateFunction::Custom(t) => t.len(),
                _ => 0,
            };
            if sat > 0 {
                sat_index[k] = sat;
                rate_row[k] = rate_rows;
                rate_rows += 1;
            }
            if limits[k] > 0 {
                g_row[k] = g_rows;
                g_rows += 1;
            } else if sat > 0 {
                t_row[k] = t_rows;
                t_rows += 1;
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
            g_upto: 0,
            stages: vec![Stage::IDENTITY; total],
            stage_of: vec![NO_ROW; k_count],
            first_heavy: total,
            heavy: vec![false; k_count],
            cells_per_step: 0,
            kept: 0,
            kept_upto: 0,
            sat_index,
            g_row,
            t_row,
            lq_row,
            rate_row,
            rate: Grid::new(rate_rows),
            factors: Grid::new(total),
            prefix: Grid::new(total + 1),
            suffix: Grid::new(total - 1),
            tail_prefix: Grid::new(rate_rows),
            tail_suffix: Grid::new(rate_rows),
            g_minus: Grid::new(g_rows),
            tangent: Grid::new(t_rows),
            tangent_tail: Grid::new(t_rows),
            lq: Grid::new(lq_rows),
            lq_p: Grid::new(lq_rows),
            point: vec![PointSum::IDLE; lq_rows],
            out_x: 0.0,
            out_queues: vec![0.0; k_count],
            out_marginals: vec![0.0; off],
            marg_off,
            extend_ctr: obsv::CounterBatch::new("conv.workspace.extend", 64),
            cells_ctr: obsv::CounterBatch::new("convolution.cells", 64),
            reused_ctr: obsv::CounterBatch::new("conv.workspace.reused", 64),
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

    /// Population the columns reach (0 = fresh): the last one advanced
    /// to, or the deepest one `solve_at` reached since the last demand
    /// change.
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
        self.reused_ctr.flush();
        self.health.flush();
    }

    /// Re-derives the stage chain from the current demands: kinds, order
    /// (stage 0, light, heavy) and the tail ratios. Returns how many
    /// leading stages compute the same cells as the stage at the same
    /// index before ([`Stage::same_cells`]); the run never reaches into the
    /// heavy group, whose tangent, suffix and complement columns read later
    /// stages. Allocation-free: each stage is compared as it is written.
    fn refresh_kinds(&mut self) -> usize {
        let total = self.stages.len();
        let mut is_demand = self.think_time;
        // Light stages fill upward from 1, heavy stages downward from the end.
        let (mut lo, mut hi) = (1, total);
        // Light stages 1..=same_light are unchanged.
        let mut same_light = 0;
        for (k, s) in self.stations.iter().enumerate() {
            self.heavy[k] = false;
            if folds_into_stage_0(s, self.limits[k]) {
                is_demand += s.demand;
                continue;
            }
            let kind = if s.demand <= 0.0 {
                StageKind::Zero
            } else {
                match s.rate {
                    RateFunction::Delay => StageKind::Exp,
                    RateFunction::SingleServer | RateFunction::MultiServer(1) => StageKind::Geo,
                    _ => StageKind::Table,
                }
            };
            let heavy = self.limits[k] > 0 || kind == StageKind::Table;
            let i = if heavy {
                hi -= 1;
                hi
            } else {
                lo += 1;
                lo - 1
            };
            let width = self.sat_index[k];
            let stage = Stage {
                kind,
                station: k,
                d: s.demand,
                width,
                ratio: if kind == StageKind::Table {
                    s.demand / s.rate.rate(width)
                } else {
                    0.0
                },
                row: self.rate_row[k],
            };
            if !heavy && same_light + 1 == i && stage.same_cells(&self.stages[i]) {
                same_light = i;
            }
            self.heavy[k] = heavy;
            self.stage_of[k] = i;
            self.stages[i] = stage;
        }
        debug_assert_eq!(lo, hi);
        self.first_heavy = hi;
        let stage_0 = if is_demand > 0.0 {
            Stage {
                kind: StageKind::Exp,
                d: is_demand,
                ..Stage::IDENTITY
            }
        } else {
            Stage::IDENTITY
        };
        let same = if stage_0.same_cells(&self.stages[IS_STAGE]) {
            1 + same_light
        } else {
            0
        };
        self.stages[IS_STAGE] = stage_0;
        for (k, &r) in self.lq_row.iter().enumerate() {
            if r != NO_ROW {
                let i = self.stage_of[k];
                self.point[r].live = i + 1 != total && self.stages[i].kind == StageKind::Geo;
            }
        }
        let complements = (total - self.first_heavy).saturating_sub(1);
        let suffixes = complements.saturating_sub(1);
        self.cells_per_step = (total - 1 + complements + suffixes) as u64;
        same
    }

    /// Grows every grid so populations `0..len` fit, extending the rate
    /// tables for the new range. Growth is the only allocation the
    /// workspace ever performs after construction. It copies the kept
    /// stages' cells past the current population too.
    fn ensure_capacity(&mut self, len: usize) {
        if len <= self.factors.cap {
            return;
        }
        let new_cap = len.next_power_of_two().max(self.factors.cap * 2).max(64);
        let old_cap = self.factors.cap;
        let keep = (self.n.max(self.kept_upto) + 1).min(old_cap);
        for grid in [
            &mut self.factors,
            &mut self.prefix,
            &mut self.suffix,
            &mut self.tail_prefix,
            &mut self.tail_suffix,
            &mut self.g_minus,
            &mut self.tangent,
            &mut self.tangent_tail,
            &mut self.lq,
            &mut self.lq_p,
        ] {
            grid.grow(new_cap, keep, Ext::POISON);
        }

        // j = 0 is never read and stays poisoned.
        self.rate.grow(new_cap, old_cap, f64::NAN);
        for (k, s) in self.stations.iter().enumerate() {
            let r = self.rate_row[k];
            if r == NO_ROW {
                continue;
            }
            for j in old_cap.max(1)..new_cap {
                self.rate.set(r, j, s.rate.rate(j));
            }
        }

        if obsv::enabled() {
            let ext_bytes: usize = [
                &self.factors,
                &self.prefix,
                &self.suffix,
                &self.tail_prefix,
                &self.tail_suffix,
                &self.g_minus,
                &self.tangent,
                &self.tangent_tail,
                &self.lq,
                &self.lq_p,
            ]
            .iter()
            .map(|g| g.bytes())
            .sum();
            obsv::counter("conv.workspace.alloc", 1);
            obsv::gauge(
                "conv.workspace.bytes",
                (ext_bytes + self.rate.bytes()) as f64,
            );
        }
    }

    /// Rewinds to population 0, re-initializing only the `j = 0` cells:
    /// `f(0) = G(0) = G₍₋ₖ₎(0) = 1`, `h(0) = V(0) = T(0) = Y(0) = 0`.
    /// `G` holds population 0 only.
    fn reset(&mut self) {
        self.n = 0;
        self.g_upto = 0;
        for i in 0..self.factors.rows {
            self.factors.set(i, 0, Ext::ONE);
        }
        for i in 0..self.prefix.rows {
            self.prefix.set(i, 0, Ext::ONE);
        }
        for i in 0..self.suffix.rows {
            self.suffix.set(i, 0, Ext::ONE);
        }
        for r in 0..self.g_minus.rows {
            self.g_minus.set(r, 0, Ext::ONE);
        }
        for r in 0..self.lq.rows {
            self.lq.set(r, 0, Ext::ZERO);
            self.lq_p.set(r, 0, Ext::ZERO);
        }
        for r in 0..self.tail_prefix.rows {
            self.tail_prefix.set(r, 0, Ext::ZERO);
            self.tail_suffix.set(r, 0, Ext::ZERO);
        }
        for r in 0..self.tangent.rows {
            self.tangent.set(r, 0, Ext::ZERO);
            self.tangent_tail.set(r, 0, Ext::ZERO);
        }
    }

    /// Extends every body column (module docs) from population `self.n + 1`
    /// to `upto`: the grids grow once, each factor column fills the whole
    /// range as one [`scale_chain`], and then the chain columns (prefix,
    /// suffix, tangent, complement and `h^P`) fill population by
    /// population. A factor cell reads only its own column; a chain cell
    /// reads factor cells, the columns before it at the same population and
    /// its own column below it. So every cell is the same per-cell formula
    /// over the same inputs in either order. The chain columns go by
    /// population because each is a recurrence whose latency only the other
    /// columns' cells at the same population can hide. Cells are
    /// append-only, so values never depend on how far the workspace is
    /// later extended — the root of the bit-for-bit guarantee. An `upto`
    /// the body already reaches extends nothing; [`advance`] extends by
    /// one.
    ///
    /// [`advance`]: Self::advance
    // lint: no-alloc
    fn extend_body(&mut self, upto: usize) {
        let from = self.n + 1;
        if upto < from {
            return;
        }
        self.ensure_capacity(upto + 1);
        let last = self.stages.len() - 1;
        // The kept stages already hold their factor and prefix cells up to
        // `kept_upto`.
        let (kept, fresh) = (self.kept, from.max(self.kept_upto + 1));
        for i in 0..=last {
            self.fill_factors(i, if i < kept { fresh } else { from }, upto);
        }
        // Up to `kept_upto`, a chain that keeps every stage but the last and
        // has no heavy stage before it writes no chain cell.
        let idle = kept >= last && self.first_heavy >= last;
        for m in if idle { fresh } else { from }..=upto {
            self.extend_chains(m, if m <= self.kept_upto { kept } else { 0 });
        }

        let count = (upto + 1 - from) as u64;
        self.n = upto;
        self.extend_ctr.add(count);
        if obsv::enabled() {
            let kept_cells =
                (kept.min(last) * (self.kept_upto.min(upto) + 1).saturating_sub(from)) as u64;
            self.cells_ctr.add(self.cells_per_step * count - kept_cells);
            self.reused_ctr.add(kept_cells);
        }
    }

    /// Appends the chain cells at population `m` to the prefix, suffix,
    /// tangent, complement and `h^P` columns, over factor cells already
    /// written; the first `reused` stages' prefix cells are kept.
    // lint: no-alloc
    fn extend_chains(&mut self, m: usize, reused: usize) {
        let last = self.stages.len() - 1;
        for i in reused..last {
            let v = self.prefix_cell(i, m);
            self.prefix.set(i + 1, m, v);
        }
        for i in (self.first_heavy + 1..last).rev() {
            let v = chain_cell(
                &self.stages[i],
                suffix_row(&self.suffix, &self.factors, i + 1),
                self.factors.row(i),
                self.suffix.at(i, m - 1),
                &mut self.tail_suffix,
                m,
            );
            self.suffix.set(i, m, v);
        }
        for i in self.first_heavy..last {
            let r = self.g_row[self.stages[i].station];
            if r == NO_ROW {
                self.extend_tangent(i, m);
            } else {
                let v = dot_rev(
                    &self.prefix.row(i)[..=m],
                    &suffix_row(&self.suffix, &self.factors, i + 1)[..=m],
                    Ext::ZERO,
                );
                self.g_minus.set(r, m, v);
            }
        }
        // `h^P` reads only `P` and its station's demand, so it is kept
        // wherever `P` is.
        if reused < last {
            for (k, &r) in self.lq_row.iter().enumerate() {
                if r == NO_ROW || !self.point[r].live {
                    continue;
                }
                let v = self
                    .lq_p
                    .at(r, m - 1)
                    .add(self.prefix.at(last, m - 1))
                    .scale(self.stages[self.stage_of[k]].d);
                self.lq_p.set(r, m, v);
            }
        }
    }

    /// Stage `i`'s factor cells for populations `from..=upto`, each the
    /// cell before it times the stage's multiplier, as one
    /// [`scale_chain`] per multiplier rule.
    // lint: no-alloc
    fn fill_factors(&mut self, i: usize, from: usize, upto: usize) {
        if from > upto {
            return;
        }
        let st = self.stages[i];
        let col = self.factors.row_mut(i);
        let len = upto + 1 - from;
        match st.kind {
            StageKind::Zero => col[from..=upto].fill(Ext::ZERO),
            StageKind::Geo => scale_chain(col, from, std::iter::repeat(st.d).take(len)),
            StageKind::Exp => scale_chain(col, from, (from..=upto).map(|m| st.d / m as f64)),
            StageKind::Table => {
                // The rate clamps at the saturation index, where the
                // quotient is the stored ratio, bit for bit.
                let tail = st.width.clamp(from, upto + 1);
                let head = &self.rate.row(st.row)[from..tail];
                scale_chain(col, from, head.iter().map(|&a| st.d / a));
                scale_chain(col, tail, std::iter::repeat(st.ratio).take(upto + 1 - tail));
            }
        }
    }

    /// Stage `i`'s prefix cell `prefix[i + 1](m)`, which is `G(m)` for the
    /// last stage. Stage 0 convolves with the identity `prefix[0]`: its
    /// prefix cell is its factor cell.
    // lint: no-alloc
    fn prefix_cell(&mut self, i: usize, m: usize) -> Ext {
        if i == IS_STAGE {
            return self.factors.at(IS_STAGE, m);
        }
        chain_cell(
            &self.stages[i],
            self.prefix.row(i),
            self.factors.row(i),
            self.prefix.at(i + 1, m - 1),
            &mut self.tail_prefix,
            m,
        )
    }

    /// Extends `G` and the light accumulators over it by one population,
    /// which the body must reach, and returns the new `G` cell.
    // lint: no-alloc
    fn extend_g(&mut self) -> Result<Ext, QueueingError> {
        let m = self.g_upto + 1;
        debug_assert!(m <= self.n);
        let total = self.stages.len();
        let g = self.prefix_cell(total - 1, m);
        let g_prev = self.prefix.at(total, m - 1);
        if g.is_zero() && !g_prev.is_zero() {
            return Err(vanished());
        }
        self.prefix.set(total, m, g);
        for (k, &r) in self.lq_row.iter().enumerate() {
            if r == NO_ROW {
                continue;
            }
            let st = &self.stages[self.stage_of[k]];
            if st.kind == StageKind::Geo {
                let v = self.lq.at(r, m - 1).add(g_prev).scale(st.d);
                self.lq.set(r, m, v);
            }
        }
        self.g_upto = m;
        if obsv::enabled() {
            self.cells_ctr.add(1);
        }
        Ok(g)
    }

    /// Evaluates population `n ≤ self.n` from the body alone: `G(n)` and
    /// `G(n − 1)` are two O(n) cells over `P = prefix[total − 1]`, taken
    /// with the light queue numerators in one fused pass over the last
    /// factor column ([`kernel::point_sums`]), and the outputs read them
    /// (module docs).
    // lint: no-alloc
    fn point_evaluate(&mut self, n: usize) -> Result<(), QueueingError> {
        let last = self.stages.len() - 1;
        let (g, g_prev) = if last == IS_STAGE {
            // A chain of one stage: `P` is the identity, whose cells past
            // 0 are never written, and `G` is the stage's factor column.
            // No light station is left outside stage 0.
            (
                self.factors.at(IS_STAGE, n),
                self.factors.at(IS_STAGE, n - 1),
            )
        } else {
            kernel::point_sums(
                &self.factors.row(last)[..=n],
                &self.prefix.row(last)[..=n],
                &self.lq_p.buf,
                self.lq_p.cap,
                &mut self.point,
            )
        };
        if g.is_zero() {
            return Err(vanished());
        }
        if obsv::enabled() {
            self.cells_ctr.add(2);
        }
        self.watch(g);
        self.compute_outputs(n, g, g_prev, true);
        Ok(())
    }

    /// Feeds `ln G(n)` of one evaluation to the `conv.lse` probe: the
    /// recursion's one transcendental call, made only while
    /// instrumentation is on.
    fn watch(&mut self, g: Ext) {
        if obsv::enabled() {
            let ln_g = g.ln();
            self.health.watch(ln_g);
            obsv::gauge("convolution.ln_g", ln_g);
        }
    }

    /// Appends `T(m)` and its carried tail to the tangent column of the
    /// rate-table stage `i` (module docs): O(1) for `C` servers, an
    /// `L`-wide head for a custom table of length `L`.
    // lint: no-alloc
    fn extend_tangent(&mut self, i: usize, m: usize) {
        let st = &self.stages[i];
        let r = self.t_row[st.station];
        let c = st.width;
        let p = self.prefix.row(i);
        let f = self.factors.row(i);
        let tail_prev = self.tangent_tail.at(r, m - 1);
        let servers = matches!(self.stations[st.station].rate, RateFunction::MultiServer(_));
        let tail = if m < c {
            Ext::ZERO
        } else {
            // Y(m) = f(C)·P(m−C) + ρ·(Y(m−1) + V(m−1)); W's first term
            // carries the weight j = L.
            let first = f[c].mul(p[m - c]);
            let first = if servers {
                first
            } else {
                first.scale(c as f64)
            };
            let carried = tail_prev.add(self.tail_prefix.at(st.row, m - 1));
            first.add(carried.scale(st.ratio))
        };
        let t = if servers {
            self.prefix
                .at(i + 1, m - 1)
                .scale(st.d)
                .add(tail_prev.scale(st.ratio))
        } else {
            let head = m.min(c - 1);
            kernel::dot_rev_weighted(&f[1..=head], &p[m - head..m], 1, tail)
        };
        self.tangent_tail.set(r, m, tail);
        self.tangent.set(r, m, t);
    }

    /// Fills the output slots (`throughput`/`queues`/`marginals_of`) for
    /// population `n ≤ self.n` from `G(n)` and `G(n − 1)`. In point mode
    /// the last stage reads its queue off `P` and the light stations read
    /// the numerators the point evaluation took over `P`; otherwise both
    /// read the accumulators over `G`, which must hold `n`. Read-only over
    /// the columns; allocates nothing.
    // lint: no-alloc
    fn compute_outputs(&mut self, n: usize, g: Ext, g_prev: Ext, point: bool) {
        debug_assert!(n >= 1 && n <= self.n);
        let total = self.stages.len();
        let x = g_prev.ratio(g);
        self.out_x = x;
        for k in 0..self.stations.len() {
            let i = self.stage_of[k];
            let off = self.marg_off[k];
            let marginals = &mut self.out_marginals[off..off + self.limits[k]];
            self.out_queues[k] = if i == NO_ROW {
                // Folded into the infinite-server stage: Q = X·D (Little).
                x * self.stations[k].demand
            } else if i + 1 == total && (self.heavy[k] || point) {
                // The last stage's complement is the prefix before it.
                occupancy(
                    self.factors.row(i),
                    self.prefix.row(i),
                    n,
                    g,
                    marginals,
                    &mut self.health,
                )
            } else if self.heavy[k] {
                if self.g_row[k] == NO_ROW {
                    dot_rev(
                        &self.tangent.row(self.t_row[k])[..=n],
                        &suffix_row(&self.suffix, &self.factors, i + 1)[..=n],
                        Ext::ZERO,
                    )
                    .ratio(g)
                } else {
                    occupancy(
                        self.factors.row(i),
                        self.g_minus.row(self.g_row[k]),
                        n,
                        g,
                        marginals,
                        &mut self.health,
                    )
                }
            } else {
                let r = self.lq_row[k];
                match self.stages[i].kind {
                    StageKind::Zero => 0.0,
                    // `h = f_last ⊛ h^P`, since `G = P ⊛ f_last`.
                    StageKind::Geo if point => self.point[r].sum.ratio(g),
                    StageKind::Geo => self.lq.at(r, n).ratio(g),
                    StageKind::Exp | StageKind::Table => {
                        unreachable!("delay stages are merged or heavy; table stages are heavy")
                    }
                }
            };
        }
    }

    /// Advances one population and refreshes the outputs — the streaming
    /// hot path, zero allocation once capacity is there. When a
    /// point-evaluating [`solve_at`](Self::solve_at) left the body ahead
    /// of `G`, `G` first catches up to the body, so the outputs equal an
    /// advance-only workspace's bit for bit.
    ///
    /// On error the columns are poisoned (partially extended) and the
    /// workspace must be discarded; all errors here are deterministic model
    /// errors, so a retry could not succeed anyway.
    // lint: no-alloc
    pub fn advance(&mut self) -> Result<(), QueueingError> {
        while self.g_upto < self.n {
            self.extend_g()?;
        }
        self.extend_body(self.n + 1);
        let g = self.extend_g()?;
        self.watch(g);
        let g_prev = self.prefix.at(self.stages.len(), self.n - 1);
        self.compute_outputs(self.n, g, g_prev, false);
        Ok(())
    }

    /// Evaluates population `n` under `demands` (one per station), reusing
    /// as much carried state as possible:
    ///
    /// * same demands, `G` holds `n` — pure read-back of the columns, zero
    ///   cells;
    /// * same demands otherwise — the body extends to `n` if it does not
    ///   reach it, then a point evaluation at `n`: two O(n) cells for
    ///   `G(n)` and `G(n − 1)`, one O(n) sum per light station, and the
    ///   heavy outputs as [`advance`](Self::advance) reads them;
    /// * changed demands — in-buffer rebuild (reset, extend the body to
    ///   `n`, point evaluation), counted as `conv.workspace.rebuild`. `G`
    ///   no longer holds any population past 0. The leading light stages
    ///   that did not change keep their cells, counted as
    ///   `conv.workspace.reused` while extension reads them.
    ///
    /// Demand equality is bitwise: the quasi-static caller hands back the
    /// exact floats it got from the interpolator, so an epsilon would only
    /// blur the rebuild accounting.
    // lint: no-alloc
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
            let same = self.refresh_kinds();
            // A run no longer than the last one holds what that one held;
            // a stage kept for the first time was last computed for this
            // demand up to the current population only.
            self.kept_upto = if same > self.kept {
                self.n
            } else {
                self.kept_upto.max(self.n)
            };
            self.kept = same;
            obsv::counter("conv.workspace.rebuild", 1);
            self.reset();
        }
        if n <= self.g_upto {
            let total = self.stages.len();
            let (g, g_prev) = (self.prefix.at(total, n), self.prefix.at(total, n - 1));
            self.compute_outputs(n, g, g_prev, false);
            return Ok(());
        }
        self.extend_body(n);
        self.point_evaluate(n)
    }
}

/// The error for a normalization constant that vanished.
fn vanished() -> QueueingError {
    QueueingError::InvalidParameter {
        what: "normalization constant vanished (all-zero demands?)",
    }
}

/// Whether a station joins the merged infinite-server stage 0: a delay
/// station that tracks no marginals.
fn folds_into_stage_0(s: &LdStation, limit: usize) -> bool {
    matches!(s.rate, RateFunction::Delay) && limit == 0
}

/// `suffix[i]` for a stage past the first heavy one. The last stage's
/// suffix convolves its factor column with the identity, which gives the
/// factor cells back bit for bit (the head reads only zeros, and the tail
/// repeats the factor recurrence with the same stored ratio), so it is
/// read from `factors` and never stored.
fn suffix_row<'a>(suffix: &'a Grid<Ext>, factors: &'a Grid<Ext>, i: usize) -> &'a [Ext] {
    if i + 1 == factors.rows {
        factors.row(i)
    } else {
        suffix.row(i)
    }
}

/// One chain cell `(a ⊛ f)(m)` of stage `st`: `a` is the chain row the
/// stage extends (prefix before it, or suffix after it) and `own_prev` the
/// stage's own chain cell at `m − 1`. Table stages also append their
/// carried tail `V(m)` to their row of `tails`.
// lint: no-alloc
fn chain_cell(
    st: &Stage,
    a: &[Ext],
    f: &[Ext],
    own_prev: Ext,
    tails: &mut Grid<Ext>,
    m: usize,
) -> Ext {
    match st.kind {
        StageKind::Zero => a[m],
        StageKind::Geo => a[m].add(own_prev.scale(st.d)),
        StageKind::Exp => dot_rev(&f[..=m], &a[..=m], Ext::ZERO),
        StageKind::Table => {
            let c = st.width;
            if m < c {
                tails.set(st.row, m, Ext::ZERO);
                dot_rev(&f[..=m], &a[..=m], Ext::ZERO)
            } else {
                let tail = f[c]
                    .mul(a[m - c])
                    .add(tails.at(st.row, m - 1).scale(st.ratio));
                tails.set(st.row, m, tail);
                dot_rev(&f[..c], &a[m + 1 - c..=m], tail)
            }
        }
    }
}

/// Queue length `Σ_j j·p(j)` of a station with factor column `f` and
/// complement column `g_minus`, where `p(j) = f(j)·G₍₋ₖ₎(n−j)/G(n)`; the
/// first `marginals.len()` probabilities land in `marginals`. Every term
/// is at most `G(n)`, so each is scaled straight to `G(n)`'s exponent. A
/// nonzero term below the `f64` range reads as zero and is counted.
// lint: no-alloc
fn occupancy(
    f: &[Ext],
    g_minus: &[Ext],
    n: usize,
    g: Ext,
    marginals: &mut [f64],
    health: &mut obsv::HealthProbe,
) -> f64 {
    marginals.fill(0.0);
    let inv_g = 1.0 / g.m;
    let mut q = 0.0;
    for j in 0..=n {
        let (a, b) = (f[j], g_minus[n - j]);
        let d = a.e + b.e - g.e;
        let mantissa = a.m * b.m * inv_g;
        let p = mantissa * pow2(d);
        q += j as f64 * p;
        if let Some(slot) = marginals.get_mut(j) {
            *slot = p;
        }
        if d < -1022 && mantissa > 0.0 {
            health.count_underflow();
        }
    }
    q
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
                let (stations, limits): (Vec<_>, Vec<_>) =
                    (0..k_count).map(|i| random_station(g, i)).unzip();
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

    /// A random station of any rate kind with a random marginal limit.
    fn random_station(g: &mut Gen, i: usize) -> (LdStation, usize) {
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
        (st(&format!("s{i}"), g.f64_in(0.001, 0.2), rate), limit)
    }

    /// Rebuilds that keep a leading run of stages are bit-identical to a
    /// fresh workspace. Random networks, half their stations light single
    /// servers so that runs of light stages form, under a walk of
    /// `solve_at` calls over one workspace: at each call a random leading
    /// subset of stations keeps its demand and the rest are redrawn,
    /// sometimes to zero (a rate-table station then turns light). The
    /// population walks up and down and sometimes jumps to 150–400, and a
    /// `reserve` after some steps down grows the grids while kept cells
    /// lie past the current population.
    #[test]
    fn propcheck_kept_prefix_rebuild_equals_fresh_workspace() {
        check(
            "propcheck_kept_prefix_rebuild_equals_fresh_workspace",
            &Config::default().cases(32),
            |g: &mut Gen| {
                let k_count = g.usize_in(1, 6);
                let (stations, limits): (Vec<_>, Vec<_>) = (0..k_count)
                    .map(|i| {
                        if g.bool() {
                            let d = g.f64_in(0.001, 0.2);
                            (st(&format!("s{i}"), d, RateFunction::SingleServer), 0)
                        } else {
                            random_station(g, i)
                        }
                    })
                    .unzip();
                // Z > 0 keeps G positive when every demand is drawn zero.
                let z = g.f64_in(0.1, 2.0);
                let mut ws = ws_of(&stations, z, &limits);
                let mut demands: Vec<f64> = stations.iter().map(|s| s.demand).collect();
                let mut n = 1;
                for _ in 0..g.usize_in(4, 12) {
                    let fixed = g.usize_in(0, k_count);
                    for d in &mut demands[fixed..] {
                        *d = if g.usize_in(0, 7) == 0 {
                            0.0
                        } else {
                            g.f64_in(0.001, 0.2)
                        };
                    }
                    let next = match g.usize_in(0, 3) {
                        0 => g.usize_in(150, 400),
                        1 => g.usize_in(1, n),
                        _ => (n + g.usize_in(1, 40)).min(400),
                    };
                    ws.solve_at(next, &demands).unwrap();
                    if next < n && g.bool() {
                        ws.reserve(g.usize_in(400, 4000));
                    }
                    n = next;

                    let mut fresh_sts = stations.clone();
                    for (s, &d) in fresh_sts.iter_mut().zip(&demands) {
                        s.demand = d;
                    }
                    let mut fresh = ws_of(&fresh_sts, z, &limits);
                    fresh.solve_at(n, &demands).unwrap();
                    assert_bitwise_equal(&ws, &fresh, n);
                    assert_matches_scratch(&ws, &fresh_sts, z, n, &limits, "kept prefix");
                }
            },
        );
    }

    /// `advance` and both kinds of `solve_at` mixed on one workspace.
    /// Random networks, half their stations light single servers and the
    /// rest drawn by `random_station`, under a walk of three calls:
    /// `advance`; a same-demand `solve_at` (up, down, a jump to 150–400,
    /// sometimes followed by a `reserve`); and a demand-changing `solve_at`
    /// that keeps a random leading subset of stations, one redraw in eight
    /// to zero. The test tracks how far `G` reaches on its own: an
    /// `advance` brings it to the body, a demand change takes it back to 0.
    /// After each `advance`, and after each `solve_at` at a population `G`
    /// holds, the outputs equal an advance-only workspace's at the same
    /// demands and population, bit for bit; after every other `solve_at`
    /// they equal a fresh workspace's `solve_at`. Every output also agrees
    /// with `scratch` at the suite's bars.
    #[test]
    fn propcheck_mixed_modes_match_advance_only_and_fresh_workspaces() {
        check(
            "propcheck_mixed_modes_match_advance_only_and_fresh_workspaces",
            &Config::default().cases(32),
            |g: &mut Gen| {
                let k_count = g.usize_in(1, 5);
                let (mut stations, limits): (Vec<_>, Vec<_>) = (0..k_count)
                    .map(|i| {
                        if g.bool() {
                            let d = g.f64_in(0.001, 0.2);
                            (st(&format!("s{i}"), d, RateFunction::SingleServer), 0)
                        } else {
                            random_station(g, i)
                        }
                    })
                    .unzip();
                // Z > 0 keeps G positive when every demand is drawn zero.
                let z = g.f64_in(0.1, 2.0);
                let mut ws = ws_of(&stations, z, &limits);
                let mut demands: Vec<f64> = stations.iter().map(|s| s.demand).collect();
                // The advance-only twin at the current demands, with the
                // output bits of every population it has passed.
                let mut twin = ws_of(&stations, z, &limits);
                let mut twin_bits: Vec<Vec<u64>> = Vec::new();
                let mut g_reach = 0;
                for _ in 0..g.usize_in(4, 14) {
                    let body = ws.population();
                    let (n, advanced) = match g.usize_in(0, 2) {
                        0 => {
                            ws.advance().unwrap();
                            g_reach = body + 1;
                            (body + 1, true)
                        }
                        1 => {
                            let n = match g.usize_in(0, 3) {
                                0 => g.usize_in(150, 400),
                                1 => g.usize_in(1, body.max(1)),
                                _ => (body + g.usize_in(1, 40)).min(400),
                            };
                            ws.solve_at(n, &demands).unwrap();
                            if g.bool() {
                                ws.reserve(g.usize_in(400, 4000));
                            }
                            (n, false)
                        }
                        _ => {
                            let fixed = g.usize_in(0, k_count - 1);
                            for d in &mut demands[fixed..] {
                                *d = if g.usize_in(0, 7) == 0 {
                                    0.0
                                } else {
                                    g.f64_in(0.001, 0.2)
                                };
                            }
                            let n = g.usize_in(1, 400);
                            ws.solve_at(n, &demands).unwrap();
                            if stations
                                .iter()
                                .zip(&demands)
                                .any(|(s, d)| s.demand.to_bits() != d.to_bits())
                            {
                                for (s, &d) in stations.iter_mut().zip(&demands) {
                                    s.demand = d;
                                }
                                twin = ws_of(&stations, z, &limits);
                                twin_bits.clear();
                                g_reach = 0;
                            }
                            (n, false)
                        }
                    };

                    if advanced || n <= g_reach {
                        while twin_bits.len() < n {
                            twin.advance().unwrap();
                            twin_bits.push(output_bits(&twin));
                        }
                        assert_eq!(output_bits(&ws), twin_bits[n - 1], "advance-only, n={n}");
                    } else {
                        let mut fresh = ws_of(&stations, z, &limits);
                        fresh.solve_at(n, &demands).unwrap();
                        assert_bitwise_equal(&ws, &fresh, n);
                    }
                    assert_matches_scratch(&ws, &stations, z, n, &limits, "mixed modes");
                }
            },
        );
    }

    /// X, then every queue, then every station's marginals, as bits.
    fn output_bits(ws: &ConvWorkspace) -> Vec<u64> {
        let mut bits = vec![ws.throughput().to_bits()];
        bits.extend(ws.queues().iter().map(|q| q.to_bits()));
        for k in 0..ws.queues().len() {
            bits.extend(ws.marginals_of(k).iter().map(|p| p.to_bits()));
        }
        bits
    }

    /// Asserts bit-identical outputs of two workspaces at population `n`.
    fn assert_bitwise_equal(a: &ConvWorkspace, b: &ConvWorkspace, n: usize) {
        assert_eq!(output_bits(a), output_bits(b), "outputs at n={n}");
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
    /// bottleneck tail drifted past the queue bar in unscaled log-domain
    /// columns (DESIGN §15).
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

    /// Range stress: a 16-core CPU to N = 1500, a think-dominated network
    /// (Z = 1000), demands from 1e-7 down to 3e-9, and demands around 4e3.
    /// The extended exponents carry each of them unscaled. The tiny-demand
    /// case stops at N = 400: deeper, the oracle's own `|ln G|` passes 2e4,
    /// whose ulp (3.6e-12) is above the X bar, and the oracle is the side
    /// that drifts (DESIGN §19).
    #[test]
    fn range_stress_networks_match_scratch() {
        /// Label, stations, think time, marginal limits, populations.
        type Case = (&'static str, Vec<LdStation>, f64, Vec<usize>, Vec<usize>);
        let cases: Vec<Case> = vec![
            (
                "cpu16+disk-1500",
                vec![
                    st("cpu", 0.16, RateFunction::MultiServer(16)),
                    st("disk", 0.004, RateFunction::SingleServer),
                ],
                1.0,
                vec![16, 0],
                vec![1500],
            ),
            (
                "think-1000",
                vec![
                    st("cpu", 0.05, RateFunction::MultiServer(8)),
                    st("app", 0.02, RateFunction::MultiServer(4)),
                    st("disk", 0.01, RateFunction::SingleServer),
                    st("lan", 0.3, RateFunction::Delay),
                ],
                1000.0,
                vec![0, 4, 0, 0],
                vec![200, 900],
            ),
            (
                "tiny-demands",
                vec![
                    st("cpu", 1e-7, RateFunction::MultiServer(4)),
                    st("app", 5e-8, RateFunction::MultiServer(16)),
                    st("disk", 3e-9, RateFunction::SingleServer),
                    st("lan", 2e-8, RateFunction::Delay),
                ],
                1e-6,
                vec![4, 0, 0, 0],
                vec![100, 400],
            ),
            (
                "demands-4e3",
                vec![
                    st("cpu", 4.2e3, RateFunction::MultiServer(16)),
                    st("app", 3.9e3, RateFunction::MultiServer(8)),
                    st("disk", 4.0e2, RateFunction::SingleServer),
                    st("lan", 4.1e3, RateFunction::Delay),
                ],
                4e4,
                vec![0, 8, 0, 0],
                vec![300, 900],
            ),
        ];
        for (label, stations, z, limits, populations) in &cases {
            let demands: Vec<f64> = stations.iter().map(|s| s.demand).collect();
            let mut ws = ws_of(stations, *z, limits);
            for &n in populations {
                ws.solve_at(n, &demands).unwrap();
                assert_matches_scratch(&ws, stations, *z, n, limits, label);
            }
        }
    }

    /// The large-H extreme on tangent columns: 90 16-core CPUs, each with
    /// a single-server disk, and one CPU the bottleneck. The first CPU is
    /// the last heavy stage; the other 89, the bottleneck among them, read
    /// their queues off tangent columns. One population below the knee
    /// (N* ≈ 84) and one well past it.
    #[test]
    fn ninety_heavy_stations_match_the_reference() {
        let mut stations = Vec::new();
        for i in 0..90 {
            let cpu = if i == 45 {
                0.4
            } else {
                0.002 + 0.0001 * i as f64
            };
            stations.push(st(&format!("cpu{i}"), cpu, RateFunction::MultiServer(16)));
            let disk = 0.0004 + 0.00001 * i as f64;
            stations.push(st(&format!("disk{i}"), disk, RateFunction::SingleServer));
        }
        let limits = vec![0usize; stations.len()];
        let demands: Vec<f64> = stations.iter().map(|s| s.demand).collect();
        let mut ws = ws_of(&stations, 1.0, &limits);
        for n in [40usize, 150] {
            ws.solve_at(n, &demands).unwrap();
            assert_matches_scratch(&ws, &stations, 1.0, n, &limits, "h90");
        }
    }

    /// The reference factor column of stage `i` to population `n`: one
    /// `Ext::scale` per cell, each kind's multiplier as a cell-by-cell
    /// extension computes it.
    fn factor_column_per_cell(ws: &ConvWorkspace, i: usize, n: usize) -> Vec<Ext> {
        let st = ws.stages[i];
        let mut col = vec![Ext::ONE];
        for m in 1..=n {
            let prev = col[m - 1];
            col.push(match st.kind {
                StageKind::Zero => Ext::ZERO,
                StageKind::Geo => prev.scale(st.d),
                StageKind::Exp => prev.scale(st.d / m as f64),
                StageKind::Table if m >= st.width => prev.scale(st.ratio),
                StageKind::Table => prev.scale(st.d / ws.rate.at(st.row, m)),
            });
        }
        col
    }

    /// Every factor column a range extension fills equals the per-cell
    /// reference bit for bit, for every stage kind. Small ratios and
    /// demands carry the chain across its renormalization window dozens of
    /// times by N = 1600; demands of 5e-324, 1e-310, 1e308 and f64::MAX
    /// put multipliers outside the window, or make them zero, and a custom
    /// rate table gives a subnormal multiplier after growing ones; NaN demands
    /// poison whole columns. The body extends in three ranges, and a
    /// demand-changing rebuild that keeps the leading stages refills the
    /// rest.
    #[test]
    fn range_filled_factor_columns_match_one_scale_per_cell() {
        let cases: Vec<(&str, Vec<LdStation>, f64, Vec<usize>)> = vec![
            (
                "small ratios",
                vec![
                    st("cpu", 0.016, RateFunction::MultiServer(16)),
                    st("disk", 1e-3, RateFunction::SingleServer),
                    st("lan", 1e-3, RateFunction::Delay),
                    st("fes", 2e-3, RateFunction::Custom(vec![1.0, 1.7, 2.2])),
                    st("ghost", 0.0, RateFunction::SingleServer),
                ],
                1e-3,
                vec![0, 0, 2, 0, 0],
            ),
            (
                "outside the window",
                vec![
                    st("sub", 1e-310, RateFunction::SingleServer),
                    st("min", 5e-324, RateFunction::MultiServer(4)),
                    st("huge", 1e308, RateFunction::SingleServer),
                    st("max", f64::MAX, RateFunction::Delay),
                    st("near-max", 1.5e308, RateFunction::MultiServer(3)),
                    // A carry grown by 2^30 meets a subnormal multiplier.
                    st(
                        "wild",
                        1e-5,
                        RateFunction::Custom(vec![1e-8, 1e-8, 1e-8, 1e305, 1.0]),
                    ),
                ],
                1e300,
                vec![0, 0, 0, 1, 0, 0],
            ),
            (
                "NaN poison",
                vec![
                    st("cpu", f64::NAN, RateFunction::MultiServer(8)),
                    st("disk", f64::NAN, RateFunction::SingleServer),
                    st("lan", 0.02, RateFunction::Delay),
                ],
                0.5,
                vec![0, 0, 1],
            ),
        ];
        let mut kinds_seen = Vec::new();
        for (label, stations, z, limits) in &cases {
            let mut ws = ws_of(stations, *z, limits);
            for upto in [5, 700, 1600] {
                ws.extend_body(upto);
            }
            let mut demands: Vec<f64> = stations.iter().map(|s| s.demand).collect();
            let k = demands.iter().rposition(|&d| d > 0.0).unwrap_or(0);
            demands[k] *= 0.5;
            let mut rebuilt = ws.clone();
            // Only the body matters here; the outputs may be non-finite.
            rebuilt.solve_at(900, &demands).ok();
            assert_eq!(rebuilt.population(), 900, "{label}: rebuilt to 900");
            for (w, n) in [(&ws, 1600), (&rebuilt, 900)] {
                for i in 0..w.stages.len() {
                    kinds_seen.push(w.stages[i].kind);
                    let want = factor_column_per_cell(w, i, n);
                    for (m, v) in want.iter().enumerate() {
                        let got = w.factors.at(i, m);
                        assert_eq!(
                            (got.m.to_bits(), got.e),
                            (v.m.to_bits(), v.e),
                            "{label}: stage {i} ({:?}) cell {m}",
                            w.stages[i].kind
                        );
                    }
                }
            }
        }
        for kind in [
            StageKind::Zero,
            StageKind::Geo,
            StageKind::Exp,
            StageKind::Table,
        ] {
            assert!(kinds_seen.contains(&kind), "{kind:?} covered");
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
        // Numeric-health probe: one ln G watched per evaluation (10
        // advances + 1 point evaluation), no NaN reads, and a nonzero ln G
        // envelope.
        assert_eq!(snap.counter("health.conv.lse.samples"), 11);
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
