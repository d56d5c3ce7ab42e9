//! Hierarchical topology layer: Norton flow-equivalent-server aggregation.
//!
//! The paper's VINS case study is a flat twelve-station network, but the
//! same tiered structure repeats at microservice scale: a hundred-station
//! estate is really a handful of tiers, each a small subnetwork that the
//! rest of the system only sees through its throughput. This module makes
//! that structure explicit. A [`HierarchicalNetwork`] is a tree of
//! [`NetworkNode`]s whose leaves are ordinary [`Station`]s and whose
//! interior nodes are named [`Subsystem`]s. Each subsystem is solved **in
//! isolation** (think time zero — the subnetwork "shorted" in Norton's
//! sense) across populations `1..=j`, and its throughput profile `X(j)`
//! becomes the rate table of a single load-dependent *flow-equivalent
//! server* (FES) in the parent: demand `1/X(1)`, rate multiplier
//! `X(j)/X(1)`. By the Chandy–Herzog–Woo theorem this substitution is
//! **exact** for product-form networks, so the aggregated model reproduces
//! the flat solution to numerical precision while the parent recursion
//! walks only a handful of stations per step.
//!
//! Per-station results are not lost in the aggregate: the engine keeps the
//! isolated per-population queue lengths of every subsystem leaf and
//! *disaggregates* the FES queue through the parent's marginal occupancy
//! distribution, `Q_leaf(n) = Σ_j p_FES(j|n) · Q_leaf^iso(j)`, recovering
//! the full flat station vector at every population.
//!
//! Profiles are grown lazily in geometric chunks as the parent population
//! climbs, optionally truncated once the subsystem throughput plateaus
//! ([`AggregationOptions::truncation`]), and memoized across solves and
//! scenario sweeps through a shared [`ProfileCache`] keyed by a structural
//! fingerprint (station names excluded — ten identical replicas of a
//! service tier share one profile).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mvasd_obsv as obsv;

use crate::mva::convolution::ConvWorkspace;
use crate::mva::{
    ClosedSolver, LdStation, MulticlassIter, MvaPoint, MvaSolution, RateFunction, SolverIter,
    StationPoint, Workload,
};
use crate::network::{ClosedNetwork, Station, StationKind};
use crate::QueueingError;

/// Profiles are extended in geometric chunks no smaller than this, so a
/// population sweep triggers `O(log n)` rebuilds rather than one per step.
const MIN_CHUNK: usize = 8;

/// Truncation never fires before a profile has this many entries — the
/// early profile can look locally flat before the knee.
const MIN_PROFILE: usize = 8;

/// A node of a hierarchical topology: either a concrete service station (a
/// leaf — exactly the flat model's [`Station`]) or a whole subnetwork to be
/// aggregated into a flow-equivalent server.
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkNode {
    /// A leaf station, identical to its flat-network meaning.
    Station(Station),
    /// An interior node: a named subnetwork solved in isolation and
    /// replaced by one load-dependent station in its parent.
    Subsystem(Subsystem),
}

impl From<Station> for NetworkNode {
    fn from(s: Station) -> Self {
        NetworkNode::Station(s)
    }
}

impl From<Subsystem> for NetworkNode {
    fn from(s: Subsystem) -> Self {
        NetworkNode::Subsystem(s)
    }
}

/// A named subnetwork of a hierarchical topology. Subsystems nest: a node
/// of a subsystem may itself be a subsystem, aggregated bottom-up.
#[derive(Debug, Clone, PartialEq)]
pub struct Subsystem {
    name: String,
    nodes: Vec<NetworkNode>,
}

impl Subsystem {
    /// Creates a named subnetwork from its child nodes. Structural
    /// validation happens when the enclosing [`HierarchicalNetwork`] is
    /// built.
    pub fn new(name: &str, nodes: Vec<NetworkNode>) -> Self {
        Self {
            name: name.to_string(),
            nodes,
        }
    }

    /// The subsystem's display name (spans and FES station labels).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The child nodes, in visit order.
    pub fn nodes(&self) -> &[NetworkNode] {
        &self.nodes
    }
}

/// A closed queueing network expressed as a tree of stations and
/// subsystems, plus the terminal think time.
///
/// [`flatten`](Self::flatten) recovers the equivalent flat
/// [`ClosedNetwork`] (leaves in depth-first order); every hierarchical
/// result is reported against that flat station list.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchicalNetwork {
    nodes: Vec<NetworkNode>,
    think_time: f64,
}

impl HierarchicalNetwork {
    /// Validates and builds a hierarchical network.
    ///
    /// Rejects empty trees, empty subsystems, subsystems with no positive
    /// demand anywhere beneath them (their flow-equivalent server would
    /// have no throughput to equalize), and anything the flat
    /// [`ClosedNetwork`] validation rejects.
    pub fn new(nodes: Vec<NetworkNode>, think_time: f64) -> Result<Self, QueueingError> {
        validate_nodes(&nodes)?;
        let mut leaves = Vec::new();
        collect_leaves(&nodes, &mut leaves);
        ClosedNetwork::new(leaves, think_time)?;
        Ok(Self { nodes, think_time })
    }

    /// The root-level nodes, in visit order.
    pub fn nodes(&self) -> &[NetworkNode] {
        &self.nodes
    }

    /// Terminal think time `Z` (seconds per interaction).
    pub fn think_time(&self) -> f64 {
        self.think_time
    }

    /// Number of leaf stations in the whole tree.
    pub fn leaf_count(&self) -> usize {
        count_leaves(&self.nodes)
    }

    /// The equivalent flat network: all leaves in depth-first order, same
    /// think time. This is the model every hierarchical result is
    /// reported against, and the reference the cross-validation suite
    /// compares to.
    pub fn flatten(&self) -> ClosedNetwork {
        let mut leaves = Vec::new();
        collect_leaves(&self.nodes, &mut leaves);
        ClosedNetwork::new(leaves, self.think_time)
            .expect("flat projection was validated at construction")
    }

    /// Returns a copy with a different think time.
    pub fn with_think_time(&self, think_time: f64) -> Result<Self, QueueingError> {
        Self::new(self.nodes.clone(), think_time)
    }

    /// Returns a copy with every leaf's service time multiplied by the
    /// matching factor (leaves in depth-first order — the same order as
    /// [`flatten`](Self::flatten)). This is the hierarchical counterpart
    /// of a sweep scenario's per-station demand scaling.
    pub fn with_leaf_scales(&self, factors: &[f64]) -> Result<Self, QueueingError> {
        if factors.len() != self.leaf_count() {
            return Err(QueueingError::InvalidParameter {
                what: "leaf scale count must match the flat station count",
            });
        }
        let mut nodes = self.nodes.clone();
        let mut next = 0usize;
        scale_leaves(&mut nodes, factors, &mut next);
        Self::new(nodes, self.think_time)
    }

    /// A structural fingerprint of the whole tree (topology, demands,
    /// kinds, think time — names excluded). Two networks with equal words
    /// produce identical solutions, which makes this the natural
    /// memoization key for scenario sweeps.
    pub fn fingerprint_words(&self) -> Vec<u64> {
        let mut words = Vec::with_capacity(4 * self.leaf_count() + 2);
        words.push(self.think_time.to_bits());
        words.push(self.nodes.len() as u64);
        for node in &self.nodes {
            push_node_words(node, &mut words);
        }
        words
    }
}

fn validate_nodes(nodes: &[NetworkNode]) -> Result<(), QueueingError> {
    for node in nodes {
        if let NetworkNode::Subsystem(sub) = node {
            if sub.nodes.is_empty() {
                return Err(QueueingError::InvalidParameter {
                    what: "subsystem must contain at least one node",
                });
            }
            if !has_positive_demand(&sub.nodes) {
                return Err(QueueingError::InvalidParameter {
                    what: "subsystem needs at least one leaf with positive demand",
                });
            }
            validate_nodes(&sub.nodes)?;
        }
    }
    Ok(())
}

fn has_positive_demand(nodes: &[NetworkNode]) -> bool {
    nodes.iter().any(|node| match node {
        NetworkNode::Station(s) => s.demand() > 0.0,
        NetworkNode::Subsystem(sub) => has_positive_demand(&sub.nodes),
    })
}

fn collect_leaves(nodes: &[NetworkNode], out: &mut Vec<Station>) {
    for node in nodes {
        match node {
            NetworkNode::Station(s) => out.push(s.clone()),
            NetworkNode::Subsystem(sub) => collect_leaves(&sub.nodes, out),
        }
    }
}

fn count_leaves(nodes: &[NetworkNode]) -> usize {
    nodes
        .iter()
        .map(|node| match node {
            NetworkNode::Station(_) => 1,
            NetworkNode::Subsystem(sub) => count_leaves(&sub.nodes),
        })
        .sum()
}

fn scale_leaves(nodes: &mut [NetworkNode], factors: &[f64], next: &mut usize) {
    for node in nodes {
        match node {
            NetworkNode::Station(s) => {
                s.service_time *= factors.get(*next).copied().unwrap_or(1.0);
                *next += 1;
            }
            NetworkNode::Subsystem(sub) => scale_leaves(&mut sub.nodes, factors, next),
        }
    }
}

fn push_node_words(node: &NetworkNode, out: &mut Vec<u64>) {
    match node {
        NetworkNode::Station(s) => {
            out.push(1);
            match &s.kind {
                StationKind::Queueing { servers } => {
                    out.push(2);
                    out.push(*servers as u64);
                }
                StationKind::Delay => out.push(3),
                StationKind::LoadDependent { rates } => {
                    out.push(4);
                    out.push(rates.len() as u64);
                    for r in rates {
                        out.push(r.to_bits());
                    }
                }
            }
            out.push(s.visits.to_bits());
            out.push(s.service_time.to_bits());
        }
        NetworkNode::Subsystem(sub) => {
            out.push(5);
            out.push(sub.nodes.len() as u64);
            for child in &sub.nodes {
                push_node_words(child, out);
            }
            out.push(6);
        }
    }
}

/// Controls how subsystem throughput profiles are grown.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AggregationOptions {
    /// Plateau truncation threshold. `None` (the default) keeps extending
    /// every profile to the parent population — the aggregation stays
    /// exact for product-form networks. `Some(eps)` stops extending a
    /// profile once the relative throughput gain per extra customer drops
    /// to `eps` or below; beyond the table the flow-equivalent server is
    /// treated as saturated, which bounds the relative throughput error by
    /// roughly `eps` per aggregated level while capping profile length at
    /// the subsystem's knee.
    pub truncation: Option<f64>,
}

impl AggregationOptions {
    /// Exact aggregation: profiles track the parent population.
    pub fn exact() -> Self {
        Self::default()
    }

    /// Truncated aggregation with the given plateau threshold.
    pub fn truncated(eps: f64) -> Self {
        Self {
            truncation: Some(eps),
        }
    }

    fn validate(&self) -> Result<(), QueueingError> {
        if let Some(eps) = self.truncation {
            if !(eps.is_finite() && eps > 0.0 && eps < 1.0) {
                return Err(QueueingError::InvalidParameter {
                    what: "truncation threshold must be in (0, 1)",
                });
            }
        }
        Ok(())
    }
}

/// Aggregate statistics read back off a [`ProfileCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AggregationStats {
    /// Subsystem profiles solved from scratch (cache misses).
    pub solves: u64,
    /// Subsystem profiles reused from the cache.
    pub hits: u64,
}

/// Shared memoization of solved subsystem profiles.
///
/// Keys are structural fingerprints ([`HierarchicalNetwork`] node words
/// plus the truncation setting); subsystem *names are excluded*, so
/// identical replicas of a service tier — the common microservice shape —
/// share a single entry. Clone the [`Arc`] into every
/// [`HierarchicalSolver`] (or hand the cache to a scenario sweep) to reuse
/// profiles across solves.
#[derive(Debug, Default)]
pub struct ProfileCache {
    entries: Mutex<HashMap<Vec<u64>, SubEngine>>,
    solves: AtomicU64,
    hits: AtomicU64,
}

impl ProfileCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct subsystem profiles currently cached.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the cache holds no profiles.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Solve/hit counters since construction.
    pub fn stats(&self) -> AggregationStats {
        AggregationStats {
            solves: self.solves.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<Vec<u64>, SubEngine>> {
        self.entries.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn checkout(&self, key: &[u64]) -> Option<SubEngine> {
        let hit = self.lock().get(key).cloned();
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.emit_hit_rate();
        }
        hit
    }

    fn note_solve(&self) {
        self.solves.fetch_add(1, Ordering::Relaxed);
        self.emit_hit_rate();
    }

    /// Publishes the running hit rate as a health gauge so a snapshot
    /// taken at any point reflects cache effectiveness so far.
    fn emit_hit_rate(&self) {
        if obsv::enabled() {
            let hits = self.hits.load(Ordering::Relaxed) as f64;
            let solves = self.solves.load(Ordering::Relaxed) as f64;
            if hits + solves > 0.0 {
                obsv::gauge("health.hierarchy.cache_hit_rate", hits / (hits + solves));
            }
        }
    }

    /// Deterministic snapshot of every cached profile, sorted by key:
    /// `(key, isolated throughput profile, flat leaf-queue rows)`.
    ///
    /// Two caches whose work histories produced bitwise-identical
    /// profiles yield equal snapshots regardless of insertion order, so
    /// this is the comparison surface for schedule-independence tests
    /// (the interleaving explorer asserts snapshot equality across every
    /// forced completion order of a hierarchical scenario sweep).
    pub fn profiles(&self) -> Vec<(Vec<u64>, Vec<f64>, Vec<f64>)> {
        let mut out: Vec<_> = self
            .lock()
            .iter()
            .map(|(k, sub)| (k.clone(), sub.profile.clone(), sub.leaf_rows.clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Stores `sub` unless an entry with an equal-or-longer profile is
    /// already present (longer profiles subsume shorter ones).
    fn store(&self, key: &[u64], sub: &SubEngine) {
        let mut map = self.lock();
        match map.get(key) {
            Some(existing) if existing.profile.len() >= sub.profile.len() => {}
            _ => {
                map.insert(key.to_vec(), sub.clone());
            }
        }
    }
}

/// Where a parent-level convolution station draws its flat results from.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// An ordinary leaf station: parent queue is the flat queue.
    Leaf,
    /// A flow-equivalent server backed by `subs[i]`; its queue is
    /// disaggregated over the subsystem's leaves.
    Sub(usize),
}

/// One aggregated subsystem: its isolated solver plus the captured
/// throughput profile and per-population leaf queue rows.
///
/// This is the unit the [`ProfileCache`] stores — it carries no name, so
/// identically-shaped subsystems are interchangeable.
#[derive(Debug, Clone)]
struct SubEngine {
    /// The subsystem solved in isolation (think time zero).
    inner: LevelEngine,
    /// `profile[j-1] = X(j)`: isolated throughput at population `j`.
    profile: Vec<f64>,
    /// Flat leaf queues of the isolated solve, row `j-1` at offset
    /// `(j-1)*width`: `leaf_rows[(j-1)*width + l] = Q_l^iso(j)`.
    leaf_rows: Vec<f64>,
    /// Number of flat leaves beneath this subsystem.
    width: usize,
    /// Set once truncation fires; the profile stops growing.
    finalized: bool,
    truncation: Option<f64>,
}

impl SubEngine {
    fn fresh(
        sub: &Subsystem,
        opts: AggregationOptions,
        cache: Option<&Arc<ProfileCache>>,
    ) -> Result<Self, QueueingError> {
        let inner = LevelEngine::build(&sub.nodes, 0.0, opts, cache)?;
        let width = inner.width;
        let mut engine = Self {
            inner,
            profile: Vec::new(),
            leaf_rows: Vec::new(),
            width,
            finalized: false,
            truncation: opts.truncation,
        };
        // Every profile needs X(1) — it defines the FES demand.
        engine.extend_to(1, sub.name())?;
        Ok(engine)
    }

    /// Extends the isolated profile to cover at least `target` customers
    /// (or until the plateau fires). Returns the number of entries added.
    fn extend_to(&mut self, target: usize, name: &str) -> Result<usize, QueueingError> {
        if self.finalized || self.profile.len() >= target {
            return Ok(0);
        }
        let _span = obsv::span_with("aggregation.subsystem", || {
            format!("{name} -> {target} customers")
        });
        let mut added = 0usize;
        while self.profile.len() < target && !self.finalized {
            self.inner.advance()?;
            let x = self.inner.ws.throughput();
            if let (Some(eps), Some(&prev)) = (self.truncation, self.profile.last()) {
                if self.profile.len() >= MIN_PROFILE && prev > 0.0 && (x - prev) / prev <= eps {
                    self.finalized = true;
                }
            }
            self.profile.push(x);
            self.leaf_rows.extend_from_slice(&self.inner.flat_queues);
            added += 1;
        }
        if added > 0 {
            obsv::counter("aggregation.profile_len", added as u64);
        }
        Ok(added)
    }

    /// The flow-equivalent server for the current profile: demand
    /// `1/X(1)`, rate multipliers `X(j)/X(1)`.
    fn fes_station(&self, name: &str) -> LdStation {
        let x1 = self
            .profile
            .first()
            .copied()
            .expect("profiles always hold X(1)");
        let table = self.profile.iter().map(|x| x / x1).collect();
        LdStation::new(name, 1.0 / x1, RateFunction::Custom(table))
    }
}

/// One level of the hierarchy: a convolution workspace over the level's
/// own stations plus one FES per child subsystem, with enough bookkeeping
/// to disaggregate FES queues back onto flat leaves.
#[derive(Debug, Clone)]
struct LevelEngine {
    ws: ConvWorkspace,
    subs: Vec<SubEngine>,
    /// Per parent station: leaf or which subsystem backs it.
    sources: Vec<Source>,
    /// Per parent station: offset of its first flat leaf in `flat_queues`.
    offsets: Vec<usize>,
    /// Display name per subsystem (spans); kept out of [`SubEngine`] so
    /// cached engines stay name-free.
    sub_names: Vec<String>,
    /// Cache key per subsystem.
    sub_keys: Vec<Vec<u64>>,
    /// Total flat leaves under this level.
    width: usize,
    /// Disaggregated flat queues at the last advanced population.
    flat_queues: Vec<f64>,
    /// Largest population this engine was asked to pre-size for.
    reserved: usize,
    cache: Option<Arc<ProfileCache>>,
    /// Watches the FES disaggregation closure error `|Σ_l Q_l − Q_FES|`
    /// and counts residual clamps; buffered locally, flushed on drop.
    disagg_health: obsv::HealthProbe,
}

impl LevelEngine {
    fn build(
        nodes: &[NetworkNode],
        think_time: f64,
        opts: AggregationOptions,
        cache: Option<&Arc<ProfileCache>>,
    ) -> Result<Self, QueueingError> {
        let mut conv = Vec::with_capacity(nodes.len());
        let mut subs = Vec::new();
        let mut sources = Vec::with_capacity(nodes.len());
        let mut offsets = Vec::with_capacity(nodes.len());
        let mut sub_names = Vec::new();
        let mut sub_keys = Vec::new();
        let mut width = 0usize;
        for node in nodes {
            offsets.push(width);
            match node {
                NetworkNode::Station(s) => {
                    conv.push(LdStation::from(s));
                    sources.push(Source::Leaf);
                    width += 1;
                }
                NetworkNode::Subsystem(sub) => {
                    let key = subsystem_key(sub, opts);
                    let engine = match cache.and_then(|c| c.checkout(&key)) {
                        Some(hit) => {
                            obsv::counter("aggregation.cache_hits", 1);
                            hit
                        }
                        None => {
                            obsv::counter("aggregation.solves", 1);
                            if let Some(c) = cache {
                                c.note_solve();
                            }
                            let fresh = SubEngine::fresh(sub, opts, cache)?;
                            if let Some(c) = cache {
                                c.store(&key, &fresh);
                            }
                            fresh
                        }
                    };
                    conv.push(engine.fes_station(sub.name()));
                    sources.push(Source::Sub(subs.len()));
                    width += engine.width;
                    subs.push(engine);
                    sub_names.push(sub.name().to_string());
                    sub_keys.push(key);
                }
            }
        }
        let limits = fes_limits(&sources, &subs);
        let ws = ConvWorkspace::from_validated(conv, think_time, limits)?;
        Ok(Self {
            ws,
            subs,
            sources,
            offsets,
            sub_names,
            sub_keys,
            width,
            flat_queues: vec![0.0; width],
            reserved: 0,
            cache: cache.cloned(),
            disagg_health: obsv::HealthProbe::new("hierarchy.disagg"),
        })
    }

    /// Pre-extends every subsystem profile and every buffer for
    /// populations up to `n_max`; afterwards [`advance`](Self::advance)
    /// allocates nothing until the sweep passes `n_max`.
    fn reserve(&mut self, n_max: usize) -> Result<(), QueueingError> {
        self.reserved = n_max;
        self.ensure(n_max)?;
        self.ws.reserve(n_max);
        Ok(())
    }

    /// Advances to the next population: grow/rebuild if any profile must
    /// extend, then take the allocation-free hot path.
    fn advance(&mut self) -> Result<(), QueueingError> {
        let m = self.ws.population() + 1;
        self.ensure(m)?;
        self.advance_hot()
    }

    /// Makes every non-finalized subsystem profile cover parent population
    /// `m`, extending in geometric chunks and rebuilding the parent
    /// workspace when any flow-equivalent rate table grew. The rebuild
    /// re-advances a fresh workspace to the carried population — bit-exact
    /// by the workspace's append-only column guarantee, since every column
    /// at or below the carried population only reads rate-table entries
    /// that existed before the extension.
    fn ensure(&mut self, m: usize) -> Result<(), QueueingError> {
        let mut grew = false;
        for (i, sub) in self.subs.iter_mut().enumerate() {
            let len = sub.profile.len();
            if sub.finalized || len >= m {
                continue;
            }
            let added = sub.extend_to(m.max(len * 2).max(MIN_CHUNK), &self.sub_names[i])?;
            if added > 0 {
                grew = true;
                // Staleness: the carried (possibly cache-reused) profile
                // did not cover this population and had to extend.
                obsv::counter("health.hierarchy.profile_stale_steps", added as u64);
                if let Some(cache) = &self.cache {
                    cache.store(&self.sub_keys[i], sub);
                }
            }
        }
        if grew {
            self.rebuild()?;
        }
        Ok(())
    }

    /// Rebuilds the parent workspace with the current (longer) rate
    /// tables and marginal limits, then re-advances it to the population
    /// it previously carried.
    fn rebuild(&mut self) -> Result<(), QueueingError> {
        let carried = self.ws.population();
        let think_time = self.ws.think_time();
        let mut conv = Vec::with_capacity(self.sources.len());
        for (k, src) in self.sources.iter().enumerate() {
            match src {
                Source::Leaf => conv.push(self.ws.stations()[k].clone()),
                Source::Sub(i) => conv.push(self.subs[*i].fes_station(&self.ws.stations()[k].name)),
            }
        }
        let limits = fes_limits(&self.sources, &self.subs);
        let mut ws = ConvWorkspace::from_validated(conv, think_time, limits)?;
        if self.reserved > 0 {
            ws.reserve(self.reserved);
        }
        for _ in 0..carried {
            ws.advance()?;
        }
        self.ws = ws;
        Ok(())
    }

    /// The per-step aggregation hot path: one incremental convolution
    /// step on the parent plus in-place disaggregation of every
    /// flow-equivalent queue onto the flat leaves.
    // lint: no-alloc
    fn advance_hot(&mut self) -> Result<(), QueueingError> {
        self.ws.advance()?;
        self.disaggregate();
        Ok(())
    }

    /// Splits every FES queue over its subsystem's leaves through the
    /// parent marginal occupancy: `Q_l(n) = Σ_j p_FES(j|n)·Q_l^iso(j)`.
    /// For truncated profiles the occupancy mass beyond the table is
    /// attributed proportionally to the deepest stored row, preserving
    /// `Σ_l Q_l = Q_FES` exactly.
    // lint: no-alloc
    fn disaggregate(&mut self) {
        let Self {
            ws,
            subs,
            sources,
            offsets,
            flat_queues,
            disagg_health,
            ..
        } = self;
        let queues = ws.queues();
        let m = ws.population();
        for (k, src) in sources.iter().enumerate() {
            let off = offsets[k];
            match src {
                Source::Leaf => flat_queues[off] = queues[k],
                Source::Sub(i) => {
                    let sub = &subs[*i];
                    let w = sub.width;
                    let table_len = sub.profile.len();
                    let marg = ws.marginals_of(k);
                    let out = &mut flat_queues[off..off + w];
                    for v in out.iter_mut() {
                        *v = 0.0;
                    }
                    let mut attributed = 0.0;
                    let j_max = m.min(table_len);
                    for (j, &p) in marg.iter().enumerate().take(j_max + 1).skip(1) {
                        attributed += p * j as f64;
                        let row = &sub.leaf_rows[(j - 1) * w..j * w];
                        for (o, r) in out.iter_mut().zip(row) {
                            *o += p * r;
                        }
                    }
                    if m > table_len && table_len > 0 {
                        // Truncated profile: populations past the table
                        // carry queue mass the marginals above cannot
                        // attribute. Spread the residual in the shape of
                        // the deepest isolated row (its queues sum to
                        // exactly `table_len` — the subsystem holds every
                        // customer when solved with zero think time).
                        let raw = queues[k] - attributed;
                        if raw < 0.0 {
                            disagg_health.count_clamp();
                        }
                        let residual = raw.max(0.0);
                        let row = &sub.leaf_rows[(table_len - 1) * w..table_len * w];
                        let scale = residual / table_len as f64;
                        for (o, r) in out.iter_mut().zip(row) {
                            *o += scale * r;
                        }
                    }
                    let total: f64 = out.iter().sum();
                    disagg_health.watch((total - queues[k]).abs());
                }
            }
        }
    }
}

/// Marginal limits for a level: flow-equivalent stations track their full
/// occupancy distribution (`table_len + 1` states, occupancies `0..=len`);
/// plain leaves track none.
fn fes_limits(sources: &[Source], subs: &[SubEngine]) -> Vec<usize> {
    let mut limits = vec![0usize; sources.len()];
    for (limit, src) in limits.iter_mut().zip(sources) {
        if let Source::Sub(i) = src {
            *limit = subs[*i].profile.len() + 1;
        }
    }
    limits
}

/// Aggregates a multiclass [`Workload`] into one **class-aggregated
/// flow-equivalent server**, usable as a leaf anywhere in a
/// [`HierarchicalNetwork`]: the workload's subnetwork is solved in
/// isolation along its proportional path (class think times count as
/// internal delay of the subnetwork), and the aggregate throughput profile
/// `X(j)` at `j` admitted customers becomes the FES rate table — demand
/// `1/X(1)`, rate multipliers `X(j)/X(1)`, exactly the Norton shape the
/// engine builds for its own subsystems.
///
/// **Error bound.** For a single-class workload over single-server and
/// delay stations the substitution is the classic Chandy–Herzog–Woo
/// aggregation and therefore *exact* (machine precision against the flat
/// solve; asserted below). Multi-server stations pass through the
/// multiclass solver's Seidmann split first, so they carry the usual
/// Seidmann deviation (≲1e-4 relative at low populations, vanishing at
/// saturation) before aggregation even starts. For `C > 1` classes
/// the FES collapses the class-population vector onto the proportional
/// path: `X(j)` is the true aggregate throughput of the subnetwork when
/// the `j` customers inside it follow the workload's class mix, so the
/// parent model is exact whenever the subnetwork's occupancy stays
/// mix-proportional and degrades smoothly with mix skew — identical class
/// demand rows collapse exactly (asserted below), and the skew error is
/// bounded by the spread `max_j |X_path(j) − X_worst(j)| / X_path(j)` of
/// per-mix throughput at each occupancy, the multiclass analogue of the
/// profile-truncation bound.
pub fn workload_fes_station(name: &str, workload: &Workload) -> Result<Station, QueueingError> {
    let total = workload.total_population();
    if total == 0 {
        return Err(QueueingError::InvalidParameter {
            what: "workload FES needs at least one customer",
        });
    }
    let _span = obsv::span_with("hierarchy.workload_fes", || {
        format!("name={name} population={total}")
    });
    let mut iter = MulticlassIter::new(workload)?;
    let mut profile = Vec::with_capacity(total);
    for _ in 0..total {
        profile.push(iter.step()?.throughput);
    }
    let x1 = profile.first().copied().unwrap_or(0.0);
    if !(x1.is_finite() && x1 > 0.0) {
        return Err(QueueingError::InvalidParameter {
            what: "workload FES needs positive aggregate throughput at one customer",
        });
    }
    let rates = profile.iter().map(|x| x / x1).collect();
    Ok(Station::load_dependent(name, 1.0, 1.0 / x1, rates))
}

fn subsystem_key(sub: &Subsystem, opts: AggregationOptions) -> Vec<u64> {
    let mut words = Vec::new();
    words.push(match opts.truncation {
        Some(eps) => eps.to_bits(),
        // eps is validated to lie in (0, 1), whose bit patterns never
        // collide with u64::MAX.
        None => u64::MAX,
    });
    words.push(sub.nodes.len() as u64);
    for node in &sub.nodes {
        push_node_words(node, &mut words);
    }
    words
}

/// The aggregation engine behind [`HierarchicalSolver`]: a resumable
/// population stepper over a hierarchical network, exposing the flat
/// disaggregated queue vector at every population.
///
/// This is the low-level face (the hierarchical analogue of
/// [`ConvWorkspace`]); most callers want [`HierarchicalSolver`] and its
/// [`SolverIter`] instead.
#[derive(Debug, Clone)]
pub struct HierarchicalWorkspace {
    engine: LevelEngine,
    think_time: f64,
}

impl HierarchicalWorkspace {
    /// Builds the aggregation engine for `net`, solving every subsystem's
    /// first profile point. With a `cache`, already-solved subsystem
    /// shapes are reused instead of re-solved.
    pub fn new(
        net: &HierarchicalNetwork,
        opts: AggregationOptions,
        cache: Option<&Arc<ProfileCache>>,
    ) -> Result<Self, QueueingError> {
        opts.validate()?;
        let engine = LevelEngine::build(net.nodes(), net.think_time(), opts, cache)?;
        Ok(Self {
            engine,
            think_time: net.think_time(),
        })
    }

    /// Pre-extends every profile and buffer for populations up to
    /// `n_max`; afterwards [`advance`](Self::advance) allocates nothing
    /// until the sweep passes `n_max`.
    pub fn reserve(&mut self, n_max: usize) -> Result<(), QueueingError> {
        self.engine.reserve(n_max)
    }

    /// Advances the recursion one population.
    pub fn advance(&mut self) -> Result<(), QueueingError> {
        self.engine.advance()
    }

    /// Last population evaluated (0 = fresh).
    pub fn population(&self) -> usize {
        self.engine.ws.population()
    }

    /// System throughput at the last advanced population.
    pub fn throughput(&self) -> f64 {
        self.engine.ws.throughput()
    }

    /// Terminal think time of the underlying network.
    pub fn think_time(&self) -> f64 {
        self.think_time
    }

    /// Disaggregated flat queue lengths (depth-first leaf order, matching
    /// [`HierarchicalNetwork::flatten`]) at the last advanced population.
    pub fn leaf_queues(&self) -> &[f64] {
        &self.engine.flat_queues
    }
}

/// Per-leaf constants used to report utilization exactly as the flat
/// convolution backend would.
#[derive(Debug, Clone, Copy)]
struct LeafMeta {
    demand: f64,
    max_rate: Option<f64>,
}

/// The hierarchical recursion as a resumable [`SolverIter`] over the flat
/// leaf stations.
#[derive(Debug, Clone)]
struct HierIter {
    ws: HierarchicalWorkspace,
    names: Arc<[String]>,
    metas: Arc<[LeafMeta]>,
}

impl HierIter {
    fn new(
        net: &HierarchicalNetwork,
        opts: AggregationOptions,
        cache: Option<&Arc<ProfileCache>>,
    ) -> Result<Self, QueueingError> {
        let ws = HierarchicalWorkspace::new(net, opts, cache)?;
        let flat = net.flatten();
        let names: Arc<[String]> = flat
            .stations()
            .iter()
            .map(|s| s.name.clone())
            .collect::<Vec<_>>()
            .into();
        let metas: Arc<[LeafMeta]> = flat
            .stations()
            .iter()
            .map(|s| LeafMeta {
                demand: s.demand(),
                max_rate: RateFunction::from(&s.kind).max_rate(),
            })
            .collect::<Vec<_>>()
            .into();
        Ok(Self { ws, names, metas })
    }
}

impl SolverIter for HierIter {
    fn station_names(&self) -> &[String] {
        &self.names
    }

    fn shared_names(&self) -> Arc<[String]> {
        self.names.clone()
    }

    fn population(&self) -> usize {
        self.ws.population()
    }

    fn step(&mut self) -> Result<MvaPoint, QueueingError> {
        let _span = obsv::span("hierarchy.step");
        obsv::counter("solver.steps", 1);
        self.ws.advance()?;
        let x = self.ws.throughput();
        let n = self.ws.population();
        let queues = self.ws.leaf_queues();
        let stations: Vec<StationPoint> = queues
            .iter()
            .zip(self.metas.iter())
            .map(|(&q, meta)| StationPoint {
                queue: q,
                residence: if x > 0.0 { q / x } else { 0.0 },
                utilization: match meta.max_rate {
                    Some(mr) => x * meta.demand / mr,
                    None => x * meta.demand,
                },
            })
            .collect();
        let total_q: f64 = queues.iter().sum();
        let response = total_q / if x > 0.0 { x } else { 1.0 };
        Ok(MvaPoint {
            n,
            throughput: x,
            response,
            cycle_time: response + self.ws.think_time(),
            stations,
        })
    }

    fn boxed_clone(&self) -> Box<dyn SolverIter> {
        Box::new(self.clone())
    }
}

/// Norton flow-equivalent-server solver for hierarchical networks
/// (`"hierarchical-mva"`).
///
/// Solves every subsystem in isolation, substitutes load-dependent
/// flow-equivalent stations into the parent, and runs the exact
/// convolution recursion on the (much smaller) aggregated model. Results
/// are reported against the **flat** leaf stations — disaggregated queue,
/// residence, and utilization per leaf — so the solver drops into every
/// comparison that consumes a [`ClosedSolver`].
#[derive(Debug, Clone)]
pub struct HierarchicalSolver {
    net: HierarchicalNetwork,
    opts: AggregationOptions,
    cache: Option<Arc<ProfileCache>>,
}

impl HierarchicalSolver {
    /// Exact aggregation over `net` (profiles track the population).
    pub fn new(net: HierarchicalNetwork) -> Self {
        Self {
            net,
            opts: AggregationOptions::exact(),
            cache: None,
        }
    }

    /// Aggregation with explicit [`AggregationOptions`].
    pub fn with_options(net: HierarchicalNetwork, opts: AggregationOptions) -> Self {
        Self {
            net,
            opts,
            cache: None,
        }
    }

    /// Attaches a shared [`ProfileCache`] so repeated solves (and
    /// identically-shaped subsystems) reuse solved profiles.
    pub fn with_cache(mut self, cache: Arc<ProfileCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The hierarchical model this solver is bound to.
    pub fn network(&self) -> &HierarchicalNetwork {
        &self.net
    }
}

impl ClosedSolver for HierarchicalSolver {
    fn name(&self) -> &str {
        "hierarchical-mva"
    }

    fn start(&self) -> Result<Box<dyn SolverIter>, QueueingError> {
        Ok(Box::new(HierIter::new(
            &self.net,
            self.opts,
            self.cache.as_ref(),
        )?))
    }
}

/// Convenience drain: solves `net` for populations `1..=n_max` with the
/// given options (no cache).
pub fn hierarchical_mva(
    net: &HierarchicalNetwork,
    n_max: usize,
    opts: AggregationOptions,
) -> Result<MvaSolution, QueueingError> {
    HierarchicalSolver::with_options(net.clone(), opts).solve(n_max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mva::MultiserverMvaSolver;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
    }

    fn tier(name: &str, cpu: f64, disk: f64) -> Subsystem {
        Subsystem::new(
            name,
            vec![
                Station::queueing(&format!("{name}-cpu"), 2, 1.0, cpu).into(),
                Station::queueing(&format!("{name}-disk"), 1, 1.0, disk).into(),
            ],
        )
    }

    fn two_tier_net() -> HierarchicalNetwork {
        HierarchicalNetwork::new(
            vec![
                Station::queueing("lb", 1, 1.0, 0.002).into(),
                tier("app", 0.010, 0.004).into(),
                tier("db", 0.016, 0.007).into(),
                Station::delay("lan", 1.0, 0.003).into(),
            ],
            0.5,
        )
        .unwrap()
    }

    #[test]
    fn aggregated_matches_flat_exact() {
        let net = two_tier_net();
        let flat = MultiserverMvaSolver::new(net.flatten()).solve(60).unwrap();
        let hier = HierarchicalSolver::new(net).solve(60).unwrap();
        assert_eq!(&flat.station_names[..], &hier.station_names[..]);
        for (pf, ph) in flat.points.iter().zip(hier.points.iter()) {
            assert!(
                close(pf.throughput, ph.throughput, 1e-9),
                "n={}: X {} vs {}",
                pf.n,
                pf.throughput,
                ph.throughput
            );
            assert!(close(pf.cycle_time, ph.cycle_time, 1e-9), "n={}", pf.n);
            for (sf, sh) in pf.stations.iter().zip(ph.stations.iter()) {
                assert!(
                    close(sf.queue, sh.queue, 1e-6),
                    "n={} queue {} vs {}",
                    pf.n,
                    sf.queue,
                    sh.queue
                );
                assert!(close(sf.utilization, sh.utilization, 1e-6), "n={}", pf.n);
            }
        }
    }

    #[test]
    fn nested_subsystems_match_flat_exact() {
        let inner = Subsystem::new(
            "svc",
            vec![
                Station::queueing("svc-cpu", 4, 1.0, 0.006).into(),
                Station::queueing("svc-io", 1, 1.0, 0.002).into(),
            ],
        );
        let net = HierarchicalNetwork::new(
            vec![
                Station::queueing("gw", 1, 1.0, 0.001).into(),
                Subsystem::new(
                    "tier",
                    vec![
                        inner.into(),
                        Station::queueing("tier-disk", 1, 1.0, 0.004).into(),
                    ],
                )
                .into(),
            ],
            0.2,
        )
        .unwrap();
        let flat = MultiserverMvaSolver::new(net.flatten()).solve(40).unwrap();
        let hier = HierarchicalSolver::new(net).solve(40).unwrap();
        for (pf, ph) in flat.points.iter().zip(hier.points.iter()) {
            assert!(close(pf.throughput, ph.throughput, 1e-9), "n={}", pf.n);
            for (sf, sh) in pf.stations.iter().zip(ph.stations.iter()) {
                assert!(close(sf.queue, sh.queue, 1e-6), "n={}", pf.n);
            }
        }
    }

    #[test]
    fn truncated_profiles_stay_close_and_conserve_population() {
        let net = two_tier_net();
        let exact = HierarchicalSolver::new(net.clone()).solve(120).unwrap();
        let trunc = HierarchicalSolver::with_options(net, AggregationOptions::truncated(1e-6))
            .solve(120)
            .unwrap();
        for (pe, pt) in exact.points.iter().zip(trunc.points.iter()) {
            let rel = (pe.throughput - pt.throughput).abs() / pe.throughput;
            assert!(rel < 1e-3, "n={}: rel {rel}", pe.n);
            // Disaggregation must conserve customers: queues + thinking = N.
            let in_system: f64 = pt.stations.iter().map(|s| s.queue).sum();
            let thinking = pt.throughput * 0.5;
            assert!(
                (in_system + thinking - pt.n as f64).abs() < 1e-3 * pt.n as f64,
                "n={}: {} + {} != {}",
                pt.n,
                in_system,
                thinking,
                pt.n
            );
        }
    }

    #[test]
    fn cache_shares_identical_subsystems_and_counts() {
        let cache = Arc::new(ProfileCache::new());
        let net = HierarchicalNetwork::new(
            vec![
                Station::queueing("lb", 1, 1.0, 0.002).into(),
                tier("a", 0.010, 0.004).into(),
                tier("b", 0.010, 0.004).into(),
                tier("c", 0.016, 0.007).into(),
            ],
            0.5,
        )
        .unwrap();
        let solver = HierarchicalSolver::new(net).with_cache(cache.clone());
        solver.solve(30).unwrap();
        let s1 = cache.stats();
        // Tiers a and b share a fingerprint (names excluded): 2 distinct
        // shapes solved, 1 hit at construction.
        assert_eq!(s1.solves, 2, "stats: {s1:?}");
        assert!(s1.hits >= 1, "stats: {s1:?}");
        assert_eq!(cache.len(), 2);
        // A second solve reuses every profile.
        solver.solve(30).unwrap();
        let s2 = cache.stats();
        assert_eq!(s2.solves, 2, "stats: {s2:?}");
        assert!(s2.hits > s1.hits);
    }

    #[test]
    fn streaming_matches_batch() {
        let net = two_tier_net();
        let solver = HierarchicalSolver::new(net);
        let batch = solver.solve(25).unwrap();
        let mut iter = solver.start().unwrap();
        for p in &batch.points {
            let q = iter.step().unwrap();
            assert_eq!(p.throughput.to_bits(), q.throughput.to_bits(), "n={}", p.n);
            assert_eq!(p.response.to_bits(), q.response.to_bits(), "n={}", p.n);
        }
    }

    #[test]
    fn workspace_reserve_then_advance() {
        let net = two_tier_net();
        let mut ws = HierarchicalWorkspace::new(&net, AggregationOptions::exact(), None).unwrap();
        ws.reserve(40).unwrap();
        for _ in 0..40 {
            ws.advance().unwrap();
        }
        assert_eq!(ws.population(), 40);
        assert_eq!(ws.leaf_queues().len(), 6);
        assert!(ws.throughput() > 0.0);
    }

    #[test]
    fn validation_rejects_bad_trees() {
        // Empty subsystem.
        assert!(
            HierarchicalNetwork::new(vec![Subsystem::new("empty", vec![]).into()], 1.0).is_err()
        );
        // Subsystem with only zero-demand leaves.
        assert!(HierarchicalNetwork::new(
            vec![
                Station::queueing("cpu", 1, 1.0, 0.01).into(),
                Subsystem::new("idle", vec![Station::queueing("x", 1, 0.0, 0.01).into()]).into()
            ],
            1.0
        )
        .is_err());
        // Empty tree.
        assert!(HierarchicalNetwork::new(vec![], 1.0).is_err());
        // Bad truncation threshold.
        let net = two_tier_net();
        assert!(
            HierarchicalSolver::with_options(net, AggregationOptions::truncated(0.0))
                .start()
                .is_err()
        );
    }

    #[test]
    fn fingerprints_ignore_names_but_not_structure() {
        let a = two_tier_net();
        let b = HierarchicalNetwork::new(
            vec![
                Station::queueing("other", 1, 1.0, 0.002).into(),
                tier("x", 0.010, 0.004).into(),
                tier("y", 0.016, 0.007).into(),
                Station::delay("wan", 1.0, 0.003).into(),
            ],
            0.5,
        )
        .unwrap();
        assert_eq!(a.fingerprint_words(), b.fingerprint_words());
        let c = a.with_think_time(0.6).unwrap();
        assert_ne!(a.fingerprint_words(), c.fingerprint_words());
        let d = a.with_leaf_scales(&[1.0, 1.1, 1.0, 1.0, 1.0, 1.0]).unwrap();
        assert_ne!(a.fingerprint_words(), d.fingerprint_words());
    }

    #[test]
    fn single_class_workload_fes_is_exact() {
        use crate::mva::ClassSpec;
        // A 1-class workload FES is classic Chandy–Herzog–Woo aggregation:
        // the parent model must reproduce the flat network to machine
        // precision.
        let w = Workload::new(
            vec!["w-cpu".into(), "w-disk".into()],
            vec![
                StationKind::Queueing { servers: 1 },
                StationKind::Queueing { servers: 1 },
            ],
            vec![ClassSpec {
                name: "all".into(),
                population: 40,
                think_time: 0.0,
                demands: vec![0.010, 0.004],
            }],
        )
        .unwrap();
        let fes = workload_fes_station("w", &w).unwrap();
        let hier = HierarchicalNetwork::new(
            vec![
                Station::queueing("lb", 1, 1.0, 0.002).into(),
                fes.into(),
                Station::delay("lan", 1.0, 0.003).into(),
            ],
            0.5,
        )
        .unwrap();
        let aggregated = HierarchicalSolver::new(hier).solve(30).unwrap();
        let flat = ClosedNetwork::new(
            vec![
                Station::queueing("lb", 1, 1.0, 0.002),
                Station::queueing("w-cpu", 1, 1.0, 0.010),
                Station::queueing("w-disk", 1, 1.0, 0.004),
                Station::delay("lan", 1.0, 0.003),
            ],
            0.5,
        )
        .unwrap();
        let reference = MultiserverMvaSolver::new(flat).solve(30).unwrap();
        for (a, r) in aggregated.points.iter().zip(reference.points.iter()) {
            assert!(
                close(a.throughput, r.throughput, 1e-9),
                "n={}: X {} vs {}",
                a.n,
                a.throughput,
                r.throughput
            );
            assert!(close(a.cycle_time, r.cycle_time, 1e-9), "n={}", a.n);
        }
    }

    #[test]
    fn identical_classes_collapse_to_the_merged_fes() {
        use crate::mva::ClassSpec;
        let spec = |name: &str, pop: usize| ClassSpec {
            name: name.into(),
            population: pop,
            think_time: 0.4,
            demands: vec![0.012, 0.005],
        };
        let names = vec!["cpu".to_string(), "disk".to_string()];
        let kinds = vec![
            StationKind::Queueing { servers: 1 },
            StationKind::Queueing { servers: 1 },
        ];
        let split = Workload::new(
            names.clone(),
            kinds.clone(),
            vec![spec("a", 10), spec("b", 10)],
        )
        .unwrap();
        let merged = Workload::new(names, kinds, vec![spec("ab", 20)]).unwrap();
        let fes_split = workload_fes_station("w", &split).unwrap();
        let fes_merged = workload_fes_station("w", &merged).unwrap();
        assert!((fes_split.demand() - fes_merged.demand()).abs() <= 1e-9);
        match (&fes_split.kind, &fes_merged.kind) {
            (
                StationKind::LoadDependent { rates: ra },
                StationKind::LoadDependent { rates: rb },
            ) => {
                assert_eq!(ra.len(), rb.len());
                for (a, b) in ra.iter().zip(rb) {
                    assert!(close(*a, *b, 1e-9), "{a} vs {b}");
                }
            }
            other => panic!("expected load-dependent FES stations, got {other:?}"),
        }
    }

    #[test]
    fn mixed_workload_fes_solves_in_a_parent_and_rejects_empty() {
        use crate::mva::ClassSpec;
        let w = Workload::new(
            vec!["cpu".into(), "disk".into()],
            vec![
                StationKind::Queueing { servers: 2 },
                StationKind::Queueing { servers: 1 },
            ],
            vec![
                ClassSpec {
                    name: "browse".into(),
                    population: 9,
                    think_time: 0.2,
                    demands: vec![0.010, 0.003],
                },
                ClassSpec {
                    name: "checkout".into(),
                    population: 6,
                    think_time: 0.1,
                    demands: vec![0.004, 0.018],
                },
            ],
        )
        .unwrap();
        let fes = workload_fes_station("mix", &w).unwrap();
        // Aggregate throughput can only grow with occupancy: the rate
        // table must be monotone nondecreasing from 1.
        if let StationKind::LoadDependent { rates } = &fes.kind {
            assert_eq!(rates.len(), 15);
            assert!(close(rates[0], 1.0, 1e-12));
            assert!(rates.windows(2).all(|p| p[1] >= p[0] - 1e-12), "{rates:?}");
        } else {
            panic!("expected a load-dependent FES station");
        }
        let hier = HierarchicalNetwork::new(
            vec![Station::queueing("lb", 1, 1.0, 0.002).into(), fes.into()],
            0.5,
        )
        .unwrap();
        let sol = HierarchicalSolver::new(hier).solve(12).unwrap();
        assert_eq!(sol.points.len(), 12);
        assert!(sol.last().throughput > 0.0);

        // A workload with no customers has no X(1) to define the FES.
        let empty = Workload::new(
            vec!["cpu".into()],
            vec![StationKind::Queueing { servers: 1 }],
            vec![ClassSpec {
                name: "none".into(),
                population: 0,
                think_time: 0.1,
                demands: vec![0.01],
            }],
        )
        .unwrap();
        assert!(workload_fes_station("mix", &empty).is_err());
    }

    #[test]
    fn leaf_scales_match_flat_scaling() {
        let net = two_tier_net();
        let factors = [1.0, 0.9, 1.2, 1.0, 0.8, 1.0];
        let scaled = net.with_leaf_scales(&factors).unwrap();
        let flat = net.flatten();
        for (k, s) in scaled.flatten().stations().iter().enumerate() {
            assert!(
                (s.demand() - flat.stations()[k].demand() * factors[k]).abs() < 1e-15,
                "station {k}"
            );
        }
        assert!(net.with_leaf_scales(&[1.0]).is_err());
    }
}
