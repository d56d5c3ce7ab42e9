//! Multiclass streaming core vs per-step lattice recompute.
//!
//! The workload is the calibrated three-class VINS mix (renew / browse /
//! api; see `mvasd_testbed::apps::vins::workload_mix`). Two cost models
//! are compared:
//!
//! - `carried_walk/N` — [`MulticlassIter`]: the carried per-class
//!   workspace advances one customer per step, filling only the new
//!   lattice slab, so the whole path costs one full-lattice fill total.
//! - `full_lattice_per_step/N` — the naive streaming emulation: at every
//!   population prefix along the same path, re-run the full-lattice
//!   recursion ([`multiclass_mva`]) from scratch.
//!
//! Beyond the text table the bench emits `results/BENCH_multiclass.json`
//! (schema `mvasd-bench/1` plus a `multiclass` block, documented in
//! `EXPERIMENTS.md`): the carried-vs-recompute speedup.

use mvasd_bench::output::{results_dir, write_text};
use mvasd_bench::timing::{bench_json, quick_mode, Bench, Plan};
use mvasd_obsv as obsv;
use mvasd_queueing::mva::{multiclass_mva, ClassSpec, MulticlassIter, Workload};
use mvasd_testbed::apps::vins;

/// Walks the carried workspace over the full path; returns the final
/// aggregate throughput.
fn carried_walk(workload: &Workload) -> f64 {
    let mut iter = MulticlassIter::new(workload).expect("iterator");
    let mut last = 0.0;
    while iter.steps_done() < iter.steps_total() {
        last = iter.step_classes().expect("step").total_throughput();
    }
    last
}

/// The recompute baseline: a fresh full-lattice solve at every population
/// prefix of `path` (each entry is the per-class population vector of one
/// streamed step).
fn full_lattice_per_step(workload: &Workload, path: &[Vec<usize>]) -> f64 {
    let kinds = workload.station_kinds().to_vec();
    let mut last = 0.0;
    for pops in path {
        let classes: Vec<ClassSpec> = workload
            .classes()
            .iter()
            .zip(pops)
            .map(|(c, &population)| ClassSpec {
                population,
                ..c.clone()
            })
            .collect();
        let sol = multiclass_mva(&classes, &kinds).expect("lattice solve");
        last = sol.classes.iter().map(|c| c.throughput).sum();
    }
    last
}

fn main() {
    let total = if quick_mode() { 30 } else { 54 };
    let workload = vins::workload_mix(total).expect("VINS mix");
    let nclasses = workload.classes().len();

    // Record the population path once so the recompute baseline solves
    // exactly the prefixes the streamed walk visits.
    let mut iter = MulticlassIter::new(&workload).expect("iterator");
    let mut path = Vec::with_capacity(total);
    while iter.steps_done() < iter.steps_total() {
        path.push(iter.step_classes().expect("step").populations.clone());
    }

    let mut b = Bench::new("multiclass_vins_mix");
    b.measure(&format!("carried_walk/{total}"), Plan::default(), || {
        carried_walk(&workload)
    });
    b.measure(
        &format!("full_lattice_per_step/{total}"),
        Plan::default(),
        || full_lattice_per_step(&workload, &path),
    );
    println!("{}", b.report());

    let results = b.results();
    let find = |name: &str| {
        results
            .iter()
            .find(|m| m.name == name)
            .expect("measured above")
    };
    let carried = find(&format!("carried_walk/{total}")).median();
    let recompute = find(&format!("full_lattice_per_step/{total}")).median();
    let speedup = recompute.as_secs_f64() / carried.as_secs_f64().max(1e-12);
    println!("carried-workspace speedup over per-step recompute at n={total}: {speedup:.1}x");

    // Splice the metrics block into the standard schema and check the
    // result still parses before committing it to disk.
    let json = bench_json(&[&b]);
    let trimmed = json.trim_end().trim_end_matches('}');
    let json = format!(
        "{trimmed},\"multiclass\":{{\"classes\":{nclasses},\"total\":{total},\
         \"speedup_carried_vs_recompute\":{speedup:.2}}}}}\n"
    );
    obsv::json::parse(&json).expect("spliced report is valid JSON");
    let path =
        write_text(&results_dir(), "BENCH_multiclass.json", &json).expect("results dir writable");
    println!("wrote {}", path.display());
}
