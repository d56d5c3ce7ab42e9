//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro list            # show available experiment ids
//! repro all             # regenerate everything into results/
//! repro fig7 table5     # regenerate a subset
//! ```
//!
//! Outputs land in `results/` (override with `MVASD_RESULTS_DIR`). Progress
//! goes to stdout; if its reader goes away (`repro all | head -1`), printing
//! stops and the requested files are still regenerated. Only a failed
//! experiment makes the exit code nonzero.

use mvasd_bench::experiments::{run, Ctx, ALL};
use mvasd_bench::say;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        eprintln!("usage: repro <list|all|ID...>");
        eprintln!("experiment ids: {}", ALL.join(", "));
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    if args[0] == "list" {
        for id in ALL {
            say!("{id}");
        }
        return;
    }

    let ids: Vec<&str> = if args[0] == "all" {
        ALL.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };

    let ctx = Ctx::new();
    let mut failures = 0;
    for id in ids {
        say!("=== {id} ===");
        let started = std::time::Instant::now();
        match run(id, &ctx) {
            Ok(paths) => {
                for p in paths {
                    say!("wrote {}", p.display());
                }
                say!("({:.1}s)", started.elapsed().as_secs_f64());
            }
            Err(e) => {
                eprintln!("ERROR: {e}");
                failures += 1;
            }
        }
        say!("");
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
