//! Fig. 3 — "Marginal Probability of a CPU Core being busy with increasing
//! Concurrency": the `p_k(j)` values the multi-server correction of
//! Algorithm 2 tracks, for a 4-core CPU, as the population grows.

use std::path::{Path, PathBuf};

use mvasd_queueing::mva::multiserver_mva_with_marginals;
use mvasd_queueing::network::{ClosedNetwork, Station};

use crate::output::Table;

/// Regenerates Fig. 3 for a 4-core CPU station (`D = 0.1 s`, `Z = 1 s`).
///
/// Columns: the marginal probabilities `p(j)` of exactly `j` customers
/// (hence `j` busy cores, `j < 4`) plus the all-cores-busy probability.
/// The qualitative claim of the paper — the marginals converge as
/// concurrency saturates the CPU — shows as the `p(j)` mass draining into
/// `all_busy → 1`.
pub fn fig3(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let net = ClosedNetwork::new(vec![Station::queueing("cpu4", 4, 1.0, 0.1)], 1.0)
        .expect("static model");
    let (_, trace) = multiserver_mva_with_marginals(&net, 60, 0).expect("solver");

    let mut t = Table::new(vec!["n", "p0", "p1", "p2", "p3", "all_busy"]);
    let all_busy = trace.all_busy();
    for (i, snap) in trace.history.iter().enumerate() {
        t.push(vec![
            (i + 1) as f64,
            snap[0],
            snap[1],
            snap[2],
            snap[3],
            all_busy[i],
        ]);
    }
    let p = t.write(dir, "fig3_core_busy_marginals.csv")?;
    crate::say!(
        "fig3: at N=60 all-busy probability {:.3} (p(j<4) mass {:.3})",
        all_busy[59],
        1.0 - all_busy[59]
    );
    Ok(vec![p])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_probabilities_drain_into_all_busy() {
        let dir = std::env::temp_dir().join("mvasd_fig3_test");
        fig3(&dir).unwrap();
        let content = std::fs::read_to_string(dir.join("fig3_core_busy_marginals.csv")).unwrap();
        assert_eq!(content.lines().count(), 61);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
