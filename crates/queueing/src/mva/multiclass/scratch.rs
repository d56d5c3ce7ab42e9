//! The full-lattice multiclass recursion — the from-scratch oracle.
//!
//! [`multiclass_mva`] solves the whole population lattice in one call:
//! every population vector `n⃗ ≤ N⃗` in lexicographic index order, applying
//! the multiclass Arrival Theorem
//! `R_{c,k}(n⃗) = D_{c,k} · (1 + Q_k(n⃗ − e_c))` at each point. It rebuilds
//! its arrays per call, which is exactly why the carried
//! [`super::MulticlassWorkspace`] exists — but the one-shot form stays as
//! the oracle the workspace is checked against bit for bit, and as the
//! baseline the `multiclass` bench measures the carried workspace's
//! speedup over.

use crate::network::StationKind;
use crate::QueueingError;

use super::{
    lattice_dims, lattice_size, lattice_strides, split_demands, validate_classes, ClassMetrics,
    ClassSpec, MulticlassSolution,
};

/// Runs exact multiclass MVA over the full population lattice.
///
/// `station_kinds` gives the discipline per station (shared by all classes).
/// Multi-server queueing stations are handled with the demand-normalization
/// heuristic (`D/C`, plus a delay of `D·(C−1)/C`) — the exact multiclass
/// multi-server recursion is out of scope, matching standard practice.
pub fn multiclass_mva(
    classes: &[ClassSpec],
    station_kinds: &[StationKind],
) -> Result<MulticlassSolution, QueueingError> {
    validate_classes(classes, station_kinds)?;
    let k_count = station_kinds.len();
    let nclasses = classes.len();

    // Seidmann-style split per (class, station): queueing part + delay part,
    // flat `c * K + k`.
    let (dq, dd) = split_demands(classes, station_kinds);

    // Mixed-radix lattice over populations 0..=N_c.
    let dims = lattice_dims(classes);
    let lattice = lattice_size(&dims)?;
    let strides = lattice_strides(&dims);

    // Q[idx * K + k]: queue length at station k for population vector `idx`,
    // *queueing parts only* — the Seidmann delay parts are pure IS terms that
    // never feed the Arrival Theorem (that keeps the split model exactly
    // product-form). Processed in lexicographic index order, which visits
    // n⃗ − e_c (a strictly smaller index) before n⃗.
    let mut q = vec![0.0f64; lattice * k_count];
    let mut final_classes = Vec::with_capacity(nclasses);
    let mut final_x = vec![0.0f64; nclasses];
    let mut final_r = vec![0.0f64; nclasses];

    let mut pops = vec![0usize; nclasses];
    // Hoisted out of the lattice loop: one pre-sized pair of per-class
    // scratch buffers instead of two fresh `Vec`s per lattice index.
    let mut xs = vec![0.0f64; nclasses];
    let mut rs = vec![0.0f64; nclasses];
    for idx in 1..lattice {
        // Decode index -> population vector.
        {
            let mut rem = idx;
            for c in 0..nclasses {
                pops[c] = rem % dims[c];
                rem /= dims[c];
            }
        }
        xs.fill(0.0);
        rs.fill(0.0);
        for ci in 0..nclasses {
            if pops[ci] == 0 {
                continue;
            }
            let prev_idx = idx - strides[ci];
            let mut r_c = 0.0;
            for k in 0..k_count {
                let q_prev = q[prev_idx * k_count + k];
                r_c += dq[ci * k_count + k] * (1.0 + q_prev) + dd[ci * k_count + k];
            }
            rs[ci] = r_c;
            xs[ci] = pops[ci] as f64 / (r_c + classes[ci].think_time);
        }
        // Q_k(n⃗) = Σ_c X_c · (queueing-part residence of class c at k).
        for k in 0..k_count {
            let mut qk = 0.0;
            for ci in 0..nclasses {
                if pops[ci] == 0 {
                    continue;
                }
                let prev_idx = idx - strides[ci];
                let q_prev = q[prev_idx * k_count + k];
                qk += xs[ci] * (dq[ci * k_count + k] * (1.0 + q_prev));
            }
            q[idx * k_count + k] = qk;
        }
        if idx == lattice - 1 {
            final_x.copy_from_slice(&xs);
            final_r.copy_from_slice(&rs);
        }
    }

    // Handle the degenerate all-zero-population case.
    let full_idx = lattice - 1;
    for (ci, c) in classes.iter().enumerate() {
        final_classes.push(ClassMetrics {
            name: c.name.clone(),
            throughput: if c.population == 0 { 0.0 } else { final_x[ci] },
            response: if c.population == 0 { 0.0 } else { final_r[ci] },
        });
    }
    // Reported station queues add back the Seidmann delay-part customers
    // (`X_c · dd_{c,k}`) so they count everyone *at* the station.
    let station_queues: Vec<f64> = (0..k_count)
        .map(|k| {
            let mut delay = 0.0;
            for ci in 0..nclasses {
                delay += final_x[ci] * dd[ci * k_count + k];
            }
            q[full_idx * k_count + k] + delay
        })
        .collect();
    let station_utilizations: Vec<f64> = (0..k_count)
        .map(|k| {
            let total: f64 = classes
                .iter()
                .enumerate()
                .map(|(ci, c)| final_classes[ci].throughput * c.demands[k])
                .sum();
            match station_kinds[k].server_count() {
                Some(servers) => total / servers as f64,
                None => total,
            }
        })
        .collect();

    Ok(MulticlassSolution {
        classes: final_classes,
        station_queues,
        station_utilizations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mva::exact_mva;
    use crate::network::{ClosedNetwork, Station};

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn single_class_matches_exact_mva() {
        let demands = vec![0.006, 0.010];
        let classes = vec![ClassSpec {
            name: "only".into(),
            population: 40,
            think_time: 1.0,
            demands: demands.clone(),
        }];
        let kinds = vec![
            StationKind::Queueing { servers: 1 },
            StationKind::Queueing { servers: 1 },
        ];
        let mc = multiclass_mva(&classes, &kinds).unwrap();

        let net = ClosedNetwork::new(
            vec![
                Station::queueing("a", 1, 1.0, 0.006),
                Station::queueing("b", 1, 1.0, 0.010),
            ],
            1.0,
        )
        .unwrap();
        let sc = exact_mva(&net, 40).unwrap();
        assert!(close(mc.classes[0].throughput, sc.last().throughput, 1e-9));
        assert!(close(mc.classes[0].response, sc.last().response, 1e-9));
        assert!(close(
            mc.station_queues[1],
            sc.last().stations[1].queue,
            1e-8
        ));
    }

    #[test]
    fn two_identical_classes_equal_one_merged_class() {
        let kinds = vec![StationKind::Queueing { servers: 1 }];
        let half = |name: &str| ClassSpec {
            name: name.into(),
            population: 10,
            think_time: 1.0,
            demands: vec![0.02],
        };
        let split = multiclass_mva(&[half("a"), half("b")], &kinds).unwrap();
        let merged = multiclass_mva(
            &[ClassSpec {
                name: "ab".into(),
                population: 20,
                think_time: 1.0,
                demands: vec![0.02],
            }],
            &kinds,
        )
        .unwrap();
        let x_split = split.classes[0].throughput + split.classes[1].throughput;
        assert!(close(x_split, merged.classes[0].throughput, 1e-9));
        assert!(close(
            split.station_queues[0],
            merged.station_queues[0],
            1e-8
        ));
    }

    #[test]
    fn heavier_class_sees_longer_response() {
        let kinds = vec![StationKind::Queueing { servers: 1 }];
        let sol = multiclass_mva(
            &[
                ClassSpec {
                    name: "light".into(),
                    population: 5,
                    think_time: 1.0,
                    demands: vec![0.01],
                },
                ClassSpec {
                    name: "heavy".into(),
                    population: 5,
                    think_time: 1.0,
                    demands: vec![0.05],
                },
            ],
            &kinds,
        )
        .unwrap();
        assert!(sol.classes[1].response > sol.classes[0].response);
    }

    #[test]
    fn empty_class_population_is_ok() {
        let kinds = vec![StationKind::Queueing { servers: 1 }];
        let sol = multiclass_mva(
            &[
                ClassSpec {
                    name: "zero".into(),
                    population: 0,
                    think_time: 1.0,
                    demands: vec![0.02],
                },
                ClassSpec {
                    name: "busy".into(),
                    population: 8,
                    think_time: 1.0,
                    demands: vec![0.02],
                },
            ],
            &kinds,
        )
        .unwrap();
        assert_eq!(sol.classes[0].throughput, 0.0);
        assert!(sol.classes[1].throughput > 0.0);
    }

    #[test]
    fn delay_station_handled() {
        let kinds = vec![StationKind::Queueing { servers: 1 }, StationKind::Delay];
        let sol = multiclass_mva(
            &[ClassSpec {
                name: "c".into(),
                population: 15,
                think_time: 0.5,
                demands: vec![0.01, 0.003],
            }],
            &kinds,
        )
        .unwrap();
        assert!(sol.classes[0].response >= 0.013 - 1e-12);
    }

    #[test]
    fn rejects_bad_inputs() {
        let kinds = vec![StationKind::Queueing { servers: 1 }];
        assert!(multiclass_mva(&[], &kinds).is_err());
        assert!(multiclass_mva(
            &[ClassSpec {
                name: "c".into(),
                population: 1,
                think_time: 1.0,
                demands: vec![0.1, 0.2], // wrong arity
            }],
            &kinds
        )
        .is_err());
        assert!(multiclass_mva(
            &[ClassSpec {
                name: "c".into(),
                population: 1,
                think_time: -1.0,
                demands: vec![0.1],
            }],
            &kinds
        )
        .is_err());
        // Lattice blow-up guard.
        let huge = ClassSpec {
            name: "h".into(),
            population: 100_000,
            think_time: 1.0,
            demands: vec![0.1],
        };
        let sol = multiclass_mva(&[huge.clone(), huge.clone(), huge], &kinds);
        assert!(sol.is_err());
    }

    #[test]
    fn utilizations_are_reported_per_station() {
        let kinds = vec![
            StationKind::Queueing { servers: 2 },
            StationKind::Queueing { servers: 1 },
        ];
        let sol = multiclass_mva(
            &[ClassSpec {
                name: "c".into(),
                population: 30,
                think_time: 1.0,
                demands: vec![0.02, 0.01],
            }],
            &kinds,
        )
        .unwrap();
        assert_eq!(sol.station_utilizations.len(), 2);
        for u in &sol.station_utilizations {
            assert!(*u >= 0.0 && *u <= 1.0 + 1e-9);
        }
    }
}
