//! Pins the simulator's trajectory: six seeded runs whose observable
//! outputs are recorded constants.
//!
//! Everything that follows from the sequence of events — completions,
//! throughput, mean and p95 response, the raw response samples, the
//! time series and per-station visits — must match bit for bit, so any
//! change to the engine that reorders events or RNG draws fails here. The
//! time integrals (utilization, mean queue, busy timeline) depend on the
//! order in which interval contributions are summed, so they are held to
//! 1e-12 relative instead.

use mvasd_simnet::{
    ContentionModel, Distribution, SimConfig, SimNetwork, SimReport, SimStation, Simulation,
};

/// FNV-1a over a stream of 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

/// Recorded values of one run.
struct Pin {
    completions: u64,
    throughput: f64,
    mean_response: f64,
    p95_response: f64,
    /// FNV-1a of the response samples, the time series and each station's
    /// throughput and mean visit time.
    trajectory_hash: u64,
    utilization: &'static [f64],
    mean_queue: &'static [f64],
    /// Per-station sum of the busy timeline.
    busy_sums: &'static [f64],
}

fn trajectory_hash(rep: &SimReport) -> u64 {
    let mut h = Fnv::new();
    h.word(rep.response_samples.len() as u64);
    for &r in &rep.response_samples {
        h.float(r);
    }
    h.word(rep.time_series.len() as u64);
    for b in &rep.time_series {
        h.float(b.start);
        h.float(b.tps);
        h.float(b.mean_response);
    }
    for s in &rep.stations {
        h.float(s.throughput);
        h.float(s.mean_visit_time);
    }
    h.0
}

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-12 * want.abs().max(f64::MIN_POSITIVE)
}

/// Asserts `rep` against `pin`. The run's own values are printed first in
/// `Pin` syntax; the test harness shows them only when an assertion fails.
fn assert_pinned(label: &str, rep: &SimReport, pin: &Pin) {
    dump(label, rep);
    let sys = &rep.system;
    assert_eq!(sys.completions, pin.completions, "{label}: completions");
    let bits = |x: f64| x.to_bits();
    assert_eq!(
        bits(sys.throughput),
        bits(pin.throughput),
        "{label}: throughput {:?}",
        sys.throughput
    );
    assert_eq!(
        bits(sys.mean_response),
        bits(pin.mean_response),
        "{label}: mean response {:?}",
        sys.mean_response
    );
    assert_eq!(
        bits(sys.p95_response),
        bits(pin.p95_response),
        "{label}: p95 response {:?}",
        sys.p95_response
    );
    assert_eq!(
        trajectory_hash(rep),
        pin.trajectory_hash,
        "{label}: trajectory hash"
    );
    let k = rep.stations.len();
    assert_eq!(pin.utilization.len(), k, "{label}: station count");
    for (i, s) in rep.stations.iter().enumerate() {
        assert!(
            close(s.utilization, pin.utilization[i]),
            "{label}: station {i} utilization {:?} vs {:?}",
            s.utilization,
            pin.utilization[i]
        );
        assert!(
            close(s.mean_queue, pin.mean_queue[i]),
            "{label}: station {i} mean queue {:?} vs {:?}",
            s.mean_queue,
            pin.mean_queue[i]
        );
        let busy: f64 = rep.busy_series[i].iter().sum();
        assert!(
            close(busy, pin.busy_sums[i]),
            "{label}: station {i} busy timeline sum {busy:?} vs {:?}",
            pin.busy_sums[i]
        );
    }
}

/// Prints a run's values in `Pin` syntax.
fn dump(label: &str, rep: &SimReport) {
    let sys = &rep.system;
    let list = |v: Vec<f64>| {
        v.iter()
            .map(|x| format!("{x:?}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!(
        "{label}: Pin {{ completions: {}, throughput: {:?}, mean_response: {:?}, \
         p95_response: {:?}, trajectory_hash: {:#018x}, utilization: &[{}], \
         mean_queue: &[{}], busy_sums: &[{}] }}",
        sys.completions,
        sys.throughput,
        sys.mean_response,
        sys.p95_response,
        trajectory_hash(rep),
        list(rep.stations.iter().map(|s| s.utilization).collect()),
        list(rep.stations.iter().map(|s| s.mean_queue).collect()),
        list(rep.busy_series.iter().map(|b| b.iter().sum()).collect()),
    );
}

fn run(stations: Vec<SimStation>, think: Distribution, cfg: SimConfig) -> SimReport {
    let net = SimNetwork::new(stations, think).unwrap();
    Simulation::new(net, cfg).unwrap().run().unwrap()
}

/// Twelve stations in three tiers of (16-core CPU, disk, net-tx, net-rx),
/// with VINS-like demands: the DB disk saturates near 100 interactions/s.
fn vins_shaped() -> SimReport {
    let tiers = [
        ("load", [0.0040, 0.0085, 0.0012, 0.0018]),
        ("app", [0.0120, 0.0022, 0.0015, 0.0015]),
        ("db", [0.0550, 0.0098, 0.0014, 0.0012]),
    ];
    let mut stations = Vec::new();
    for (tier, [cpu, disk, tx, rx]) in tiers {
        stations.push(SimStation::queueing(&format!("{tier}-cpu"), 16, cpu));
        stations.push(SimStation::queueing(&format!("{tier}-disk"), 1, disk));
        stations.push(SimStation::queueing(&format!("{tier}-net-tx"), 1, tx));
        stations.push(SimStation::queueing(&format!("{tier}-net-rx"), 1, rx));
    }
    run(
        stations,
        Distribution::Exponential { mean: 1.0 },
        SimConfig {
            customers: 300,
            horizon: 120.0,
            warmup: 20.0,
            seed: 42,
            stagger: 0.0,
            bucket_width: 1.0,
        },
    )
}

/// Dyadic deterministic times and no stagger: think ends, delay-station
/// completions and queueing completions land on the same instants. The
/// CPU's contention table makes a service time depend on how many
/// customers are present when it starts, so the insertion-order tie-break
/// decides the trajectory: processing tied events last-in-first-out, or
/// either heap's events first, changes every pinned value.
fn deterministic_ties() -> SimReport {
    let det = |value: f64| Distribution::Deterministic { value };
    let table = ContentionModel::Table(vec![1.0, 1.25, 1.5, 1.75, 2.0, 2.25]);
    run(
        vec![
            SimStation::queueing("cpu", 2, 0.5)
                .with_service(det(0.5))
                .with_contention(table),
            SimStation::delay("lan", 0.25).with_service(det(0.25)),
            SimStation::queueing("disk", 1, 0.5).with_service(det(0.5)),
        ],
        det(1.0),
        SimConfig {
            customers: 9,
            horizon: 200.0,
            warmup: 10.0,
            seed: 3,
            stagger: 0.0,
            bucket_width: 0.75,
        },
    )
}

/// A delay station with Erlang service, Grinder-style normal think times
/// and a ramp-up stagger that outlasts the warm-up.
fn delay_erlang_ramp() -> SimReport {
    run(
        vec![
            SimStation::queueing("cpu", 4, 0.02)
                .with_service(Distribution::Erlang { k: 3, mean: 0.02 }),
            SimStation::delay("lan", 0.05).with_service(Distribution::Erlang { k: 2, mean: 0.05 }),
            SimStation::queueing("disk", 1, 0.012),
        ],
        Distribution::NormalClamped {
            mean: 0.8,
            std_dev: 0.3,
        },
        SimConfig {
            customers: 60,
            horizon: 150.0,
            warmup: 2.0,
            seed: 11,
            stagger: 0.05,
            bucket_width: 2.5,
        },
    )
}

/// Queue-length-dependent service: the sampled time depends on the
/// station's population at the instant service starts.
fn contention() -> SimReport {
    run(
        vec![
            SimStation::queueing("lock", 1, 0.01).with_contention(ContentionModel::LinearBeyond {
                threshold: 2,
                slope: 0.2,
                max_factor: 3.0,
            }),
            SimStation::queueing("cpu", 8, 0.03)
                .with_contention(ContentionModel::Table(vec![1.0, 1.05, 1.1, 1.2])),
        ],
        Distribution::Exponential { mean: 0.5 },
        SimConfig {
            customers: 40,
            horizon: 150.0,
            warmup: 15.0,
            seed: 29,
            stagger: 0.0,
            bucket_width: 1.0,
        },
    )
}

/// A 256-server station that keeps about a hundred services in flight,
/// far more than the event list's near-future array holds, in front of a
/// busy single-server disk: most queueing completions take the spill path.
fn wide_station() -> SimReport {
    run(
        vec![
            SimStation::queueing("wide", 256, 0.5),
            SimStation::queueing("disk", 1, 0.004),
        ],
        Distribution::Exponential { mean: 0.5 },
        SimConfig {
            customers: 200,
            horizon: 60.0,
            warmup: 10.0,
            seed: 57,
            stagger: 0.0,
            bucket_width: 1.0,
        },
    )
}

/// The draws no other pin makes: Grinder-style normal think times
/// (`sleep_time_variation`), uniform service, and two stations whose
/// draws take no random word, a zero-width uniform and a zero-mean
/// exponential.
fn uniform_and_free_draws() -> SimReport {
    run(
        vec![
            SimStation::queueing("cpu", 2, 0.02)
                .with_service(Distribution::Uniform { lo: 0.01, hi: 0.03 }),
            SimStation::queueing("fixed", 1, 0.004).with_service(Distribution::Uniform {
                lo: 0.004,
                hi: 0.004,
            }),
            SimStation::queueing("free", 1, 0.0),
            SimStation::queueing("disk", 1, 0.012),
        ],
        Distribution::NormalClamped {
            mean: 1.0,
            std_dev: 0.3,
        },
        SimConfig {
            customers: 50,
            horizon: 150.0,
            warmup: 10.0,
            seed: 73,
            stagger: 0.0,
            bucket_width: 1.0,
        },
    )
}

#[test]
fn vins_shaped_trajectory_is_pinned() {
    assert_pinned(
        "vins_shaped",
        &vins_shaped(),
        &Pin {
            completions: 10219,
            throughput: 102.19,
            mean_response: 1.9433670768527458,
            p95_response: 2.252456261948122,
            trajectory_hash: 0xa867_443e_85bf_f51a,
            utilization: &[
                0.02502681676767472,
                0.8733951529210932,
                0.1221535544349829,
                0.1837690437929979,
                0.07592597006467158,
                0.22181579478891153,
                0.15335566845761445,
                0.15355051582116494,
                0.34569203899526196,
                1.0,
                0.14342063992974818,
                0.12389094393678228,
            ],
            mean_queue: &[
                0.4004290682827955,
                7.416346056177276,
                0.13883415879998748,
                0.22599376288683104,
                1.2148155210347453,
                0.28416682480648564,
                0.18029647253504857,
                0.18094068018434775,
                5.531161694284894,
                182.41868207292438,
                0.16769193073029662,
                0.14218251388518344,
            ],
            busy_sums: &[
                48.92507911126667,
                105.61424084547122,
                14.846513883950843,
                22.313818036169224,
                147.3198897577606,
                26.923967064359555,
                18.569203001015524,
                18.645248901161153,
                671.6326353103344,
                119.91598830438943,
                17.14092187390459,
                14.822348180513801,
            ],
        },
    );
}

#[test]
fn deterministic_tie_trajectory_is_pinned() {
    assert_pinned(
        "deterministic_ties",
        &deterministic_ties(),
        &Pin {
            completions: 381,
            throughput: 2.0052631578947366,
            mean_response: 3.5013123359580054,
            p95_response: 3.5,
            trajectory_hash: 0xd756_4554_f4cb_932c,
            utilization: &[0.6276315789473684, 0.5019736842105263, 1.0],
            mean_queue: &[1.2585526315789475, 0.5019736842105263, 5.239473684210527],
            busy_sums: &[258.5, 100.75, 199.0],
        },
    );
}

#[test]
fn delay_erlang_ramp_trajectory_is_pinned() {
    assert_pinned(
        "delay_erlang_ramp",
        &delay_erlang_ramp(),
        &Pin {
            completions: 9641,
            throughput: 65.14189189189189,
            mean_response: 0.11731468940788829,
            p95_response: 0.22290499540829956,
            trajectory_hash: 0xf94f_3d78_9bd4_1a56,
            utilization: &[0.3259674267764407, 3.277276302909994, 0.7886008433783743],
            mean_queue: &[1.3203926984829297, 3.277276302909994, 3.04716327537357],
            busy_sums: &[194.3988224129661, 488.14131804311216, 117.46751638698503],
        },
    );
}

#[test]
fn contention_trajectory_is_pinned() {
    assert_pinned(
        "contention",
        &contention(),
        &Pin {
            completions: 4526,
            throughput: 33.525925925925925,
            mean_response: 0.7058684912672338,
            p95_response: 1.0326149040098755,
            trajectory_hash: 0x433d_2459_0adb_3771,
            utilization: &[1.0, 0.13306661243000523],
            mean_queue: &[22.602549528226103, 1.0645328994400418],
            busy_sums: &[149.31898417007946, 162.28730827988463],
        },
    );
}

#[test]
fn wide_station_trajectory_is_pinned() {
    assert_pinned(
        "wide_station",
        &wide_station(),
        &Pin {
            completions: 9878,
            throughput: 197.56,
            mean_response: 0.5156293136253777,
            p95_response: 1.4993917130343515,
            trajectory_hash: 0x5ad0_9053_39dc_28af,
            utilization: &[0.3834308981434612, 0.8006620751950817],
            mean_queue: &[98.15830992472607, 3.68182118646116],
            busy_sums: &[5932.610156868527, 48.03690484275708],
        },
    );
}

#[test]
fn uniform_and_free_draw_trajectory_is_pinned() {
    assert_pinned(
        "uniform_and_free_draws",
        &uniform_and_free_draws(),
        &Pin {
            completions: 6625,
            throughput: 47.32142857142857,
            mean_response: 0.05220836919174885,
            p95_response: 0.10903238102897034,
            trajectory_hash: 0x9fb8_8f7c_3ef4_a234,
            utilization: &[
                0.4707669248859254,
                0.18931428571430448,
                0.0,
                0.5601793001685974,
            ],
            mean_queue: &[
                1.0902863584758558,
                0.20089059180130567,
                0.0,
                1.1800933367358166,
            ],
            busy_sums: &[
                141.19828919430512,
                28.412000000002504,
                0.0,
                84.96933294497182,
            ],
        },
    );
}
