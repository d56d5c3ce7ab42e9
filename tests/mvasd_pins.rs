//! Pins MVASD's outputs: an FNV-1a hash of every output bit of
//! `MvasdSolver` on the calibrated VINS profile under the eight what-if
//! transforms of the `vins_whatif` benchmark, on the calibrated JPetStore
//! profile (which crosses the quasi-static switch) and on the benchmark's
//! saturating profile.
//!
//! The demand samples are written out below instead of being read off the
//! testbed's curves, which call libm `exp`. The solver itself uses only
//! correctly rounded IEEE-754 operations (`+ − × ÷` and fused
//! multiply-add): the carried recursion is double-double arithmetic, the
//! spline is a Horner step and the quasi-static convolution is exp-free.
//! So the pins hold on any IEEE-754 target, in debug and release alike.
//! `sample_tables_match_the_calibrated_curves` ties the tables to the
//! curves they were read from.

use mvasd_suite::core::profile::{
    DemandAxis, DemandSamples, InterpolationKind, ServiceDemandProfile,
};
use mvasd_suite::core::solver::MvasdSolver;
use mvasd_suite::queueing::mva::{ClosedSolver, MvaSolution};
use mvasd_suite::testbed::apps::{jpetstore, vins, AppModel};

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

/// Every output bit of a solution: per point `n`, X, R and R + Z, then
/// each station's Q, R and U.
fn solution_hash(sol: &MvaSolution) -> u64 {
    let mut h = Fnv::new();
    h.word(sol.points.len() as u64);
    for p in &sol.points {
        h.word(p.n as u64);
        h.float(p.throughput);
        h.float(p.response);
        h.float(p.cycle_time);
        h.word(p.stations.len() as u64);
        for s in &p.stations {
            h.float(s.queue);
            h.float(s.residence);
            h.float(s.utilization);
        }
    }
    h.0
}

/// `vins::model()`'s curves at `vins::STANDARD_LEVELS`, station order.
#[rustfmt::skip]
const VINS_DEMANDS: [[f64; 9]; 12] = [
    [0.0046, 0.004516424785855035, 0.004256448959169237, 0.004109610114431641, 0.004020702676440371, 0.004000702527772475, 0.0040000008089794755, 0.004000000000931561, 0.004000000000008473],
    [0.0102, 0.00999489627399242, 0.009320416469920644, 0.008895931284774738, 0.00859488534275599, 0.008505220897094592, 0.008500015806551775, 0.008500000047855201, 0.00850000000085181],
    [0.00132, 0.0013002324253693525, 0.0012432713928207692, 0.0012156034453054108, 0.0012021116966898747, 0.0012000364246965692, 0.0012000000108373912, 0.0012000000000032243, 0.0012000000000000114],
    [0.00198, 0.0019503486380540289, 0.001864907089231154, 0.0018234051679581163, 0.001803167545034812, 0.0018000546370448539, 0.001800000016256087, 0.0018000000000048366, 0.001800000000000017],
    [0.0144, 0.01406569914342014, 0.013025795836676943, 0.012438440457726564, 0.012082810705761482, 0.012002810111089899, 0.012000003235917902, 0.012000000003726247, 0.01200000000003389],
    [0.00253, 0.0024840336322202693, 0.00234104692754308, 0.0022602855629374028, 0.002211386472042204, 0.0022003863902748614, 0.0022000004449387114, 0.002200000000512359, 0.0022000000000046605],
    [0.0016500000000000002, 0.0016252905317116909, 0.0015540892410259618, 0.0015195043066317637, 0.0015026396208623434, 0.0015000455308707117, 0.001500000013546739, 0.0015000000000040304, 0.0015000000000000143],
    [0.0016500000000000002, 0.0016252905317116909, 0.0015540892410259618, 0.0015195043066317637, 0.0015026396208623434, 0.0015000455308707117, 0.001500000013546739, 0.0015000000000040304, 0.0015000000000000143],
    [0.06875, 0.06728696352274209, 0.06226841918365746, 0.05884217581304436, 0.056100801800817404, 0.05508703358712794, 0.05500054405447628, 0.05500000340093156, 0.055000000100163586],
    [0.01225, 0.011989313500415863, 0.011095100145451692, 0.010484605872142448, 0.009996142866327464, 0.00981550780279734, 0.009800096940615774, 0.009800000605984169, 0.00980000001784733],
    [0.0015400000000000001, 0.001516937829597578, 0.0014504832916242309, 0.0014182040195229795, 0.001402463646138187, 0.001400042495479331, 0.0014000000126436231, 0.0014000000000037617, 0.0014000000000000134],
    [0.00132, 0.0013002324253693525, 0.0012432713928207692, 0.0012156034453054108, 0.0012021116966898747, 0.0012000364246965692, 0.0012000000108373912, 0.0012000000000032243, 0.0012000000000000114],
];

/// `jpetstore::model()`'s curves at `jpetstore::STANDARD_LEVELS`.
#[rustfmt::skip]
const JPETSTORE_DEMANDS: [[f64; 7]; 12] = [
    [0.0069, 0.006650274618277865, 0.006458240778546794, 0.006160355746595608, 0.0060278656504408595, 0.00601383767248952, 0.00600484232396392],
    [0.00345, 0.0033251373091389325, 0.003229120389273397, 0.003080177873297804, 0.0030139328252204297, 0.00300691883624476, 0.00300242116198196],
    [0.0016500000000000002, 0.0015972516511502265, 0.0015609854489610899, 0.0015150388265584207, 0.0015014583446057415, 0.0015005734804840367, 0.001500141418546243],
    [0.0022, 0.002129668868200302, 0.00208131393194812, 0.0020200517687445608, 0.002001944459474322, 0.002000764640645382, 0.0020001885580616576],
    [0.042, 0.040057691475494504, 0.03856409494425285, 0.03624721136241029, 0.035216732836762236, 0.03510762634158515, 0.03503766251971938],
    [0.002875, 0.002770947757615777, 0.002690933657727831, 0.0025668148944148366, 0.0025116106876836913, 0.0025057656968706333, 0.0025020176349849666],
    [0.0022, 0.002129668868200302, 0.00208131393194812, 0.0020200517687445608, 0.002001944459474322, 0.002000764640645382, 0.0020001885580616576],
    [0.0022, 0.002129668868200302, 0.00208131393194812, 0.0020200517687445608, 0.002001944459474322, 0.002000764640645382, 0.0020001885580616576],
    [0.16875000005890675, 0.1593852984679717, 0.15218403074801373, 0.1410136146299851, 0.13749209109078425, 0.14457681836174457, 0.14598495103015055],
    [0.0096, 0.009156043765827316, 0.00881465027297208, 0.008285076882836638, 0.008049538934117082, 0.008024600306648035, 0.008008608575935858],
    [0.00198, 0.0019167019813802718, 0.0018731825387533077, 0.0018180465918701048, 0.0018017500135268899, 0.001800688176580844, 0.0018001697022554917],
    [0.0016500000000000002, 0.0015972516511502265, 0.0015609854489610899, 0.0015150388265584207, 0.0015014583446057415, 0.0015005734804840367, 0.001500141418546243],
];

fn samples(app: &AppModel, levels: &[u64], demands: &[&[f64]]) -> DemandSamples {
    DemandSamples {
        station_names: app.station_names(),
        server_counts: app.server_counts(),
        think_time: app.think_time,
        levels: levels.iter().map(|&l| l as f64).collect(),
        demands: demands.iter().map(|row| row.to_vec()).collect(),
    }
}

fn vins_samples() -> DemandSamples {
    let rows: Vec<&[f64]> = VINS_DEMANDS.iter().map(|r| &r[..]).collect();
    samples(&vins::model(), &vins::STANDARD_LEVELS, &rows)
}

fn jpetstore_samples() -> DemandSamples {
    let rows: Vec<&[f64]> = JPETSTORE_DEMANDS.iter().map(|r| &r[..]).collect();
    samples(&jpetstore::model(), &jpetstore::STANDARD_LEVELS, &rows)
}

/// The `saturating_600` benchmark's model: a 16-core DB CPU whose demand
/// falls with load, and a disk.
fn saturating_samples() -> DemandSamples {
    DemandSamples {
        station_names: vec!["db-cpu16".into(), "disk".into()],
        server_counts: vec![16, 1],
        think_time: 1.0,
        levels: vec![1.0, 750.0, 1500.0],
        demands: vec![vec![0.165, 0.160, 0.158], vec![0.004, 0.004, 0.004]],
    }
}

/// The `vins_whatif` benchmark's eight models: demand scales 0.8–1.2,
/// every multi-server station doubled, and think times 0.5 s and 2 s.
/// Each transform acts on the samples as `ScenarioSweep` applies it.
fn whatif_models(base: &DemandSamples) -> Vec<(String, DemandSamples)> {
    let mut models = Vec::new();
    for s in [0.8, 0.9, 1.0, 1.1, 1.2] {
        let mut m = base.clone();
        for d in m.demands.iter_mut().flatten() {
            *d *= s;
        }
        models.push((format!("vins/scale{s}"), m));
    }
    let mut doubled = base.clone();
    for c in doubled.server_counts.iter_mut().filter(|c| **c > 1) {
        *c *= 2;
    }
    models.push(("vins/cores32".into(), doubled));
    for z in [0.5, 2.0] {
        let mut m = base.clone();
        m.think_time = z;
        models.push((format!("vins/z{z}"), m));
    }
    models
}

fn solve(samples: &DemandSamples, n_max: usize) -> MvaSolution {
    let profile = ServiceDemandProfile::from_samples(
        samples,
        InterpolationKind::CubicNotAKnot,
        DemandAxis::Concurrency,
    )
    .expect("valid samples");
    MvasdSolver::new(profile)
        .solve(n_max)
        .expect("MVASD solves")
}

/// Recorded hash of each profile's solution, in `cases()` order.
const PINS: [(&str, u64); 10] = [
    ("vins/scale0.8", 0x7164_8a19_8e59_35b2),
    ("vins/scale0.9", 0xa4b2_f8b3_503e_f582),
    ("vins/scale1", 0x3003_26c5_9551_33f4),
    ("vins/scale1.1", 0xf805_6218_9eb4_2c8a),
    ("vins/scale1.2", 0x6c1d_fb69_2797_9b53),
    ("vins/cores32", 0x3285_3eef_8cfa_be7a),
    ("vins/z0.5", 0xf79f_c59d_b440_174e),
    ("vins/z2", 0x15d5_c4a2_0db9_d05a),
    ("jpetstore", 0x7e83_ddf6_3cf1_742d),
    ("saturating", 0xa57a_358b_866c_f229),
];

fn cases() -> Vec<(String, DemandSamples, usize)> {
    let mut cases: Vec<(String, DemandSamples, usize)> = whatif_models(&vins_samples())
        .into_iter()
        .map(|(label, s)| (label, s, 1500))
        .collect();
    cases.push(("jpetstore".into(), jpetstore_samples(), 300));
    cases.push(("saturating".into(), saturating_samples(), 600));
    cases
}

#[test]
fn mvasd_outputs_match_the_recorded_pins() {
    let cases = cases();
    assert_eq!(cases.len(), PINS.len());
    let got: Vec<(String, u64)> = cases
        .iter()
        .map(|(label, s, n_max)| (label.clone(), solution_hash(&solve(s, *n_max))))
        .collect();
    // Printed in `PINS` syntax; the harness shows it only on failure.
    for (label, hash) in &got {
        println!("    (\"{label}\", {hash:#018x}),");
    }
    for ((label, hash), (pin_label, pin)) in got.iter().zip(PINS) {
        assert_eq!(label, pin_label);
        assert_eq!(
            *hash, pin,
            "{label}: output hash {hash:#018x}, pinned {pin:#018x}"
        );
    }
}

#[test]
fn sample_tables_match_the_calibrated_curves() {
    for (app, levels, table) in [
        (vins::model(), &vins::STANDARD_LEVELS[..], vins_samples()),
        (
            jpetstore::model(),
            &jpetstore::STANDARD_LEVELS[..],
            jpetstore_samples(),
        ),
    ] {
        assert_eq!(table.demands.len(), app.stations.len());
        for (station, row) in app.stations.iter().zip(&table.demands) {
            assert_eq!(row.len(), levels.len());
            for (&l, &d) in levels.iter().zip(row) {
                let want = station.curve.at(l as f64);
                assert!(
                    (d - want).abs() <= 1e-14 * want,
                    "{} at {l}: table {d} vs curve {want}",
                    app.name
                );
            }
        }
    }
}
