//! Measurement collection: steady-state accumulators (post-warm-up) plus the
//! full-run time series used to reproduce the ramp-up transient of the
//! paper's Fig. 1.
//!
//! Time integrals are summed per visit, not per event. When a visit ends,
//! [`Accumulators::record_visit`] adds its post-warm-up sojourn to the
//! station's population integral, its post-warm-up service span to the
//! busy-server integral, and its whole service span to the busy timeline;
//! at the horizon, [`Accumulators::close_open_visit`] adds the part of each
//! unfinished visit up to the horizon. By Little's law these are the same
//! integrals as population and busy servers integrated over time: each
//! customer present (or in service) contributes one unit for as long as it
//! stays, so only the order of summation differs.

/// Steady-state statistics of one station.
#[derive(Debug, Clone, PartialEq)]
pub struct StationStats {
    /// Station label.
    pub name: String,
    /// Per-server utilization: busy server-time / (elapsed · servers).
    /// For delay stations: mean number in service.
    pub utilization: f64,
    /// Completions per second at the station.
    pub throughput: f64,
    /// Time-averaged number of customers at the station (queued + served).
    pub mean_queue: f64,
    /// Mean time per visit (wait + service).
    pub mean_visit_time: f64,
}

/// Steady-state system statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemStats {
    /// Completed interactions per second.
    pub throughput: f64,
    /// Mean end-to-end interaction response time (excluding think).
    pub mean_response: f64,
    /// 95th percentile of interaction response times.
    pub p95_response: f64,
    /// Number of completed interactions measured.
    pub completions: u64,
}

/// One bucket of the full-run time series (`Fig. 1`-style output; includes
/// the warm-up transient).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeSeriesBucket {
    /// Bucket start time (seconds since simulation start).
    pub start: f64,
    /// Interactions completed per second within the bucket.
    pub tps: f64,
    /// Mean response time of interactions completed within the bucket
    /// (0 when none completed).
    pub mean_response: f64,
}

/// Full report of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Wall-clock horizon simulated.
    pub horizon: f64,
    /// Warm-up prefix excluded from steady-state statistics.
    pub warmup: f64,
    /// System-level steady-state statistics.
    pub system: SystemStats,
    /// Per-station steady-state statistics (network order).
    pub stations: Vec<StationStats>,
    /// Whole-run completion time series.
    pub time_series: Vec<TimeSeriesBucket>,
    /// Whole-run per-station busy server-time per time-series bucket
    /// (`busy_series[k][b]`, in server-seconds) — the raw material of a
    /// vmstat/iostat-style sampled utilization timeline.
    pub busy_series: Vec<Vec<f64>>,
    /// Width of the time-series buckets (seconds).
    pub bucket_width: f64,
    /// Per-station server counts (`None` = delay station), needed to
    /// normalize the busy series into utilizations.
    pub station_servers: Vec<Option<usize>>,
    /// Raw post-warm-up response-time samples (for batch-means CIs).
    pub response_samples: Vec<f64>,
}

impl SimReport {
    /// Utilization of station `k`.
    pub fn utilization(&self, k: usize) -> f64 {
        self.stations[k].utilization
    }

    /// Batch-means 95 % half-width of the mean response estimate, if enough
    /// samples were collected.
    pub fn response_ci(&self, batches: usize) -> Option<mvasd_numerics::stats::BatchMeansEstimate> {
        let est = mvasd_numerics::stats::batch_means(&self.response_samples, batches).ok()?;
        if mvasd_obsv::enabled() && est.mean > 0.0 {
            // DES health floor: relative CI half-width of the response
            // estimate. Wide intervals mean the run is too short to trust.
            mvasd_obsv::gauge("health.simnet.ci_rel_width", est.half_width / est.mean);
        }
        Some(est)
    }

    /// vmstat/iostat-style sampled utilization timeline of station `k`:
    /// one per-server utilization value per time-series bucket (including
    /// the warm-up transient). Delay stations report mean jobs in service.
    pub fn utilization_timeline(&self, k: usize) -> Vec<f64> {
        let denom = self.bucket_width * self.station_servers[k].map_or(1.0, |c| c as f64);
        self.busy_series[k].iter().map(|b| b / denom).collect()
    }
}

/// One station's post-warm-up integrals and counts.
#[derive(Debug, Clone, Default)]
pub(crate) struct StationAcc {
    /// Integral of busy servers over post-warm-up time.
    pub busy_time: f64,
    /// Integral of station population over post-warm-up time.
    pub queue_time: f64,
    /// Post-warm-up visit completions.
    pub visits: u64,
    /// Sum of per-visit sojourn (wait+service) post-warm-up.
    pub visit_time_sum: f64,
}

/// Internal accumulator used by the engine.
#[derive(Debug)]
pub(crate) struct Accumulators {
    pub warmup: f64,
    pub horizon: f64,
    pub stations: Vec<StationAcc>,
    /// Post-warm-up interaction completions.
    pub completions: u64,
    /// Sum of interaction response times post-warm-up.
    pub response_sum: f64,
    /// Response samples post-warm-up.
    pub samples: Vec<f64>,
    /// Whole-run time-series buckets.
    pub bucket_width: f64,
    pub bucket_counts: Vec<u64>,
    pub bucket_response: Vec<f64>,
    /// Per-station busy server-seconds per bucket (whole run).
    pub bucket_busy: Vec<Vec<f64>>,
    /// The bucket that holds the latest span end, as `(index, start,
    /// end)`. Visits end in time order, so most service spans fall inside
    /// it and need no division.
    recent_bucket: (usize, f64, f64),
}

impl Accumulators {
    /// Number of timeline buckets for a run; the last one holds the
    /// horizon. Callers bound it first (see `Simulation::new`).
    pub(crate) fn bucket_count(horizon: f64, bucket_width: f64) -> f64 {
        (horizon / bucket_width).ceil() + 1.0
    }

    pub(crate) fn new(k: usize, warmup: f64, horizon: f64, bucket_width: f64) -> Self {
        let buckets = Self::bucket_count(horizon, bucket_width) as usize;
        Self {
            warmup,
            horizon,
            stations: vec![StationAcc::default(); k],
            completions: 0,
            response_sum: 0.0,
            samples: Vec::new(),
            bucket_width,
            bucket_counts: vec![0; buckets],
            bucket_response: vec![0.0; buckets],
            bucket_busy: vec![vec![0.0; buckets]; k],
            recent_bucket: (0, 0.0, bucket_width),
        }
    }

    /// Records a completed interaction at time `t` with response `r`.
    pub(crate) fn record_completion(&mut self, t: f64, r: f64) {
        if t >= self.warmup && t <= self.horizon {
            self.completions += 1;
            self.response_sum += r;
            self.samples.push(r);
        }
        let b = (t / self.bucket_width) as usize;
        if b < self.bucket_counts.len() {
            self.bucket_counts[b] += 1;
            self.bucket_response[b] += r;
        }
    }

    /// Records a visit to station `k` that arrived at `arrival`, started
    /// service at `service_start` and completed at `t`: its sojourn and
    /// its time integrals. A visit that ends past the horizon is not
    /// counted, and its integrals stop at the horizon.
    pub(crate) fn record_visit(&mut self, k: usize, arrival: f64, service_start: f64, t: f64) {
        if t >= self.warmup && t <= self.horizon {
            let s = &mut self.stations[k];
            s.visits += 1;
            s.visit_time_sum += t - arrival;
        }
        self.add_spans(k, arrival, service_start, t.min(self.horizon));
    }

    /// Adds the part up to the horizon of a visit still open there;
    /// `service_start` is `+∞` for a customer still queued.
    pub(crate) fn close_open_visit(&mut self, k: usize, arrival: f64, service_start: f64) {
        self.add_spans(k, arrival, service_start, self.horizon);
    }

    /// Adds the sojourn `[arrival, end]` and the service span
    /// `[service_start, end]` of one visit to station `k`'s integrals;
    /// either is empty if it starts after `end`.
    fn add_spans(&mut self, k: usize, arrival: f64, service_start: f64, end: f64) {
        let warmup = self.warmup;
        let s = &mut self.stations[k];
        let from = arrival.max(warmup);
        if end > from {
            s.queue_time += end - from;
            let from = service_start.max(warmup);
            if end > from {
                s.busy_time += end - from;
            }
        }
        if service_start < end {
            self.add_busy_span(k, service_start, end);
        }
    }

    /// Spreads one busy server over `[from, to]` across the timeline
    /// buckets it spans (warm-up included).
    fn add_busy_span(&mut self, k: usize, from: f64, to: f64) {
        let w = self.bucket_width;
        let row = &mut self.bucket_busy[k];
        let (mut b1, mut start, mut end) = self.recent_bucket;
        if !(start <= to && to < end) {
            b1 = ((to / w) as usize).min(row.len() - 1);
            start = b1 as f64 * w;
            end = start + w;
            self.recent_bucket = (b1, start, end);
        }
        if from >= start {
            row[b1] += to - from;
            return;
        }
        // `start > 0` here, so `b1 >= 1`.
        let b0 = ((from / w) as usize).min(b1 - 1);
        row[b0] += (b0 + 1) as f64 * w - from;
        for full in &mut row[b0 + 1..b1] {
            *full += w;
        }
        row[b1] += to - start;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(got: f64, want: f64) -> bool {
        (got - want).abs() < 1e-12
    }

    #[test]
    fn visits_add_clipped_integrals_and_a_whole_run_timeline() {
        // Warm-up 10, horizon 100, buckets of 2.5 (41 of them).
        let mut a = Accumulators::new(3, 10.0, 100.0, 2.5);
        // Entirely inside the warm-up: timeline only, across three buckets.
        a.record_visit(0, 1.0, 2.0, 6.0);
        assert_eq!(a.stations[0].queue_time, 0.0);
        assert_eq!(a.stations[0].busy_time, 0.0);
        assert_eq!(a.stations[0].visits, 0);
        // Arrives and starts in the warm-up, ends after it: clipped at 10.
        a.record_visit(0, 5.0, 7.0, 11.0);
        assert!(close(a.stations[0].queue_time, 1.0));
        assert!(close(a.stations[0].busy_time, 1.0));
        // Waits across the warm-up end, then serves across four buckets.
        a.record_visit(0, 8.0, 12.0, 20.0);
        assert!(close(a.stations[0].queue_time, 1.0 + 10.0));
        assert!(close(a.stations[0].busy_time, 1.0 + 8.0));
        assert_eq!(a.stations[0].visits, 2);
        assert!(close(a.stations[0].visit_time_sum, 6.0 + 12.0));
        // Still in service at the horizon: closed there, not counted.
        a.close_open_visit(0, 90.0, 95.0);
        assert!(close(a.stations[0].queue_time, 11.0 + 10.0));
        assert!(close(a.stations[0].busy_time, 9.0 + 5.0));
        assert_eq!(a.stations[0].visits, 2);
        // Still queued at the horizon: population only.
        a.close_open_visit(1, 99.0, f64::INFINITY);
        assert!(close(a.stations[1].queue_time, 1.0));
        assert_eq!(a.stations[1].busy_time, 0.0);
        assert!(a.bucket_busy[1].iter().all(|&b| b == 0.0));
        // Station 2 stays idle.
        assert_eq!(a.stations[2].queue_time, 0.0);
        assert!(a.bucket_busy[2].iter().all(|&b| b == 0.0));

        // The timeline covers the whole run, warm-up included.
        let mut want = [0.0; 41];
        for (b, v) in [
            (0, 0.5), // [2, 6]
            (1, 2.5),
            (2, 1.0 + 0.5), // [7, 11]
            (3, 2.5),
            (4, 1.0 + 0.5), // [12, 20]
            (5, 2.5),
            (6, 2.5),
            (7, 2.5),
            (38, 2.5), // [95, 100]
            (39, 2.5),
        ] {
            want[b] = v;
        }
        for (b, w) in want.iter().enumerate() {
            let got = a.bucket_busy[0][b];
            assert!(close(got, *w), "bucket {b}: {got} vs {w}");
        }
    }

    #[test]
    fn completions_filtered_but_buckets_cover_whole_run() {
        let mut a = Accumulators::new(1, 10.0, 100.0, 1.0);
        a.record_completion(5.0, 0.2); // warm-up: bucket only
        a.record_completion(50.0, 0.3); // counted everywhere
        assert_eq!(a.completions, 1);
        assert_eq!(a.bucket_counts[5], 1);
        assert_eq!(a.bucket_counts[50], 1);
        assert!((a.response_sum - 0.3).abs() < 1e-12);
    }

    #[test]
    fn visit_recording() {
        let mut a = Accumulators::new(2, 2.0, 10.0, 1.0);
        a.record_visit(1, 4.95, 4.95, 5.0);
        a.record_visit(1, 0.95, 0.95, 1.0); // warm-up: not counted
        a.record_visit(1, 19.95, 19.95, 20.0); // past horizon: ignored
        assert_eq!(a.stations[1].visits, 1);
        assert_eq!(a.stations[0].visits, 0);
        assert!((a.stations[1].queue_time - 0.05).abs() < 1e-12);
        assert!((a.bucket_busy[1].iter().sum::<f64>() - 0.1).abs() < 1e-12);
        // Ends past the horizon: not counted, integrals stop there.
        a.record_visit(0, 9.0, 9.5, 12.0);
        assert_eq!(a.stations[0].visits, 0);
        assert!((a.stations[0].queue_time - 1.0).abs() < 1e-12);
        assert!((a.stations[0].busy_time - 0.5).abs() < 1e-12);
        assert!((a.bucket_busy[0].iter().sum::<f64>() - 0.5).abs() < 1e-12);
    }
}
