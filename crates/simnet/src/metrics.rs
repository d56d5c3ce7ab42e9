//! Measurement collection: steady-state accumulators (post-warm-up) plus the
//! full-run time series used to reproduce the ramp-up transient of the
//! paper's Fig. 1.
//!
//! Time integrals are kept per station and advanced lazily: the engine
//! calls [`Accumulators::touch`] for a station just before its counts
//! change, so an event costs at most two touches whatever the number of
//! stations. Each station remembers which timeline bucket its last touch
//! fell in and where that bucket ends; an interval that stays inside the
//! bucket is one multiply-add with no division.

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

/// One station's live counts and integrals.
#[derive(Debug, Clone)]
pub(crate) struct StationAcc {
    /// Busy servers right now (customers in service at a delay station).
    pub busy: usize,
    /// Customers at the station right now (queued + in service).
    pub present: usize,
    /// Time up to which this station's integrals are complete.
    last: f64,
    /// Timeline bucket that holds `last`, and that bucket's end.
    bucket: usize,
    bucket_end: f64,
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
}

impl Accumulators {
    pub(crate) fn new(k: usize, warmup: f64, horizon: f64, bucket_width: f64) -> Self {
        let buckets = (horizon / bucket_width).ceil() as usize + 1;
        let station = StationAcc {
            busy: 0,
            present: 0,
            last: 0.0,
            bucket: 0,
            bucket_end: bucket_width,
            busy_time: 0.0,
            queue_time: 0.0,
            visits: 0,
            visit_time_sum: 0.0,
        };
        Self {
            warmup,
            horizon,
            stations: vec![station; k],
            completions: 0,
            response_sum: 0.0,
            samples: Vec::new(),
            bucket_width,
            bucket_counts: vec![0; buckets],
            bucket_response: vec![0.0; buckets],
            bucket_busy: vec![vec![0.0; buckets]; k],
        }
    }

    /// Brings station `k`'s integrals up to `now` (clipped at the horizon)
    /// under its current counts. Call it before changing those counts.
    pub(crate) fn touch(&mut self, k: usize, now: f64) {
        let now = now.min(self.horizon);
        let s = &mut self.stations[k];
        let last = s.last;
        if now <= last {
            return;
        }
        s.last = now;
        let lo = last.max(self.warmup);
        if now > lo {
            let dt = now - lo;
            s.busy_time += dt * s.busy as f64;
            s.queue_time += dt * s.present as f64;
        }
        // Whole-run busy timeline (includes warm-up): split the interval
        // across the buckets it spans.
        let row = &mut self.bucket_busy[k];
        let busy = s.busy as f64;
        if now <= s.bucket_end {
            if s.busy > 0 {
                row[s.bucket] += (now - last) * busy;
            }
            return;
        }
        let w = self.bucket_width;
        let b = ((now / w) as usize).clamp(s.bucket, row.len() - 1);
        let b_start = b as f64 * w;
        if s.busy > 0 {
            row[s.bucket] += (s.bucket_end - last) * busy;
            for full in row.iter_mut().take(b).skip(s.bucket + 1) {
                *full += w * busy;
            }
            row[b] += (now - b_start.max(s.bucket_end)) * busy;
        }
        s.bucket = b;
        s.bucket_end = b_start + w;
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

    /// Records a completed station visit with sojourn `w` at time `t`.
    pub(crate) fn record_visit(&mut self, k: usize, t: f64, w: f64) {
        if t >= self.warmup && t <= self.horizon {
            let s = &mut self.stations[k];
            s.visits += 1;
            s.visit_time_sum += w;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touch_respects_warmup_horizon_and_buckets() {
        let mut a = Accumulators::new(2, 10.0, 100.0, 2.5);
        a.stations[0].busy = 1;
        a.stations[0].present = 2;
        a.touch(0, 1.0);
        a.touch(0, 2.0); // same bucket: the cached end, no split
        a.touch(0, 6.0); // crosses two boundaries
        assert_eq!(a.stations[0].busy_time, 0.0); // all inside warm-up
        a.stations[0].busy = 2;
        a.touch(0, 20.0); // 10 post-warm-up seconds
        assert!((a.stations[0].busy_time - 20.0).abs() < 1e-12);
        assert!((a.stations[0].queue_time - 20.0).abs() < 1e-12);
        a.touch(0, 200.0); // clipped at horizon: 80 more seconds
        assert!((a.stations[0].busy_time - 180.0).abs() < 1e-12);
        a.touch(1, 50.0); // idle station: nothing recorded

        // The timeline covers the whole run, warm-up included.
        let row = &a.bucket_busy[0];
        let want = [2.5, 2.5, 1.0 + 3.0, 5.0, 5.0, 5.0, 5.0, 5.0];
        for (b, w) in want.iter().enumerate() {
            assert!((row[b] - w).abs() < 1e-12, "bucket {b}: {} vs {w}", row[b]);
        }
        assert!((row.iter().sum::<f64>() - 194.0).abs() < 1e-12);
        assert!(a.bucket_busy[1].iter().all(|&b| b == 0.0));
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
        let mut a = Accumulators::new(2, 0.0, 10.0, 1.0);
        a.record_visit(1, 5.0, 0.05);
        a.record_visit(1, 20.0, 0.05); // past horizon: ignored
        assert_eq!(a.stations[1].visits, 1);
        assert_eq!(a.stations[0].visits, 0);
    }
}
