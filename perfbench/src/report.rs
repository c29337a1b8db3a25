//! Metric catalogue, correctness tally, summary statistics, host-speed
//! calibration and the result line.

use crate::Args;

/// End-to-end metrics, printed by every `--trace 0` run, in
/// `BENCHMARK.json` order. The unit of work is one plan solve on `ilp-cold`
/// and one tenant-epoch on the fleet lanes.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p95", "ms"),
    ("plan_cost_vs_bound", "ratio"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by every `--trace 1` run, in
/// `BENCHMARK.json` order. A layer a workload never calls reads 0 there.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("lp.node_us", "us"),
    ("lp.nodes", "count"),
    ("lp.iterations_per_node", "count"),
    ("lp.refactorizations_per_node", "count"),
    ("lp.factor_solves_per_node", "count"),
    ("lp.hyper_sparse_rate", "share"),
    ("lp.root_lp_ms", "ms"),
    ("lp.factor_us", "us"),
    ("lp.ftran_us", "us"),
    ("lp.btran_us", "us"),
    ("solvers.build_model_us", "us"),
    ("solvers.warm_start_us", "us"),
    ("solvers.ilp_overhead_share", "share"),
    ("solvers.proven_optimal_share", "share"),
    ("solvers.h1_us", "us"),
    ("solvers.h1_cost_ratio", "ratio"),
    ("solvers.h2_us", "us"),
    ("solvers.h2_cost_ratio", "ratio"),
    ("solvers.h31_us", "us"),
    ("solvers.h31_cost_ratio", "ratio"),
    ("solvers.h32_us", "us"),
    ("solvers.h32_cost_ratio", "ratio"),
    ("solvers.h32jump_us", "us"),
    ("solvers.h32jump_cost_ratio", "ratio"),
    ("core.transfer_eval_ns", "ns"),
    ("core.apply_undo_ns", "ns"),
    ("core.pair_diff_build_us", "us"),
    ("fleet.probe_s", "s"),
    ("fleet.arbitrate_s", "s"),
    ("fleet.solve_s", "s"),
    ("fleet.adopt_s", "s"),
    ("fleet.solver_calls", "count"),
    ("fleet.solver_call_s", "s"),
    ("fleet.init_s", "s"),
    ("fleet.solve_overhead_share", "share"),
    ("fleet.resolves", "count"),
    ("fleet.adoptions", "count"),
    ("fleet.probes", "count"),
    ("fleet.merge_wait_share", "share"),
    ("capacity.arbitrate_us", "us"),
    ("pricing.total_over_ns", "ns"),
    ("pricing.cache_build_us", "us"),
    ("stream.rate_at_ns", "ns"),
    ("obs.trace_overhead_share", "share"),
];

/// Operations attempted and failed. An operation is one solver call (it
/// fails on an error or a failed `certify_plan`), one fleet run, or one
/// correctness or determinism gate.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; `what` describes it when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 16usize.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result line: each lane's own
    /// metric names (solves_per_s, epoch_ms_p95, ...), sample counts and
    /// the per-layer self times.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn catalogue(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    /// Prints the human-readable report and, last, the JSON result line;
    /// returns whether the run is correct. A run that failed an operation
    /// or could not measure every metric of its catalogue is not.
    pub fn print(&self, args: &Args, wall_seconds: f64) -> bool {
        let catalogue = Self::catalogue(args.trace);
        println!(
            "perfbench workload={} seed={} trace={} seconds={} cores={} wall_s={:.3}",
            args.workload,
            args.seed,
            u8::from(args.trace),
            args.seconds,
            cores(),
            wall_seconds
        );
        for line in &self.notes {
            println!("  {line}");
        }
        for failure in &self.tally.failures {
            println!("  FAILED: {failure}");
        }
        let failed_share = if self.tally.attempted == 0 {
            1.0
        } else {
            self.tally.failed as f64 / self.tally.attempted as f64
        };
        println!(
            "  failed_share = {failed_share} ({} of {} operations)",
            self.tally.failed, self.tally.attempted
        );
        let mut fields = Vec::with_capacity(catalogue.len());
        let mut missing = Vec::new();
        for &(name, unit) in catalogue {
            match self.value(name) {
                Some(value) if value.is_finite() => {
                    println!("  {name} = {value} {unit}");
                    fields.push(format!(
                        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                    ));
                }
                _ => missing.push(name),
            }
        }
        if !missing.is_empty() {
            println!("  FAILED: not measured: {}", missing.join(", "));
        }
        let correct = self.correct() && missing.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.attempted.max(1),
            self.tally.failed,
            fields.join(", ")
        );
        correct
    }
}

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Linear-interpolated quantile of unsorted samples (`q` in `[0, 1]`).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// Elementwise median over repeated timings of identical work: every piece
/// of work counts at the median of its (host-calibrated) repeats.
pub fn per_piece_median(repeats: &[Vec<f64>]) -> Vec<f64> {
    let pieces = repeats.first().map_or(0, Vec::len);
    (0..pieces)
        .map(|i| median(&repeats.iter().map(|r| r[i]).collect::<Vec<f64>>()))
        .collect()
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Passes (or rounds) a `--trace 0` run makes: `seconds` over the seconds
/// one pass took on the host the benchmark was tuned on, and at least two,
/// so every run checks that a repeat reproduces the first pass. The count
/// depends on `--seconds` only, never on how fast the program runs, so
/// every commit takes the median of the same number of repeats.
pub fn repeats(seconds: f64, nominal_pass_s: f64) -> usize {
    ((seconds / nominal_pass_s).round() as usize).max(2)
}

/// Elements the host-speed reference sorts (512 KiB of `u64`).
const REFERENCE_LEN: usize = 1 << 16;
/// Seconds one reference sort takes at the host speed the calibrated
/// timings are expressed in (its median on the 2-vCPU host the benchmark
/// was tuned on).
pub const REFERENCE_NOMINAL_S: f64 = 1.7e-3;
/// Work between two reference samples of `HostClock::tick_due`.
const TICK_INTERVAL_S: f64 = 0.05;

/// Host-speed reference. A shared host runs the same work up to half again
/// as slow for seconds to minutes at a time, and follows that with every
/// piece of work, so timings of the program alone spread more between runs
/// than any bound of at most 25% allows. Sorting a fixed array of
/// pseudo-random integers slows down the same way (branchy code over an
/// L2-sized working set, like branch and bound), while no change to the
/// program can make it faster: on the benchmark host its time, sampled
/// around every 50 ms of work, followed the ILP solves with correlation
/// 0.91-0.96 and cut their spread over 2 s windows to a third. So every
/// measured piece of work is divided by the host's slowness while it ran —
/// the mean of the reference samples taken right before and right after
/// it, over `REFERENCE_NOMINAL_S` — which expresses it in seconds at one
/// fixed host speed.
pub struct HostClock {
    reference: Vec<u64>,
    scratch: Vec<u64>,
    last: f64,
    last_at: std::time::Instant,
    samples: Vec<f64>,
}

impl HostClock {
    /// A clock with its first reference sample taken.
    pub fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let reference: Vec<u64> = (0..REFERENCE_LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        let mut clock = HostClock {
            scratch: reference.clone(),
            reference,
            last: 0.0,
            last_at: std::time::Instant::now(),
            samples: Vec::new(),
        };
        clock.last = clock.sample();
        clock
    }

    fn sample(&mut self) -> f64 {
        self.scratch.copy_from_slice(&self.reference);
        let start = std::time::Instant::now();
        self.scratch.sort_unstable();
        std::hint::black_box(&self.scratch);
        let seconds = start.elapsed().as_secs_f64();
        self.last_at = std::time::Instant::now();
        self.samples.push(seconds);
        seconds
    }

    /// Takes a reference sample and returns the host's slowness over the
    /// work done since the previous one (1 = the nominal host speed).
    pub fn tick(&mut self) -> f64 {
        let now = self.sample();
        let slowness = (self.last + now) / 2.0 / REFERENCE_NOMINAL_S;
        self.last = now;
        slowness
    }

    /// Whether `TICK_INTERVAL_S` of work has passed since the last sample.
    pub fn tick_due(&self) -> bool {
        self.last_at.elapsed().as_secs_f64() >= TICK_INTERVAL_S
    }

    /// Median slowness over every sample so far.
    pub fn median_slowness(&self) -> f64 {
        median(&self.samples) / REFERENCE_NOMINAL_S
    }

    /// Reference samples taken so far.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }
}

/// Set-up timings of a `--trace 0` run. Set-ups take milliseconds, so back
/// to back they all fall into one of the host's speed phases; instead one
/// is timed in the middle of each of `SETUP_SAMPLES` equal slices of the
/// measured phase (between pieces of work, outside their timings), so each
/// runs in the same state, right after a piece of work, and `setup_s`, their
/// median, weighs the phases of the whole run. Each is calibrated by its own
/// reference samples (see `HostClock`).
pub struct SetupClock {
    units: usize,
    clock: HostClock,
    samples: Vec<f64>,
}

impl SetupClock {
    /// A clock for a measured phase of `units` pieces of work.
    pub fn new(units: usize) -> Self {
        SetupClock {
            units,
            clock: HostClock::new(),
            samples: Vec::with_capacity(crate::SETUP_SAMPLES),
        }
    }

    /// Before piece `unit` (counted over the whole phase): times one more
    /// set-up with `build` when a sample is due there.
    pub fn before<T>(&mut self, unit: usize, build: impl FnOnce() -> T) {
        let k = self.samples.len();
        if k < crate::SETUP_SAMPLES && 2 * crate::SETUP_SAMPLES * unit >= (2 * k + 1) * self.units {
            self.clock.tick();
            let start = std::time::Instant::now();
            let built = std::hint::black_box(build());
            let seconds = start.elapsed().as_secs_f64();
            drop(built);
            self.samples.push(seconds / self.clock.tick());
        }
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// `setup_s`: the median sample.
    pub fn seconds(&self) -> f64 {
        median(&self.samples)
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Ratio that reads 0 when the denominator is 0 (a layer the workload does
/// not call).
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}
