//! The fleet-serving workloads: one `FleetController` with
//! `WORKER_THREADS` workers serving seeded tenants epoch by epoch.
//!
//! * `fleet-failure`: failure-coupled diurnal+spike fleets (finite quotas,
//!   MTBF outages) under `run_with_capacity` with the failure sweep's
//!   node-limited ILP and a per-epoch node budget. Re-solves through `lp`
//!   dominate throughput and the tail; capacity arbitration sets the
//!   median epoch.
//! * `fleet-probe`: fleets in the plateau-cycling scaling-fleet shape with
//!   a prohibitive switching cost under `run`, with traces long enough
//!   that the epoch loop outweighs the initial solve fan-out. Every tenant
//!   probes every epoch and none re-solves: the probe pass, `pricing`
//!   horizon queries and `stream` trace advancement, with `lp` only in the
//!   initial solves.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use rental_capacity::CapacityConfig;
use rental_core::{Instance, Throughput};
use rental_experiments::failure_sweep_solver;
use rental_fleet::{
    failure_coupled_fleet, initial_target, scaling_instance_config, FleetController, FleetPolicy,
    FleetReport, TenantSpec,
};
use rental_obs::trace::SpanRecord;
use rental_obs::{EventKind, Recorder, Stage, TelemetrySink, TraceSummary, TraceTree};
use rental_simgen::InstanceGenerator;
use rental_solvers::exact::IlpSolver;
use rental_solvers::{
    certify_plan, CapacitySolver, MinCostSolver, SolveBudget, SolveError, SolveResult,
    SolverOutcome, SweepPrior, WarmStartSolver,
};
use rental_stream::{TraceSegment, WorkloadTrace};

use crate::layers::{self, Case};
use crate::report::{
    median, peak_rss_mb, per_piece_median, quantile, ratio, repeats, HostClock, Outcome,
    SetupClock, Tally,
};
use crate::solve::table3_gate;
use crate::spans::{self, Spans};
use crate::{mix, Args, WORKER_THREADS};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    Failure,
    Probe,
}

/// `fleet-failure`: tenants, mean time between failures and repair time
/// (hours) of the failure-coupled scenario.
const FAILURE_TENANTS: usize = 32;
const FAILURE_MTBF: f64 = 96.0;
const FAILURE_REPAIR: f64 = 4.0;
/// Independent failure-coupled fleets per seed: many small fleets average
/// over more draws of quotas and outages than a few large ones.
const FAILURE_FLEETS: usize = 192;
/// Per-epoch node budget shared by each fleet's re-solve batch.
const FAILURE_EPOCH_NODES: usize = 2_000;
/// `fleet-probe`: fleets per seed, tenants per fleet and one-hour epochs,
/// enough epochs that the epoch loop takes about nine tenths of a run and
/// the initial solve fan-out the rest.
const PROBE_FLEETS: usize = 8;
const PROBE_TENANTS: usize = 128;
const PROBE_EPOCHS: usize = 1_920;
/// Distinct applications the probe fleet's tenants cycle over.
const PROBE_INSTANCES: usize = 32;
/// Tenants whose inputs the traced run replays per layer.
const REPLAY_TENANTS: usize = 40;

impl Lane {
    /// Seconds one round over every fleet took on the 2-vCPU host the
    /// benchmark was tuned on; `--seconds 30` makes 2 rounds of
    /// `fleet-failure` and 25 of `fleet-probe`.
    fn nominal_round_s(self) -> f64 {
        match self {
            Lane::Failure => 15.0,
            Lane::Probe => 1.2,
        }
    }
}

/// One fleet: its tenants, its capacity coupling (if any) and the policy
/// its controller serves it under.
struct Fleet {
    tenants: Vec<TenantSpec>,
    capacity: Option<CapacityConfig>,
    policy: FleetPolicy,
}

/// The scaling-fleet shape over `PROBE_EPOCHS` epochs: tenants cycle over
/// `PROBE_INSTANCES` tiny applications, and each tenant's demand cycles
/// over three plateaus (base, 1.5×, 2×) one epoch each, so every epoch
/// clears the shift threshold and every tenant probes.
fn probe_tenants(seed: u64) -> Vec<TenantSpec> {
    let instances: Vec<Instance> = (0..PROBE_INSTANCES)
        .map(|k| {
            InstanceGenerator::new(scaling_instance_config(), seed ^ (k as u64 + 1))
                .generate_instance()
        })
        .collect();
    (0..PROBE_TENANTS)
        .map(|i| {
            let base = 40.0 + 40.0 * (mix(seed, i as u64) >> 11) as f64 / (1u64 << 53) as f64;
            let plateaus = [base, base * 1.5, base * 2.0];
            let segments = (0..PROBE_EPOCHS)
                .map(|h| TraceSegment {
                    duration: 1.0,
                    rate: plateaus[h % plateaus.len()],
                })
                .collect();
            TenantSpec::new(
                format!("probe-{i}"),
                instances[i % instances.len()].clone(),
                WorkloadTrace::new(segments),
            )
        })
        .collect()
}

/// The lane's fleets, each from its own sub-seed. Several independent
/// fleets per seed average over more draws of tenants, quotas and outages,
/// and give the timing many short runs to take the median repeat of.
fn generate(lane: Lane, seed: u64) -> Vec<Fleet> {
    let with_workers = |policy: FleetPolicy| FleetPolicy {
        threads: Some(WORKER_THREADS),
        ..policy
    };
    match lane {
        Lane::Failure => (0..FAILURE_FLEETS as u64)
            .map(|k| {
                let (scenario, config) = failure_coupled_fleet(
                    FAILURE_TENANTS,
                    mix(seed, k),
                    FAILURE_MTBF,
                    FAILURE_REPAIR,
                );
                Fleet {
                    tenants: scenario.tenants,
                    capacity: Some(config),
                    policy: with_workers(FleetPolicy {
                        epoch_budget: Some(SolveBudget::with_node_cap(FAILURE_EPOCH_NODES)),
                        ..scenario.policy
                    }),
                }
            })
            .collect(),
        Lane::Probe => (0..PROBE_FLEETS as u64)
            .map(|k| Fleet {
                tenants: probe_tenants(mix(seed, k)),
                capacity: None,
                policy: with_workers(FleetPolicy {
                    epoch: 1.0,
                    // Prohibitive: adoption hysteresis always keeps the
                    // current plan, so the loop never re-solves.
                    switching_cost: 1e12,
                    ..FleetPolicy::default()
                }),
            })
            .collect(),
    }
}

impl Fleet {
    fn serve(&self, solver: &CheckedSolver, telemetry: Option<Arc<EpochClock>>) -> RunResult {
        let controller = FleetController::new(self.policy);
        let controller = match telemetry {
            Some(sink) => controller.with_telemetry(sink),
            None => controller,
        };
        solver.reset();
        let start = Instant::now();
        let report = match &self.capacity {
            Some(config) => controller.run_with_capacity(solver, &self.tenants, config),
            None => controller.run(solver, &self.tenants),
        };
        let end = Instant::now();
        RunResult {
            report,
            start,
            end,
            calls: solver.take_calls(),
        }
    }

    /// Σ over tenants and epochs of the epoch's peak demand times the
    /// fractional lower bound per unit of target, times the epoch length.
    fn cost_bound(&self) -> f64 {
        let epoch = self.policy.epoch;
        self.tenants
            .iter()
            .map(|t| {
                let unit = layers::min_unit_cost(&t.instance);
                t.trace.epoch_peaks(epoch).iter().sum::<f64>() * unit * epoch
            })
            .sum()
    }
}

/// One `run` / `run_with_capacity` call.
struct RunResult {
    report: SolveResult<FleetReport>,
    start: Instant,
    end: Instant,
    calls: Vec<Call>,
}

impl RunResult {
    fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// One solver call the controller made.
#[derive(Debug, Clone, Copy)]
struct Call {
    start: Instant,
    end: Instant,
    nodes: usize,
    iterations: usize,
    proven: bool,
}

/// The solver handed to the controller: the ILP, with every returned plan
/// certified (under the caps it was solved for) and every call logged.
struct CheckedSolver {
    inner: IlpSolver,
    calls: Mutex<Vec<Call>>,
    tally: Mutex<Tally>,
}

impl CheckedSolver {
    fn new(inner: IlpSolver) -> Self {
        CheckedSolver {
            inner,
            calls: Mutex::new(Vec::new()),
            tally: Mutex::new(Tally::default()),
        }
    }

    fn reset(&self) {
        self.calls.lock().expect("call log poisoned").clear();
    }

    fn take_calls(&self) -> Vec<Call> {
        std::mem::take(&mut *self.calls.lock().expect("call log poisoned"))
    }

    fn take_tally(&self) -> Tally {
        std::mem::take(&mut *self.tally.lock().expect("tally poisoned"))
    }

    fn observe(
        &self,
        instance: &Instance,
        target: Throughput,
        caps: Option<&[u64]>,
        start: Instant,
        result: SolveResult<SolverOutcome>,
    ) -> SolveResult<SolverOutcome> {
        let end = Instant::now();
        let verdict = match &result {
            Ok(outcome) if !outcome.solution.split.covers(target) => {
                Err("plan does not serve its target".to_string())
            }
            Ok(outcome) => {
                certify_plan(instance, &outcome.solution, caps).map_err(|e| e.to_string())
            }
            // Caps the quota cannot carry are a conclusive answer the
            // controller handles with its degraded fallback.
            Err(SolveError::NoSolutionFound { .. }) if caps.is_some() => Ok(()),
            Err(SolveError::BudgetExhausted { .. }) => Ok(()),
            Err(e) => Err(e.to_string()),
        };
        self.tally
            .lock()
            .expect("tally poisoned")
            .check(verdict.is_ok(), || {
                format!(
                    "fleet solve at target {target}: {}",
                    verdict.as_ref().err().map_or("", String::as_str)
                )
            });
        let call = match &result {
            Ok(o) => Call {
                start,
                end,
                nodes: o.nodes.unwrap_or(0),
                iterations: o.lp_iterations.unwrap_or(0),
                proven: o.proven_optimal,
            },
            Err(_) => Call {
                start,
                end,
                nodes: 0,
                iterations: 0,
                proven: false,
            },
        };
        self.calls.lock().expect("call log poisoned").push(call);
        result
    }
}

impl MinCostSolver for CheckedSolver {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn solve(&self, instance: &Instance, target: Throughput) -> SolveResult<SolverOutcome> {
        let start = Instant::now();
        let result = self.inner.solve(instance, target);
        self.observe(instance, target, None, start, result)
    }
}

impl WarmStartSolver for CheckedSolver {
    fn solve_with_prior(
        &self,
        instance: &Instance,
        target: Throughput,
        prior: Option<&SweepPrior>,
    ) -> SolveResult<SolverOutcome> {
        let start = Instant::now();
        let result = self.inner.solve_with_prior(instance, target, prior);
        self.observe(instance, target, None, start, result)
    }

    fn solve_with_prior_budgeted(
        &self,
        instance: &Instance,
        target: Throughput,
        prior: Option<&SweepPrior>,
        budget: &SolveBudget,
    ) -> SolveResult<SolverOutcome> {
        let start = Instant::now();
        let result = self
            .inner
            .solve_with_prior_budgeted(instance, target, prior, budget);
        self.observe(instance, target, None, start, result)
    }
}

impl CapacitySolver for CheckedSolver {
    fn solve_with_caps(
        &self,
        instance: &Instance,
        target: Throughput,
        caps: &[u64],
        prior: Option<&SweepPrior>,
    ) -> SolveResult<SolverOutcome> {
        let start = Instant::now();
        let result = self.inner.solve_with_caps(instance, target, caps, prior);
        self.observe(instance, target, Some(caps), start, result)
    }

    fn solve_with_caps_budgeted(
        &self,
        instance: &Instance,
        target: Throughput,
        caps: &[u64],
        prior: Option<&SweepPrior>,
        budget: &SolveBudget,
    ) -> SolveResult<SolverOutcome> {
        let start = Instant::now();
        let result = self
            .inner
            .solve_with_caps_budgeted(instance, target, caps, prior, budget);
        self.observe(instance, target, Some(caps), start, result)
    }
}

/// Forwards the controller's telemetry to a `Recorder` and notes when each
/// epoch starts (the controller counts `fleet.epochs` first thing in every
/// epoch), which splits the run into init and per-epoch spans. It also
/// keeps every epoch's trace tree: the `Recorder` retains only the newest
/// few hundred, fewer than one traced round emits.
struct EpochClock {
    recorder: Arc<Recorder>,
    starts: Mutex<Vec<Instant>>,
    trees: Mutex<Vec<TraceTree>>,
}

impl EpochClock {
    fn new(recorder: Arc<Recorder>) -> Self {
        EpochClock {
            recorder,
            starts: Mutex::new(Vec::new()),
            trees: Mutex::new(Vec::new()),
        }
    }
}

impl TelemetrySink for EpochClock {
    fn enabled(&self) -> bool {
        self.recorder.enabled()
    }

    fn counter(&self, name: &'static str, delta: u64) {
        if name == "fleet.epochs" {
            self.starts
                .lock()
                .expect("epoch clock poisoned")
                .push(Instant::now());
        }
        self.recorder.counter(name, delta);
    }

    fn gauge(&self, name: &'static str, value: f64) {
        self.recorder.gauge(name, value);
    }

    fn observe(&self, name: &'static str, value: u64) {
        self.recorder.observe(name, value);
    }

    fn span(&self, name: &'static str, seconds: f64) {
        self.recorder.span(name, seconds);
    }

    fn event(
        &self,
        kind: EventKind,
        epoch: usize,
        tenant: Option<usize>,
        value: f64,
        detail: &str,
    ) {
        self.recorder.event(kind, epoch, tenant, value, detail);
    }

    fn trace_span(
        &self,
        trace_id: u64,
        span_id: u32,
        parent: Option<u32>,
        name: &'static str,
        seconds: f64,
    ) {
        self.recorder
            .trace_span(trace_id, span_id, parent, name, seconds);
        // A tree's spans arrive together, root first.
        let mut trees = self.trees.lock().expect("epoch clock poisoned");
        if parent.is_none() || trees.last().is_none_or(|t| t.trace_id != trace_id) {
            trees.push(TraceTree::new(trace_id));
        }
        let tree = trees.last_mut().expect("a tree was just started");
        tree.insert(SpanRecord {
            id: span_id,
            parent,
            name,
            seconds,
        });
    }
}

/// What must repeat exactly between runs: the report modulo its timing
/// fields, and the number of solver calls.
struct Decisions {
    report: FleetReport,
    solver_calls: usize,
}

/// Counts one fleet run and the determinism gate against the first run.
fn check_run(run: &RunResult, first: &mut Option<Decisions>, what: &str, tally: &mut Tally) {
    tally.check(run.report.is_ok(), || {
        format!(
            "{what}: {}",
            run.report
                .as_ref()
                .err()
                .map_or(String::new(), |e| e.to_string())
        )
    });
    let Ok(report) = &run.report else {
        return;
    };
    match first {
        None => {
            *first = Some(Decisions {
                report: report.clone(),
                solver_calls: run.calls.len(),
            })
        }
        Some(first) => tally.check(
            report.matches_modulo_timing(&first.report) && run.calls.len() == first.solver_calls,
            || {
                format!(
                    "{what} differs from the first run: total_cost {} vs {}, resolves {} vs {}, \
                     adoptions {} vs {}, solver calls {} vs {}",
                    report.total_cost(),
                    first.report.total_cost(),
                    report.resolved_tenant_epochs(),
                    first.report.resolved_tenant_epochs(),
                    report.adoptions.iter().filter(|a| a.adopted).count(),
                    first.report.adoptions.iter().filter(|a| a.adopted).count(),
                    run.calls.len(),
                    first.solver_calls
                )
            },
        ),
    }
}

fn adoptions(report: &FleetReport) -> usize {
    report.tenants.iter().map(|t| t.adoptions).sum()
}

pub fn run(lane: Lane, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut tally = Tally::default();
    table3_gate(&mut tally);

    let fleets = generate(lane, args.seed);
    let solver = CheckedSolver::new(failure_sweep_solver());
    out.note(format!(
        "inputs: fleets={} tenants_per_fleet={} coupled={} worker_threads={WORKER_THREADS} \
         (closed loop, one controller)",
        fleets.len(),
        fleets[0].tenants.len(),
        fleets[0].capacity.is_some()
    ));
    if args.trace {
        traced(args, &fleets, &solver, &mut tally, &mut out);
    } else {
        measured(lane, args, &fleets, &solver, &mut tally, &mut out);
    }
    tally.merge(solver.take_tally());
    out.tally.merge(tally);
    out
}

fn measured(
    lane: Lane,
    args: &Args,
    fleets: &[Fleet],
    solver: &CheckedSolver,
    tally: &mut Tally,
    out: &mut Outcome,
) {
    let rounds = repeats(args.seconds, lane.nominal_round_s());
    let mut setup = SetupClock::new(rounds * fleets.len());
    let mut clock = HostClock::new();
    let mut firsts: Vec<Option<Decisions>> = fleets.iter().map(|_| None).collect();
    // Per round: every fleet's run seconds (uncalibrated and calibrated), and
    // every epoch's calibrated milliseconds.
    let mut raw_s: Vec<Vec<f64>> = Vec::new();
    let mut run_s: Vec<Vec<f64>> = Vec::new();
    let mut epoch_ms: Vec<Vec<f64>> = Vec::new();
    // Rounds serve every fleet once and must reproduce the first round's
    // decisions exactly.
    for round in 0..rounds {
        let (mut raws, mut runs, mut epochs) = (Vec::new(), Vec::new(), Vec::new());
        for (k, (fleet, first)) in fleets.iter().zip(firsts.iter_mut()).enumerate() {
            setup.before(round * fleets.len() + k, || {
                (
                    generate(lane, args.seed),
                    CheckedSolver::new(failure_sweep_solver()),
                )
            });
            let result = fleet.serve(solver, None);
            // Every fleet run takes longer than the clock's sampling
            // interval, so the reference is sampled after each one.
            let slowness = clock.tick();
            check_run(&result, first, "fleet run", tally);
            raws.push(result.seconds());
            runs.push(result.seconds() / slowness);
            if let Ok(report) = &result.report {
                epochs.extend(
                    report
                        .epoch_timing
                        .iter()
                        .map(|t| t.total() * 1e3 / slowness),
                );
            }
        }
        raw_s.push(raws);
        run_s.push(runs);
        epoch_ms.push(epochs);
    }
    let seconds: f64 = raw_s.iter().flatten().sum();
    let firsts: Vec<&Decisions> = firsts.iter().flatten().collect();
    let best_epochs = per_piece_median(&epoch_ms);
    if firsts.len() != fleets.len() || best_epochs.is_empty() {
        tally.check(false, || "a fleet run failed".to_string());
        return;
    }
    let tenant_epochs: usize = firsts.iter().map(|d| d.report.tenant_epochs()).sum();
    let throughput = tenant_epochs as f64 / per_piece_median(&run_s).iter().sum::<f64>();
    let (p50, p95) = (quantile(&best_epochs, 0.5), quantile(&best_epochs, 0.95));
    let total_cost: f64 = firsts.iter().map(|d| d.report.total_cost()).sum();
    let bound: f64 = fleets.iter().map(Fleet::cost_bound).sum();
    let sum = |f: &dyn Fn(&Decisions) -> usize| firsts.iter().map(|d| f(d)).sum::<usize>();
    out.note(format!(
        "rounds={rounds} measured_s={seconds:.3} per round: fleet runs={} \
         tenant_epochs={tenant_epochs} epochs={} solver_calls={} resolves={} adoptions={}",
        fleets.len(),
        best_epochs.len(),
        sum(&|d| d.solver_calls),
        sum(&|d| d.report.resolved_tenant_epochs()),
        sum(&|d| adoptions(&d.report))
    ));
    let listed: Vec<String> = raw_s
        .iter()
        .map(|r| format!("{:.0}", tenant_epochs as f64 / r.iter().sum::<f64>()))
        .collect();
    out.note(format!(
        "per-round tenant_epochs_per_s (uncalibrated): {}",
        listed.join(" ")
    ));
    out.note(format!(
        "host slowness: median {:.4} over {} reference samples; uncalibrated \
         tenant_epochs_per_s = {} 1/s",
        clock.median_slowness(),
        clock.samples(),
        tenant_epochs as f64 / per_piece_median(&raw_s).iter().sum::<f64>()
    ));
    out.note(format!(
        "tenant_epochs_per_s = {throughput} 1/s; epoch_ms_p50 = {p50} ms; epoch_ms_p95 = {p95} ms \
         (each fleet run and each epoch at the median of its {rounds} calibrated repeats; {} \
         epoch samples)",
        best_epochs.len()
    ));
    out.note(format!("plan_cost_total = {total_cost} cost"));
    out.note(format!(
        "setup_s samples (median reported): {:?}",
        setup.samples()
    ));
    out.metric("throughput_per_s", throughput);
    out.metric("latency_ms_p50", p50);
    out.metric("latency_ms_p95", p95);
    out.metric("plan_cost_vs_bound", total_cost / bound);
    out.metric("setup_s", setup.seconds());
    out.note(format!("peak_rss_mb = {} MB", peak_rss_mb()));
}

/// What the traced round adds up over the lane's fleets.
#[derive(Default)]
struct TracedTotals {
    traced_s: f64,
    untraced_s: f64,
    stages: [f64; 4],
    calls: usize,
    call_s: f64,
    nodes: usize,
    iterations: usize,
    proven: usize,
    init_s: f64,
    solve_in_calls_s: f64,
    resolves: usize,
    adoptions: usize,
    probes: usize,
    arbitrate_us: Vec<f64>,
    total_cost: f64,
}

fn traced(
    args: &Args,
    fleets: &[Fleet],
    solver: &CheckedSolver,
    tally: &mut Tally,
    out: &mut Outcome,
) {
    let spans = Spans::new();
    let recorder = Arc::new(Recorder::new());
    let mut t = TracedTotals::default();
    let mut trees = Vec::new();
    // Each fleet is served untraced, then traced with the `Recorder`
    // installed ambiently and as the controller's sink; the two must make
    // the same decisions.
    for (k, fleet) in fleets.iter().enumerate() {
        let mut first = None;
        let untraced = fleet.serve(solver, None);
        check_run(&untraced, &mut first, "untraced fleet run", tally);
        let clock = Arc::new(EpochClock::new(recorder.clone()));
        let traced = {
            let _installed = rental_obs::install_scoped(recorder.clone());
            fleet.serve(solver, Some(clock.clone()))
        };
        check_run(&traced, &mut first, "traced fleet run", tally);
        let Ok(report) = &traced.report else {
            continue;
        };
        let starts = clock.starts.lock().expect("epoch clock poisoned").clone();
        trees.append(&mut clock.trees.lock().expect("epoch clock poisoned"));
        record_run_spans(&spans, k as u64, &traced, &starts);
        t.traced_s += traced.seconds();
        t.untraced_s += untraced.seconds();
        let stages = report.stage_seconds();
        for (total, stage) in
            t.stages
                .iter_mut()
                .zip([Stage::Probe, Stage::Arbitrate, Stage::Solve, Stage::Adopt])
        {
            *total += stages.get(stage);
        }
        let calls = &traced.calls;
        let loop_start = starts.first().copied().unwrap_or(traced.end);
        t.init_s += (loop_start - traced.start).as_secs_f64();
        t.solve_in_calls_s += covered_seconds(calls.iter().filter(|c| c.start >= loop_start));
        t.calls += calls.len();
        t.call_s += calls
            .iter()
            .map(|c| (c.end - c.start).as_secs_f64())
            .sum::<f64>();
        t.nodes += calls.iter().map(|c| c.nodes).sum::<usize>();
        t.iterations += calls.iter().map(|c| c.iterations).sum::<usize>();
        t.proven += calls.iter().filter(|c| c.proven).count();
        t.resolves += report.resolved_tenant_epochs();
        t.adoptions += adoptions(report);
        t.probes += report.tenants.iter().map(|t| t.probes).sum::<usize>();
        t.arbitrate_us.extend(
            report
                .epoch_timing
                .iter()
                .map(|e| e.get(Stage::Arbitrate) * 1e6),
        );
        t.total_cost += report.total_cost();
    }
    if t.arbitrate_us.is_empty() {
        tally.check(false, || "no traced fleet run completed".to_string());
        return;
    }

    out.metric("fleet.probe_s", t.stages[0]);
    out.metric("fleet.arbitrate_s", t.stages[1]);
    out.metric("fleet.solve_s", t.stages[2]);
    out.metric("fleet.adopt_s", t.stages[3]);
    out.metric("fleet.solver_calls", t.calls as f64);
    out.metric("fleet.solver_call_s", t.call_s);
    out.metric("fleet.init_s", t.init_s);
    out.metric(
        "fleet.solve_overhead_share",
        ratio(t.stages[2] - t.solve_in_calls_s, t.stages[2]).clamp(0.0, 1.0),
    );
    out.metric("fleet.resolves", t.resolves as f64);
    out.metric("fleet.adoptions", t.adoptions as f64);
    out.metric("fleet.probes", t.probes as f64);
    out.metric(
        "fleet.merge_wait_share",
        TraceSummary::from_trees(&trees).barrier_share(),
    );
    out.metric("capacity.arbitrate_us", median(&t.arbitrate_us));
    out.metric("lp.node_us", ratio(t.call_s * 1e6, t.nodes as f64));
    out.metric("lp.nodes", t.nodes as f64);
    out.metric(
        "lp.iterations_per_node",
        ratio(t.iterations as f64, t.nodes as f64),
    );
    layers::lp_counters(&recorder, out);
    out.metric(
        "solvers.proven_optimal_share",
        ratio(t.proven as f64, t.calls as f64),
    );

    let tenants: Vec<(&TenantSpec, &FleetPolicy)> = fleets
        .iter()
        .flat_map(|f| f.tenants.iter().map(move |t| (t, &f.policy)))
        .collect();
    let step = tenants.len().div_ceil(REPLAY_TENANTS).max(1);
    let replayed: Vec<_> = tenants.into_iter().step_by(step).collect();
    let cases: Vec<Case> = replayed
        .iter()
        .map(|(t, policy)| Case {
            instance: &t.instance,
            target: initial_target(policy, &t.instance, &t.trace),
        })
        .collect();
    let traces: Vec<&WorkloadTrace> = replayed.iter().map(|(t, _)| &t.trace).collect();
    layers::replay(&cases, &traces, &spans, tally, out);
    layers::heuristics_replay(&cases, args.seed, None, &spans, tally, out);
    let build_us = out.value("solvers.build_model_us").unwrap_or(0.0);
    let warm_us = out.value("solvers.warm_start_us").unwrap_or(0.0);
    out.metric(
        "solvers.ilp_overhead_share",
        ratio(build_us + warm_us, ratio(t.call_s * 1e6, t.calls as f64)),
    );
    out.metric(
        "obs.trace_overhead_share",
        (t.traced_s - t.untraced_s) / t.untraced_s,
    );
    out.note(format!(
        "traced runs {:.3}s vs untraced {:.3}s; plan_cost_total={} solver_calls={} init_s={:.4} \
         epoch_trees={}",
        t.traced_s,
        t.untraced_s,
        t.total_cost,
        t.calls,
        t.init_s,
        trees.len()
    ));
    spans::finish(&spans, &args.workload, args.seed, &mut out.notes);
}

/// Wall seconds during which at least one of `calls` was running.
fn covered_seconds<'a>(calls: impl Iterator<Item = &'a Call>) -> f64 {
    let mut intervals: Vec<(Instant, Instant)> = calls.map(|c| (c.start, c.end)).collect();
    intervals.sort_by_key(|i| i.0);
    let mut covered = 0.0;
    let mut cursor: Option<Instant> = None;
    for (start, end) in intervals {
        let start = cursor.map_or(start, |c| start.max(c));
        if end > start {
            covered += (end - start).as_secs_f64();
            cursor = Some(end);
        }
    }
    covered
}

/// Spans of one traced fleet run: `fleet.run` (op = fleet index), its
/// `fleet.init` and one `fleet.epoch` per epoch (op = epoch index), each
/// solver call under the phase it started in (op = call index).
fn record_run_spans(spans: &Spans, fleet: u64, run: &RunResult, starts: &[Instant]) {
    let root = spans.reserve();
    spans.record(root, None, "fleet.run", fleet, run.start, run.end);
    let mut bounds = vec![run.start];
    bounds.extend_from_slice(starts);
    bounds.push(run.end);
    let phases: Vec<(u64, Instant, Instant)> = bounds
        .windows(2)
        .enumerate()
        .map(|(k, w)| {
            let id = spans.reserve();
            let (name, op) = if k == 0 {
                ("fleet.init", 0)
            } else {
                ("fleet.epoch", k as u64 - 1)
            };
            spans.record(id, Some(root), name, op, w[0], w[1]);
            (id, w[0], w[1])
        })
        .collect();
    for (i, call) in run.calls.iter().enumerate() {
        let parent = phases
            .iter()
            .find(|(_, start, end)| call.start >= *start && call.start < *end)
            .map_or(root, |p| p.0);
        let id = spans.reserve();
        spans.record(
            id,
            Some(parent),
            "solvers.ilp_solve",
            i as u64,
            call.start,
            call.end,
        );
    }
}
