//! The plan-solve workload `ilp-cold`: one closed-loop caller solving
//! seeded (instance, ρ) cases, one solve at a time. Every case is a §VIII-C
//! small-graph instance solved cold (no sweep prior) by `IlpSolver` under a
//! fixed node cap — the paper's exact lane, dominated by `lp` branch and
//! bound and its tail of capped trees.
//!
//! Targets cover the paper's ρ = 10..200. Each instance takes one of them
//! (rotating, so every target gets the same share of solves) and a pass
//! draws thousands of independent instances instead: solve time varies far
//! more between instances than between targets, so this is what keeps the
//! figures of one seed close to those of another.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rental_core::examples::illustrating_example;
use rental_core::Instance;
use rental_experiments::PAPER_TABLE3_OPTIMAL;
use rental_obs::Recorder;
use rental_simgen::{GeneratorConfig, InstanceGenerator};
use rental_solvers::exact::IlpSolver;
use rental_solvers::{MinCostSolver, SolveBudget, WarmStartSolver};
use rental_stream::{TraceSegment, WorkloadTrace};

use crate::layers::{self, Case};
use crate::report::{
    peak_rss_mb, per_piece_median, quantile, ratio, repeats, HostClock, Outcome, SetupClock, Tally,
};
use crate::spans::{self, Spans};
use crate::{mix, Args};

/// The paper's targets ρ = 10, 20, ..., 200.
const TARGETS: [u64; 20] = [
    10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 130, 140, 150, 160, 170, 180, 190, 200,
];

/// Instances per pass, one solve each.
const INSTANCES: usize = 4_000;
/// Branch-and-bound node cap of every solve. Deterministic, so every repeat
/// stops at the same node.
const NODE_CAP: usize = 200;
/// Seconds one pass spent in solver calls on the 2-vCPU host the benchmark
/// was tuned on; `--seconds 30` makes eight passes.
const NOMINAL_PASS_S: f64 = 3.75;
/// Cases the traced run replays per layer (spread over the instances).
const REPLAY_CASES: usize = 40;

/// The workload's inputs. Instances are rebuilt from their own sub-seeds
/// when a pass reaches them, outside the timed calls, so a pass holds one
/// instance at a time; set-up generates every one of them once.
struct Input {
    config: GeneratorConfig,
    seed: u64,
}

impl Input {
    fn new(seed: u64) -> Input {
        Input {
            config: GeneratorConfig::small_graphs(),
            seed: seed ^ 0x5A11,
        }
    }

    fn instance(&self, i: usize) -> Instance {
        InstanceGenerator::new(self.config.clone(), mix(self.seed, i as u64)).generate_instance()
    }

    /// Instance `i`'s target: ρ = 10..200, rotating with `i`.
    fn target(i: usize) -> u64 {
        TARGETS[i % TARGETS.len()]
    }

    /// Every instance the replays use.
    fn replay_instances(&self) -> Vec<(usize, Instance)> {
        (0..INSTANCES)
            .step_by(INSTANCES.div_ceil(REPLAY_CASES))
            .map(|i| (i, self.instance(i)))
            .collect()
    }
}

/// The ILP and the budget every solve runs under.
struct Solver {
    ilp: IlpSolver,
    budget: SolveBudget,
}

/// Set-up: generates every input instance and builds the solver.
fn build(seed: u64) -> (Input, Solver) {
    let input = Input::new(seed);
    for i in 0..INSTANCES {
        black_box(input.instance(i));
    }
    let solver = Solver {
        ilp: IlpSolver::new(),
        budget: SolveBudget::with_node_cap(NODE_CAP),
    };
    (input, solver)
}

/// What must repeat exactly, per solve: cost, proven optimal, B&B nodes and
/// simplex iterations.
type Fingerprint = Vec<(u64, bool, usize, usize)>;

/// One pass over every case.
struct Pass {
    /// Seconds inside solver calls (instance generation excluded).
    seconds: f64,
    latencies_ms: Vec<f64>,
    /// `latencies_ms` divided by the host's slowness around each call (see
    /// `HostClock`); empty when the pass ran without a clock.
    calibrated_ms: Vec<f64>,
    fingerprint: Fingerprint,
    /// Σ over cases of the fractional lower bound on their cost.
    bound: f64,
}

impl Pass {
    /// Sum of plan costs; a failed solve counts as `u64::MAX`.
    fn plan_cost_total(&self) -> u64 {
        self.fingerprint
            .iter()
            .fold(0u64, |total, f| total.saturating_add(f.0))
    }

    fn proven(&self) -> usize {
        self.fingerprint.iter().filter(|f| f.1).count()
    }

    fn nodes(&self) -> usize {
        self.fingerprint.iter().map(|f| f.2).sum()
    }

    fn iterations(&self) -> usize {
        self.fingerprint.iter().map(|f| f.3).sum()
    }
}

/// One pass over every case. `before` runs ahead of each instance, outside
/// the timed calls; when tracing, each solver call gets a span under
/// `parent`; with a `clock`, the host-speed reference is sampled between
/// calls about every 50 ms and the calls since the previous sample are
/// calibrated by it.
fn pass(
    input: &Input,
    solver: &Solver,
    tally: &mut Tally,
    trace: Option<(&Spans, u64)>,
    before: &mut dyn FnMut(usize),
    mut clock: Option<&mut HostClock>,
) -> Pass {
    let mut p = Pass {
        seconds: 0.0,
        latencies_ms: Vec::with_capacity(INSTANCES),
        calibrated_ms: Vec::with_capacity(INSTANCES),
        fingerprint: Vec::with_capacity(INSTANCES),
        bound: 0.0,
    };
    let (spans, parent) = trace.map_or((None, None), |(s, id)| (Some(s), Some(id)));
    for i in 0..INSTANCES {
        before(i);
        let instance = input.instance(i);
        let target = Input::target(i);
        let case = Case {
            instance: &instance,
            target,
        };
        p.bound += target as f64 * layers::min_unit_cost(&instance);
        let start = Instant::now();
        let result = spans::timed(spans, parent, "solvers.ilp_solve", i as u64, |_| {
            solver
                .ilp
                .solve_with_prior_budgeted(&instance, target, None, &solver.budget)
        });
        let seconds = start.elapsed().as_secs_f64();
        p.seconds += seconds;
        p.latencies_ms.push(seconds * 1e3);
        if let Some(clock) = clock.as_deref_mut() {
            if clock.tick_due() || i + 1 == INSTANCES {
                let slowness = clock.tick();
                let since = p.calibrated_ms.len();
                p.calibrated_ms
                    .extend(p.latencies_ms[since..].iter().map(|ms| ms / slowness));
            }
        }
        let meta = result.as_ref().map_or((false, 0, 0), |o| {
            (
                o.proven_optimal,
                o.nodes.unwrap_or(0),
                o.lp_iterations.unwrap_or(0),
            )
        });
        let solution = result.map(|o| o.solution);
        let cost = layers::certified_cost(&case, solution, "ILP", tally).unwrap_or(u64::MAX);
        p.fingerprint.push((cost, meta.0, meta.1, meta.2));
    }
    p
}

/// The illustrating example's ILP costs at ρ = 10..200 must equal the
/// paper's Table III, every plan certified.
pub fn table3_gate(tally: &mut Tally) {
    let instance = illustrating_example();
    let solver = IlpSolver::new();
    for &(rho, expected) in PAPER_TABLE3_OPTIMAL.iter() {
        let case = Case {
            instance: &instance,
            target: rho,
        };
        let result = solver.solve(&instance, rho).map(|o| o.solution);
        let cost = layers::certified_cost(&case, result, "ILP", tally);
        tally.check(cost == Some(expected), || {
            format!("Table III at rho={rho}: ILP cost {cost:?}, paper {expected}")
        });
    }
}

/// Counts the determinism gate: `pass` must repeat `first` exactly.
fn determinism_gate(first: &Pass, pass: &Pass, what: &str, tally: &mut Tally) {
    tally.check(pass.fingerprint == first.fingerprint, || {
        format!(
            "{what} differs from the first pass: plan_cost_total {} vs {}, proven {} vs {}, \
             nodes {} vs {}, iterations {} vs {}",
            pass.plan_cost_total(),
            first.plan_cost_total(),
            pass.proven(),
            first.proven(),
            pass.nodes(),
            first.nodes(),
            pass.iterations(),
            first.iterations()
        )
    });
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut tally = Tally::default();
    table3_gate(&mut tally);

    let (input, solver) = build(args.seed);
    out.note(format!(
        "inputs: instances={INSTANCES} cases={INSTANCES} solver_calls_per_pass={INSTANCES} \
         threads=1 (closed loop, one caller) node_cap={NODE_CAP}"
    ));
    if args.trace {
        traced(args, &input, &solver, &mut tally, &mut out);
    } else {
        measured(args, &input, &solver, &mut tally, &mut out);
    }
    out.tally.merge(tally);
    out
}

fn measured(args: &Args, input: &Input, solver: &Solver, tally: &mut Tally, out: &mut Outcome) {
    let passes = repeats(args.seconds, NOMINAL_PASS_S);
    let mut setup = SetupClock::new(passes * INSTANCES);
    let mut clock = HostClock::new();
    let mut all: Vec<Pass> = Vec::with_capacity(passes);
    for k in 0..passes {
        let next = pass(
            input,
            solver,
            tally,
            None,
            &mut |i| setup.before(k * INSTANCES + i, || build(args.seed)),
            Some(&mut clock),
        );
        if let Some(first) = all.first() {
            determinism_gate(first, &next, "pass", tally);
        }
        all.push(next);
    }
    let first = &all[0];
    let seconds: f64 = all.iter().map(|p| p.seconds).sum();
    let raw: Vec<Vec<f64>> = all.iter().map(|p| p.latencies_ms.clone()).collect();
    let raw = per_piece_median(&raw);
    let calibrated: Vec<Vec<f64>> = all.iter().map(|p| p.calibrated_ms.clone()).collect();
    let best = per_piece_median(&calibrated);
    let throughput = best.len() as f64 / (best.iter().sum::<f64>() / 1e3);
    let (p50, p95) = (quantile(&best, 0.5), quantile(&best, 0.95));
    let listed: Vec<String> = all
        .iter()
        .map(|p| format!("{:.1}", p.latencies_ms.len() as f64 / p.seconds))
        .collect();
    out.note(format!(
        "passes={passes} measured_s={seconds:.3} per-pass solves_per_s (uncalibrated): {}",
        listed.join(" ")
    ));
    out.note(format!(
        "host slowness: median {:.4} over {} reference samples; uncalibrated solves_per_s = {} \
         1/s, solve_ms_p50 = {} ms, solve_ms_p95 = {} ms",
        clock.median_slowness(),
        clock.samples(),
        raw.len() as f64 / (raw.iter().sum::<f64>() / 1e3),
        quantile(&raw, 0.5),
        quantile(&raw, 0.95)
    ));
    out.note(format!(
        "per pass: solver_calls={} nodes={} iterations={} plan_cost_total={} cost",
        best.len(),
        first.nodes(),
        first.iterations(),
        first.plan_cost_total()
    ));
    out.note(format!(
        "solves_per_s = {throughput} 1/s; solve_ms_p50 = {p50} ms; solve_ms_p95 = {p95} ms \
         (each solver call at the median of its {passes} calibrated repeats; {} samples)",
        best.len()
    ));
    out.note(format!(
        "proven_optimal_share = {} ({} of {INSTANCES} solves)",
        ratio(first.proven() as f64, INSTANCES as f64),
        first.proven()
    ));
    out.note(format!(
        "setup_s samples (median reported): {:?}",
        setup.samples()
    ));
    out.metric("throughput_per_s", throughput);
    out.metric("latency_ms_p50", p50);
    out.metric("latency_ms_p95", p95);
    out.metric(
        "plan_cost_vs_bound",
        first.plan_cost_total() as f64 / first.bound,
    );
    out.metric("setup_s", setup.seconds());
    out.note(format!("peak_rss_mb = {} MB", peak_rss_mb()));
}

fn traced(args: &Args, input: &Input, solver: &Solver, tally: &mut Tally, out: &mut Outcome) {
    let untraced = pass(input, solver, tally, None, &mut |_| {}, None);
    let spans = Spans::new();
    let recorder = Arc::new(Recorder::new());
    let traced = {
        let _installed = rental_obs::install_scoped(recorder.clone());
        spans.time(None, "pass", 0, |id| {
            pass(input, solver, tally, Some((&spans, id)), &mut |_| {}, None)
        })
    };
    determinism_gate(&untraced, &traced, "traced pass", tally);

    let nodes = traced.nodes() as f64;
    out.metric("lp.node_us", ratio(traced.seconds * 1e6, nodes));
    out.metric("lp.nodes", nodes);
    out.metric(
        "lp.iterations_per_node",
        ratio(traced.iterations() as f64, nodes),
    );
    layers::lp_counters(&recorder, out);
    out.metric(
        "solvers.proven_optimal_share",
        ratio(traced.proven() as f64, INSTANCES as f64),
    );

    let replayed = input.replay_instances();
    let cases: Vec<Case> = replayed
        .iter()
        .map(|(i, instance)| Case {
            instance,
            target: Input::target(*i),
        })
        .collect();
    // The plan-solve lane serves a constant demand: a flat one-day trace.
    let flat: Vec<WorkloadTrace> = cases
        .iter()
        .map(|case| {
            WorkloadTrace::new(vec![TraceSegment {
                duration: 24.0,
                rate: case.target as f64,
            }])
        })
        .collect();
    let traces: Vec<&WorkloadTrace> = flat.iter().collect();
    layers::replay(&cases, &traces, &spans, tally, out);
    let reference: Vec<u64> = replayed
        .iter()
        .map(|(i, _)| traced.fingerprint[*i].0)
        .collect();
    layers::heuristics_replay(&cases, args.seed, Some(&reference), &spans, tally, out);
    let build_us = out.value("solvers.build_model_us").unwrap_or(0.0);
    let warm_us = out.value("solvers.warm_start_us").unwrap_or(0.0);
    let ilp_us = ratio(traced.seconds * 1e6, INSTANCES as f64);
    out.metric(
        "solvers.ilp_overhead_share",
        ratio(build_us + warm_us, ilp_us),
    );
    // This lane never runs a fleet.
    for name in [
        "fleet.probe_s",
        "fleet.arbitrate_s",
        "fleet.solve_s",
        "fleet.adopt_s",
        "fleet.solver_calls",
        "fleet.solver_call_s",
        "fleet.init_s",
        "fleet.solve_overhead_share",
        "fleet.resolves",
        "fleet.adoptions",
        "fleet.probes",
        "fleet.merge_wait_share",
        "capacity.arbitrate_us",
    ] {
        out.metric(name, 0.0);
    }
    out.metric(
        "obs.trace_overhead_share",
        (traced.seconds - untraced.seconds) / untraced.seconds,
    );
    out.note(format!(
        "traced pass {:.3}s vs untraced {:.3}s in solver calls; plan_cost_total={} proven={} \
         nodes={}",
        traced.seconds,
        untraced.seconds,
        traced.plan_cost_total(),
        traced.proven(),
        traced.nodes()
    ));
    spans::finish(&spans, &args.workload, args.seed, &mut out.notes);
}
