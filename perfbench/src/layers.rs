//! Per-layer measurements of the traced run, taken from outside: the
//! program's own `lp.*` / `mip.*` counters read through an installed
//! `Recorder`, and replays that time calls into each layer's public
//! functions on the workload's own inputs.

use std::hint::black_box;
use std::time::Instant;

use rental_core::{Instance, ProvisioningPlan, RecipeId, Solution, ThroughputSplit};
use rental_lp::revised::RevisedLp;
use rental_lp::{LpStatus, SimplexOptions, SparseLu, SparseVector};
use rental_obs::Recorder;
use rental_pricing::{HorizonCache, OnDemand, RentalHorizon};
use rental_solvers::exact::IlpSolver;
use rental_solvers::heuristics::SteepestGradientSolver;
use rental_solvers::{certify_plan, standard_suite, MinCostSolver, SuiteConfig};
use rental_stream::WorkloadTrace;

use crate::report::{ratio, Outcome, Tally};
use crate::spans::Spans;

/// One plan request: an instance and its throughput target.
#[derive(Clone, Copy)]
pub struct Case<'a> {
    pub instance: &'a Instance,
    pub target: u64,
}

/// The paper's heuristics, in the order of its figures.
const HEURISTICS: [&str; 5] = ["H1", "H2", "H31", "H32", "H32Jump"];

const HEURISTIC_US: [&str; 5] = [
    "solvers.h1_us",
    "solvers.h2_us",
    "solvers.h31_us",
    "solvers.h32_us",
    "solvers.h32jump_us",
];
const HEURISTIC_RATIO: [&str; 5] = [
    "solvers.h1_cost_ratio",
    "solvers.h2_cost_ratio",
    "solvers.h31_cost_ratio",
    "solvers.h32_cost_ratio",
    "solvers.h32jump_cost_ratio",
];

/// H1, H2, H31, H32 and H32Jump, seeded from the workload seed.
fn heuristic_suite(seed: u64) -> Vec<Box<dyn MinCostSolver + Send + Sync>> {
    let config = SuiteConfig {
        include_ilp: false,
        ..SuiteConfig::with_seed(seed)
    };
    let suite = standard_suite(&config);
    let names: Vec<&str> = suite.iter().map(|s| s.name()).collect();
    assert_eq!(names, HEURISTICS, "standard suite changed its heuristics");
    suite
}

/// The fractional lower bound on any plan's cost per unit of target:
/// `min_j Σ_q n_jq c_q / r_q` (ceilings only push real plans above it).
pub fn min_unit_cost(instance: &Instance) -> f64 {
    let demand = instance.application().demand();
    let platform = instance.platform();
    (0..instance.num_recipes())
        .map(|j| {
            (0..instance.num_types())
                .map(|q| {
                    let q = rental_core::TypeId(q);
                    demand.count(RecipeId(j), q) as f64 * platform.cost(q) as f64
                        / platform.throughput(q) as f64
                })
                .sum::<f64>()
        })
        .fold(f64::INFINITY, f64::min)
}

/// One heuristic call: which case, which heuristic, its cost and seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeuristicCall {
    case: usize,
    heuristic: usize,
    cost: u64,
    seconds: f64,
}

/// `solvers.<h>_us` and `solvers.<h>_cost_ratio`: mean time per call, and
/// the mean over cases of cost over the best plan known for the case (the
/// paper's normalised cost). `reference` adds a better plan where one is
/// known (the ILP's).
fn heuristic_metrics(
    calls: &[HeuristicCall],
    num_cases: usize,
    reference: Option<&[u64]>,
    out: &mut Outcome,
) {
    let mut best = vec![u64::MAX; num_cases];
    for call in calls {
        best[call.case] = best[call.case].min(call.cost);
    }
    if let Some(reference) = reference {
        for (b, &r) in best.iter_mut().zip(reference) {
            *b = (*b).min(r);
        }
    }
    for h in 0..HEURISTICS.len() {
        let mine: Vec<&HeuristicCall> = calls.iter().filter(|c| c.heuristic == h).collect();
        let seconds: f64 = mine.iter().map(|c| c.seconds).sum();
        let ratios: f64 = mine
            .iter()
            .map(|c| ratio(c.cost as f64, best[c.case] as f64).max(1.0))
            .sum();
        out.metric(HEURISTIC_US[h], ratio(seconds * 1e6, mine.len() as f64));
        out.metric(HEURISTIC_RATIO[h], ratio(ratios, mine.len() as f64));
    }
}

/// Runs the heuristics on `cases` and records their per-heuristic metrics.
pub fn heuristics_replay(
    cases: &[Case],
    seed: u64,
    reference: Option<&[u64]>,
    spans: &Spans,
    tally: &mut Tally,
    out: &mut Outcome,
) {
    let suite = heuristic_suite(seed);
    let mut calls = Vec::new();
    spans.time(None, "replay.solvers.heuristics", 0, |parent| {
        for (i, case) in cases.iter().enumerate() {
            for (h, solver) in suite.iter().enumerate() {
                let start = Instant::now();
                let result = spans.time(Some(parent), "solvers.heuristic", i as u64, |_| {
                    solver.solve(case.instance, case.target)
                });
                let seconds = start.elapsed().as_secs_f64();
                let cost = certified_cost(case, result.map(|o| o.solution), solver.name(), tally);
                calls.push(HeuristicCall {
                    case: i,
                    heuristic: h,
                    cost: cost.unwrap_or(u64::MAX),
                    seconds,
                });
            }
        }
    });
    heuristic_metrics(&calls, cases.len(), reference, out);
}

/// Certifies a returned plan; counts the call in `tally`.
pub fn certified_cost<E: std::fmt::Display>(
    case: &Case,
    result: Result<Solution, E>,
    solver: &str,
    tally: &mut Tally,
) -> Option<u64> {
    let verdict = result.map_err(|e| e.to_string()).and_then(|solution| {
        if solution.target != case.target || !solution.split.covers(case.target) {
            return Err("plan does not serve its target".to_string());
        }
        certify_plan(case.instance, &solution, None)
            .map(|()| solution.cost())
            .map_err(|e| e.to_string())
    });
    tally.check(verdict.is_ok(), || {
        format!(
            "{solver} at target {}: {}",
            case.target,
            verdict.as_ref().err().map_or("", String::as_str)
        )
    });
    verdict.ok()
}

/// `lp.*` per-node ratios from the program's own counters.
pub fn lp_counters(recorder: &Recorder, out: &mut Outcome) {
    let snapshot = recorder.snapshot();
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0) as f64;
    let nodes = counter("mip.nodes");
    out.metric(
        "lp.refactorizations_per_node",
        ratio(counter("lp.refactorizations"), nodes),
    );
    out.metric(
        "lp.factor_solves_per_node",
        ratio(counter("lp.factor_solves"), nodes),
    );
    out.metric(
        "lp.hyper_sparse_rate",
        ratio(
            counter("lp.hyper_sparse_solves"),
            counter("lp.factor_solves"),
        ),
    );
    out.note(format!(
        "counters: mip.nodes={nodes} lp.solves={} lp.iterations={} lp.refactorizations={} \
         lp.factor_solves={} lp.hyper_sparse_solves={}",
        counter("lp.solves"),
        counter("lp.iterations"),
        counter("lp.refactorizations"),
        counter("lp.factor_solves"),
        counter("lp.hyper_sparse_solves")
    ));
}

/// Sums of replay seconds and call counts, per replayed function.
#[derive(Default)]
struct Clock {
    seconds: f64,
    calls: f64,
}

impl Clock {
    fn add(&mut self, start: Instant, calls: usize) {
        self.seconds += start.elapsed().as_secs_f64();
        self.calls += calls as f64;
    }

    fn per_call(&self, scale: f64) -> f64 {
        ratio(self.seconds * scale, self.calls)
    }
}

/// Repeats of each microsecond-scale replay loop, so one timing covers
/// enough work to rise above the clock's resolution.
const REPEATS: usize = 20;

/// Replays every layer below the fleet on `cases`: `lp` root relaxations
/// and their LU factor / FTRAN / BTRAN, the `solvers` model build and warm
/// start, the `core` delta kernel, `pricing` horizon queries and `stream`
/// trace lookups. `traces` are the demand traces the plans serve.
pub fn replay(
    cases: &[Case],
    traces: &[&WorkloadTrace],
    spans: &Spans,
    tally: &mut Tally,
    out: &mut Outcome,
) {
    let [mut root, mut factor, mut ftran, mut btran] = <[Clock; 4]>::default();
    let [mut build, mut warm, mut pair_diff, mut eval, mut apply] = <[Clock; 5]>::default();
    let [mut cache_build, mut total_over, mut rate_at] = <[Clock; 3]>::default();
    for (i, case) in cases.iter().enumerate() {
        let op = i as u64;
        spans.time(None, "replay.case", op, |parent| {
            let parent = Some(parent);
            let model = spans.time(parent, "solvers.build_model", op, |_| {
                let start = Instant::now();
                let model = IlpSolver::build_model(case.instance, case.target);
                build.add(start, 1);
                model
            });
            spans.time(parent, "lp.root", op, |lp_span| {
                replay_lp(
                    case,
                    &model,
                    (spans, lp_span, op),
                    tally,
                    [&mut root, &mut factor, &mut ftran, &mut btran],
                )
            });
            let solution = spans.time(parent, "solvers.warm_start", op, |_| {
                let start = Instant::now();
                let result = SteepestGradientSolver::default().solve(case.instance, case.target);
                warm.add(start, 1);
                let solution = result.map(|o| o.solution);
                certified_cost(case, solution.clone(), "H32", tally).and(solution.ok())
            });
            spans.time(parent, "core.kernel", op, |_| {
                replay_core(case, tally, [&mut pair_diff, &mut eval, &mut apply])
            });
            if let Some(solution) = solution {
                let trace = traces[i % traces.len()];
                spans.time(parent, "pricing.horizon", op, |_| {
                    replay_pricing(
                        case,
                        &solution,
                        trace,
                        tally,
                        [&mut cache_build, &mut total_over],
                    )
                });
                spans.time(parent, "stream.trace", op, |_| {
                    let hours = trace.duration().ceil() as usize;
                    let start = Instant::now();
                    let mut sum = 0.0;
                    for _ in 0..REPEATS {
                        for h in 0..hours {
                            sum += trace.rate_at(black_box(h as f64 + 0.5));
                        }
                    }
                    black_box(sum);
                    rate_at.add(start, REPEATS * hours);
                });
            }
        });
    }
    out.metric("lp.root_lp_ms", root.per_call(1e3));
    out.metric("lp.factor_us", factor.per_call(1e6));
    out.metric("lp.ftran_us", ftran.per_call(1e6));
    out.metric("lp.btran_us", btran.per_call(1e6));
    out.metric("solvers.build_model_us", build.per_call(1e6));
    out.metric("solvers.warm_start_us", warm.per_call(1e6));
    out.metric("core.transfer_eval_ns", eval.per_call(1e9));
    out.metric("core.apply_undo_ns", apply.per_call(1e9));
    out.metric("core.pair_diff_build_us", pair_diff.per_call(1e6));
    out.metric("pricing.cache_build_us", cache_build.per_call(1e6));
    out.metric("pricing.total_over_ns", total_over.per_call(1e9));
    out.metric("stream.rate_at_ns", rate_at.per_call(1e9));
    out.note(format!(
        "replay samples: cases={} root_lps={} factorizations={} ftrans={} btrans={} \
         transfer_evals={} apply_undos={} horizon_queries={} rate_lookups={}",
        cases.len(),
        root.calls,
        factor.calls,
        ftran.calls,
        btran.calls,
        eval.calls,
        apply.calls,
        total_over.calls,
        rate_at.calls
    ));
}

/// Root relaxation of one case's MILP, then its optimal basis replayed
/// through `SparseLu`. FTRAN results are checked against the basis.
fn replay_lp(
    case: &Case,
    model: &rental_lp::Model,
    (spans, parent, op): (&Spans, u64, u64),
    tally: &mut Tally,
    [root, factor, ftran, btran]: [&mut Clock; 4],
) {
    let start = Instant::now();
    let (lp, outcome) = spans.time(Some(parent), "lp.root_solve", op, |_| {
        let lp = RevisedLp::new(model).map_err(|e| e.to_string());
        let outcome = lp
            .as_ref()
            .ok()
            .map(|lp| lp.solve(&SimplexOptions::default()));
        (lp, outcome)
    });
    root.add(start, 1);
    let basis = match (&lp, &outcome) {
        (Ok(_), Some(o)) if o.status == LpStatus::Optimal => o.basis.clone(),
        _ => None,
    };
    tally.check(basis.is_some(), || {
        format!(
            "root relaxation at target {} did not solve to an optimal basis",
            case.target
        )
    });
    let (Ok(lp), Some(basis)) = (lp, basis) else {
        return;
    };
    let basis = basis.basic_columns();
    let cols = lp.standard_form_columns();
    let m = lp.num_rows();
    let mut lu = SparseLu::default();
    let factored = spans.time(Some(parent), "lp.factorize", op, |_| {
        let start = Instant::now();
        let ok = (0..REPEATS).all(|_| lu.factorize(m, cols, basis));
        factor.add(start, REPEATS);
        ok
    });
    tally.check(factored, || {
        format!("optimal root basis at target {} is singular", case.target)
    });
    if !factored {
        return;
    }
    let in_basis: std::collections::HashSet<usize> = basis.iter().copied().collect();
    let entering: Vec<usize> = (0..model.num_vars())
        .filter(|j| !in_basis.contains(j))
        .collect();
    let mut v = SparseVector::with_dim(m);
    if let Some(&j) = entering.first() {
        v.set_from_entries(&cols[j]);
        lu.ftran(&mut v);
        let residual = ftran_residual(&v, &cols[j], cols, basis, m);
        tally.check(residual < 1e-7, || {
            format!("FTRAN residual {residual:e} at target {}", case.target)
        });
    }
    spans.time(Some(parent), "lp.ftran", op, |_| {
        let start = Instant::now();
        for _ in 0..REPEATS {
            for &j in &entering {
                v.set_from_entries(&cols[j]);
                black_box(lu.ftran(&mut v));
            }
        }
        ftran.add(start, REPEATS * entering.len());
    });
    spans.time(Some(parent), "lp.btran", op, |_| {
        let start = Instant::now();
        for _ in 0..REPEATS {
            for row in 0..m {
                v.set_from_entries(&[(row, 1.0)]);
                black_box(lu.btran(&mut v));
            }
        }
        btran.add(start, REPEATS * m);
    });
}

/// Largest entry of `B x - a` where `x` is FTRAN's image of column `a`.
fn ftran_residual(
    x: &SparseVector,
    a: &[(usize, f64)],
    cols: &[Vec<(usize, f64)>],
    basis: &[usize],
    m: usize,
) -> f64 {
    let mut r = vec![0.0f64; m];
    for &(i, value) in a {
        r[i] -= value;
    }
    for (position, &col) in basis.iter().enumerate() {
        let xk = x.get(position);
        if xk != 0.0 {
            for &(i, value) in &cols[col] {
                r[i] += xk * value;
            }
        }
    }
    r.iter().fold(0.0, |acc, v| acc.max(v.abs()))
}

/// `PairDiffTable::new`, then every ordered recipe pair through
/// `cost_after_transfer` and `apply_transfer_undoable` + `undo_transfer`
/// from an even split of the target. Undo must restore the cost exactly.
fn replay_core(case: &Case, tally: &mut Tally, [pair_diff, eval, apply]: [&mut Clock; 3]) {
    let instance = case.instance;
    let demand = instance.application().demand();
    let start = Instant::now();
    for _ in 0..REPEATS {
        black_box(rental_core::cost::PairDiffTable::new(black_box(demand)));
    }
    pair_diff.add(start, REPEATS);

    let recipes = instance.num_recipes();
    let even = case.target / recipes as u64;
    let mut shares = vec![even; recipes];
    shares[0] += case.target - even * recipes as u64;
    let delta = (even / 2).max(1);
    let evaluator = rental_core::cost::IncrementalEvaluator::new(
        demand,
        instance.platform(),
        ThroughputSplit::new(shares),
    );
    let Ok(mut evaluator) = evaluator else {
        tally.check(false, || {
            format!("evaluator rejected target {}", case.target)
        });
        return;
    };
    let pairs: Vec<(RecipeId, RecipeId)> = (0..recipes)
        .flat_map(|a| {
            (0..recipes)
                .filter(move |&b| b != a)
                .map(move |b| (RecipeId(a), RecipeId(b)))
        })
        .collect();
    let start = Instant::now();
    let mut ok = true;
    for _ in 0..REPEATS {
        for &(from, to) in &pairs {
            ok &= black_box(evaluator.cost_after_transfer(from, to, black_box(delta))).is_ok();
        }
    }
    eval.add(start, REPEATS * pairs.len());
    let before = evaluator.cost();
    let start = Instant::now();
    for _ in 0..REPEATS {
        for &(from, to) in &pairs {
            match evaluator.apply_transfer_undoable(from, to, black_box(delta)) {
                Ok(undo) => ok &= evaluator.undo_transfer(undo).is_ok(),
                Err(_) => ok = false,
            }
        }
    }
    apply.add(start, REPEATS * pairs.len());
    ok &= evaluator.cost() == before;
    tally.check(ok, || {
        format!("delta kernel replay failed at target {}", case.target)
    });
}

/// `HorizonCache::new` on the case's plan, then `total_over` from every
/// hour of the trace to its end. The cached total must match the plan's
/// hourly bill.
fn replay_pricing(
    case: &Case,
    solution: &Solution,
    trace: &WorkloadTrace,
    tally: &mut Tally,
    [cache_build, total_over]: [&mut Clock; 2],
) {
    let Ok(plan) = ProvisioningPlan::build(case.instance, solution) else {
        tally.check(false, || {
            format!("no provisioning plan at target {}", case.target)
        });
        return;
    };
    let billing = OnDemand::hourly();
    let start = Instant::now();
    for _ in 0..REPEATS {
        black_box(HorizonCache::new(black_box(&plan), &billing));
    }
    cache_build.add(start, REPEATS);
    let cache = HorizonCache::new(&plan, &billing);
    let hours = trace.duration().ceil().max(1.0) as usize;
    let end = RentalHorizon::hours(hours as f64);
    let start = Instant::now();
    let mut sum = 0.0;
    for _ in 0..REPEATS {
        for h in 0..hours {
            sum += cache.total_over(RentalHorizon::hours(black_box(h as f64)), end);
        }
    }
    black_box(sum);
    total_over.add(start, REPEATS * hours);
    let one_hour = cache.total_over(RentalHorizon::hours(0.0), RentalHorizon::hours(1.0));
    let bill = solution.cost() as f64;
    tally.check((one_hour - bill).abs() <= 1e-6 * bill.max(1.0), || {
        format!("horizon cache bills {one_hour} for one hour of a {bill}/h plan")
    });
}
