//! The epoch pipeline: one loop over the shared clock
//! ([`FleetController::execute`]), one function per stage. The stages run in
//! order — [`EpochCtx::bill`], [`EpochCtx::resolve_failures`],
//! [`EpochCtx::probe`], [`EpochCtx::solve`], [`EpochCtx::adopt`] — and each
//! charges its time to the epoch trace-tree span its docs name. A resumable
//! run adds an end-of-epoch persistence hook (`persist::Persistence`, the
//! `persist` span); a plain run has none.
//!
//! # Sharded epoch pipelines
//!
//! The per-tenant halves of each epoch — trace advancement, shift detection
//! and the memoized what-if probes — are embarrassingly parallel, so large
//! fleets run them as **sharded pipelines** on the shared worker pool (see
//! [`FleetPolicy::shards`]): tenants partition into contiguous index-range
//! shards, each shard advances its tenants independently, and all shards
//! meet at a single deterministic **merge–arbitrate–solve barrier** per
//! epoch where pool arbitration, the batched solver fan-outs and every
//! flight-recorder event live. Shard outputs concatenate in shard order —
//! which *is* tenant-index order — so the controller's decisions, its
//! [`crate::FleetReport`] and its event sequence are bit-identical (modulo
//! the [`StageTimes`] family) at every shard count, including one.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use rental_capacity::{
    coverage_bound, degrade_to_feasible, CapacityConfig, CappedOutcome, UNLIMITED_CAP,
};
use rental_core::{Instance, ProvisioningPlan, Solution, Throughput, TypeId};
use rental_obs::{
    epoch_tree, AlertEngine, EpochObservation, EventKind, FanoutObs, SpanTimer, Stage, StageTimes,
    TelemetrySink,
};
use rental_pricing::{HorizonCache, RentalHorizon, SegmentedBilling};
use rental_solvers::batch::{
    solve_caps_batch_budgeted, solve_caps_batch_timed, solve_warm_batch_budgeted,
    solve_warm_batch_timed, CapsBatchItem, WarmBatchItem,
};
use rental_solvers::solver::{
    CapacitySolver, SolveBudget, SolveError, SolveResult, SolverOutcome, SweepPrior,
    WarmStartSolver,
};
use rental_stream::{Autoscaler, FixedMixScaler};

use crate::chaos::{Chaos, ChaosClock};
use crate::controller::{
    debug_certify, fits_caps, quantize_target, surviving, CouplingState, FleetController,
    FleetPolicy, KnownPlan, ProbeEntry, RunEnv, TenantState,
};
use crate::persist::{Durable, PersistResult, RunOutcome};
use crate::report::AdoptionRecord;
use crate::tenant::TenantSpec;

/// Warm-started batch solving, type-erased so one epoch loop drives plain
/// [`WarmStartSolver`]s, capacity solvers and their chaos wrappers alike.
pub(crate) trait WarmResolve: Sync {
    fn warm_batch(
        &self,
        items: &[WarmBatchItem<'_>],
        budget: Option<&SolveBudget>,
        threads: Option<usize>,
    ) -> Vec<(SolveResult<SolverOutcome>, Duration)>;
}

impl<S: WarmStartSolver + Sync> WarmResolve for S {
    fn warm_batch(
        &self,
        items: &[WarmBatchItem<'_>],
        budget: Option<&SolveBudget>,
        threads: Option<usize>,
    ) -> Vec<(SolveResult<SolverOutcome>, Duration)> {
        match budget {
            Some(budget) => solve_warm_batch_budgeted(self, items, budget, threads),
            None => solve_warm_batch_timed(self, items, threads),
        }
    }
}

/// The capacity-constrained solving hooks a coupled run needs, type-erased
/// like [`WarmResolve`] (the uncoupled path never touches these).
pub(crate) trait CapsResolve: Sync {
    fn caps_batch(
        &self,
        items: &[CapsBatchItem<'_>],
        budget: Option<&SolveBudget>,
        threads: Option<usize>,
    ) -> Vec<(SolveResult<SolverOutcome>, Duration)>;

    fn caps_degrade(
        &self,
        instance: &Instance,
        target: Throughput,
        caps: &[u64],
        prior: Option<&SweepPrior>,
    ) -> SolveResult<CappedOutcome>;
}

impl<S: CapacitySolver + Sync> CapsResolve for S {
    fn caps_batch(
        &self,
        items: &[CapsBatchItem<'_>],
        budget: Option<&SolveBudget>,
        threads: Option<usize>,
    ) -> Vec<(SolveResult<SolverOutcome>, Duration)> {
        match budget {
            Some(budget) => solve_caps_batch_budgeted(self, items, budget, threads),
            None => solve_caps_batch_timed(self, items, threads),
        }
    }

    fn caps_degrade(
        &self,
        instance: &Instance,
        target: Throughput,
        caps: &[u64],
        prior: Option<&SweepPrior>,
    ) -> SolveResult<CappedOutcome> {
        // Not `solve_or_degrade`: every tenant routed here either already
        // failed the batched full-target solve or was proven infeasible by
        // the coverage probe, so the full-target attempt would be a
        // guaranteed duplicate of the most expensive MILP in the path.
        degrade_to_feasible(self, instance, target, caps, prior)
    }
}

/// The per-run context every stage borrows: resolved once per run,
/// never mutated by an epoch.
pub(crate) struct EpochCtx<'r> {
    pub(crate) policy: &'r FleetPolicy,
    pub(crate) env: RunEnv,
    pub(crate) warm: &'r dyn WarmResolve,
    /// Capped solving: present on every capacity-coupled run, which are the
    /// only runs that produce capped work.
    caps: Option<&'r dyn CapsResolve>,
    /// Injects delayed arbitration decisions on chaos-wrapped runs.
    chaos: Option<&'r ChaosClock<'r>>,
    pub(crate) sink: &'r dyn TelemetrySink,
    billing: &'r (dyn SegmentedBilling + Send + Sync),
    shards: usize,
}

/// Everything a run mutates from epoch to epoch — exactly what a checkpoint
/// captures of it.
pub(crate) struct RunState<'a> {
    pub(crate) states: Vec<TenantState<'a>>,
    pub(crate) coupled: Option<CouplingState>,
    pub(crate) adoptions: Vec<AdoptionRecord>,
    /// The previous epoch's desired fleets, kept only under chaos so the
    /// clock can replay them as a delayed arbitration decision (the
    /// chaos-free path never populates it and stays bit-identical).
    pub(crate) stale_desired: Option<Vec<Vec<u64>>>,
}

/// One tick of the shared clock and what its stages measured.
pub(crate) struct Epoch {
    pub(crate) index: usize,
    pub(crate) times: StageTimes,
    fanout: FanoutObs,
}

/// A violated epoch's capacity-constrained re-solve: `(tenant, ρ', caps)`.
type FailureDue = (usize, Throughput, Vec<u64>);

/// One tenant due for a keep-vs-switch decision this epoch, as produced by
/// the sharded probe pass. `keep: None` marks a forced re-solve (the
/// current mix cannot carry the demand); `caps` carries the tenant's pool
/// caps when a finite quota constrains what it may adopt.
struct DueTenant {
    tenant: usize,
    rho: Throughput,
    keep: Option<f64>,
    remaining_hours: f64,
    caps: Option<Vec<u64>>,
}

impl FleetController {
    /// Runs `tenants` end to end — the one place every entry point meets,
    /// and the one loop over the shared clock. `chaos` carries the
    /// fault-injection plumbing of a chaos-wrapped run. `durable` makes the
    /// run resumable: it starts from the store (a fresh snapshot, or the
    /// recovery ladder on resume), and after each epoch its persistence hook
    /// journals (and maybe snapshots) the epoch — or strikes the planned
    /// crash, ending the run. A plain run has no hook and does no
    /// per-epoch persistence work.
    pub(crate) fn execute(
        &self,
        warm: &dyn WarmResolve,
        caps: Option<&dyn CapsResolve>,
        tenants: &[TenantSpec],
        config: Option<&CapacityConfig>,
        chaos: Option<Chaos<'_>>,
        durable: Option<Durable<'_>>,
    ) -> PersistResult<RunOutcome> {
        let ctx = EpochCtx {
            policy: &self.policy,
            env: self.run_env(config),
            warm,
            caps,
            chaos: chaos.map(|c| c.clock),
            sink: self.telemetry.as_ref(),
            billing: self.billing.as_ref(),
            shards: self.policy.shard_count(tenants.len()),
        };
        let (mut run, start_epoch, mut hook) = match durable {
            None => (self.init_run(&ctx, tenants, config)?, 0, None),
            Some(durable) => {
                let stream = chaos.map(|c| c.stream);
                let (run, start_epoch, hook) =
                    self.open_store(&ctx, tenants, config, durable, stream)?;
                (run, start_epoch, Some(hook))
            }
        };
        let num_epochs = run.states.iter().map(|s| s.peaks.len()).max().unwrap_or(0);
        // Epochs executed before a crash were timed by the killed process;
        // their rows restore as zero. Timing is the masked field family, so
        // a resumed report still matches the uninterrupted one.
        let mut epoch_timing: Vec<StageTimes> = vec![StageTimes::zero(); start_epoch];
        // The alert engine restarts empty on resume (alert state is
        // operational, not certified plan state).
        let mut alerts = self.alert_engine();
        for index in start_epoch..num_epochs {
            let wall = Instant::now();
            let mut epoch = Epoch {
                index,
                times: StageTimes::zero(),
                fanout: FanoutObs::default(),
            };
            if let Some(hook) = hook.as_mut() {
                hook.mark(&run);
            }
            ctx.step(&mut epoch, &mut run)?;
            let checkpoint_epoch = match hook.as_mut() {
                Some(hook) => {
                    if hook.end_epoch(&mut epoch, &run, ctx.sink)? {
                        return Ok(RunOutcome::Crashed { epoch: index });
                    }
                    Some(hook.checkpoint_epoch)
                }
                None => None,
            };
            ctx.observe(
                &epoch,
                wall.elapsed().as_secs_f64(),
                &run.states,
                alerts.as_mut(),
                checkpoint_epoch,
            );
            epoch_timing.push(epoch.times);
        }
        Ok(RunOutcome::Completed(self.finish(
            run,
            num_epochs,
            &ctx.env,
            epoch_timing,
        )))
    }
}

impl EpochCtx<'_> {
    /// One tick of the shared clock: bill/arbitrate, re-solve failures, then
    /// — when re-solving is enabled — probe shifts, solve, and decide.
    fn step(&self, epoch: &mut Epoch, run: &mut RunState<'_>) -> SolveResult<()> {
        self.sink.counter("fleet.epochs", 1);
        let failures = self.bill(epoch, run);
        self.resolve_failures(epoch, run, failures)?;
        if !self.policy.resolve {
            return Ok(());
        }
        let due = self.probe(epoch, run);
        self.solve(epoch, &mut run.states, &due)?;
        self.adopt(epoch, run, due);
        Ok(())
    }

    /// Builds the horizon cache of a solver plan under the run's billing.
    pub(crate) fn plan_cache(
        &self,
        instance: &Instance,
        solution: &Solution,
    ) -> SolveResult<HorizonCache> {
        let plan = ProvisioningPlan::build(instance, solution)?;
        Ok(HorizonCache::new(&plan, self.billing))
    }

    /// Attributes `seconds` of `stage` work to a tenant *and* to a stage row
    /// (the epoch's, or a shard's that merges into it), emitting the span to
    /// the sink — the single accounting path for every timed region of the
    /// epoch loop, so per-tenant and per-epoch breakdowns cannot drift apart.
    fn charge(
        &self,
        state: &mut TenantState<'_>,
        times: &mut StageTimes,
        stage: Stage,
        seconds: f64,
    ) {
        state.report.timing.add(stage, seconds);
        times.add(stage, seconds);
        self.sink.span(stage.span_name(), seconds);
    }

    /// Runs `f` once per tenant, fanned out over the run's contiguous shards
    /// of the state slice on the shared worker pool, returning the
    /// per-tenant results **in tenant-index order**.
    ///
    /// This is the deterministic backbone of the sharded epoch loop. Shards
    /// are contiguous index ranges, so concatenating their outputs in shard
    /// order *is* tenant-index order, and every cross-tenant effect — pool
    /// arbitration, solver fan-outs, flight-recorder events — stays with the
    /// caller at the barrier after this returns. `f` receives a shard-local
    /// [`StageTimes`] accumulator; the accumulators merge into the epoch's
    /// row at the barrier, and when `shard_span` is given each shard's
    /// accumulated seconds are emitted as one span, plus the merge-barrier
    /// wait (fan-out wall time past the busiest shard) under
    /// `fleet.span.merge_wait`. Counters and spans may be emitted from
    /// inside `f` (the sink's registry merges its thread-local shards on
    /// snapshot); flight-recorder events must not be.
    ///
    /// One shard short-circuits to a plain sequential loop over the same
    /// closure, so `FleetPolicy { shards: Some(1) }` runs the sequential
    /// controller rather than an emulation of it.
    fn for_each_tenant<'a, R, F>(
        &self,
        states: &mut [TenantState<'a>],
        epoch: &mut Epoch,
        shard_span: Option<&'static str>,
        f: F,
    ) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &mut TenantState<'a>, &mut StageTimes) -> R + Sync,
    {
        let len = states.len();
        let shards = self.shards.clamp(1, len.max(1));
        if shards <= 1 {
            let mut times = StageTimes::zero();
            let out = states
                .iter_mut()
                .enumerate()
                .map(|(i, state)| f(i, state, &mut times))
                .collect();
            if let Some(name) = shard_span {
                self.sink.span(name, times.total());
                epoch.fanout.probe_shards.push(times.total());
            }
            epoch.times.merge(&times);
            return out;
        }
        let chunk = len.div_ceil(shards);
        // Hand each worker exclusive `&mut` access to its own contiguous
        // shard: the slice splits up front, and the per-shard mutex lets the
        // `Fn + Sync` closure below reclaim mutable access from a shared
        // reference. Each mutex is locked exactly once, by the worker that
        // drew its index.
        let shard_slices: Vec<Mutex<(usize, &mut [TenantState<'a>])>> = states
            .chunks_mut(chunk)
            .enumerate()
            .map(|(s, slice)| Mutex::new((s * chunk, slice)))
            .collect();
        let fan_out = Instant::now();
        let shard_results = rayon::parallel_map_indexed(shard_slices.len(), Some(shards), |s| {
            let mut guard = shard_slices[s].lock().expect("shard slice poisoned");
            let (offset, slice) = &mut *guard;
            let busy = Instant::now();
            let mut times = StageTimes::zero();
            let out: Vec<R> = slice
                .iter_mut()
                .enumerate()
                .map(|(k, state)| f(*offset + k, state, &mut times))
                .collect();
            (out, times, busy.elapsed().as_secs_f64())
        });
        let wall = fan_out.elapsed().as_secs_f64();
        let mut merged = Vec::with_capacity(len);
        let mut busiest = 0.0f64;
        for (out, times, busy) in shard_results {
            if let Some(name) = shard_span {
                self.sink.span(name, times.total());
                epoch.fanout.probe_shards.push(times.total());
            }
            epoch.times.merge(&times);
            busiest = busiest.max(busy);
            merged.extend(out);
        }
        let merge_wait = (wall - busiest).max(0.0);
        self.sink.span("fleet.span.merge_wait", merge_wait);
        epoch.fanout.merge_wait += merge_wait;
        merged
    }

    /// One batched solver fan-out over `jobs` — `(tenant, ρ, caps)` each —
    /// returning every job's result and wall time in job order. Capped jobs
    /// go to the capacity solver; a run's jobs are either all capped or all
    /// warm, since only a finite pool (or a failure) imposes caps.
    fn fan_out(
        &self,
        states: &[TenantState<'_>],
        jobs: &[(usize, Throughput, Option<&[u64]>)],
        budget: Option<&SolveBudget>,
    ) -> Vec<(SolveResult<SolverOutcome>, Duration)> {
        let threads = self.policy.threads;
        let capped: Option<Vec<CapsBatchItem<'_>>> = jobs
            .iter()
            .map(|&(i, rho, caps)| {
                let state = &states[i];
                caps.map(|caps| {
                    CapsBatchItem::new(&state.spec.instance, rho, caps, state.prior.as_ref())
                })
            })
            .collect();
        match capped {
            Some(items) if !items.is_empty() => self
                .caps
                .expect("capped work comes only from coupled runs, which solve with caps")
                .caps_batch(&items, budget, threads),
            _ => {
                let items: Vec<WarmBatchItem<'_>> = jobs
                    .iter()
                    .map(|&(i, rho, _)| {
                        WarmBatchItem::new(&states[i].spec.instance, rho, states[i].prior.as_ref())
                    })
                    .collect();
                self.warm.warm_batch(&items, budget, threads)
            }
        }
    }

    /// Stage 1, bill / arbitrate (the `arbitrate` span): rents this epoch's
    /// fleets under the current mixes. A tenant whose own trace has ended
    /// stops being billed (and counted) — its per-tenant baselines only
    /// cover its own trace, too. Coupled runs rent through
    /// [`EpochCtx::arbitrate`] and return the violations that warrant a
    /// capacity-constrained re-solve.
    fn bill(&self, epoch: &mut Epoch, run: &mut RunState<'_>) -> Vec<FailureDue> {
        let span = SpanTimer::start(Stage::Arbitrate);
        let failures = match run.coupled.as_mut() {
            None => {
                let (index, policy) = (epoch.index, self.policy);
                self.for_each_tenant(&mut run.states, epoch, None, |_, state, _| {
                    let Some(&rate) = state.peaks.get(index) else {
                        return;
                    };
                    let fleet = state
                        .mix
                        .step(&state.scaler, rate, policy.scale_down_patience);
                    let cost = state.scaler.cost_rate(fleet) * policy.epoch;
                    state.report.rental_cost += cost;
                    state.report.epoch_costs.push(cost);
                });
                Vec::new()
            }
            Some(cs) => self.arbitrate(epoch, &mut run.states, cs, &mut run.stale_desired),
        };
        span.stop_into(&mut epoch.times, self.sink);
        failures
    }

    /// The coupled half of stage 1: routes the renting through the pool's
    /// arbitration (desired fleets plus outage replacements, granted against
    /// the quotas), bills the grants and detects throughput-violated epochs.
    /// The per-tenant halves run as sharded passes around the arbitration
    /// barrier — the pool itself mutates only at the barrier, and events
    /// fire only there.
    fn arbitrate(
        &self,
        epoch: &mut Epoch,
        states: &mut [TenantState<'_>],
        cs: &mut CouplingState,
        stale_desired: &mut Option<Vec<Vec<u64>>>,
    ) -> Vec<FailureDue> {
        let (index, policy, env) = (epoch.index, self.policy, &self.env);
        let window_start = index as f64 * policy.epoch;
        let window_end = window_start + policy.epoch;
        // Desired fleets: the mix's scale-up/down plus one replacement per
        // machine known down at the window start (the "repair" half of
        // fleet-with-repair). Ended tenants release their holdings.
        let traces = &cs.traces;
        let desired: Vec<Vec<u64>> = self.for_each_tenant(states, epoch, None, |i, state, _| {
            let num_types = state.spec.instance.num_types();
            let Some(&rate) = state.peaks.get(index) else {
                return vec![0; num_types];
            };
            let mut fleet = state
                .mix
                .step(&state.scaler, rate, policy.scale_down_patience)
                .to_vec();
            if env.failures_enabled {
                for (q, count) in fleet.iter_mut().enumerate() {
                    *count += traces[i].machines_down_among(TypeId(q), *count, window_start);
                }
            }
            fleet
        });
        // Under chaos, a delayed decision re-arbitrates on the previous
        // epoch's desired fleets — tenants then serve the epoch on stale
        // grants.
        let delayed = self.chaos.is_some_and(|clock| clock.delays_epoch(index));
        if delayed {
            self.sink.event(
                EventKind::ChaosFault,
                index,
                None,
                0.0,
                "delayed arbitration: serving on stale grants",
            );
        }
        let grants = if delayed {
            cs.pool
                .arbitrate_epoch(stale_desired.as_ref().unwrap_or(&desired))
        } else {
            cs.pool.arbitrate_epoch(&desired)
        };
        if self.chaos.is_some() {
            *stale_desired = Some(desired);
        }
        if self.sink.enabled() && !cs.pool.is_unlimited() {
            let peak = cs
                .pool
                .utilization()
                .iter()
                .fold(0.0, |a: f64, &u| a.max(u));
            self.sink.gauge("fleet.pool.peak_utilization", peak);
        }
        // A violated epoch observed by the sharded billing pass: the rate
        // for the barrier's SloViolation event, plus the `(ρ', caps)` of a
        // warranted capacity-constrained re-solve.
        struct SloEpoch {
            rate: f64,
            resolve: Option<(Throughput, Vec<u64>)>,
        }
        let pool = &cs.pool;
        let violations: Vec<Option<SloEpoch>> =
            self.for_each_tenant(states, epoch, None, |i, state, _| {
                let &rate = state.peaks.get(index)?;
                let granted = &grants[i];
                let cost = state.scaler.cost_rate(granted) * policy.epoch;
                state.report.rental_cost += cost;
                state.report.epoch_costs.push(cost);
                // Surviving capacity: the granted machines minus the worst
                // simultaneous outage among them this epoch.
                let available = surviving(&traces[i], granted, window_start, window_end);
                if !state.scaler.violates(rate, &available) {
                    // A healthy epoch closes the outage episode; the next
                    // violation is a new situation to solve.
                    state.last_failure_solve = None;
                    return None;
                }
                state.report.slo_violation_epochs += 1;
                self.sink.counter("fleet.slo_violations", 1);
                let unresolved = Some(SloEpoch {
                    rate,
                    resolve: None,
                });
                if !(policy.resolve && env.failure_resolve) {
                    return unresolved;
                }
                let rho = quantize_target(rate, env.serve_headroom, state.granularity);
                if rho == 0 {
                    return unresolved;
                }
                // A deferred tenant keeps its current plan until its backoff
                // window ends; the violation is still counted above.
                if index < state.deferred_until {
                    state.report.deferred_resolves += 1;
                    return unresolved;
                }
                // Effective caps for the re-solve: holdings plus residual
                // quota, minus machines still down at the epoch's end (lost
                // capacity for the outage's duration).
                let caps: Vec<u64> = pool
                    .caps_for(i)
                    .iter()
                    .enumerate()
                    .map(|(q, &cap)| {
                        if cap == UNLIMITED_CAP {
                            UNLIMITED_CAP
                        } else {
                            cap.saturating_sub(traces[i].machines_down_among(
                                TypeId(q),
                                granted[q],
                                window_end,
                            ))
                        }
                    })
                    .collect();
                // Re-solving an unchanged outage situation cannot produce a
                // new answer; only count the violation.
                let unchanged = matches!(
                    &state.last_failure_solve,
                    Some((r, c)) if *r == rho && *c == caps
                );
                Some(SloEpoch {
                    rate,
                    resolve: (!unchanged).then_some((rho, caps)),
                })
            });
        // Barrier: flight-recorder events fire here, in tenant-index order,
        // never from shard workers.
        let mut failures = Vec::new();
        for (i, slo) in violations.into_iter().enumerate() {
            let Some(slo) = slo else {
                continue;
            };
            if self.sink.enabled() {
                self.sink.event(
                    EventKind::SloViolation,
                    index,
                    Some(i),
                    slo.rate,
                    "surviving capacity below demand",
                );
            }
            if let Some((rho, caps)) = slo.resolve {
                failures.push((i, rho, caps));
            }
        }
        failures
    }

    /// Stage 2, failure re-solves (charged per tenant to `probe` and
    /// `solve`): probe (fractional coverage bound) first, then one batched
    /// capacity-constrained fan-out, then the degraded-mode fallback for
    /// what the quota cannot carry. Only coupled runs report failures, so
    /// the caps solver exists whenever the list is non-empty.
    fn resolve_failures(
        &self,
        epoch: &mut Epoch,
        run: &mut RunState<'_>,
        failures: Vec<FailureDue>,
    ) -> SolveResult<()> {
        let Some(resolver) = self.caps.filter(|_| !failures.is_empty()) else {
            return Ok(());
        };
        let (states, adoptions) = (&mut run.states, &mut run.adoptions);
        let mut full: Vec<FailureDue> = Vec::new();
        let mut needs_degrade: Vec<FailureDue> = Vec::new();
        for (i, rho, caps) in failures {
            let state = &mut states[i];
            if state.peaks.len() <= epoch.index + 1 {
                // Last billed epoch: no remaining horizon to serve.
                state.last_failure_solve = Some((rho, caps));
                continue;
            }
            // Futility check: when the best-known plan at ρ' already fits
            // the caps, a capped re-solve cannot beat it. If it is the very
            // plan being run, the violation is a transient outage the
            // replacement renting already handles; otherwise adopt it
            // without re-solving.
            let fitting_known: Option<Solution> = state.known.get(&rho).and_then(|kp| {
                fits_caps(kp.outcome.solution.allocation.machine_counts(), &caps)
                    .then(|| kp.outcome.solution.clone())
            });
            if let Some(solution) = fitting_known {
                state.last_failure_solve = Some((rho, caps));
                if state.solved_target != rho {
                    self.adopt_failure_plan(state, adoptions, i, epoch.index, rho, &solution)?;
                }
                continue;
            }
            let probe_span = SpanTimer::start(Stage::Probe);
            state.report.probes += 1;
            let bound = coverage_bound(&state.spec.instance, &caps)?;
            self.charge(state, &mut epoch.times, Stage::Probe, probe_span.stop());
            if bound >= rho as f64 - 1e-9 {
                full.push((i, rho, caps));
            } else {
                needs_degrade.push((i, rho, caps));
            }
        }
        let jobs: Vec<(usize, Throughput, Option<&[u64]>)> = full
            .iter()
            .map(|(i, rho, caps)| (*i, *rho, Some(caps.as_slice())))
            .collect();
        let budget = self.policy.epoch_budget.map(|b| b.split(full.len().max(1)));
        let results = self.fan_out(states, &jobs, budget.as_ref());
        drop(jobs);
        for ((i, rho, caps), (result, elapsed)) in full.into_iter().zip(results) {
            let state = &mut states[i];
            self.charge(state, &mut epoch.times, Stage::Solve, elapsed.as_secs_f64());
            match result {
                Ok(outcome) => {
                    state.report.failure_resolves += 1;
                    state.last_failure_solve = Some((rho, caps));
                    self.adopt_failure_outcome(state, adoptions, i, epoch.index, rho, outcome)?;
                }
                // The fractional bound over-estimated what integer machine
                // counts can do; degrade.
                Err(SolveError::NoSolutionFound { .. }) => needs_degrade.push((i, rho, caps)),
                // Exhausted with no incumbent: inconclusive. Keep the
                // current plan, skip the episode memo (a retry with more
                // budget can succeed) and re-queue with backoff. Any other
                // error propagates.
                Err(err) => state.defer(epoch.index, self.policy.backoff_cap, err)?,
            }
        }
        for (i, rho, caps) in needs_degrade {
            let state = &mut states[i];
            let degrade_span = SpanTimer::start(Stage::Solve);
            let result =
                resolver.caps_degrade(&state.spec.instance, rho, &caps, state.prior.as_ref());
            self.charge(state, &mut epoch.times, Stage::Solve, degrade_span.stop());
            let capped = match result {
                Ok(capped) => capped,
                Err(err) => {
                    // Even the degraded fallback came up empty (budget or
                    // an injected fault): keep the current plan, forget the
                    // episode memo and re-queue with backoff.
                    state.last_failure_solve = None;
                    state.defer(epoch.index, self.policy.backoff_cap, err)?;
                    continue;
                }
            };
            state.report.failure_resolves += 1;
            state.last_failure_solve = Some((rho, caps));
            let (target, outcome) = match capped {
                CappedOutcome::Full(outcome) => (rho, outcome),
                CappedOutcome::Degraded { target, outcome } => {
                    state.report.degraded_resolves += 1;
                    self.sink.counter("fleet.degraded_resolves", 1);
                    if self.sink.enabled() {
                        self.sink.event(
                            EventKind::DegradedSolve,
                            epoch.index,
                            Some(i),
                            target as f64,
                            "quota-infeasible target degraded to largest feasible",
                        );
                    }
                    (target, outcome)
                }
                // Nothing rentable at all: keep the current fleet and keep
                // counting the violations.
                CappedOutcome::Unserved => continue,
            };
            self.adopt_failure_outcome(state, adoptions, i, epoch.index, target, outcome)?;
        }
        Ok(())
    }

    /// Stage 3, shift detection + what-if probes — the sharded half of the
    /// epoch (one `shard_probe` span per shard, plus `merge_wait`). Each
    /// shard advances its own tenants and builds their due entries (`keep:
    /// None` marks a forced re-solve: the current mix cannot carry the
    /// demand; each entry carries the tenant's own remaining horizon in
    /// hours); the entries concatenate in tenant-index order at the barrier.
    fn probe(&self, epoch: &mut Epoch, run: &mut RunState<'_>) -> Vec<DueTenant> {
        let (index, policy, env) = (epoch.index, self.policy, &self.env);
        // Pool-aware shift re-solves: under a finite quota the ordinary
        // keep-vs-switch path sees the same holdings-plus-residual caps the
        // failure path uses, so it can never adopt a plan the pool must
        // refuse at the next arbitration. An unlimited pool imposes
        // nothing, keeping `run_with_capacity` with
        // [`CapacityConfig::unconstrained`] bit-identical to `run`.
        let pool_caps = run
            .coupled
            .as_ref()
            .and_then(|cs| (!cs.pool.is_unlimited()).then_some(&cs.pool));
        let caps_for = |i: usize| pool_caps.map(|pool| pool.caps_for(i));
        let shard_span = Some("fleet.span.shard_probe");
        self.for_each_tenant(&mut run.states, epoch, shard_span, |i, state, times| {
            let rate = state.peaks.get(index).copied().unwrap_or(0.0);
            let rho = quantize_target(rate, env.serve_headroom, state.granularity);
            if rho == 0 {
                return None;
            }
            // Each tenant projects over *its own* remaining trace — savings
            // past a tenant's last billed epoch do not exist, so they must
            // not tip a switching decision.
            let remaining_hours = state.peaks.len().saturating_sub(index + 1) as f64 * policy.epoch;
            if remaining_hours <= 0.0 {
                return None;
            }
            // A deferred tenant sits out its backoff window: it keeps its
            // current plan, and the suppressed re-solve is counted.
            if index < state.deferred_until {
                state.report.deferred_resolves += 1;
                return None;
            }
            if !state.mix_carries_demand() {
                // A zero mix cannot carry any demand: re-solving is not
                // optional, no probe needed.
                return Some(DueTenant {
                    tenant: i,
                    rho,
                    keep: None,
                    remaining_hours,
                    caps: caps_for(i),
                });
            }
            let shift = (rho as f64 - state.solved_target as f64).abs()
                > policy.shift_threshold * state.solved_target.max(1) as f64;
            if !shift {
                return None;
            }
            let probe_span = SpanTimer::start(Stage::Probe);
            state.report.probes += 1;
            if !state.probe_cache.contains_key(&rho) {
                let entry = ProbeEntry::new(
                    &state.spec.instance,
                    &state.scaler,
                    state.solved_target,
                    rho,
                    self.billing,
                );
                state.probe_cache.insert(rho, entry);
            }
            let elapsed_hours = (index + 1 - state.adopted_epoch) as f64 * policy.epoch;
            let keep_projected = state.probe_cache[&rho].keep_cost(elapsed_hours, remaining_hours);
            let reference_rate = state
                .known
                .get(&rho)
                .map_or(rho as f64 * state.min_unit_cost, |k| {
                    k.outcome.cost() as f64
                });
            let reference_projected = reference_rate * remaining_hours;
            let worth_probing = keep_projected > (1.0 + policy.probe_epsilon) * reference_projected
                && keep_projected - reference_projected > policy.switching_cost;
            self.charge(state, times, Stage::Probe, probe_span.stop());
            worth_probing.then(|| DueTenant {
                tenant: i,
                rho,
                keep: Some(keep_projected),
                remaining_hours,
                caps: caps_for(i),
            })
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Stage 4, the solve barrier (`solve`): one batched fan-out for every due tenant
    /// whose target has not been solved before — capacity-constrained under
    /// a finite pool, for due tenants whose known plan (if any) does not fit
    /// their caps. One epoch budget splits across the pending set.
    ///
    /// A capped solve differs from a warm one in two deliberate ways: the
    /// capped optimum's lower bound is *not* adopted as a warm-start prior
    /// (a cap-constrained bound is no floor for later uncapped targets), and
    /// a failed solve defers the tenant — the failure path owns degraded
    /// serving, not the shift path. Any failed shift solve (exhausted with
    /// no incumbent, an injected spurious infeasibility, or a quota that
    /// cannot carry the shifted target right now) keeps the current plan and
    /// re-queues the tenant with backoff — deferred, not dropped.
    fn solve(
        &self,
        epoch: &mut Epoch,
        states: &mut [TenantState<'_>],
        due: &[DueTenant],
    ) -> SolveResult<()> {
        let jobs: Vec<(usize, Throughput, Option<&[u64]>)> = due
            .iter()
            .filter(|d| {
                let known = states[d.tenant].known.get(&d.rho);
                match &d.caps {
                    None => known.is_none(),
                    Some(caps) => {
                        known.map(|kp| {
                            fits_caps(kp.outcome.solution.allocation.machine_counts(), caps)
                        }) != Some(true)
                    }
                }
            })
            .map(|d| (d.tenant, d.rho, d.caps.as_deref()))
            .collect();
        let budget = self.policy.epoch_budget.map(|b| b.split(jobs.len().max(1)));
        let results = self.fan_out(states, &jobs, budget.as_ref());
        for (&(i, rho, caps), (result, elapsed)) in jobs.iter().zip(results) {
            let state = &mut states[i];
            self.charge(state, &mut epoch.times, Stage::Solve, elapsed.as_secs_f64());
            let outcome = match result {
                Ok(outcome) => outcome,
                Err(err) => {
                    state.defer(epoch.index, self.policy.backoff_cap, err)?;
                    continue;
                }
            };
            state.record_solve(&outcome);
            state.report.resolves += 1;
            self.sink.counter("fleet.resolves", 1);
            if caps.is_none() {
                state.prior = Some(SweepPrior::from_outcome(rho, &outcome));
            }
            debug_certify(&state.spec.instance, &outcome.solution, caps);
            let cache = self.plan_cache(&state.spec.instance, &outcome.solution)?;
            state.learn(rho, KnownPlan { outcome, cache });
        }
        Ok(())
    }

    /// Stage 5, keep-vs-switch decisions (`adopt`) under the switching-cost
    /// hysteresis, one per due tenant. The charge the candidate must beat is
    /// the flat cost plus the per-machine-delta cost of the machines that
    /// actually change between the kept fleet (current mix rescaled to ρ')
    /// and the candidate's fleet.
    fn adopt(&self, epoch: &mut Epoch, run: &mut RunState<'_>, due: Vec<DueTenant>) {
        let adopt_span = SpanTimer::start(Stage::Adopt);
        for DueTenant {
            tenant: i,
            rho,
            keep,
            remaining_hours,
            caps,
        } in due
        {
            let state = &mut run.states[i];
            // A deferred re-solve left no plan at ρ': the tenant keeps its
            // current plan; the backoff schedule re-queues it.
            let Some(known) = state.known.get(&rho) else {
                continue;
            };
            let candidate = &known.outcome;
            // Under a finite pool a candidate exceeding the tenant's caps is
            // not adoptable — the capped re-solve above either replaced it
            // or deferred the tenant — so it is skipped like a deferral.
            if caps.as_ref().is_some_and(|caps| {
                !fits_caps(candidate.solution.allocation.machine_counts(), caps)
            }) {
                continue;
            }
            let switch_projected = known.cache.total(RentalHorizon::hours(remaining_hours));
            let kept_fleet = state.scaler.required_for_target(rho as f64);
            let charge = self
                .policy
                .switching_charge(&kept_fleet, candidate.solution.allocation.machine_counts());
            let record = AdoptionRecord {
                tenant: i,
                epoch: epoch.index,
                target: rho,
                projected_keep: keep,
                projected_switch: switch_projected,
                switching_cost: charge,
                // A forced switch (no keep option) bypasses the hysteresis:
                // the demand must be served.
                adopted: keep.is_none_or(|keep| switch_projected + charge < keep),
                failure_triggered: false,
            };
            if record.adopted {
                let (solution, exhausted) = (candidate.solution.clone(), candidate.exhausted);
                if exhausted {
                    // An anytime incumbent (feasible, not proven optimal) is
                    // adopted like any plan.
                    state.report.incumbent_adoptions += 1;
                }
                self.switch_plan(state, &record, &solution, "workload-shift adoption");
            }
            run.adoptions.push(record);
        }
        adopt_span.stop_into(&mut epoch.times, self.sink);
    }

    /// Adopts a successful failure re-solve: its solve bookkeeping — an
    /// exhausted outcome is an anytime incumbent, adopted like any plan —
    /// then the forced adoption of its plan.
    fn adopt_failure_outcome(
        &self,
        state: &mut TenantState<'_>,
        adoptions: &mut Vec<AdoptionRecord>,
        tenant: usize,
        epoch: usize,
        target: Throughput,
        outcome: SolverOutcome,
    ) -> SolveResult<()> {
        state.record_solve(&outcome);
        if outcome.exhausted {
            state.report.incumbent_adoptions += 1;
        }
        self.adopt_failure_plan(state, adoptions, tenant, epoch, target, &outcome.solution)
    }

    /// Adopts a failure re-solve's plan: forced (the demand is unserved, so
    /// there is no keep option and no hysteresis), the switching charge is
    /// still paid, and the adoption is recorded with its outage-derated
    /// remaining-horizon projection.
    fn adopt_failure_plan(
        &self,
        state: &mut TenantState<'_>,
        adoptions: &mut Vec<AdoptionRecord>,
        tenant: usize,
        epoch: usize,
        target: Throughput,
        solution: &Solution,
    ) -> SolveResult<()> {
        let remaining_hours =
            state.peaks.len().saturating_sub(epoch + 1) as f64 * self.policy.epoch;
        let kept_fleet = state.scaler.required_for_target(target as f64);
        let cache = self.plan_cache(&state.spec.instance, solution)?;
        let record = AdoptionRecord {
            tenant,
            epoch,
            target,
            projected_keep: None,
            projected_switch: cache.expected_total_over(
                RentalHorizon::hours(0.0),
                RentalHorizon::hours(remaining_hours),
                self.env.availability,
            ),
            switching_cost: self
                .policy
                .switching_charge(&kept_fleet, solution.allocation.machine_counts()),
            adopted: true,
            failure_triggered: true,
        };
        self.switch_plan(
            state,
            &record,
            solution,
            "forced failure-triggered adoption",
        );
        adoptions.push(record);
        Ok(())
    }

    /// Switches a tenant to `solution`, the plan `record` adopts — the one
    /// adoption mutation shared by shift and failure adoptions: counts and
    /// announces it, pays the switching charge and rebuilds the mix.
    fn switch_plan(
        &self,
        state: &mut TenantState<'_>,
        record: &AdoptionRecord,
        solution: &Solution,
        detail: &'static str,
    ) {
        debug_certify(&state.spec.instance, solution, None);
        state.report.adoptions += 1;
        self.sink.counter("fleet.adoptions", 1);
        self.sink.event(
            EventKind::Adoption,
            record.epoch,
            Some(record.tenant),
            record.projected_switch,
            detail,
        );
        state.report.switching_cost += record.switching_cost;
        state.fractions = Autoscaler::split_fractions(solution);
        state.scaler =
            FixedMixScaler::new(&state.spec.instance, &state.fractions, &self.env.scaling);
        state.solved_target = record.target;
        // The new plan starts renting from the next epoch.
        state.adopted_epoch = record.epoch + 1;
        state.probe_cache.clear();
    }

    /// Per-epoch observability barrier, called once per executed epoch of
    /// the loop. Publishes the epoch watermark, emits the epoch's causal
    /// trace tree, and evaluates the alert rules (`checkpoint_epoch` feeds
    /// the checkpoint-lag rule on persistent runs). Everything here is pure
    /// copy-out — no controller state is read back — so runs stay
    /// bit-identical under any sink.
    fn observe(
        &self,
        epoch: &Epoch,
        wall_seconds: f64,
        states: &[TenantState<'_>],
        alerts: Option<&mut AlertEngine>,
        checkpoint_epoch: Option<usize>,
    ) {
        let sink = self.sink;
        sink.gauge("fleet.epoch_watermark", epoch.index as f64);
        if sink.enabled() {
            epoch_tree(
                epoch.index as u64,
                wall_seconds,
                &epoch.times,
                &epoch.fanout,
            )
            .emit(sink);
        }
        if let Some(engine) = alerts {
            let total =
                |count: fn(&TenantState<'_>) -> usize| states.iter().map(|s| count(s) as u64).sum();
            let observation = EpochObservation {
                epoch: epoch.index,
                active_tenants: states
                    .iter()
                    .filter(|s| s.peaks.len() > epoch.index)
                    .count(),
                slo_violations: total(|s| s.report.slo_violation_epochs),
                degraded_resolves: total(|s| s.report.degraded_resolves),
                budget_exhausted: total(|s| s.report.budget_exhausted_epochs),
                checkpoint_epoch,
            };
            engine.observe(observation, sink);
        }
    }
}
