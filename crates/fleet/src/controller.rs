//! The event-driven fleet controller: probe, batch re-solve, adopt.
//!
//! Per epoch of the shared clock the controller (1) re-reads every tenant's
//! demand rate and, on a workload shift, runs a cheap memoized what-if probe,
//! (2) batches every due tenant into one warm-started solver fan-out on the
//! shared worker pool, and (3) adopts a freshly solved plan only when its
//! projected remaining-horizon savings beat the switching cost. See the crate
//! docs for how this maps onto §I's streaming model.
//!
//! This module holds the public surface — [`FleetPolicy`] and the
//! [`FleetController`] entry points — plus the per-tenant state and its
//! start and finish: the initial solves and the baselines of the report. The
//! epoch loop itself, with one function per stage, lives in the `epoch`
//! module.

use std::collections::HashMap;
use std::sync::Arc;

use rental_capacity::{CapacityConfig, CapacityPool, UNLIMITED_CAP};
use rental_core::{
    Instance, PlannedMachine, ProvisioningPlan, RecipeId, Solution, Throughput, TypeId, TypeSummary,
};
use rental_obs::{AlertEngine, AlertPolicy, NoopSink, Stage, StageTimes, TelemetrySink};
use rental_pricing::{HorizonCache, OnDemand, RentalHorizon, SegmentedBilling};
use rental_solvers::batch::WarmBatchItem;
use rental_solvers::solver::{
    CapacitySolver, SolveBudget, SolveError, SolveResult, SolverOutcome, SweepPrior,
    WarmStartSolver,
};
use rental_stream::{
    AutoscalePolicy, Autoscaler, FailureTrace, FixedMixScaler, FixedMixState, WorkloadTrace,
};

use crate::epoch::{EpochCtx, RunState};
use crate::persist::{PersistError, PersistResult, RunOutcome};
use crate::report::{FleetReport, TenantReport};
use crate::tenant::TenantSpec;

/// Parameters of the fleet controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetPolicy {
    /// Epoch length of the shared clock (hours).
    pub epoch: f64,
    /// Capacity head-room: tenants are provisioned for `rate × headroom`.
    pub headroom: f64,
    /// Consecutive low epochs before a tenant's fleet scales down (the same
    /// hysteresis as [`AutoscalePolicy::scale_down_patience`]).
    pub scale_down_patience: usize,
    /// Probe slack ε: a tenant is **not** due for a re-solve while the
    /// fixed-mix rescale of its current plan stays within `(1 + ε)` of the
    /// best known cost at the shifted target.
    pub probe_epsilon: f64,
    /// Relative target change (vs. the target the current plan was solved
    /// for) that counts as a workload shift worth probing.
    pub shift_threshold: f64,
    /// Flat switching/migration charge paid when a new plan is adopted, in
    /// cost units. Candidate plans must project savings above this over the
    /// remaining horizon (hysteresis).
    pub switching_cost: f64,
    /// Per-machine-delta switching charge: on adoption, every machine that
    /// actually changes between the kept fleet (the current mix rescaled to
    /// the new target) and the adopted plan's fleet — added *or* removed,
    /// per type — costs this much on top of the flat charge. `0.0` (the
    /// default) recovers the flat-cost-only behaviour exactly.
    pub per_machine_switching_cost: f64,
    /// Master switch for the probe/solve/adopt loop. Disabled, the controller
    /// degrades to one fixed-mix autoscaler per tenant.
    pub resolve: bool,
    /// Cap on solver worker threads (`None`: one per available CPU).
    pub threads: Option<usize>,
    /// Per-epoch solve budget shared by every re-solve batch of one epoch:
    /// the batch scheduler splits the countable caps across the pending
    /// units ([`SolveBudget::split`]) while a wall-clock deadline is shared
    /// by the concurrent fan-out. A budgeted solve that runs out with an
    /// incumbent is adopted as an **anytime** plan; one that runs out with
    /// no incumbent defers the tenant (it keeps its current plan and is
    /// re-queued with backoff). `None` (the default) keeps the unbudgeted
    /// path bit-identical. Initial solves are never budgeted — every tenant
    /// needs *some* plan before the epoch clock starts.
    pub epoch_budget: Option<SolveBudget>,
    /// Cap (in epochs) on the exponential re-queue backoff of a tenant whose
    /// budgeted re-solve was exhausted without an incumbent: the tenant is
    /// retried after 1, 2, 4, … epochs, clamped to this cap — deferred,
    /// never dropped.
    pub backoff_cap: usize,
    /// Number of per-tenant pipeline shards the epoch loop fans out over.
    /// `Some(1)` **is** the sequential controller (the same code path, not
    /// an emulation); `None` (the default) auto-sizes — one shard per
    /// solver worker once the fleet is large enough to amortise the
    /// fan-out, sequential below that. Shards merge at one deterministic
    /// barrier per epoch in tenant-index order, so the report is
    /// bit-identical (modulo the [`StageTimes`] timing family) at every
    /// shard count.
    pub shards: Option<usize>,
}

impl Default for FleetPolicy {
    fn default() -> Self {
        FleetPolicy {
            epoch: 1.0,
            headroom: 1.0,
            scale_down_patience: 2,
            probe_epsilon: 0.02,
            shift_threshold: 0.05,
            switching_cost: 0.0,
            per_machine_switching_cost: 0.0,
            resolve: true,
            threads: None,
            epoch_budget: None,
            backoff_cap: 8,
            shards: None,
        }
    }
}

/// Fleets below this many tenants per shard stay sequential under the auto
/// shard policy: the per-epoch fan-out costs more than it parallelises.
const MIN_TENANTS_PER_SHARD: usize = 64;

/// The next capped-exponential backoff step (in epochs): 1, 2, 4, …,
/// clamped to `cap`.
fn next_backoff(current: usize, cap: usize) -> usize {
    if current == 0 {
        1
    } else {
        current.saturating_mul(2).min(cap.max(1))
    }
}

impl FleetPolicy {
    /// The per-tenant autoscaling policy implied by the fleet policy — used
    /// both for the tenants' own fixed-mix scaling between re-solves and for
    /// the fixed-mix baseline of the report.
    pub fn autoscale_policy(&self) -> AutoscalePolicy {
        AutoscalePolicy {
            epoch: self.epoch,
            headroom: self.headroom,
            scale_down_patience: self.scale_down_patience,
            redundancy: 0,
        }
    }

    /// The switching charge of replacing the `kept` fleet with the `adopted`
    /// one (machines per type): the flat charge plus the per-machine-delta
    /// charge on every machine added or removed. With the default
    /// `per_machine_switching_cost = 0` this is the flat charge regardless
    /// of the fleets.
    pub fn switching_charge(&self, kept: &[u64], adopted: &[u64]) -> f64 {
        let delta: u64 = kept
            .iter()
            .zip(adopted)
            .map(|(&old, &new)| old.abs_diff(new))
            .sum();
        self.switching_cost + self.per_machine_switching_cost * delta as f64
    }

    /// Resolves the shard count of the per-tenant epoch pipelines for a
    /// fleet of `tenants`: an explicit [`FleetPolicy::shards`] clamped to
    /// the fleet size, or (auto) one shard per solver worker once every
    /// shard has at least [`MIN_TENANTS_PER_SHARD`] tenants to advance.
    pub fn shard_count(&self, tenants: usize) -> usize {
        let cap = tenants.max(1);
        match self.shards {
            Some(n) => n.clamp(1, cap),
            None => {
                let workers = self
                    .threads
                    .unwrap_or_else(rayon::current_num_threads)
                    .max(1);
                (tenants / MIN_TENANTS_PER_SHARD).clamp(1, workers).min(cap)
            }
        }
    }
}

/// Whether a plan's per-type machine counts fit inside per-type caps
/// ([`UNLIMITED_CAP`] entries impose nothing) — the one fit test shared by
/// the failure path's futility check, the pool-aware shift re-solve filter
/// and the adoption guard, so they cannot drift apart.
pub(crate) fn fits_caps(counts: &[u64], caps: &[u64]) -> bool {
    counts
        .iter()
        .zip(caps)
        .all(|(&count, &cap)| cap == UNLIMITED_CAP || count <= cap)
}

/// Quantizes a demand rate into a provisioning target: head-room applied,
/// rounded up to the instance's throughput granularity (which stabilises
/// probes and re-solve targets against sub-granularity rate jitter).
pub(crate) fn quantize_target(rate: f64, headroom: f64, granularity: u64) -> Throughput {
    let demand = rate * headroom;
    if demand <= 0.0 {
        return 0;
    }
    let rho = demand.ceil() as u64;
    let g = granularity.max(1);
    rho.div_ceil(g) * g
}

/// [`initial_target`] with an explicit head-room: the coupled serving path
/// provisions with availability-adjusted head-room, the plain path with the
/// policy's own — both quantize through this one function so the two cannot
/// drift apart.
fn initial_target_with(
    epoch: f64,
    headroom: f64,
    instance: &Instance,
    trace: &WorkloadTrace,
) -> u64 {
    let first_rate = trace.epoch_peaks(epoch).first().copied().unwrap_or(0.0);
    quantize_target(first_rate, headroom, instance.throughput_granularity())
}

/// The provisioning target a tenant's **initial** plan is solved for: its
/// first epoch's demand (what a cold-started system sees), quantized.
pub fn initial_target(policy: &FleetPolicy, instance: &Instance, trace: &WorkloadTrace) -> u64 {
    initial_target_with(policy.epoch, policy.headroom, instance, trace)
}

/// The fractional (LP) lower bound on any plan's hourly cost per unit of
/// provisioning target: `min_j Σ_q n_jq c_q / r_q`. Machine-count ceilings
/// only push real plans above it, so `target × min_unit_cost` is a sound
/// probe reference before the target has ever been solved.
pub(crate) fn min_unit_cost(instance: &Instance) -> f64 {
    let demand = instance.application().demand();
    let platform = instance.platform();
    (0..instance.num_recipes())
        .map(|j| {
            (0..instance.num_types())
                .map(|q| {
                    demand.count(RecipeId(j), TypeId(q)) as f64 * platform.cost(TypeId(q)) as f64
                        / (platform.throughput(TypeId(q)).max(1)) as f64
                })
                .sum::<f64>()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Builds a provisioning plan from explicit per-type machine counts (with
/// `load_each[q]` assigned load per machine), so fixed-mix fleets can be
/// projected over the remaining horizon through a [`HorizonCache`] like any
/// solver plan.
fn plan_from_fleet(
    instance: &Instance,
    fleet: &[u64],
    load_each: &[f64],
    target: Throughput,
) -> ProvisioningPlan {
    let platform = instance.platform();
    let mut machines = Vec::new();
    let mut per_type = Vec::with_capacity(fleet.len());
    let mut hourly_cost = 0u64;
    for (q, &count) in fleet.iter().enumerate() {
        let type_id = TypeId(q);
        let capacity_each = platform.throughput(type_id);
        let cost_each = platform.cost(type_id);
        for _ in 0..count {
            machines.push(PlannedMachine {
                type_id,
                hourly_cost: cost_each,
                capacity: capacity_each,
                assigned_load: load_each[q],
            });
        }
        hourly_cost += count * cost_each;
        per_type.push(TypeSummary {
            type_id,
            machines: count,
            demand: (load_each[q] * count as f64).round() as u64,
            capacity: count * capacity_each,
            hourly_cost: count * cost_each,
        });
    }
    ProvisioningPlan {
        target,
        split: vec![],
        machines,
        per_type,
        hourly_cost,
    }
}

/// A memoized "keep" projection: the fixed-mix rescale of the tenant's
/// current mix at one quantized target ρ', split into the machines that are
/// **continued** (also part of the nominal fleet at the currently solved
/// target — their committed billing terms are already running, so only the
/// marginal charge past the elapsed rental time applies) and the machines the
/// rescale would rent **fresh** (scale-up — new commitments, billed from
/// hour zero). Under linear billing the two parts sum to exactly the whole
/// fleet's remaining-horizon bill.
pub(crate) struct ProbeEntry {
    continued: HorizonCache,
    fresh: HorizonCache,
}

impl ProbeEntry {
    pub(crate) fn new(
        instance: &Instance,
        scaler: &FixedMixScaler,
        solved_target: Throughput,
        target: Throughput,
        billing: &(dyn SegmentedBilling + Send + Sync),
    ) -> Self {
        let current = scaler.required_for_target(solved_target as f64);
        let rescaled = scaler.required_for_target(target as f64);
        let demand = scaler.demand_at(target as f64);
        let load_each: Vec<f64> = rescaled
            .iter()
            .zip(&demand)
            .map(|(&n, &d)| if n == 0 { 0.0 } else { d / n as f64 })
            .collect();
        let continued: Vec<u64> = rescaled
            .iter()
            .zip(&current)
            .map(|(&tgt, &cur)| tgt.min(cur))
            .collect();
        let fresh: Vec<u64> = rescaled
            .iter()
            .zip(&continued)
            .map(|(&tgt, &kept)| tgt - kept)
            .collect();
        ProbeEntry {
            continued: HorizonCache::new(
                &plan_from_fleet(instance, &continued, &load_each, target),
                billing,
            ),
            fresh: HorizonCache::new(
                &plan_from_fleet(instance, &fresh, &load_each, target),
                billing,
            ),
        }
    }

    /// The keep-side projection over the next `remaining_hours` of a plan
    /// adopted `elapsed_hours` ago: continued machines bill only the margin
    /// past the elapsed rental time (committed terms already paid are sunk),
    /// scale-up machines bill fresh.
    pub(crate) fn keep_cost(&self, elapsed_hours: f64, remaining_hours: f64) -> f64 {
        self.continued.total_over(
            RentalHorizon::hours(elapsed_hours),
            RentalHorizon::hours(elapsed_hours + remaining_hours),
        ) + self.fresh.total(RentalHorizon::hours(remaining_hours))
    }
}

/// A solved target the tenant remembers: the outcome plus the horizon cache
/// of its plan. Probes use it as a sharp reference and adoption decisions
/// reuse it without re-solving when the workload revisits the target.
pub(crate) struct KnownPlan {
    pub(crate) outcome: SolverOutcome,
    pub(crate) cache: HorizonCache,
}

/// Mutable per-tenant state of a run.
///
/// Fields are `pub(crate)` so [`crate::persist`] can checkpoint the
/// decision-relevant state and rebuild the derived caches on resume.
pub(crate) struct TenantState<'a> {
    pub(crate) spec: &'a TenantSpec,
    pub(crate) peaks: Vec<f64>,
    pub(crate) granularity: u64,
    pub(crate) min_unit_cost: f64,
    /// The recipe mix the tenant started with (the fixed-mix baseline's mix).
    pub(crate) initial_fractions: Vec<f64>,
    /// Current recipe mix and its scaler.
    pub(crate) fractions: Vec<f64>,
    pub(crate) scaler: FixedMixScaler,
    pub(crate) mix: FixedMixState,
    pub(crate) solved_target: Throughput,
    /// Epoch at which the current mix was adopted (0 for the initial plan):
    /// keep-side projections bill the **marginal** remaining-horizon charge
    /// past the rental time already elapsed, so committed billing terms the
    /// current plan has already paid are sunk, not re-billed.
    pub(crate) adopted_epoch: usize,
    pub(crate) prior: Option<SweepPrior>,
    pub(crate) probe_cache: HashMap<Throughput, ProbeEntry>,
    pub(crate) known: HashMap<Throughput, KnownPlan>,
    /// The targets of [`TenantState::known`] in insertion order, so a
    /// checkpoint serializes the map deterministically and a journal record
    /// can carry exactly the plans learned since the previous record.
    pub(crate) known_order: Vec<Throughput>,
    /// The `(target, effective caps)` of the last failure re-solve: while an
    /// outage situation is unchanged, re-solving it again cannot produce a
    /// different answer, so the violated epochs are only counted.
    pub(crate) last_failure_solve: Option<(Throughput, Vec<u64>)>,
    /// First epoch at which a deferred tenant may re-solve again; epochs
    /// before it keep the current plan (counted as deferred re-solves).
    pub(crate) deferred_until: usize,
    /// Current backoff step (epochs); doubles per consecutive exhaustion up
    /// to [`FleetPolicy::backoff_cap`], resets on a successful re-solve.
    pub(crate) backoff: usize,
    /// The tenant's accounting — costs, epoch costs, event counters, timing
    /// and solver effort — kept directly in the public report schema, so
    /// every counter is declared once; [`FleetController::finish`] adds
    /// only the baselines.
    pub(crate) report: TenantReport,
}

impl<'a> TenantState<'a> {
    /// A tenant serving `fractions`, freshly adopted at epoch 0 for the
    /// report's initial target, with nothing learned yet. Initial solves and
    /// restores both start here and fill in what they know.
    pub(crate) fn new(
        spec: &'a TenantSpec,
        epoch_hours: f64,
        scaling: &AutoscalePolicy,
        fractions: Vec<f64>,
        report: TenantReport,
    ) -> Self {
        TenantState {
            peaks: spec.trace.epoch_peaks(epoch_hours),
            granularity: spec.instance.throughput_granularity(),
            min_unit_cost: min_unit_cost(&spec.instance),
            initial_fractions: fractions.clone(),
            scaler: FixedMixScaler::new(&spec.instance, &fractions, scaling),
            fractions,
            mix: FixedMixState::new(spec.instance.num_types()),
            solved_target: report.initial_target,
            adopted_epoch: 0,
            prior: None,
            probe_cache: HashMap::new(),
            known: HashMap::new(),
            known_order: Vec::new(),
            last_failure_solve: None,
            deferred_until: 0,
            backoff: 0,
            report,
            spec,
        }
    }

    pub(crate) fn mix_carries_demand(&self) -> bool {
        self.fractions.iter().any(|&f| f > 0.0)
    }

    /// Records a freshly learned plan at `rho`, keeping the insertion-order
    /// index in sync with the map.
    pub(crate) fn learn(&mut self, rho: Throughput, plan: KnownPlan) {
        if self.known.insert(rho, plan).is_none() {
            self.known_order.push(rho);
        }
    }

    /// Folds a successful solve into the tenant's accounting: its effort, a
    /// budget-exhausted epoch when the outcome is an anytime incumbent, and
    /// the close of an open backoff window (the retry is counted and the
    /// backoff schedule resets).
    pub(crate) fn record_solve(&mut self, outcome: &SolverOutcome) {
        self.report.effort.record(outcome);
        if outcome.exhausted {
            self.report.budget_exhausted_epochs += 1;
        }
        if self.backoff > 0 {
            self.report.resolve_retries += 1;
            self.backoff = 0;
            self.deferred_until = 0;
        }
    }

    /// Defers a tenant whose re-solve produced no usable plan — exhausted
    /// with no incumbent, or an injected spurious infeasibility: it keeps
    /// its current plan and sits out a capped-exponential backoff window
    /// before the next attempt — deferred, never dropped. Any other error is
    /// a real failure and propagates.
    pub(crate) fn defer(&mut self, epoch: usize, cap: usize, err: SolveError) -> SolveResult<()> {
        match err {
            SolveError::BudgetExhausted { .. } => self.report.budget_exhausted_epochs += 1,
            SolveError::NoSolutionFound { .. } => {}
            err => return Err(err),
        }
        self.report.deferred_resolves += 1;
        self.backoff = next_backoff(self.backoff, cap);
        self.deferred_until = epoch + 1 + self.backoff;
        Ok(())
    }
}

/// Certifies an adopted (or memoized) plan against the independent integer
/// checker in `rental_solvers::certify` — debug builds only. A violation is
/// a controller or solver bug, never a recoverable runtime condition, so it
/// panics like any failed debug assertion.
pub(crate) fn debug_certify(instance: &Instance, solution: &Solution, caps: Option<&[u64]>) {
    if cfg!(debug_assertions) {
        if let Err(err) = rental_solvers::certify_plan(instance, solution, caps) {
            panic!("plan failed independent certification: {err}");
        }
    }
}

/// Mutable coupling state over a run: the quota ledger and one outage trace
/// per tenant.
pub(crate) struct CouplingState {
    pub(crate) pool: CapacityPool,
    pub(crate) traces: Vec<FailureTrace>,
}

/// The serving knobs of one run, resolved once from the policy and the
/// optional capacity coupling (see [`FleetController::run_env`]). Pure
/// derived data: a resumed run recomputes it instead of persisting it.
pub(crate) struct RunEnv {
    pub(crate) failures_enabled: bool,
    pub(crate) availability: f64,
    pub(crate) serve_headroom: f64,
    pub(crate) failure_resolve: bool,
    pub(crate) scaling: AutoscalePolicy,
}

/// Worst-case per-type fleet bound of one tenant: the machines its **worst
/// single-recipe** mix would need at a provisioned rate (granularity
/// rounding folded into the rate). No real mix can demand more of any type.
/// Shared by the outage-trace slot sizing below and the quota sizing of
/// [`crate::scenario::failure_coupled_fleet`], so the two cannot drift.
pub(crate) fn worst_case_fleet(instance: &Instance, provisioned_rate: f64) -> Vec<u64> {
    let demand = instance.application().demand();
    let platform = instance.platform();
    (0..instance.num_types())
        .map(|q| {
            let worst = (0..instance.num_recipes())
                .map(|j| demand.count(RecipeId(j), TypeId(q)))
                .max()
                .unwrap_or(0) as f64;
            (provisioned_rate * worst / platform.throughput(TypeId(q)).max(1) as f64).ceil() as u64
        })
        .collect()
}

/// The provisioned rate the worst-case fleet bound is evaluated at: the
/// trace peak under the serving head-room, padded by one granularity step
/// (targets are rounded up to granularity multiples).
pub(crate) fn worst_case_rate(instance: &Instance, trace: &WorkloadTrace, headroom: f64) -> f64 {
    trace.peak_rate() * headroom + instance.throughput_granularity().max(1) as f64
}

/// The machines of `fleet` (per type) that survive the worst simultaneous
/// outage of `trace` among them in the window `[start, end)`.
pub(crate) fn surviving(trace: &FailureTrace, fleet: &[u64], start: f64, end: f64) -> Vec<u64> {
    fleet
        .iter()
        .enumerate()
        .map(|(q, &count)| {
            count.saturating_sub(trace.peak_down_among(TypeId(q), count, start, end))
        })
        .collect()
}

/// Upper bound on how many machines of each type a tenant could ever rent,
/// used to size its outage-trace slot pool: the worst-case fleet at the
/// provisioned peak, plus redundancy, doubled so outage replacements stay
/// inside the sampled slots.
fn failure_slots(
    instance: &Instance,
    trace: &WorkloadTrace,
    headroom: f64,
    redundancy: u64,
) -> Vec<u64> {
    worst_case_fleet(instance, worst_case_rate(instance, trace, headroom))
        .into_iter()
        .map(|base| 2 * (base + redundancy) + 4)
        .collect()
}

/// The multi-tenant streaming re-optimization controller.
pub struct FleetController {
    /// Controller parameters.
    pub policy: FleetPolicy,
    pub(crate) billing: Arc<dyn SegmentedBilling + Send + Sync>,
    /// Telemetry receiver for spans, per-epoch metrics and flight-recorder
    /// events. Defaults to [`NoopSink`] (zero-cost); all events are emitted
    /// from the sequential controller sites only, so an instrumented run's
    /// event sequence is deterministic.
    pub(crate) telemetry: Arc<dyn TelemetrySink>,
    /// Optional alert rules, evaluated once per epoch at the sequential
    /// barrier (see [`FleetController::with_alerts`]). `None` skips the
    /// engine entirely.
    pub(crate) alerts: Option<AlertPolicy>,
}

impl FleetController {
    /// Creates a controller billing on-demand by the hour.
    pub fn new(policy: FleetPolicy) -> Self {
        FleetController {
            policy,
            billing: Arc::new(OnDemand::hourly()),
            telemetry: Arc::new(NoopSink),
            alerts: None,
        }
    }

    /// Replaces the billing model used for remaining-horizon projections.
    pub fn with_billing(mut self, billing: Arc<dyn SegmentedBilling + Send + Sync>) -> Self {
        self.billing = billing;
        self
    }

    /// Attaches a telemetry sink (e.g. [`rental_obs::Recorder`]). Telemetry
    /// is pure copy-out — it never feeds a decision — so a run under any
    /// sink is bit-identical to the default [`NoopSink`] run.
    pub fn with_telemetry(mut self, sink: Arc<dyn TelemetrySink>) -> Self {
        self.telemetry = sink;
        self
    }

    /// Enables the [`AlertEngine`] with `policy`: burn-rate / streak /
    /// exhaustion / checkpoint-lag rules evaluated once per epoch at the
    /// sequential barrier. Alerts are pure telemetry — transitions become
    /// flight-recorder events and gauges, never controller decisions — so
    /// an alerted run stays bit-identical to an unalerted one (modulo the
    /// [`StageTimes`] family). The engine evaluates epoch-indexed
    /// cumulative totals only (no wall-clock), so a seeded run fires and
    /// resolves the same alerts at the same epochs every time.
    pub fn with_alerts(mut self, policy: AlertPolicy) -> Self {
        self.alerts = Some(policy);
        self
    }

    /// Runs the fleet over the shared epoch clock.
    ///
    /// # Errors
    ///
    /// Propagates the first solver error (initial solves or re-solves); the
    /// analytical scaling itself cannot fail.
    pub fn run<S: WarmStartSolver + Sync>(
        &self,
        solver: &S,
        tenants: &[TenantSpec],
    ) -> SolveResult<FleetReport> {
        completed(self.execute(solver, None, tenants, None, None, None))
    }

    /// Runs the fleet under a shared capacity pool with failure coupling:
    /// per-epoch fleets are granted by the pool's deterministic arbitration,
    /// outages erode the granted capacity, throughput-violated epochs are
    /// counted as SLO violations and trigger capacity-constrained
    /// re-solve-on-failure (probe first, batched, with a degraded-mode
    /// fallback when the quota cannot carry the target).
    ///
    /// With [`CapacityConfig::unconstrained`] — infinite quotas, failures
    /// disabled — this is **bit-identical** to [`FleetController::run`].
    ///
    /// # Errors
    ///
    /// Propagates the first solver error, like [`FleetController::run`].
    ///
    /// # Panics
    ///
    /// Panics when the tenants do not share one platform type space (the
    /// pool arbitrates per machine type), or when the configured quota
    /// vector has the wrong arity.
    pub fn run_with_capacity<S: CapacitySolver + Sync>(
        &self,
        solver: &S,
        tenants: &[TenantSpec],
        config: &CapacityConfig,
    ) -> SolveResult<FleetReport> {
        completed(self.execute(solver, Some(solver), tenants, Some(config), None, None))
    }

    /// Resolves the serving knobs of a run from the policy and the optional
    /// capacity coupling. Pure — recomputed identically on resume, so the
    /// environment is never persisted.
    pub(crate) fn run_env(&self, caps_config: Option<&CapacityConfig>) -> RunEnv {
        let policy = &self.policy;
        // Serving knobs under failure coupling: provision `1/availability`
        // head-room plus N+k redundancy so expected outages do not
        // immediately violate the demand. Without failures everything
        // collapses to the plain policy, keeping the unconstrained path
        // bit-identical.
        let failures = caps_config.filter(|config| !config.failures.is_disabled());
        let availability = failures.map_or(1.0, |config| config.availability());
        let serve_headroom = match failures {
            Some(config) if config.outage_headroom => policy.headroom / availability,
            _ => policy.headroom,
        };
        RunEnv {
            failures_enabled: failures.is_some(),
            availability,
            serve_headroom,
            failure_resolve: caps_config.is_some_and(|config| config.resolve_on_failure),
            scaling: AutoscalePolicy {
                headroom: serve_headroom,
                redundancy: failures.map_or(0, |config| config.failure_redundancy),
                ..policy.autoscale_policy()
            },
        }
    }

    /// A fresh run position: one batched cold initial solve per tenant, the
    /// coupling state when the run is capacity-coupled, no adoptions yet.
    pub(crate) fn init_run<'a>(
        &self,
        ctx: &EpochCtx<'_>,
        tenants: &'a [TenantSpec],
        caps_config: Option<&CapacityConfig>,
    ) -> SolveResult<RunState<'a>> {
        let policy = &self.policy;
        let env = &ctx.env;
        let initial_targets: Vec<Throughput> = tenants
            .iter()
            .map(|t| initial_target_with(policy.epoch, env.serve_headroom, &t.instance, &t.trace))
            .collect();
        let initial_items: Vec<WarmBatchItem<'_>> = tenants
            .iter()
            .zip(&initial_targets)
            .map(|(t, &rho)| WarmBatchItem::new(&t.instance, rho, None))
            .collect();
        let initial_results = ctx.warm.warm_batch(&initial_items, None, policy.threads);

        let mut states: Vec<TenantState<'_>> = Vec::with_capacity(tenants.len());
        for ((spec, &rho), (result, elapsed)) in
            tenants.iter().zip(&initial_targets).zip(initial_results)
        {
            let outcome = result?;
            debug_certify(&spec.instance, &outcome.solution, None);
            let fractions = Autoscaler::split_fractions(&outcome.solution);
            let cache = ctx.plan_cache(&spec.instance, &outcome.solution)?;
            let mut report = TenantReport::new(spec.name.clone(), rho);
            report.effort.record(&outcome);
            report.timing.add(Stage::Solve, elapsed.as_secs_f64());
            ctx.sink
                .span(Stage::Solve.span_name(), elapsed.as_secs_f64());
            let mut state = TenantState {
                prior: Some(SweepPrior::from_outcome(rho, &outcome)),
                ..TenantState::new(spec, policy.epoch, &env.scaling, fractions, report)
            };
            state.learn(rho, KnownPlan { outcome, cache });
            states.push(state);
        }
        Ok(RunState {
            states,
            coupled: self.init_coupling(tenants, caps_config, env),
            adoptions: Vec::new(),
            stale_desired: None,
        })
    }

    /// Coupling state: the quota ledger plus one outage trace per tenant,
    /// sub-seeded from the fleet seed so tenant i's outages are stable no
    /// matter how many co-tenants exist. Deterministic for a fixed config —
    /// a resumed run regenerates the same traces (validated by fingerprint)
    /// and restores only the pool ledger from the checkpoint.
    pub(crate) fn init_coupling(
        &self,
        tenants: &[TenantSpec],
        caps_config: Option<&CapacityConfig>,
        env: &RunEnv,
    ) -> Option<CouplingState> {
        caps_config.map(|config| {
            let num_types = tenants.first().map(|t| t.instance.num_types()).unwrap_or(0);
            assert!(
                tenants.iter().all(|t| t.instance.num_types() == num_types),
                "capacity-coupled fleets must share one platform type space"
            );
            let pool = CapacityPool::new(config.quota_vector(num_types), tenants.len());
            let traces: Vec<FailureTrace> = tenants
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let slots = failure_slots(
                        &t.instance,
                        &t.trace,
                        env.serve_headroom,
                        config.failure_redundancy,
                    );
                    config
                        .tenant_failure_model(i)
                        .generate(&slots, t.trace.duration())
                })
                .collect();
            CouplingState { pool, traces }
        })
    }

    /// A fresh [`AlertEngine`] when alerts are configured. The engine is
    /// rebuilt empty on crash-recovery resume — alert state is operational,
    /// not part of the certified plan.
    pub(crate) fn alert_engine(&self) -> Option<AlertEngine> {
        self.alerts.clone().map(AlertEngine::new)
    }

    /// Baselines and report assembly: every tenant's report is complete but
    /// for its four baseline fields, computed here.
    pub(crate) fn finish(
        &self,
        run: RunState<'_>,
        num_epochs: usize,
        env: &RunEnv,
        epoch_timing: Vec<StageTimes>,
    ) -> FleetReport {
        let policy = &self.policy;
        let coupled = run.coupled.as_ref();
        let (failures_enabled, availability) = (env.failures_enabled, env.availability);
        let baseline_scaling = policy.autoscale_policy();
        let autoscaler = Autoscaler::new(baseline_scaling);
        let tenants_report = run
            .states
            .into_iter()
            .enumerate()
            .map(|(i, state)| {
                let baseline = autoscaler.run(
                    &state.spec.instance,
                    &state.initial_fractions,
                    &state.spec.trace,
                );
                // Static-headroom baseline: the initial mix provisioned
                // statically for the availability-adjusted peak, suffering
                // the same outages — the classic answer to failures the
                // coupled controller must beat.
                let (static_headroom_cost, static_headroom_violations) = match coupled {
                    Some(cs) if failures_enabled => {
                        let scaler = FixedMixScaler::new(
                            &state.spec.instance,
                            &state.initial_fractions,
                            &baseline_scaling,
                        );
                        let fleet =
                            scaler.required_for(state.spec.trace.peak_rate() / availability);
                        let cost =
                            scaler.cost_rate(&fleet) * policy.epoch * state.peaks.len() as f64;
                        let violations = state
                            .peaks
                            .iter()
                            .enumerate()
                            .filter(|&(epoch, &rate)| {
                                let start = epoch as f64 * policy.epoch;
                                let available =
                                    surviving(&cs.traces[i], &fleet, start, start + policy.epoch);
                                scaler.violates(rate, &available)
                            })
                            .count();
                        (cost, violations)
                    }
                    _ => (baseline.static_peak_cost, 0),
                };
                TenantReport {
                    static_peak_cost: baseline.static_peak_cost,
                    fixed_mix_cost: baseline.total_cost,
                    static_headroom_cost,
                    static_headroom_violations,
                    ..state.report
                }
            })
            .collect();

        FleetReport {
            tenants: tenants_report,
            adoptions: run.adoptions,
            epochs: num_epochs,
            epoch_hours: policy.epoch,
            quota_utilization: coupled
                .filter(|cs| !cs.pool.is_unlimited())
                .map(|cs| cs.pool.utilization())
                .unwrap_or_default(),
            epoch_timing,
        }
    }
}

/// The report of a run without persistence: such a run never crashes and
/// never touches a store, so only its solve errors can surface.
pub(crate) fn completed(outcome: PersistResult<RunOutcome>) -> SolveResult<FleetReport> {
    match outcome {
        Ok(RunOutcome::Completed(report)) => Ok(report),
        Err(PersistError::Solve(err)) => Err(err),
        Ok(RunOutcome::Crashed { .. }) | Err(PersistError::Io(_)) => {
            unreachable!("only a persistent run crashes or touches a store")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rental_core::examples::illustrating_example;
    use rental_solvers::exact::IlpSolver;
    use rental_solvers::MinCostSolver;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn diurnal_tenant() -> TenantSpec {
        TenantSpec::new(
            "diurnal",
            illustrating_example(),
            rental_stream::WorkloadTrace::diurnal(20.0, 160.0, 12.0, 3),
        )
    }

    #[test]
    fn quantize_rounds_up_to_the_granularity() {
        assert_eq!(quantize_target(0.0, 1.0, 10), 0);
        assert_eq!(quantize_target(-3.0, 1.0, 10), 0);
        assert_eq!(quantize_target(61.0, 1.0, 10), 70);
        assert_eq!(quantize_target(70.0, 1.0, 10), 70);
        assert_eq!(quantize_target(70.0, 1.2, 10), 90);
        assert_eq!(quantize_target(1.5, 1.0, 1), 2);
    }

    #[test]
    fn min_unit_cost_bounds_the_optimum_from_below() {
        let instance = illustrating_example();
        let bound = min_unit_cost(&instance);
        assert!(bound > 0.0);
        for &(rho, optimal) in &[(10u64, 28u64), (70, 124), (200, 333)] {
            assert!(
                rho as f64 * bound <= optimal as f64 + 1e-9,
                "bound violated at rho = {rho}"
            );
        }
    }

    #[test]
    fn fixed_mix_plan_matches_the_solution_plan_at_the_solved_target() {
        // With the mix taken from a solution at its own target, the fixed-mix
        // rescale reproduces exactly that solution's machines and cost.
        let instance = illustrating_example();
        let solution = instance
            .solution(70, rental_core::ThroughputSplit::new(vec![10, 30, 30]))
            .unwrap();
        let fractions = Autoscaler::split_fractions(&solution);
        let scaler = FixedMixScaler::new(&instance, &fractions, &AutoscalePolicy::default());
        let fleet = scaler.required_for_target(70.0);
        let demand = scaler.demand_at(70.0);
        let load_each: Vec<f64> = fleet
            .iter()
            .zip(&demand)
            .map(|(&n, &d)| if n == 0 { 0.0 } else { d / n as f64 })
            .collect();
        let plan = plan_from_fleet(&instance, &fleet, &load_each, 70);
        assert_eq!(plan.hourly_cost, 124);
        assert_eq!(plan.total_machines(), 7);
    }

    #[test]
    fn probe_entries_split_continued_and_fresh_machines() {
        // At the solved target itself every machine is continued; at a much
        // larger target the growth is fresh.
        let instance = illustrating_example();
        let solution = instance
            .solution(70, rental_core::ThroughputSplit::new(vec![10, 30, 30]))
            .unwrap();
        let fractions = Autoscaler::split_fractions(&solution);
        let scaler = FixedMixScaler::new(&instance, &fractions, &AutoscalePolicy::default());
        let billing = rental_pricing::OnDemand::hourly();
        let same = ProbeEntry::new(&instance, &scaler, 70, 70, &billing);
        let hour = RentalHorizon::hours(1.0);
        assert!((same.continued.total(hour) - 124.0).abs() < 1e-9);
        assert_eq!(same.fresh.total(hour), 0.0);
        // Doubling the target: continued stays the old fleet, fresh carries
        // the growth, and together they bill the whole rescaled fleet.
        let grown = ProbeEntry::new(&instance, &scaler, 70, 140, &billing);
        assert!((grown.continued.total(hour) - 124.0).abs() < 1e-9);
        assert!(grown.fresh.total(hour) > 0.0);
        let whole = scaler.required_for_target(140.0);
        assert!(
            (grown.continued.total(hour) + grown.fresh.total(hour) - scaler.cost_rate(&whole))
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn resolving_fleet_beats_the_frozen_mix_on_a_wide_diurnal_swing() {
        let tenants = vec![diurnal_tenant()];
        let policy = FleetPolicy {
            switching_cost: 5.0,
            ..FleetPolicy::default()
        };
        let report = FleetController::new(policy)
            .run(&IlpSolver::new(), &tenants)
            .unwrap();
        // The initial plan is solved for the low phase; the high phase shifts
        // the optimal mix, so re-solving must pay off.
        assert!(report.tenants[0].resolves >= 1);
        assert!(report.tenants[0].adoptions >= 1);
        assert!(
            report.total_cost() < report.fixed_mix_cost(),
            "fleet {} vs fixed mix {}",
            report.total_cost(),
            report.fixed_mix_cost()
        );
        assert!(report.total_cost() < report.static_peak_cost());
        // Probes keep re-solves to a minority of tenant-epochs.
        assert!(report.resolve_fraction() < 0.5);
        // Memoization: the diurnal trace revisits each phase three times but
        // each distinct target is solved at most once.
        assert!(report.tenants[0].resolves <= 2);
    }

    #[test]
    fn adoption_records_are_consistent_with_the_hysteresis() {
        let tenants = vec![diurnal_tenant()];
        let policy = FleetPolicy {
            switching_cost: 3.0,
            ..FleetPolicy::default()
        };
        let report = FleetController::new(policy)
            .run(&IlpSolver::new(), &tenants)
            .unwrap();
        assert!(!report.adoptions.is_empty());
        for record in &report.adoptions {
            assert!(!record.forced());
            assert_eq!(
                record.adopted,
                record.projected_switch + record.switching_cost < record.projected_keep.unwrap()
            );
        }
    }

    #[test]
    fn prohibitive_switching_cost_freezes_the_initial_mix() {
        let tenants = vec![diurnal_tenant()];
        let policy = FleetPolicy {
            switching_cost: 1e9,
            ..FleetPolicy::default()
        };
        let report = FleetController::new(policy)
            .run(&IlpSolver::new(), &tenants)
            .unwrap();
        assert_eq!(report.tenants[0].adoptions, 0);
        // Never adopting means the rental bill equals the fixed-mix baseline.
        assert!((report.tenants[0].rental_cost - report.tenants[0].fixed_mix_cost).abs() < 1e-9);
        // The prohibitive hysteresis is also an effective probe filter: the
        // switching-cost term of the probe suppresses futile re-solves.
        assert_eq!(report.tenants[0].resolves, 0);
    }

    #[test]
    fn committed_terms_are_sunk_on_scale_down_keep_projections() {
        // The trace starts at its peak, so every later shift only *shrinks*
        // the fleet. Under a reserved term longer than the whole horizon the
        // already-committed machines cost nothing at the margin, so keeping
        // is free and the controller must never probe a re-solve.
        let trace = rental_stream::WorkloadTrace::diurnal(160.0, 20.0, 12.0, 3);
        let tenants = vec![TenantSpec::new("peak-first", illustrating_example(), trace)];
        let policy = FleetPolicy {
            switching_cost: 1.0,
            ..FleetPolicy::default()
        };
        let report = FleetController::new(policy)
            .with_billing(Arc::new(rental_pricing::Reserved::with_term(10_000.0, 0.4)))
            .run(&IlpSolver::new(), &tenants)
            .unwrap();
        assert_eq!(report.tenants[0].resolves, 0);
        assert_eq!(report.tenants[0].adoptions, 0);
        assert!(report.adoptions.is_empty());
    }

    #[test]
    fn scale_up_machines_bill_fresh_commitments_in_keep_projections() {
        // Growth is not sunk: when the demand rises past the solved target,
        // the keep side must charge new commitments for the added machines,
        // so the probe fires — and every decision still respects the
        // hysteresis invariant.
        let tenants = vec![diurnal_tenant()]; // starts low, shifts up to 160
        let policy = FleetPolicy {
            switching_cost: 1.0,
            ..FleetPolicy::default()
        };
        let report = FleetController::new(policy)
            .with_billing(Arc::new(rental_pricing::Reserved::with_term(10_000.0, 0.4)))
            .run(&IlpSolver::new(), &tenants)
            .unwrap();
        assert!(report.tenants[0].resolves >= 1);
        for record in &report.adoptions {
            let keep = record.projected_keep.expect("no forced switches here");
            assert!(keep > 0.0);
            assert_eq!(
                record.adopted,
                record.projected_switch + record.switching_cost < keep
            );
        }
    }

    #[test]
    fn disabled_resolving_runs_pure_fixed_mix() {
        let tenants = vec![diurnal_tenant()];
        let policy = FleetPolicy {
            resolve: false,
            ..FleetPolicy::default()
        };
        let report = FleetController::new(policy)
            .run(&IlpSolver::new(), &tenants)
            .unwrap();
        assert_eq!(report.tenants[0].probes, 0);
        assert_eq!(report.tenants[0].resolves, 0);
        assert!((report.tenants[0].rental_cost - report.tenants[0].fixed_mix_cost).abs() < 1e-9);
    }

    #[test]
    fn short_tenants_project_over_their_own_horizon_only() {
        // A tenant whose trace ends soon must not adopt for savings projected
        // over a longer co-tenant's horizon: at its late shift only one of
        // its own epochs remains, which cannot recoup the switching charge.
        let short_trace = rental_stream::WorkloadTrace::new(vec![
            rental_stream::TraceSegment {
                duration: 10.0,
                rate: 20.0,
            },
            rental_stream::TraceSegment {
                duration: 2.0,
                rate: 160.0,
            },
        ]);
        let long_trace = rental_stream::WorkloadTrace::constant(20.0, 96.0);
        let tenants = vec![
            TenantSpec::new("short", illustrating_example(), short_trace),
            TenantSpec::new("long", illustrating_example(), long_trace),
        ];
        let policy = FleetPolicy {
            switching_cost: 50.0,
            ..FleetPolicy::default()
        };
        let report = FleetController::new(policy)
            .run(&IlpSolver::new(), &tenants)
            .unwrap();
        let short = &report.tenants[0];
        // Billed only over its own 12 epochs, counted the same way.
        assert_eq!(short.epoch_costs.len(), 12);
        assert_eq!(report.tenant_epochs(), 12 + 96);
        // One remaining epoch of savings cannot beat the charge: no adoption
        // (and the probe's switching-cost term filters the solve, too).
        assert_eq!(short.adoptions, 0);
        assert_eq!(short.resolves, 0);
        assert!((short.rental_cost - short.fixed_mix_cost).abs() < 1e-9);
    }

    #[test]
    fn empty_fleet_is_harmless() {
        let report = FleetController::new(FleetPolicy::default())
            .run(&IlpSolver::new(), &[])
            .unwrap();
        assert_eq!(report.epochs, 0);
        assert_eq!(report.total_cost(), 0.0);
        assert_eq!(report.resolve_fraction(), 0.0);
        let coupled = FleetController::new(FleetPolicy::default())
            .run_with_capacity(&IlpSolver::new(), &[], &CapacityConfig::unconstrained())
            .unwrap();
        assert_eq!(coupled, report);
    }

    #[test]
    fn per_machine_delta_switching_charges_only_changed_machines() {
        // Identical fleets cost nothing beyond the flat charge; disjoint
        // fleets charge every machine on both sides.
        let flat = FleetPolicy {
            switching_cost: 5.0,
            ..FleetPolicy::default()
        };
        assert_eq!(flat.switching_charge(&[3, 2], &[1, 4]), 5.0);
        let delta = FleetPolicy {
            switching_cost: 5.0,
            per_machine_switching_cost: 2.0,
            ..FleetPolicy::default()
        };
        assert_eq!(delta.switching_charge(&[3, 2], &[3, 2]), 5.0);
        assert_eq!(delta.switching_charge(&[3, 2], &[1, 4]), 5.0 + 2.0 * 4.0);
        assert_eq!(delta.switching_charge(&[0, 0], &[2, 1]), 5.0 + 2.0 * 3.0);
    }

    #[test]
    fn per_machine_delta_cost_tightens_the_hysteresis() {
        // The diurnal swing forces large fleet changes on adoption, so a
        // steep per-machine charge must suppress adoptions that the flat
        // charge alone would accept — and every recorded decision must be
        // consistent with the actual charge it faced.
        let tenants = vec![diurnal_tenant()];
        let flat = FleetController::new(FleetPolicy {
            switching_cost: 5.0,
            ..FleetPolicy::default()
        })
        .run(&IlpSolver::new(), &tenants)
        .unwrap();
        let steep = FleetController::new(FleetPolicy {
            switching_cost: 5.0,
            per_machine_switching_cost: 1e6,
            ..FleetPolicy::default()
        })
        .run(&IlpSolver::new(), &tenants)
        .unwrap();
        assert!(flat.tenants[0].adoptions >= 1);
        assert_eq!(steep.tenants[0].adoptions, 0);
        for record in &steep.adoptions {
            assert!(record.switching_cost > 1e6);
            assert_eq!(
                record.adopted,
                record.projected_switch + record.switching_cost < record.projected_keep.unwrap()
            );
        }
    }

    #[test]
    fn unconstrained_capacity_run_is_bit_identical_to_the_plain_run() {
        let tenants = vec![
            diurnal_tenant(),
            TenantSpec::new(
                "spiky",
                illustrating_example(),
                rental_stream::WorkloadTrace::spike(30.0, 150.0, 48.0, 4, 2.0, 7),
            ),
        ];
        let policy = FleetPolicy {
            switching_cost: 4.0,
            ..FleetPolicy::default()
        };
        let plain = FleetController::new(policy)
            .run(&IlpSolver::new(), &tenants)
            .unwrap();
        let coupled = FleetController::new(policy)
            .run_with_capacity(
                &IlpSolver::new(),
                &tenants,
                &CapacityConfig::unconstrained(),
            )
            .unwrap();
        // Everything except wall-clock timings must agree exactly.
        assert_eq!(plain.adoptions, coupled.adoptions);
        assert_eq!(plain.epochs, coupled.epochs);
        assert_eq!(plain.quota_utilization, coupled.quota_utilization);
        for (a, b) in plain.tenants.iter().zip(&coupled.tenants) {
            assert_eq!(a.epoch_costs, b.epoch_costs);
            assert_eq!(a.rental_cost, b.rental_cost);
            assert_eq!(a.switching_cost, b.switching_cost);
            assert_eq!(a.resolves, b.resolves);
            assert_eq!(a.probes, b.probes);
            assert_eq!(a.adoptions, b.adoptions);
            assert_eq!(a.static_peak_cost, b.static_peak_cost);
            assert_eq!(a.fixed_mix_cost, b.fixed_mix_cost);
            assert_eq!(a.static_headroom_cost, b.static_headroom_cost);
            assert_eq!(a.slo_violation_epochs, 0);
            assert_eq!(b.slo_violation_epochs, 0);
            assert_eq!(b.failure_resolves, 0);
            assert_eq!(b.degraded_resolves, 0);
        }
    }

    #[test]
    fn transient_outages_under_unlimited_quota_do_not_churn_resolves() {
        // With no quota, a capped re-solve can never beat the plan already
        // running: outages must be absorbed by replacement renting and show
        // up as SLO violations only — zero futile re-solves.
        let tenants = vec![TenantSpec::new(
            "steady",
            illustrating_example(),
            rental_stream::WorkloadTrace::constant(70.0, 96.0),
        )];
        let config = CapacityConfig::unconstrained()
            .with_failures(rental_stream::FailureModel::new(12.0, 3.0, 42));
        let report = FleetController::new(FleetPolicy::default())
            .run_with_capacity(&IlpSolver::new(), &tenants, &config)
            .unwrap();
        let tenant = &report.tenants[0];
        assert!(tenant.slo_violation_epochs > 0, "outages must violate");
        assert_eq!(tenant.failure_resolves, 0, "no quota, nothing to re-solve");
        assert!(tenant.static_headroom_cost >= tenant.static_peak_cost);
        // The serving fleet rents outage head-room and replacements, so it
        // outspends the failure-free static peak but keeps serving.
        assert!(tenant.rental_cost > tenant.static_peak_cost);
    }

    #[test]
    fn quota_bound_outages_trigger_capacity_constrained_resolves() {
        // Finite quotas: machines lost to outages erode the caps a re-solve
        // may use, so violations now genuinely re-solve (spilling demand to
        // types with remaining quota), recorded as forced failure adoptions.
        let tenants = vec![TenantSpec::new(
            "steady",
            illustrating_example(),
            rental_stream::WorkloadTrace::constant(70.0, 96.0),
        )];
        let config = CapacityConfig::unconstrained()
            .with_quotas(vec![5, 4, 3, 3])
            .with_failures(rental_stream::FailureModel::new(12.0, 6.0, 42));
        let report = FleetController::new(FleetPolicy::default())
            .run_with_capacity(&IlpSolver::new(), &tenants, &config)
            .unwrap();
        let tenant = &report.tenants[0];
        assert!(tenant.slo_violation_epochs > 0, "outages must violate");
        assert!(
            tenant.failure_resolves > 0,
            "eroded caps must trigger re-solves"
        );
        assert!(tenant.static_headroom_cost > tenant.static_peak_cost);
        // Failure adoptions are recorded as forced, failure-triggered.
        let failure_records: Vec<_> = report
            .adoptions
            .iter()
            .filter(|r| r.failure_triggered)
            .collect();
        assert!(!failure_records.is_empty());
        for record in failure_records {
            assert!(record.forced());
            assert!(record.adopted);
        }
        assert!(!report.quota_utilization.is_empty());
    }

    #[test]
    fn tight_quotas_degrade_instead_of_crashing() {
        // A quota far below what rho = 70 needs: the tenant must fall back
        // to a degraded plan (or run unserved), never error out, and the
        // pool utilisation must be reported as saturated.
        let tenants = vec![TenantSpec::new(
            "capped",
            illustrating_example(),
            rental_stream::WorkloadTrace::constant(70.0, 24.0),
        )];
        let config = CapacityConfig::unconstrained().with_quotas(vec![1, 1, 1, 1]);
        let report = FleetController::new(FleetPolicy::default())
            .run_with_capacity(&IlpSolver::new(), &tenants, &config)
            .unwrap();
        let tenant = &report.tenants[0];
        assert!(
            tenant.slo_violation_epochs > 0,
            "the quota starves the demand"
        );
        assert!(!report.quota_utilization.is_empty());
        assert!(report.quota_utilization.iter().any(|&u| u >= 1.0 - 1e-9));
        // The degraded fallback kicked in at most once per outage episode
        // (the memo suppresses re-solving an unchanged situation).
        assert!(tenant.degraded_resolves <= 2);
        // Costs never exceed what the quota can rent.
        assert!(tenant.rental_cost > 0.0);
    }

    #[test]
    fn next_backoff_doubles_and_clamps() {
        assert_eq!(next_backoff(0, 8), 1);
        assert_eq!(next_backoff(1, 8), 2);
        assert_eq!(next_backoff(4, 8), 8);
        assert_eq!(next_backoff(8, 8), 8);
        // A zero cap still yields a one-epoch backoff, never a busy loop.
        assert_eq!(next_backoff(0, 0), 1);
        assert_eq!(next_backoff(1, 0), 1);
    }

    #[test]
    fn unlimited_epoch_budget_is_bit_identical_to_no_budget() {
        let tenants = vec![diurnal_tenant()];
        let policy = FleetPolicy {
            switching_cost: 4.0,
            ..FleetPolicy::default()
        };
        let plain = FleetController::new(policy)
            .run(&IlpSolver::new(), &tenants)
            .unwrap();
        let budgeted = FleetController::new(FleetPolicy {
            epoch_budget: Some(SolveBudget::unlimited()),
            ..policy
        })
        .run(&IlpSolver::new(), &tenants)
        .unwrap();
        assert_eq!(plain.adoptions, budgeted.adoptions);
        for (a, b) in plain.tenants.iter().zip(&budgeted.tenants) {
            assert_eq!(a.epoch_costs, b.epoch_costs);
            assert_eq!(a.rental_cost, b.rental_cost);
            assert_eq!(a.switching_cost, b.switching_cost);
            assert_eq!(a.resolves, b.resolves);
            assert_eq!(a.probes, b.probes);
            assert_eq!(a.adoptions, b.adoptions);
            assert_eq!(b.deferred_resolves, 0);
            assert_eq!(b.budget_exhausted_epochs, 0);
            assert_eq!(b.incumbent_adoptions, 0);
            assert_eq!(b.resolve_retries, 0);
        }
    }

    /// Delegates to the ILP solver but fails the first `failures` *budgeted*
    /// warm solves with [`SolveError::BudgetExhausted`] — a deterministic
    /// stand-in for an epoch budget too tight to find any incumbent.
    struct ExhaustingSolver {
        inner: IlpSolver,
        failures: AtomicUsize,
    }

    impl MinCostSolver for ExhaustingSolver {
        fn name(&self) -> &str {
            "exhausting"
        }

        fn solve(&self, instance: &Instance, target: Throughput) -> SolveResult<SolverOutcome> {
            self.inner.solve(instance, target)
        }
    }

    impl WarmStartSolver for ExhaustingSolver {
        fn solve_with_prior(
            &self,
            instance: &Instance,
            target: Throughput,
            prior: Option<&SweepPrior>,
        ) -> SolveResult<SolverOutcome> {
            self.inner.solve_with_prior(instance, target, prior)
        }

        fn solve_with_prior_budgeted(
            &self,
            instance: &Instance,
            target: Throughput,
            prior: Option<&SweepPrior>,
            budget: &SolveBudget,
        ) -> SolveResult<SolverOutcome> {
            if self
                .failures
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
            {
                return Err(SolveError::BudgetExhausted {
                    solver: "exhausting".to_string(),
                });
            }
            self.inner
                .solve_with_prior_budgeted(instance, target, prior, budget)
        }
    }

    #[test]
    fn exhausted_resolves_defer_with_backoff_and_retry() {
        let tenants = vec![diurnal_tenant()];
        let solver = ExhaustingSolver {
            inner: IlpSolver::new(),
            failures: AtomicUsize::new(1),
        };
        let policy = FleetPolicy {
            epoch_budget: Some(SolveBudget::unlimited()),
            ..FleetPolicy::default()
        };
        let report = FleetController::new(policy).run(&solver, &tenants).unwrap();
        let tenant = &report.tenants[0];
        // The first budgeted re-solve was exhausted without an incumbent:
        // the tenant kept its plan, sat out a backoff window, and succeeded
        // on the retry — never dropped, never an error.
        assert!(tenant.budget_exhausted_epochs >= 1);
        assert!(tenant.deferred_resolves >= 1);
        assert_eq!(tenant.resolve_retries, 1);
        assert!(tenant.resolves >= 1);
        assert!(tenant.adoptions >= 1);
        // Every epoch is still billed: deferral keeps serving on the
        // current plan.
        assert_eq!(tenant.epoch_costs.len(), report.epochs);
        assert_eq!(report.deferred_resolves(), tenant.deferred_resolves);
        assert_eq!(report.resolve_retries(), 1);
    }

    /// Delegates to the ILP solver but reports every budgeted outcome as a
    /// budget-exhausted incumbent (feasible, not proven optimal) — the
    /// anytime contract's happy path.
    struct AnytimeSolver {
        inner: IlpSolver,
    }

    impl MinCostSolver for AnytimeSolver {
        fn name(&self) -> &str {
            "anytime"
        }

        fn solve(&self, instance: &Instance, target: Throughput) -> SolveResult<SolverOutcome> {
            self.inner.solve(instance, target)
        }
    }

    impl WarmStartSolver for AnytimeSolver {
        fn solve_with_prior(
            &self,
            instance: &Instance,
            target: Throughput,
            prior: Option<&SweepPrior>,
        ) -> SolveResult<SolverOutcome> {
            self.inner.solve_with_prior(instance, target, prior)
        }

        fn solve_with_prior_budgeted(
            &self,
            instance: &Instance,
            target: Throughput,
            prior: Option<&SweepPrior>,
            budget: &SolveBudget,
        ) -> SolveResult<SolverOutcome> {
            let mut outcome = self
                .inner
                .solve_with_prior_budgeted(instance, target, prior, budget)?;
            outcome.exhausted = true;
            outcome.proven_optimal = false;
            outcome.lower_bound = None;
            Ok(outcome)
        }
    }

    #[test]
    fn budget_exhausted_incumbents_are_adopted_as_anytime_plans() {
        let tenants = vec![diurnal_tenant()];
        let policy = FleetPolicy {
            switching_cost: 5.0,
            epoch_budget: Some(SolveBudget::unlimited()),
            ..FleetPolicy::default()
        };
        let plain = FleetController::new(policy)
            .run(&IlpSolver::new(), &tenants)
            .unwrap();
        let anytime = FleetController::new(policy)
            .run(
                &AnytimeSolver {
                    inner: IlpSolver::new(),
                },
                &tenants,
            )
            .unwrap();
        let tenant = &anytime.tenants[0];
        assert!(tenant.adoptions >= 1);
        // Every adoption of a *freshly solved* plan was an anytime
        // incumbent (re-adoptions of the unbudgeted initial plan are not),
        // and every successful budgeted solve counted one budget-exhausted
        // epoch.
        assert!(tenant.incumbent_adoptions >= 1);
        assert!(tenant.incumbent_adoptions <= tenant.adoptions);
        assert_eq!(tenant.budget_exhausted_epochs, tenant.resolves);
        assert_eq!(anytime.incumbent_adoptions(), tenant.incumbent_adoptions);
        // The incumbents here are secretly optimal, so the economics match
        // the plain run exactly.
        assert_eq!(plain.tenants[0].rental_cost, tenant.rental_cost);
        assert_eq!(plain.tenants[0].switching_cost, tenant.switching_cost);
    }

    #[test]
    fn zero_rate_prefix_forces_a_resolve_when_demand_arrives() {
        // The tenant starts idle: the initial plan is empty, and the first
        // nonzero epoch must force a re-solve (an empty mix carries nothing).
        let trace = rental_stream::WorkloadTrace::new(vec![
            rental_stream::TraceSegment {
                duration: 3.0,
                rate: 0.0,
            },
            rental_stream::TraceSegment {
                duration: 6.0,
                rate: 70.0,
            },
        ]);
        let tenants = vec![TenantSpec::new("cold", illustrating_example(), trace)];
        let report = FleetController::new(FleetPolicy::default())
            .run(&IlpSolver::new(), &tenants)
            .unwrap();
        assert_eq!(report.tenants[0].initial_target, 0);
        assert_eq!(report.tenants[0].resolves, 1);
        assert_eq!(report.tenants[0].adoptions, 1);
        // The switch away from the empty mix is recorded as forced, not as a
        // hysteresis win over an infinite keep cost.
        assert!(report.adoptions[0].forced());
        assert!(report.adoptions[0].adopted);
        // Once adopted, the optimal rho = 70 plan is rented: 124 per epoch.
        assert!(report.tenants[0].rental_cost > 0.0);
        let last = *report.tenants[0].epoch_costs.last().unwrap();
        assert!((last - 124.0).abs() < 1e-9);
    }
}
