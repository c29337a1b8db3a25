//! Crash-safe fleet serving: checkpoint/WAL persistence and deterministic
//! resume on top of [`rental_persist`].
//!
//! A resumable run is the ordinary epoch loop with an end-of-epoch
//! persistence hook (`Persistence`). After every executed epoch the hook
//! writes one **journal record** (the state delta: scalars, new epoch costs,
//! newly learned plans, new adoption records, the pool ledger) and, every
//! [`PersistOptions::snapshot_every`] epochs, a full **checkpoint
//! snapshot**; it is also where a planned [`CrashPlan`] strikes. Both
//! payloads are framed with CRC-32 checksums by the [`rental_persist::Store`],
//! so torn writes and tail corruption are detected, never trusted. Each
//! tenant's report accounting travels through one codec pair
//! (`put_accounting` / `get_accounting`) in the v2 byte layout.
//!
//! [`FleetController::resume_from`] restores a killed run and hands it back
//! to the loop at its first unexecuted epoch — producing a [`FleetReport`]
//! **bit-identical** (modulo wall-clock timing, see
//! [`FleetReport::matches_modulo_timing`]) to the uninterrupted run. The
//! recovery ladder, healthiest rung first:
//!
//! 1. **journal replay** — decode the newest frame-valid snapshot, then
//!    apply every consecutive journal record past it;
//! 2. **last good snapshot** — a torn/corrupt/diverging journal suffix is
//!    discarded (and the journal rewritten to its applied prefix); the lost
//!    epochs are deterministically *re-executed*, which reproduces them
//!    exactly;
//! 3. **cold restart** — nothing restorable (or the persisted state fails
//!    validation: bad arity, failed plan certification, a quota ledger that
//!    would over-grant, outage-trace fingerprint mismatch, an adoption dated
//!    after its own checkpoint): the store is reset and the whole run
//!    re-executes from the initial fixed-mix plans. Determinism makes even
//!    this rung produce the identical report.
//!
//! Only **decision state** is persisted. Derived caches — the fixed-mix
//! scaler, probe memos, plan horizon caches, the outage traces themselves —
//! are rebuilt from the configs on resume; outage traces are validated
//! against their checkpointed fingerprints, restored plans are re-certified
//! by the independent integer checker, and the pool ledger is re-admitted
//! only through [`rental_capacity::CapacityPool::restore_ledger`]'s quota
//! invariants. A corrupted store can therefore cost re-execution time, but
//! never a panic and never an over-grant.
//!
//! **Sharding is resume-transparent.** The shard fan-out knob
//! ([`crate::FleetPolicy::shards`]) lives in the policy, not the store:
//! resumed runs drive the same sharded epoch loop as the original, and
//! because every shard count produces bit-identical decision state, a run
//! journaled under one shard count may be resumed under another (or on a
//! machine with a different core count) without divergence — the
//! `fleet_sharding` kill-and-resume property test pins exactly this.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use rental_capacity::{CapacityConfig, PoolLedger};
use rental_core::{Allocation, Solution, Throughput, ThroughputSplit};
use rental_obs::{EventKind, SpanTimer, Stage, StageTimes, TelemetrySink};
use rental_persist::{DecodeError, Decoder, Encoder, Store};
use rental_solvers::solver::{CapacitySolver, SolveError, SolverOutcome, SweepPrior};
use rental_stream::FixedMixState;

use crate::chaos::{with_chaos, ChaosConfig, ChaosStats, CrashPlan, CrashPoint};
use crate::controller::{CouplingState, FleetController, KnownPlan, TenantState};
use crate::epoch::{Epoch, EpochCtx, RunState};
use crate::report::{AdoptionRecord, FleetReport, TenantReport};
use crate::tenant::TenantSpec;

/// Magic number of checkpoint snapshots (`"RPSF"`).
const CHECKPOINT_MAGIC: u32 = 0x5250_5346;
/// Magic number of journal records (`"RPJL"`).
const JOURNAL_MAGIC: u32 = 0x5250_4A4C;
/// Current on-disk format version of both payload kinds. Version 2 replaced
/// the two probe/solve stopwatch fields with the full five-stage
/// [`StageTimes`] vector and added the deterministic solver-effort scalars.
const FORMAT_VERSION: u32 = 2;

/// Why a resumable run failed. Corrupted or missing persisted state is
/// **not** an error — the recovery ladder absorbs it; only real filesystem
/// failures and solver errors propagate.
#[derive(Debug)]
pub enum PersistError {
    /// A filesystem operation of the store failed.
    Io(io::Error),
    /// The controller's solving failed (same contract as
    /// [`FleetController::run_with_capacity`]).
    Solve(SolveError),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(err) => write!(f, "persistence I/O failed: {err}"),
            PersistError::Solve(err) => write!(f, "solve failed: {err}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(err) => Some(err),
            PersistError::Solve(err) => Some(err),
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(err: io::Error) -> Self {
        PersistError::Io(err)
    }
}

impl From<SolveError> for PersistError {
    fn from(err: SolveError) -> Self {
        PersistError::Solve(err)
    }
}

/// Result alias for resumable runs.
pub type PersistResult<T> = Result<T, PersistError>;

/// Knobs of the persistence layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistOptions {
    /// A full snapshot is written every this many epochs (the journal covers
    /// the gaps). `0` disables periodic snapshots — recovery then replays
    /// the whole journal from the initial snapshot.
    pub snapshot_every: usize,
}

impl Default for PersistOptions {
    fn default() -> Self {
        PersistOptions { snapshot_every: 8 }
    }
}

/// How a resumable run ended.
#[derive(Debug)]
pub enum RunOutcome {
    /// The run executed to the end of every tenant's trace.
    Completed(FleetReport),
    /// An injected [`CrashPlan`] aborted the run after executing `epoch` —
    /// resume with [`FleetController::resume_from`].
    Crashed {
        /// The last epoch that executed before the abort.
        epoch: usize,
    },
}

impl RunOutcome {
    /// The report of a completed run, if it completed.
    pub fn completed(self) -> Option<FleetReport> {
        match self {
            RunOutcome::Completed(report) => Some(report),
            RunOutcome::Crashed { .. } => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Persisted shapes
// ---------------------------------------------------------------------------

/// A learned plan, flattened to integers: the map key ρ plus everything
/// needed to rebuild its [`SolverOutcome`] (the horizon cache is derived).
#[derive(Debug, Clone, PartialEq)]
struct PersistedPlan {
    rho: Throughput,
    target: Throughput,
    shares: Vec<u64>,
    machines: Vec<u64>,
    proven_optimal: bool,
    lower_bound: Option<f64>,
    elapsed: f64,
    nodes: Option<u64>,
    lp_iterations: Option<u64>,
    exhausted: bool,
}

/// A warm-start prior, flattened.
#[derive(Debug, Clone, PartialEq)]
struct PersistedPrior {
    target: Throughput,
    split: Vec<u64>,
    lower_bound: Option<f64>,
}

/// The per-tenant decision scalars plus the report accounting. Journal
/// records carry them **absolute** (they are small), so applying a record
/// is idempotent.
#[derive(Debug, Clone, PartialEq)]
struct ScalarState {
    fractions: Vec<f64>,
    mix_fleet: Vec<u64>,
    mix_below: Vec<usize>,
    solved_target: Throughput,
    adopted_epoch: usize,
    prior: Option<PersistedPrior>,
    last_failure_solve: Option<(Throughput, Vec<u64>)>,
    deferred_until: usize,
    backoff: usize,
    /// The tenant's report accounting: costs, per-stage seconds, solver
    /// effort and event counters (see [`put_accounting`]). Its identity,
    /// epoch costs and baselines are not part of it — they travel in their
    /// own fields or are recomputed at the end of the run.
    accounting: TenantReport,
}

/// One tenant's full checkpointed state.
#[derive(Debug, Clone, PartialEq)]
struct TenantSnapshot {
    initial_fractions: Vec<f64>,
    initial_target: Throughput,
    scalars: ScalarState,
    epoch_costs: Vec<f64>,
    /// Learned plans in insertion order (the `known_order` of the state).
    plans: Vec<PersistedPlan>,
}

/// A full controller checkpoint: everything a resume needs that is not
/// derivable from the configs.
#[derive(Debug, Clone, PartialEq)]
struct Checkpoint {
    /// The first epoch a resumed run still has to execute.
    epoch_next: u64,
    tenants: Vec<TenantSnapshot>,
    adoptions: Vec<AdoptionRecord>,
    stale_desired: Option<Vec<Vec<u64>>>,
    ledger: Option<PoolLedger>,
    /// Fingerprints of the per-tenant outage traces — resume regenerates the
    /// traces from the config and refuses to continue when they diverge.
    trace_fingerprints: Vec<u64>,
    /// Position in the chaos fault stream, when the run is chaos-wrapped.
    chaos_calls: Option<u64>,
}

/// One tenant's slice of a journal record: absolute scalars plus the epoch
/// costs and plans accrued since the previous record.
#[derive(Debug, Clone, PartialEq)]
struct TenantDelta {
    scalars: ScalarState,
    new_epoch_costs: Vec<f64>,
    new_plans: Vec<PersistedPlan>,
}

/// The write-ahead record of one executed epoch.
#[derive(Debug, Clone, PartialEq)]
struct JournalRecord {
    epoch: u64,
    tenants: Vec<TenantDelta>,
    new_adoptions: Vec<AdoptionRecord>,
    stale_desired: Option<Vec<Vec<u64>>>,
    ledger: Option<PoolLedger>,
    chaos_calls: Option<u64>,
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

fn put_fleets(enc: &mut Encoder, fleets: &[Vec<u64>]) {
    enc.put_seq(fleets, |e, fleet| e.put_u64s(fleet));
}

fn get_fleets(dec: &mut Decoder<'_>) -> Result<Vec<Vec<u64>>, DecodeError> {
    dec.get_seq(8, |d| d.get_u64s())
}

fn put_plan(enc: &mut Encoder, plan: &PersistedPlan) {
    enc.put_u64(plan.rho);
    enc.put_u64(plan.target);
    enc.put_u64s(&plan.shares);
    enc.put_u64s(&plan.machines);
    enc.put_bool(plan.proven_optimal);
    enc.put_opt_f64(plan.lower_bound);
    enc.put_f64(plan.elapsed);
    enc.put_opt_u64(plan.nodes);
    enc.put_opt_u64(plan.lp_iterations);
    enc.put_bool(plan.exhausted);
}

fn get_plan(dec: &mut Decoder<'_>) -> Result<PersistedPlan, DecodeError> {
    Ok(PersistedPlan {
        rho: dec.get_u64()?,
        target: dec.get_u64()?,
        shares: dec.get_u64s()?,
        machines: dec.get_u64s()?,
        proven_optimal: dec.get_bool()?,
        lower_bound: dec.get_opt_f64()?,
        elapsed: dec.get_f64()?,
        nodes: dec.get_opt_u64()?,
        lp_iterations: dec.get_opt_u64()?,
        exhausted: dec.get_bool()?,
    })
}

fn put_scalars(enc: &mut Encoder, sc: &ScalarState) {
    enc.put_f64s(&sc.fractions);
    enc.put_u64s(&sc.mix_fleet);
    enc.put_usizes(&sc.mix_below);
    enc.put_u64(sc.solved_target);
    enc.put_usize(sc.adopted_epoch);
    enc.put_opt(sc.prior.as_ref(), |e, prior| {
        e.put_u64(prior.target);
        e.put_u64s(&prior.split);
        e.put_opt_f64(prior.lower_bound);
    });
    enc.put_opt(sc.last_failure_solve.as_ref(), |e, (rho, caps)| {
        e.put_u64(*rho);
        e.put_u64s(caps);
    });
    enc.put_usize(sc.deferred_until);
    enc.put_usize(sc.backoff);
    put_accounting(enc, &sc.accounting);
}

fn get_scalars(dec: &mut Decoder<'_>) -> Result<ScalarState, DecodeError> {
    Ok(ScalarState {
        fractions: dec.get_f64s()?,
        mix_fleet: dec.get_u64s()?,
        mix_below: dec.get_usizes()?,
        solved_target: dec.get_u64()?,
        adopted_epoch: dec.get_usize()?,
        prior: dec.get_opt(|d| {
            Ok(PersistedPrior {
                target: d.get_u64()?,
                split: d.get_u64s()?,
                lower_bound: d.get_opt_f64()?,
            })
        })?,
        last_failure_solve: dec.get_opt(|d| Ok((d.get_u64()?, d.get_u64s()?)))?,
        deferred_until: dec.get_usize()?,
        backoff: dec.get_usize()?,
        accounting: get_accounting(dec)?,
    })
}

/// The one codec pair of a tenant's report accounting — every cost, stage
/// timing, effort and event counter of [`TenantReport`] that accrues over a
/// run, in a fixed order.
fn put_accounting(enc: &mut Encoder, report: &TenantReport) {
    enc.put_f64(report.rental_cost);
    enc.put_f64(report.switching_cost);
    // Per-stage wall-clock seconds, in [`Stage::ALL`] order. Timing is the
    // one masked field family of [`FleetReport::matches_modulo_timing`], but
    // it is still persisted so a resumed run's totals keep the pre-crash
    // portion instead of silently dropping it.
    for seconds in report.timing.seconds() {
        enc.put_f64(seconds);
    }
    let effort = &report.effort;
    for count in [
        effort.solves,
        effort.nodes,
        effort.lp_iterations,
        report.probes,
        report.resolves,
        report.adoptions,
        report.slo_violation_epochs,
        report.failure_resolves,
        report.degraded_resolves,
        report.deferred_resolves,
        report.budget_exhausted_epochs,
        report.incumbent_adoptions,
        report.resolve_retries,
    ] {
        enc.put_usize(count);
    }
}

/// Decodes [`put_accounting`] into a report with a blank identity.
fn get_accounting(dec: &mut Decoder<'_>) -> Result<TenantReport, DecodeError> {
    let mut report = TenantReport::new(String::new(), 0);
    report.rental_cost = dec.get_f64()?;
    report.switching_cost = dec.get_f64()?;
    let mut seconds = [0.0; Stage::COUNT];
    for slot in &mut seconds {
        *slot = dec.get_f64()?;
    }
    report.timing = StageTimes::from_seconds(seconds);
    let effort = &mut report.effort;
    for slot in [
        &mut effort.solves,
        &mut effort.nodes,
        &mut effort.lp_iterations,
        &mut report.probes,
        &mut report.resolves,
        &mut report.adoptions,
        &mut report.slo_violation_epochs,
        &mut report.failure_resolves,
        &mut report.degraded_resolves,
        &mut report.deferred_resolves,
        &mut report.budget_exhausted_epochs,
        &mut report.incumbent_adoptions,
        &mut report.resolve_retries,
    ] {
        *slot = dec.get_usize()?;
    }
    Ok(report)
}

fn put_adoption(enc: &mut Encoder, record: &AdoptionRecord) {
    enc.put_usize(record.tenant);
    enc.put_usize(record.epoch);
    enc.put_u64(record.target);
    enc.put_opt_f64(record.projected_keep);
    enc.put_f64(record.projected_switch);
    enc.put_f64(record.switching_cost);
    enc.put_bool(record.adopted);
    enc.put_bool(record.failure_triggered);
}

fn get_adoption(dec: &mut Decoder<'_>) -> Result<AdoptionRecord, DecodeError> {
    Ok(AdoptionRecord {
        tenant: dec.get_usize()?,
        epoch: dec.get_usize()?,
        target: dec.get_u64()?,
        projected_keep: dec.get_opt_f64()?,
        projected_switch: dec.get_f64()?,
        switching_cost: dec.get_f64()?,
        adopted: dec.get_bool()?,
        failure_triggered: dec.get_bool()?,
    })
}

fn put_ledger(enc: &mut Encoder, ledger: &PoolLedger) {
    put_fleets(enc, &ledger.holdings);
    enc.put_u64s(&ledger.in_use);
    enc.put_u64s(&ledger.peak_in_use);
}

fn get_ledger(dec: &mut Decoder<'_>) -> Result<PoolLedger, DecodeError> {
    Ok(PoolLedger {
        holdings: get_fleets(dec)?,
        in_use: dec.get_u64s()?,
        peak_in_use: dec.get_u64s()?,
    })
}

fn put_tenant(enc: &mut Encoder, snap: &TenantSnapshot) {
    enc.put_f64s(&snap.initial_fractions);
    enc.put_u64(snap.initial_target);
    put_scalars(enc, &snap.scalars);
    enc.put_f64s(&snap.epoch_costs);
    enc.put_seq(&snap.plans, put_plan);
}

fn get_tenant(dec: &mut Decoder<'_>) -> Result<TenantSnapshot, DecodeError> {
    Ok(TenantSnapshot {
        initial_fractions: dec.get_f64s()?,
        initial_target: dec.get_u64()?,
        scalars: get_scalars(dec)?,
        epoch_costs: dec.get_f64s()?,
        plans: dec.get_seq(8, get_plan)?,
    })
}

impl Checkpoint {
    fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::versioned(CHECKPOINT_MAGIC, FORMAT_VERSION);
        enc.put_u64(self.epoch_next);
        enc.put_seq(&self.tenants, put_tenant);
        enc.put_seq(&self.adoptions, put_adoption);
        enc.put_opt(self.stale_desired.as_ref(), |e, fleets| {
            put_fleets(e, fleets);
        });
        enc.put_opt(self.ledger.as_ref(), put_ledger);
        enc.put_u64s(&self.trace_fingerprints);
        enc.put_opt_u64(self.chaos_calls);
        enc.finish()
    }

    fn decode(bytes: &[u8]) -> Result<Checkpoint, DecodeError> {
        let (mut dec, _) = Decoder::versioned(bytes, CHECKPOINT_MAGIC, |v| v == FORMAT_VERSION)?;
        let checkpoint = Checkpoint {
            epoch_next: dec.get_u64()?,
            tenants: dec.get_seq(8, get_tenant)?,
            adoptions: dec.get_seq(8, get_adoption)?,
            stale_desired: dec.get_opt(get_fleets)?,
            ledger: dec.get_opt(get_ledger)?,
            trace_fingerprints: dec.get_u64s()?,
            chaos_calls: dec.get_opt_u64()?,
        };
        dec.expect_end()?;
        Ok(checkpoint)
    }

    /// Applies one journal record. Returns false (leaving `self` possibly
    /// partially advanced — the caller discards it) when the record does not
    /// continue this checkpoint: wrong epoch or wrong tenant arity.
    fn apply(&mut self, record: &JournalRecord) -> bool {
        if record.epoch != self.epoch_next || record.tenants.len() != self.tenants.len() {
            return false;
        }
        for (snap, delta) in self.tenants.iter_mut().zip(&record.tenants) {
            snap.scalars = delta.scalars.clone();
            snap.epoch_costs.extend_from_slice(&delta.new_epoch_costs);
            for plan in &delta.new_plans {
                if !snap.plans.iter().any(|existing| existing.rho == plan.rho) {
                    snap.plans.push(plan.clone());
                }
            }
        }
        self.adoptions.extend_from_slice(&record.new_adoptions);
        self.stale_desired = record.stale_desired.clone();
        if record.ledger.is_some() {
            self.ledger = record.ledger.clone();
        }
        self.chaos_calls = record.chaos_calls;
        self.epoch_next += 1;
        true
    }
}

impl JournalRecord {
    fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::versioned(JOURNAL_MAGIC, FORMAT_VERSION);
        enc.put_u64(self.epoch);
        enc.put_seq(&self.tenants, |e, delta| {
            put_scalars(e, &delta.scalars);
            e.put_f64s(&delta.new_epoch_costs);
            e.put_seq(&delta.new_plans, put_plan);
        });
        enc.put_seq(&self.new_adoptions, put_adoption);
        enc.put_opt(self.stale_desired.as_ref(), |e, fleets| {
            put_fleets(e, fleets);
        });
        enc.put_opt(self.ledger.as_ref(), put_ledger);
        enc.put_opt_u64(self.chaos_calls);
        enc.finish()
    }

    fn decode(bytes: &[u8]) -> Result<JournalRecord, DecodeError> {
        let (mut dec, _) = Decoder::versioned(bytes, JOURNAL_MAGIC, |v| v == FORMAT_VERSION)?;
        let record = JournalRecord {
            epoch: dec.get_u64()?,
            tenants: dec.get_seq(8, |d| {
                Ok(TenantDelta {
                    scalars: get_scalars(d)?,
                    new_epoch_costs: d.get_f64s()?,
                    new_plans: d.get_seq(8, get_plan)?,
                })
            })?,
            new_adoptions: dec.get_seq(8, get_adoption)?,
            stale_desired: dec.get_opt(get_fleets)?,
            ledger: dec.get_opt(get_ledger)?,
            chaos_calls: dec.get_opt_u64()?,
        };
        dec.expect_end()?;
        Ok(record)
    }
}

// ---------------------------------------------------------------------------
// Capture (state → persisted shapes)
// ---------------------------------------------------------------------------

fn capture_plan(rho: Throughput, plan: &KnownPlan) -> PersistedPlan {
    let outcome = &plan.outcome;
    PersistedPlan {
        rho,
        target: outcome.solution.target,
        shares: outcome.solution.split.shares().to_vec(),
        machines: outcome.solution.allocation.machine_counts().to_vec(),
        proven_optimal: outcome.proven_optimal,
        lower_bound: outcome.lower_bound,
        elapsed: outcome.elapsed.as_secs_f64(),
        nodes: outcome.nodes.map(|n| n as u64),
        lp_iterations: outcome.lp_iterations.map(|n| n as u64),
        exhausted: outcome.exhausted,
    }
}

fn capture_scalars(state: &TenantState<'_>) -> ScalarState {
    ScalarState {
        fractions: state.fractions.clone(),
        mix_fleet: state.mix.fleet().to_vec(),
        mix_below: state.mix.below_counts().to_vec(),
        solved_target: state.solved_target,
        adopted_epoch: state.adopted_epoch,
        prior: state.prior.as_ref().map(|prior| PersistedPrior {
            target: prior.target,
            split: prior.split.shares().to_vec(),
            lower_bound: prior.lower_bound,
        }),
        last_failure_solve: state.last_failure_solve.clone(),
        deferred_until: state.deferred_until,
        backoff: state.backoff,
        // Everything but the name and the epoch-cost history, which travel
        // elsewhere — and copying the history here would make every
        // journal record cost time linear in the run's length.
        accounting: TenantReport {
            name: String::new(),
            epoch_costs: Vec::new(),
            ..state.report
        },
    }
}

fn capture_tenant(state: &TenantState<'_>) -> TenantSnapshot {
    TenantSnapshot {
        initial_fractions: state.initial_fractions.clone(),
        initial_target: state.report.initial_target,
        scalars: capture_scalars(state),
        epoch_costs: state.report.epoch_costs.clone(),
        plans: state
            .known_order
            .iter()
            .map(|&rho| capture_plan(rho, &state.known[&rho]))
            .collect(),
    }
}

fn capture_checkpoint(
    epoch_next: u64,
    run: &RunState<'_>,
    fault_stream: Option<&AtomicU64>,
) -> Checkpoint {
    let coupled = run.coupled.as_ref();
    Checkpoint {
        epoch_next,
        tenants: run.states.iter().map(capture_tenant).collect(),
        adoptions: run.adoptions.clone(),
        stale_desired: run.stale_desired.clone(),
        ledger: coupled.map(|cs| cs.pool.ledger()),
        trace_fingerprints: coupled
            .map(|cs| cs.traces.iter().map(|t| t.fingerprint()).collect())
            .unwrap_or_default(),
        chaos_calls: fault_stream.map(|calls| calls.load(Ordering::SeqCst)),
    }
}

// ---------------------------------------------------------------------------
// Restore (persisted shapes → state)
// ---------------------------------------------------------------------------

impl FleetController {
    /// Rebuilds the per-tenant states from a checkpoint. `None` when the
    /// persisted state fails any validation — arity mismatches, a plan that
    /// fails independent certification, non-finite timings, an adoption
    /// dated after the checkpoint itself — which sends the caller down to
    /// the cold-restart rung.
    fn restore_states<'a>(
        &self,
        ctx: &EpochCtx<'_>,
        tenants: &'a [TenantSpec],
        checkpoint: &Checkpoint,
    ) -> Option<Vec<TenantState<'a>>> {
        if checkpoint.tenants.len() != tenants.len() {
            return None;
        }
        let mut states = Vec::with_capacity(tenants.len());
        for (spec, snap) in tenants.iter().zip(&checkpoint.tenants) {
            let instance = &spec.instance;
            let num_recipes = instance.num_recipes();
            let num_types = instance.num_types();
            let scalars = &snap.scalars;
            let valid = snap.initial_fractions.len() == num_recipes
                && scalars.fractions.len() == num_recipes
                && scalars.mix_fleet.len() == num_types
                && scalars.mix_below.len() == num_types
                && scalars
                    .last_failure_solve
                    .as_ref()
                    .is_none_or(|(_, c)| c.len() == num_types)
                && scalars
                    .prior
                    .as_ref()
                    .is_none_or(|p| p.split.len() == num_recipes)
                // The current plan started renting at `adopted_epoch`, which
                // the run has reached by construction; a later epoch would
                // make keep-side projections bill a negative rental time.
                && scalars.adopted_epoch as u64 <= checkpoint.epoch_next
                && scalars
                    .accounting
                    .timing
                    .seconds()
                    .iter()
                    .all(|s| s.is_finite() && *s >= 0.0);
            if !valid {
                return None;
            }
            let report = TenantReport {
                name: spec.name.clone(),
                initial_target: snap.initial_target,
                epoch_costs: snap.epoch_costs.clone(),
                ..scalars.accounting.clone()
            };
            let fractions = scalars.fractions.clone();
            let mut state = TenantState {
                initial_fractions: snap.initial_fractions.clone(),
                mix: FixedMixState::from_parts(
                    scalars.mix_fleet.clone(),
                    scalars.mix_below.clone(),
                ),
                solved_target: scalars.solved_target,
                adopted_epoch: scalars.adopted_epoch,
                prior: scalars.prior.as_ref().map(|prior| SweepPrior {
                    target: prior.target,
                    split: ThroughputSplit::new(prior.split.clone()),
                    lower_bound: prior.lower_bound,
                }),
                last_failure_solve: scalars.last_failure_solve.clone(),
                deferred_until: scalars.deferred_until,
                backoff: scalars.backoff,
                ..TenantState::new(spec, self.policy.epoch, &ctx.env.scaling, fractions, report)
            };
            for plan in &snap.plans {
                if plan.shares.len() != num_recipes
                    || plan.machines.len() != num_types
                    || !plan.elapsed.is_finite()
                    || plan.elapsed < 0.0
                {
                    return None;
                }
                let solution = Solution {
                    target: plan.target,
                    split: ThroughputSplit::new(plan.shares.clone()),
                    allocation: Allocation::from_counts(plan.machines.clone(), instance.platform())
                        .ok()?,
                };
                // Disk contents are untrusted: re-certify every restored
                // plan with the independent integer checker — in release
                // builds too, unlike the debug assertions at adoption sites.
                rental_solvers::certify_plan(instance, &solution, None).ok()?;
                let cache = ctx.plan_cache(instance, &solution).ok()?;
                let outcome = SolverOutcome {
                    solution,
                    proven_optimal: plan.proven_optimal,
                    lower_bound: plan.lower_bound,
                    elapsed: Duration::from_secs_f64(plan.elapsed),
                    nodes: plan.nodes.map(|n| n as usize),
                    lp_iterations: plan.lp_iterations.map(|n| n as usize),
                    exhausted: plan.exhausted,
                };
                state.learn(plan.rho, KnownPlan { outcome, cache });
            }
            states.push(state);
        }
        Some(states)
    }

    /// Regenerates the coupling (traces from the config, deterministic) and
    /// re-admits the checkpointed ledger under the pool's quota invariants.
    /// `None` on fingerprint mismatch or a ledger that would over-grant.
    fn restore_coupling(
        &self,
        ctx: &EpochCtx<'_>,
        tenants: &[TenantSpec],
        config: Option<&CapacityConfig>,
        checkpoint: &Checkpoint,
    ) -> Option<Option<CouplingState>> {
        match (
            self.init_coupling(tenants, config, &ctx.env),
            &checkpoint.ledger,
        ) {
            (Some(mut coupling), Some(ledger)) => {
                let fingerprints: Vec<u64> =
                    coupling.traces.iter().map(|t| t.fingerprint()).collect();
                if fingerprints != checkpoint.trace_fingerprints {
                    return None;
                }
                coupling.pool.restore_ledger(ledger.clone()).ok()?;
                Some(Some(coupling))
            }
            (None, None) => Some(None),
            _ => None,
        }
    }

    /// Attempts the top two rungs of the recovery ladder: newest valid
    /// snapshot plus consecutive journal replay. Any divergent or
    /// undecodable journal suffix is dropped and the journal rewritten to
    /// the applied prefix, so the resumed run appends onto consistent
    /// ground. Returns the restored run and the first epoch it still has to
    /// execute; `Ok(None)` means nothing restorable — cold restart.
    fn try_restore<'a>(
        &self,
        ctx: &EpochCtx<'_>,
        tenants: &'a [TenantSpec],
        config: Option<&CapacityConfig>,
        store: &Store,
        fault_stream: Option<&AtomicU64>,
    ) -> io::Result<Option<(RunState<'a>, usize)>> {
        let recovery = store.recover()?;
        let Some(snapshot) = recovery.snapshot else {
            return Ok(None);
        };
        let Ok(mut checkpoint) = Checkpoint::decode(&snapshot.payload) else {
            return Ok(None);
        };
        if checkpoint.epoch_next != snapshot.epoch {
            return Ok(None);
        }
        // Replay: records before the snapshot are history; records from the
        // snapshot on must be consecutive, correctly-shaped continuations.
        let mut kept = 0;
        for (index, payload) in recovery.journal.iter().enumerate() {
            let Ok(record) = JournalRecord::decode(payload) else {
                break;
            };
            if record.epoch < checkpoint.epoch_next {
                kept = index + 1;
                continue;
            }
            if !checkpoint.apply(&record) {
                break;
            }
            kept = index + 1;
        }
        if kept < recovery.journal.len() {
            let path = store.journal_path();
            if path.exists() {
                std::fs::remove_file(&path)?;
            }
            for payload in &recovery.journal[..kept] {
                store.append_journal(payload)?;
            }
        }
        let Some(states) = self.restore_states(ctx, tenants, &checkpoint) else {
            return Ok(None);
        };
        let Some(coupled) = self.restore_coupling(ctx, tenants, config, &checkpoint) else {
            return Ok(None);
        };
        if let (Some(stream), Some(calls)) = (fault_stream, checkpoint.chaos_calls) {
            stream.store(calls, Ordering::SeqCst);
        }
        let run = RunState {
            states,
            coupled,
            adoptions: checkpoint.adoptions,
            stale_desired: checkpoint.stale_desired,
        };
        Ok(Some((run, checkpoint.epoch_next as usize)))
    }

    /// Opens the store for a resumable run. On resume it climbs the
    /// recovery ladder; on a fresh run — or the cold-restart rung — it
    /// resets the store, solves the initial plans and snapshots them as
    /// epoch 0. Returns the run position to continue from plus the
    /// persistence hook.
    pub(crate) fn open_store<'s, 'a>(
        &self,
        ctx: &EpochCtx<'_>,
        tenants: &'a [TenantSpec],
        config: Option<&CapacityConfig>,
        durable: Durable<'s>,
        fault_stream: Option<&'s AtomicU64>,
    ) -> PersistResult<(RunState<'a>, usize, Persistence<'s>)> {
        let store = durable.store;
        let restored = if durable.resume {
            self.try_restore(ctx, tenants, config, store, fault_stream)?
        } else {
            None
        };
        let (run, start_epoch) = match restored {
            Some((run, start_epoch)) => {
                self.telemetry.event(
                    EventKind::Recovery,
                    start_epoch,
                    None,
                    start_epoch as f64,
                    "resumed from checkpoint + journal replay",
                );
                // Recovery-ladder state for `/health`: which epoch this
                // process resumed from (absent on never-recovered runs).
                self.telemetry
                    .gauge("fleet.recovery.resumed_epoch", start_epoch as f64);
                (run, start_epoch)
            }
            None => {
                // Fresh start, or the cold-restart rung: clean slate,
                // everything re-derived deterministically from configs.
                store.reset()?;
                let run = self.init_run(ctx, tenants, config)?;
                store.write_snapshot(0, &capture_checkpoint(0, &run, fault_stream).encode())?;
                (run, 0)
            }
        };
        let hook = Persistence {
            durable,
            fault_stream,
            marks: Vec::new(),
            adoption_mark: 0,
            checkpoint_epoch: start_epoch,
        };
        Ok((run, start_epoch, hook))
    }

    /// [`FleetController::run_with_capacity`] with crash-safe persistence: a
    /// **fresh** run (the store is reset) that journals every epoch and
    /// snapshots every [`PersistOptions::snapshot_every`] epochs. With
    /// `chaos`, the solving is wrapped in the deterministic fault injector
    /// exactly as [`FleetController::run_with_chaos`] does — and the fault
    /// stream position is checkpointed, so a resumed run draws the same
    /// faults. With `crash`, the run aborts at the planned epoch and crash
    /// point, returning [`RunOutcome::Crashed`].
    ///
    /// A completed resumable run's report equals the corresponding
    /// non-persistent run's report exactly, timing fields aside.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on store failures, [`PersistError::Solve`] with
    /// the same contract as [`FleetController::run_with_capacity`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`FleetController::run_with_capacity`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_resumable<S: CapacitySolver + Sync>(
        &self,
        solver: &S,
        tenants: &[TenantSpec],
        config: &CapacityConfig,
        chaos: Option<ChaosConfig>,
        store: &Store,
        opts: &PersistOptions,
        crash: Option<&CrashPlan>,
    ) -> PersistResult<RunOutcome> {
        let durable = Durable {
            store,
            opts: *opts,
            crash: crash.copied(),
            resume: false,
        };
        self.run_durable(solver, tenants, config, chaos, durable)
    }

    /// Resumes a killed [`FleetController::run_resumable`] from the store,
    /// walking the recovery ladder (journal replay → last good snapshot →
    /// cold restart) and continuing to completion — or to the next planned
    /// crash. All non-store arguments must repeat the original run's; the
    /// combined crashed-then-resumed execution then produces a report
    /// bit-identical (modulo wall-clock timing) to the uninterrupted run.
    ///
    /// # Errors
    ///
    /// Same contract as [`FleetController::run_resumable`] — persisted-state
    /// corruption is handled by the ladder, never an error.
    ///
    /// # Panics
    ///
    /// Same conditions as [`FleetController::run_with_capacity`].
    #[allow(clippy::too_many_arguments)]
    pub fn resume_from<S: CapacitySolver + Sync>(
        &self,
        solver: &S,
        tenants: &[TenantSpec],
        config: &CapacityConfig,
        chaos: Option<ChaosConfig>,
        store: &Store,
        opts: &PersistOptions,
        crash: Option<&CrashPlan>,
    ) -> PersistResult<RunOutcome> {
        let durable = Durable {
            store,
            opts: *opts,
            crash: crash.copied(),
            resume: true,
        };
        self.run_durable(solver, tenants, config, chaos, durable)
    }

    /// The shared body of the two resumable entry points.
    fn run_durable<S: CapacitySolver + Sync>(
        &self,
        solver: &S,
        tenants: &[TenantSpec],
        config: &CapacityConfig,
        chaos: Option<ChaosConfig>,
        durable: Durable<'_>,
    ) -> PersistResult<RunOutcome> {
        let stats = ChaosStats::default();
        with_chaos(solver, chaos, tenants.len(), &stats, |warm, caps, chaos| {
            self.execute(
                warm,
                Some(caps),
                tenants,
                Some(config),
                chaos,
                Some(durable),
            )
        })
    }
}

// ---------------------------------------------------------------------------
// The end-of-epoch hook
// ---------------------------------------------------------------------------

/// Where and how a resumable run persists, as given to
/// [`FleetController::run_resumable`] / [`FleetController::resume_from`].
pub(crate) struct Durable<'s> {
    store: &'s Store,
    opts: PersistOptions,
    crash: Option<CrashPlan>,
    /// Climb the recovery ladder instead of starting fresh.
    resume: bool,
}

/// The end-of-epoch persistence hook of the epoch loop: after every
/// executed epoch it writes the epoch's journal record, strikes a planned
/// crash, snapshots on cadence and tracks the checkpoint watermark.
pub(crate) struct Persistence<'s> {
    durable: Durable<'s>,
    /// The chaos solver's fault-stream position, when the run is
    /// chaos-wrapped.
    fault_stream: Option<&'s AtomicU64>,
    /// Per tenant, the epoch-cost and learned-plan counts when the running
    /// epoch began: its journal record carries only what accrued since.
    marks: Vec<(usize, usize)>,
    adoption_mark: usize,
    /// The epoch of the newest snapshot (the checkpoint-lag watermark).
    pub(crate) checkpoint_epoch: usize,
}

impl Persistence<'_> {
    /// Notes where the coming epoch's journal delta starts.
    pub(crate) fn mark(&mut self, run: &RunState<'_>) {
        self.marks.clear();
        self.marks.extend(
            run.states
                .iter()
                .map(|s| (s.report.epoch_costs.len(), s.known_order.len())),
        );
        self.adoption_mark = run.adoptions.len();
    }

    /// Persists an executed epoch: appends its journal record and, every
    /// [`PersistOptions::snapshot_every`] epochs, a full snapshot (the
    /// `persist` span). When the run's planned crash strikes this epoch the
    /// write sequence stops at the crash point instead and `true` is
    /// returned: the run must abort.
    pub(crate) fn end_epoch(
        &mut self,
        epoch: &mut Epoch,
        run: &RunState<'_>,
        sink: &dyn TelemetrySink,
    ) -> io::Result<bool> {
        let (store, index) = (self.durable.store, epoch.index);
        let payload = self.record(index, run).encode();
        if let Some(plan) = self.durable.crash.filter(|c| c.epoch == index) {
            match plan.point {
                CrashPoint::BeforeJournal => {}
                CrashPoint::TornJournal { keep } => {
                    store.append_journal_prefix(&payload, keep)?;
                }
                CrashPoint::AfterJournal => store.append_journal(&payload)?,
                CrashPoint::AfterSnapshot => {
                    store.append_journal(&payload)?;
                    self.snapshot(index + 1, run)?;
                }
            }
            return Ok(true);
        }
        let persist_span = SpanTimer::start(Stage::Persist);
        store.append_journal(&payload)?;
        let every = self.durable.opts.snapshot_every;
        if every > 0 && (index + 1) % every == 0 {
            self.snapshot(index + 1, run)?;
        }
        persist_span.stop_into(&mut epoch.times, sink);
        Ok(false)
    }

    /// The journal record of the epoch just executed: absolute scalars plus
    /// everything accrued since [`Persistence::mark`].
    fn record(&self, epoch: usize, run: &RunState<'_>) -> JournalRecord {
        JournalRecord {
            epoch: epoch as u64,
            tenants: run
                .states
                .iter()
                .zip(&self.marks)
                .map(|(state, &(costs_mark, plans_mark))| TenantDelta {
                    scalars: capture_scalars(state),
                    new_epoch_costs: state.report.epoch_costs[costs_mark..].to_vec(),
                    new_plans: state.known_order[plans_mark..]
                        .iter()
                        .map(|&rho| capture_plan(rho, &state.known[&rho]))
                        .collect(),
                })
                .collect(),
            new_adoptions: run.adoptions[self.adoption_mark..].to_vec(),
            stale_desired: run.stale_desired.clone(),
            ledger: run.coupled.as_ref().map(|cs| cs.pool.ledger()),
            chaos_calls: self.fault_stream.map(|calls| calls.load(Ordering::SeqCst)),
        }
    }

    /// Writes the full checkpoint a resume continues from at `epoch_next`.
    fn snapshot(&mut self, epoch_next: usize, run: &RunState<'_>) -> io::Result<()> {
        let checkpoint = capture_checkpoint(epoch_next as u64, run, self.fault_stream);
        self.durable
            .store
            .write_snapshot(epoch_next as u64, &checkpoint.encode())?;
        self.checkpoint_epoch = epoch_next;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::SolverEffort;

    /// A checkpoint with every field populated.
    fn checkpoint_fixture() -> Checkpoint {
        Checkpoint {
            epoch_next: 7,
            tenants: vec![TenantSnapshot {
                initial_fractions: vec![0.25, 0.75],
                initial_target: 40,
                scalars: ScalarState {
                    fractions: vec![0.5, 0.5],
                    mix_fleet: vec![3, 0, 2],
                    mix_below: vec![0, 1, 2],
                    solved_target: 60,
                    adopted_epoch: 4,
                    prior: Some(PersistedPrior {
                        target: 60,
                        split: vec![30, 30],
                        lower_bound: Some(101.5),
                    }),
                    last_failure_solve: Some((50, vec![4, 5, 6])),
                    deferred_until: 9,
                    backoff: 2,
                    accounting: TenantReport {
                        rental_cost: 123.25,
                        switching_cost: 8.0,
                        timing: StageTimes::from_seconds([0.125, 0.0625, 1.5, 0.25, 0.03125]),
                        effort: SolverEffort {
                            solves: 4,
                            nodes: 950,
                            lp_iterations: 188,
                        },
                        probes: 11,
                        resolves: 3,
                        adoptions: 2,
                        slo_violation_epochs: 1,
                        failure_resolves: 1,
                        degraded_resolves: 0,
                        deferred_resolves: 4,
                        budget_exhausted_epochs: 1,
                        incumbent_adoptions: 1,
                        resolve_retries: 1,
                        ..TenantReport::new(String::new(), 0)
                    },
                },
                epoch_costs: vec![10.0, 12.5, -0.0],
                plans: vec![PersistedPlan {
                    rho: 60,
                    target: 60,
                    shares: vec![30, 30],
                    machines: vec![2, 1, 1],
                    proven_optimal: true,
                    lower_bound: Some(104.0),
                    elapsed: 0.002,
                    nodes: Some(17),
                    lp_iterations: Some(230),
                    exhausted: false,
                }],
            }],
            adoptions: vec![AdoptionRecord {
                tenant: 0,
                epoch: 4,
                target: 60,
                projected_keep: None,
                projected_switch: 99.0,
                switching_cost: 8.0,
                adopted: true,
                failure_triggered: true,
            }],
            stale_desired: Some(vec![vec![3, 0, 2]]),
            ledger: Some(PoolLedger {
                holdings: vec![vec![3, 0, 2]],
                in_use: vec![3, 0, 2],
                peak_in_use: vec![4, 1, 2],
            }),
            trace_fingerprints: vec![0xDEAD_BEEF_0123_4567],
            chaos_calls: Some(42),
        }
    }

    /// A journal record with every field non-default, assembled from the
    /// checkpoint fixture's parts.
    fn journal_fixture() -> JournalRecord {
        let checkpoint = checkpoint_fixture();
        let tenant = checkpoint.tenants[0].clone();
        let mut scalars = tenant.scalars;
        scalars.accounting.degraded_resolves = 2;
        let mut new_plans = tenant.plans;
        new_plans[0].exhausted = true;
        let mut new_adoptions = checkpoint.adoptions;
        new_adoptions[0].projected_keep = Some(410.0);
        JournalRecord {
            epoch: 5,
            tenants: vec![TenantDelta {
                scalars,
                new_epoch_costs: vec![31.5, -0.0],
                new_plans,
            }],
            new_adoptions,
            stale_desired: checkpoint.stale_desired,
            ledger: checkpoint.ledger,
            chaos_calls: Some(17),
        }
    }

    /// FNV-1a over a byte string: a stable digest of an encoded payload.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &byte| {
            (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// The exact on-disk bytes of both payload kinds are pinned: a layout
    /// change must bump `FORMAT_VERSION` rather than silently reinterpret
    /// stores written by an earlier build.
    #[test]
    fn encoded_bytes_are_pinned() {
        let checkpoint = checkpoint_fixture().encode();
        let record = journal_fixture().encode();
        assert_eq!(
            (checkpoint.len(), fnv1a(&checkpoint)),
            (790, 0xAFC6_6E1A_3245_29CE),
            "checkpoint layout changed"
        );
        assert_eq!(
            (record.len(), fnv1a(&record)),
            (742, 0xA5E6_F13D_91E6_1853),
            "journal record layout changed"
        );
        assert_eq!(
            JournalRecord::decode(&record).expect("round trip"),
            journal_fixture()
        );
    }

    #[test]
    fn checkpoint_round_trips_through_the_codec() {
        let checkpoint = checkpoint_fixture();
        let decoded = Checkpoint::decode(&checkpoint.encode()).expect("round trip");
        assert_eq!(decoded, checkpoint);
        // -0.0 must survive bit-exactly (f64s are stored as raw bits).
        assert!(decoded.tenants[0].epoch_costs[2].is_sign_negative());
    }

    #[test]
    fn journal_record_round_trips_and_applies() {
        let mut checkpoint = Checkpoint {
            epoch_next: 3,
            tenants: vec![TenantSnapshot {
                initial_fractions: vec![1.0],
                initial_target: 10,
                scalars: blank_scalars(),
                epoch_costs: vec![1.0, 2.0, 3.0],
                plans: vec![],
            }],
            adoptions: vec![],
            stale_desired: None,
            ledger: None,
            trace_fingerprints: vec![],
            chaos_calls: None,
        };
        let record = JournalRecord {
            epoch: 3,
            tenants: vec![TenantDelta {
                scalars: blank_scalars(),
                new_epoch_costs: vec![4.0],
                new_plans: vec![],
            }],
            new_adoptions: vec![],
            stale_desired: None,
            ledger: None,
            chaos_calls: None,
        };
        let decoded = JournalRecord::decode(&record.encode()).expect("round trip");
        assert_eq!(decoded, record);
        assert!(checkpoint.apply(&decoded));
        assert_eq!(checkpoint.epoch_next, 4);
        assert_eq!(checkpoint.tenants[0].epoch_costs, vec![1.0, 2.0, 3.0, 4.0]);
        // Replaying out of order is rejected.
        assert!(!checkpoint.apply(&decoded));
    }

    #[test]
    fn decode_rejects_foreign_magic_and_trailing_bytes() {
        let record = JournalRecord {
            epoch: 0,
            tenants: vec![],
            new_adoptions: vec![],
            stale_desired: None,
            ledger: None,
            chaos_calls: None,
        };
        let bytes = record.encode();
        assert!(
            Checkpoint::decode(&bytes).is_err(),
            "journal magic is not a checkpoint"
        );
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(
            JournalRecord::decode(&padded).is_err(),
            "trailing bytes rejected"
        );
        assert!(
            JournalRecord::decode(&bytes[..bytes.len() - 1]).is_err(),
            "truncation rejected"
        );
    }

    /// A checkpoint can be CRC-valid and still lie: a tenant that claims to
    /// have adopted its plan after the checkpoint's own epoch would make the
    /// keep-side projection bill a negative elapsed rental time. Resume must
    /// reject it down the cold-restart rung, not panic at the next probe.
    #[test]
    fn future_adoption_epoch_cold_restarts() {
        use crate::{FleetPolicy, PersistOptions};
        use rental_core::examples::illustrating_example;
        use rental_solvers::exact::IlpSolver;
        use rental_stream::WorkloadTrace;

        let tenants = vec![TenantSpec::new(
            "diurnal",
            illustrating_example(),
            WorkloadTrace::diurnal(20.0, 160.0, 12.0, 3),
        )];
        let config = CapacityConfig::unconstrained();
        let controller = FleetController::new(FleetPolicy {
            switching_cost: 5.0,
            ..FleetPolicy::default()
        });
        let solver = IlpSolver::new();
        let reference = controller
            .run_with_capacity(&solver, &tenants, &config)
            .unwrap();
        let dir = std::env::temp_dir().join(format!(
            "rental-fleet-future-adoption-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let opts = PersistOptions::default();
        let crash = CrashPlan {
            epoch: 3,
            point: CrashPoint::AfterSnapshot,
        };
        let outcome = controller
            .run_resumable(
                &solver,
                &tenants,
                &config,
                None,
                &store,
                &opts,
                Some(&crash),
            )
            .unwrap();
        assert!(matches!(outcome, RunOutcome::Crashed { epoch: 3 }));
        let snapshot = store.recover().unwrap().snapshot.expect("snapshot");
        let mut checkpoint = Checkpoint::decode(&snapshot.payload).unwrap();
        checkpoint.tenants[0].scalars.adopted_epoch = checkpoint.epoch_next as usize + 1000;
        store
            .write_snapshot(snapshot.epoch, &checkpoint.encode())
            .unwrap();
        let resumed = controller
            .resume_from(&solver, &tenants, &config, None, &store, &opts, None)
            .unwrap()
            .completed()
            .expect("resume completes");
        assert!(resumed.matches_modulo_timing(&reference));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn blank_scalars() -> ScalarState {
        ScalarState {
            fractions: vec![1.0],
            mix_fleet: vec![0],
            mix_below: vec![0],
            solved_target: 10,
            adopted_epoch: 0,
            prior: None,
            last_failure_solve: None,
            deferred_until: 0,
            backoff: 0,
            accounting: TenantReport::new(String::new(), 0),
        }
    }
}
