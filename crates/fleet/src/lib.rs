//! # rental-fleet
//!
//! Multi-tenant **streaming re-optimization** on top of the MinCost kernel:
//! the subsystem that turns the batch solver and warm-started sweeps into the
//! many-tenants serving scenario the ROADMAP targets.
//!
//! §I of the paper assumes one stream application provisioned once for a
//! constant target throughput ρ. A serving platform instead hosts **fleets**
//! of such applications (tenants), each with its own instance, its own
//! time-varying workload trace and its own current plan. This crate manages
//! them over a shared epoch clock with a **probe / solve / adopt** loop:
//!
//! 1. **Probe** — every epoch, each tenant's demand rate is re-read from its
//!    trace. When the rate has shifted away from the target the tenant's plan
//!    was solved for, a cheap what-if probe asks whether the *fixed-mix
//!    rescale* of the current plan at the new rate is still within ε of the
//!    best cost achievable there (a fractional lower bound, sharpened by any
//!    previously solved target). The probe projects costs over the
//!    **remaining horizon** through a memoized
//!    [`rental_pricing::HorizonCache`] instead of re-billing the plan — one
//!    `O(log segments)` query per probe.
//! 2. **Solve** — all tenants whose probes demand a re-solve are batched into
//!    a single [`rental_solvers::solve_warm_batch_timed`] fan-out on the
//!    shared worker pool, each unit warm-started from that tenant's previous
//!    incumbent and proven bound ([`rental_solvers::SweepPrior`]).
//! 3. **Adopt** — a freshly solved plan is adopted only when its projected
//!    savings over the remaining horizon exceed a configurable
//!    switching/migration cost (hysteresis); rejected solves still sharpen
//!    the tenant's probe memo and warm-start prior, so a target is never
//!    solved twice.
//!
//! The run emits a [`FleetReport`]: per-tenant rental and switching cost,
//! re-solve and adoption counts, the probe-vs-solve time split, and savings
//! against both the **static peak** provisioning of the paper and the
//! **fixed-mix autoscaler** of `rental-stream` (which rescales machine counts
//! but never re-solves the recipe mix).
//!
//! ## Capacity- and failure-coupled serving
//!
//! [`FleetController::run_with_capacity`] layers the `rental-capacity`
//! subsystem underneath the same loop: per-epoch fleets are granted by a
//! shared [`rental_capacity::CapacityPool`] (per-type quotas, deterministic
//! proportional arbitration), machine outages sampled per tenant from
//! [`rental_stream::FailureModel`] erode the granted capacity, and epochs
//! whose surviving machines cannot carry the demand are counted as **SLO
//! violations** and trigger **capacity-constrained re-solve-on-failure**: a
//! cheap fractional coverage probe, then one batched capped MILP fan-out
//! (`solve_caps_batch_timed`), then a degraded-mode fallback to the largest
//! quota-feasible target. The report grows quota-utilization, SLO-violation
//! and failure-re-solve counters plus a **static-headroom** baseline
//! (provisioning the initial mix for `peak / availability`). With
//! [`rental_capacity::CapacityConfig::unconstrained`] the coupled path is
//! bit-identical to [`FleetController::run`].
//!
//! ## One epoch loop, sharded epoch pipelines
//!
//! Every entry point — [`FleetController::run`], `run_with_capacity`,
//! [`FleetController::run_with_chaos`], [`FleetController::run_resumable`]
//! and [`FleetController::resume_from`] — runs the **same epoch loop**; they
//! differ only in what they hand it: a capacity coupling, a chaos-wrapped
//! solver, a persistence hook. Each epoch is five stage functions, named
//! after the spans of the epoch's trace tree: **bill/arbitrate**
//! (`arbitrate`), **failure re-solve** (its probes and solves charge
//! `shard_probe` and `solve`), **probe** (`shard_probe`, `merge_wait`),
//! **solve** (`solve`) and **adopt** (`adopt`); a resumable run's hook then
//! persists the epoch (`persist`).
//!
//! At fleet scale (10³–10⁴ tenants) the per-tenant epoch work — trace
//! advancement, shift detection, memoized what-if probes, grant billing —
//! dominates the loop, and it is embarrassingly parallel: no tenant reads
//! another's state. [`FleetPolicy::shards`] partitions the tenants into
//! contiguous index-order shards that run those stages concurrently on the
//! shared rayon pool, then meet at a **single deterministic barrier per
//! epoch** where everything cross-tenant happens sequentially: capacity
//! arbitration on the shared [`rental_capacity::CapacityPool`], the batched
//! ILP fan-outs, plan adoption and flight-recorder events. Shard results
//! merge in tenant-index order and per-shard [`rental_obs::StageTimes`] sum
//! associatively into the epoch row, so the report at *every* shard count is
//! bit-identical (modulo the wall-clock timing family) to the sequential
//! loop — `shards: Some(1)` *is* the sequential loop, not an emulation, and
//! the `fleet_sharding` property tests pin the equivalence for `run`,
//! `run_with_capacity`, `run_with_chaos` and a kill-and-resume
//! `run_resumable` at shard counts {1, 2, 8}. `shards: None` (the default)
//! auto-sizes: roughly one shard per 64 tenants, clamped to the worker
//! count, so small fleets keep the zero-overhead sequential path. The
//! `fleet_scaling` bench sweeps 1k/4k/16k tenants and reports
//! **tenant-epochs/sec** to `BENCH_fleet_scaling.json`.
//!
//! ## Deadlines, anytime incumbents and the degradation ladder
//!
//! [`FleetPolicy::epoch_budget`] caps the solving work spent per epoch: the
//! budget (wall-clock deadline, branch-and-bound node cap, simplex
//! iteration cap — any subset) is split across the epoch's batched
//! re-solves. Exhausted solves are **anytime**: when the MILP holds an
//! incumbent at exhaustion it is returned marked
//! [`rental_solvers::SolverOutcome::exhausted`] and adopted like any other
//! candidate (counted in [`TenantReport::incumbent_adoptions`]); without an
//! incumbent the tenant **keeps its current plan** and the re-solve is
//! deferred under capped exponential backoff (1, 2, 4, … epochs up to
//! [`FleetPolicy::backoff_cap`]), counted in
//! [`TenantReport::deferred_resolves`] and closed by the first successful
//! retry ([`TenantReport::resolve_retries`]). The full degradation ladder,
//! from healthiest to last resort:
//!
//! 1. **full solve** — proven-optimal plan within budget;
//! 2. **anytime incumbent** — best feasible plan at exhaustion;
//! 3. **keep current plan + backoff** — serve on the stale plan, retry
//!    later;
//! 4. **fixed-mix rescale** — the autoscaler baseline every tenant can
//!    always fall back to (and the cost the chaos tests pin as the
//!    worst-case envelope when the fault rate approaches 1).
//!
//! The [`chaos`] module stress-tests exactly this ladder with deterministic
//! seeded fault injection — injected solve timeouts, spurious
//! infeasibilities, singular refactorizations, poisoned warm-start priors
//! and delayed arbitration decisions — via
//! [`FleetController::run_with_chaos`].
//!
//! ## Crash safety: checkpoints, the write-ahead journal and the recovery ladder
//!
//! [`FleetController::run_resumable`] makes the same loop **durable** by
//! giving it an end-of-epoch persistence hook: after every executed epoch
//! the hook appends one CRC-framed record to a write-ahead journal in a
//! [`rental_persist::Store`], and every [`PersistOptions::snapshot_every`]
//! epochs it snapshots the full controller state (per-tenant plans, backoff
//! state, report counters, the pool ledger, the outage-trace fingerprints,
//! the chaos fault-stream position) atomically, via temp-file-and-rename.
//! The same hook strikes a planned [`CrashPlan`]. A plain run has no hook
//! and does no persistence work at all.
//!
//! A run killed at *any* point is restarted with
//! [`FleetController::resume_from`], which climbs a three-rung **recovery
//! ladder**, healthiest first — journal replay onto the newest valid
//! snapshot, then the last good snapshot with the lost epochs re-executed,
//! then a cold restart — before entering the loop at the first unexecuted
//! epoch (see [`persist`] for each rung). Because every solve is
//! deterministic under a pinned thread count and a node-cap budget, all
//! three rungs land on a report **bit-identical** (modulo wall-clock
//! timing, see [`FleetReport::matches_modulo_timing`]) to the uninterrupted
//! run — pinned by the `fleet_persist` property tests, which crash at
//! seeded epochs and journal-write points (including torn mid-record writes
//! via [`CrashPlan`]), corrupt the journal tail ([`CorruptionFault`]), and
//! resume under active chaos injection. Restored plans are re-certified by
//! `rental_solvers::certify_plan` before they are trusted, and the pool
//! ledger is re-admitted only through the quota invariants of
//! `rental_capacity::CapacityPool::restore_ledger` — a corrupted store can
//! cost re-execution time, never an over-grant.
//!
//! ## Telemetry: spans, metrics and the flight recorder
//!
//! The controller is instrumented through the zero-cost
//! [`rental_obs::TelemetrySink`] handed to
//! [`FleetController::with_telemetry`] (default
//! [`rental_obs::NoopSink`], whose empty inlined methods vanish from
//! the epoch loop). Every epoch is split into five lexically-scoped
//! stages — probe / arbitrate / solve / adopt / persist
//! ([`rental_obs::Stage`]) — timed by [`rental_obs::SpanTimer`]s that
//! feed both the sink (`fleet.span.*` microsecond histograms) and the
//! report's own [`rental_obs::StageTimes`] rows
//! ([`TenantReport::timing`], [`FleetReport::epoch_timing`]): the
//! **single masked field family** of
//! [`FleetReport::matches_modulo_timing`]. Deterministic solver
//! effort ([`TenantReport::effort`], aggregated by
//! [`FleetReport::effort`]) counts solves, branch-and-bound nodes and
//! simplex iterations per tenant — it is *not* masked, survives
//! checkpoint/resume, and ranks tenants via
//! [`FleetReport::top_effort`]. Fleet counters, the pool-utilization
//! gauge and structured flight-recorder events (adoptions, SLO
//! violations, degraded solves, chaos faults, recovery) are emitted
//! only from sequential controller sites, so a seeded run replays the
//! exact same event sequence; the LP and solver layers below publish
//! through the ambient [`rental_obs::install_scoped`] sink instead.
//! [`FleetReport::telemetry`] renders the report as JSONL, and the
//! full catalogue lives in `METRICS.md` at the workspace root.
//!
//! ## The live operational plane: exporter, trace trees and alerts
//!
//! Beyond post-hoc JSONL dumps, a running fleet is **live-observable**:
//!
//! * **Scrape endpoints** — attach an [`rental_obs::Exporter`] to the same
//!   [`rental_obs::Recorder`] handed to
//!   [`FleetController::with_telemetry`] and it serves, on a plain
//!   `std::net::TcpListener` (any address, port 0 for ephemeral;
//!   `repro fleet-obs --serve` defaults to `127.0.0.1:9464`):
//!   `GET /metrics` (Prometheus text exposition — counters, gauges, and
//!   the `fleet.span.*` histograms as cumulative `_bucket`/`_sum`/`_count`
//!   families with `_p50`/`_p95`/`_p99` quantile gauges), `GET /health`
//!   (liveness, the `fleet.epoch_watermark` last-completed-epoch gauge,
//!   recovery-ladder state, flight-ring overflow, firing alerts) and
//!   `GET /events` (the flight-recorder tail as JSONL).
//! * **Causal trace trees** — each epoch emits one
//!   [`rental_obs::TraceTree`] (`trace_id` = epoch) from the sequential
//!   barrier: root `epoch`, one `shard_probe` child per probe shard
//!   (parallel), then `merge_wait`, `arbitrate`, `solve`, `adopt`,
//!   `persist`. The critical-path analyzer
//!   ([`rental_obs::TraceTree::critical_path`]) attributes epoch wall-time
//!   to its dominant chain and reports the **barrier share** — the
//!   `merge_wait` fraction — per epoch and aggregated
//!   ([`rental_obs::TraceSummary`]).
//! * **Alerts** — [`FleetController::with_alerts`] evaluates an
//!   [`rental_obs::AlertEngine`] once per epoch at the barrier:
//!   multi-window SLO burn-rate, degraded-resolve streaks,
//!   budget-exhaustion rate and checkpoint lag, emitting
//!   `alert_fired`/`alert_resolved` events and `fleet.alert.*` gauges
//!   that surface on `/health`.
//!
//! **Determinism contract**: the exporter is strictly read-only (each
//! scrape merges the metric shards into one consistent snapshot and never
//! touches controller state), trace trees and alert evaluations happen
//! only at sequential barrier sites on epoch-indexed data, and none of it
//! feeds a decision — so a run with the exporter attached, traces on and
//! alerts firing is **bit-identical** (modulo the
//! [`rental_obs::StageTimes`] family) to an untelemetered run, a property
//! pinned by the `fleet_obs` bench floors in CI.
//!
//! Switching charges can also be **per-machine-delta**
//! ([`FleetPolicy::per_machine_switching_cost`]): on adoption, only the
//! machines that actually change between the kept and adopted fleets are
//! charged, with the flat [`FleetPolicy::switching_cost`] as the
//! default-compatible special case.
//!
//! ```
//! use rental_fleet::{FleetController, FleetPolicy, TenantSpec};
//! use rental_solvers::exact::IlpSolver;
//! use rental_core::examples::illustrating_example;
//! use rental_stream::WorkloadTrace;
//!
//! let tenants = vec![TenantSpec::new(
//!     "video",
//!     illustrating_example(),
//!     WorkloadTrace::diurnal(20.0, 120.0, 12.0, 2),
//! )];
//! let report = FleetController::new(FleetPolicy::default())
//!     .run(&IlpSolver::new(), &tenants)
//!     .unwrap();
//! assert!(report.total_cost() <= report.fixed_mix_cost());
//! ```

pub mod chaos;
pub mod controller;
mod epoch;
pub mod persist;
pub mod report;
pub mod scenario;
pub mod tenant;

pub use chaos::{
    ChaosConfig, ChaosSolver, ChaosStats, CorruptionFault, CorruptionKind, CrashPlan, CrashPoint,
};
pub use controller::{initial_target, FleetController, FleetPolicy};
pub use persist::{PersistError, PersistOptions, PersistResult, RunOutcome};
pub use rental_capacity::CapacityConfig;
pub use rental_obs::{AlertPolicy, AlertRule};
pub use report::{AdoptionRecord, FleetReport, SolverEffort, TenantReport};
pub use scenario::{
    diurnal_spike_fleet, failure_coupled_fleet, fleet_instance_config, scaling_fleet,
    scaling_fleet_one_epoch, scaling_instance_config, FleetScenario, ACCEPTANCE_SEED,
    SCALING_EPOCHS,
};
pub use tenant::TenantSpec;
