#![allow(missing_docs)] // criterion_group!/criterion_main! generate undocumented items

//! Scaling benchmark for the `rental-fleet` streaming re-optimization
//! subsystem.
//!
//! * `fleet_scaling/run/N` times one full run of the **controller-scaling
//!   fleet** (`scaling_fleet`: tiny instances, probe-every-epoch traces, a
//!   prohibitive switching cost — pure epoch-loop work after the init
//!   solves) at 1k, 4k and 16k tenants under the auto shard policy. A tight
//!   sample/warm-up budget keeps the 16k lane inside CI time.
//! * The harness then runs the `fleet_scale` experiment lane over the same
//!   sizes — **tenant-epochs/sec** of the sequential and sharded epoch
//!   loops — and writes its rows to `BENCH_fleet_scaling.json` with a
//!   floors row. Floors: sharded reports bit-identical (modulo timing) to
//!   sequential at shard counts {1, 2, 4, 8}, and sharded ≥ 3× sequential
//!   tenant-epochs/sec at 4k tenants when the host has ≥ 4 cores.
//! * Finally the harness runs the `fleet` lane on the 16-tenant
//!   **acceptance scenario** (the seed of the `fleet_regression` test) and
//!   writes its rows to `BENCH_fleet.json`. Floors: total cost below the
//!   fixed-mix autoscale baseline, resolve fraction below one half.
//!
//! Set `FLEET_SCALING_SMOKE=1` to restrict the sweep to the 1k-tenant lane
//! (the CI smoke configuration); the determinism floor still runs there.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rental_bench::write_bench_json;
use rental_experiments::{
    fleet_json, fleet_markdown, fleet_scale_json, fleet_scale_markdown, run_fleet_experiment,
    run_fleet_scale_experiment, FleetExperimentSpec, FleetScaleSpec,
};
use rental_fleet::{scaling_fleet, FleetController};
use rental_solvers::exact::IlpSolver;

/// Shard counts every fleet report must be bit-identical across.
const DETERMINISM_SHARDS: [usize; 4] = [1, 2, 4, 8];

/// Minimum sharded-over-sequential tenant-epochs/sec ratio at 4k tenants,
/// enforced when the host has at least [`MIN_CORES_FOR_FLOOR`] cores.
const SPEEDUP_FLOOR: f64 = 3.0;
const MIN_CORES_FOR_FLOOR: usize = 4;

/// Ceiling on the acceptance scenario's re-solved share of tenant-epochs.
const MAX_RESOLVE_FRACTION: f64 = 0.5;

fn smoke() -> bool {
    std::env::var("FLEET_SCALING_SMOKE").is_ok_and(|v| v == "1")
}

fn sweep_sizes() -> Vec<usize> {
    if smoke() {
        vec![1000]
    } else {
        vec![1000, 4000, 16000]
    }
}

fn bench_fleet_scaling(c: &mut Criterion) {
    let sweep = FleetScaleSpec {
        sizes: sweep_sizes(),
        ..FleetScaleSpec::default()
    };

    // One full scaling-fleet run per fleet size under the auto shard
    // policy. The sample/warm-up budget is deliberately tiny — a 16k run
    // takes seconds, so re-running it tens of times would blow the CI
    // budget for no extra signal.
    let solver = IlpSolver::new();
    let mut group = c.benchmark_group("fleet_scaling");
    group
        .sample_size(2)
        .warm_up_time(std::time::Duration::from_millis(1))
        .measurement_time(std::time::Duration::from_secs(2));
    for &tenants in &sweep.sizes {
        let scenario = scaling_fleet(tenants, sweep.seed);
        let controller = FleetController::new(scenario.policy);
        group.bench_with_input(
            BenchmarkId::new("run", tenants),
            &scenario,
            |b, scenario| {
                b.iter(|| {
                    controller
                        .run(&solver, black_box(&scenario.tenants))
                        .unwrap()
                        .total_cost()
                })
            },
        );
    }
    group.finish();

    // Tenant-epochs/sec sweep: sequential vs sharded epoch loops.
    let table = run_fleet_scale_experiment(&sweep).expect("the scaling fleet solves");
    print!("{}", fleet_scale_markdown(&table));
    assert!(
        table.all_deterministic(),
        "determinism floor: a sharded report diverged from the sequential run"
    );
    let speedup_enforced = !smoke() && table.cores >= MIN_CORES_FOR_FLOOR;
    if speedup_enforced {
        let row = table
            .rows
            .iter()
            .find(|row| row.tenants == 4000)
            .expect("the full sweep has a 4k lane");
        let speedup = row
            .speedup()
            .expect("auto-sharding picks several shards at 4k tenants on >= 4 cores");
        assert!(
            speedup >= SPEEDUP_FLOOR,
            "scaling floor: sharded must reach {SPEEDUP_FLOOR}x sequential tenant-epochs/sec \
             at 4k tenants on >= {MIN_CORES_FOR_FLOOR} cores (got {speedup:.2}x on {} cores)",
            table.cores
        );
    }

    // Determinism floor, on the smallest lane (cheap, and the property is
    // size-independent): the report must be bit-identical modulo the
    // timing family at every shard count.
    let det_tenants = sweep.sizes[0];
    for &shards in &DETERMINISM_SHARDS[1..] {
        let det = run_fleet_scale_experiment(&FleetScaleSpec {
            sizes: vec![det_tenants],
            shards: Some(shards),
            trials: 1,
            ..sweep.clone()
        })
        .expect("the scaling fleet solves");
        assert!(
            det.all_deterministic(),
            "determinism floor: the {shards}-shard report must be bit-identical (modulo \
             timing) to the sequential run at {det_tenants} tenants"
        );
    }
    write_bench_json(
        "BENCH_fleet_scaling.json",
        &fleet_scale_json(&table),
        |floors| {
            floors
                .bool("smoke", smoke())
                .usize("determinism_tenants", det_tenants)
                .raw("determinism_shard_counts", "[1,2,4,8]")
                .bool("determinism_enforced", true)
                .f64("speedup_at_4k_min", SPEEDUP_FLOOR)
                .usize("speedup_min_cores", MIN_CORES_FOR_FLOOR)
                .bool("speedup_enforced", speedup_enforced)
        },
    );

    // The 16-tenant acceptance scenario.
    let fleet = run_fleet_experiment(&FleetExperimentSpec::default())
        .expect("the acceptance scenario solves");
    print!("{}", fleet_markdown(&fleet));
    let report = &fleet.report;
    assert!(
        report.total_cost() < report.fixed_mix_cost(),
        "acceptance: re-solving must beat the fixed-mix baseline"
    );
    assert!(
        report.resolve_fraction() < MAX_RESOLVE_FRACTION,
        "acceptance: only a minority of tenant-epochs may re-solve"
    );
    write_bench_json("BENCH_fleet.json", &fleet_json(&fleet), |floors| {
        floors
            .bool("fleet_cost_below_fixed_mix", true)
            .f64("resolve_fraction_max", MAX_RESOLVE_FRACTION)
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(200)).measurement_time(std::time::Duration::from_secs(1));
    targets = bench_fleet_scaling
}
criterion_main!(benches);
