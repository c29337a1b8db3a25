#![allow(missing_docs)] // criterion_group!/criterion_main! generate undocumented items

//! Benchmark of the **failure-coupled** fleet serving path: the capacity
//! pool, per-tenant outage traces, replacement renting and
//! capacity-constrained re-solve-on-failure.
//!
//! * `fleet_failure/mtbf-H` times the `fleet_failure` experiment lane on
//!   the 8-tenant diurnal+spike scenario at each MTBF of its default sweep.
//! * The harness then runs the whole default sweep once more as the
//!   acceptance check and writes `BENCH_fleet_failure.json`: the lane's
//!   rows (per MTBF, the coupled fleet's cost and SLO-violation epochs
//!   against the **static-headroom** baseline) plus a floors row. The
//!   floors asserted here: fleet-with-repair is **cheaper** than static
//!   headroom while keeping SLO-violation epochs **below** the baseline's.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rental_bench::write_bench_json;
use rental_experiments::{
    fleet_failure_json, fleet_failure_markdown, run_fleet_failure_experiment, FleetFailureSpec,
};

fn bench_fleet_failure(c: &mut Criterion) {
    let sweep = FleetFailureSpec::default();

    let mut group = c.benchmark_group("fleet_failure");
    group.sample_size(10);
    for &mtbf in &sweep.mtbfs {
        let spec = FleetFailureSpec {
            mtbfs: vec![mtbf],
            ..sweep.clone()
        };
        group.bench_with_input(BenchmarkId::new("mtbf", mtbf as u64), &spec, |b, spec| {
            b.iter(|| run_fleet_failure_experiment(black_box(spec)).unwrap())
        });
    }
    group.finish();

    let table = run_fleet_failure_experiment(&sweep).expect("the failure scenario solves");
    print!("{}", fleet_failure_markdown(&table));
    for row in &table.rows {
        let report = &row.report;
        assert!(
            report.total_cost() < report.static_headroom_cost(),
            "mtbf {}: fleet-with-repair must beat the static-headroom baseline",
            row.mtbf
        );
        assert!(
            report.slo_violation_epochs() < report.static_headroom_violations(),
            "mtbf {}: coupled serving must violate fewer epochs than the static baseline",
            row.mtbf
        );
    }
    write_bench_json(
        "BENCH_fleet_failure.json",
        &fleet_failure_json(&table),
        |floors| {
            floors
                .bool("fleet_cost_below_static_headroom", true)
                .bool("fleet_slo_epochs_below_static_headroom", true)
        },
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(200)).measurement_time(std::time::Duration::from_secs(1));
    targets = bench_fleet_failure
}
criterion_main!(benches);
