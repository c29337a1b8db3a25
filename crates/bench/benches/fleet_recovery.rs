#![allow(missing_docs)] // criterion_group!/criterion_main! generate undocumented items

//! Benchmark of the **crash-safe** serving path: the failure-coupled fleet
//! made durable through the `rental-persist` checkpoint/WAL store.
//!
//! * `fleet_recovery/cadence-N` times one row of the `fleet_recovery`
//!   experiment lane with a full snapshot every N epochs: the plain
//!   in-memory run, the durable run (a write-ahead journal record per
//!   epoch), and a run killed at the midpoint and resumed from disk.
//! * The harness then runs the lane at the operating cadence as the
//!   acceptance check and writes `BENCH_fleet_recovery.json`: the lane's
//!   row plus a floors row. The floors asserted here:
//!   - **snapshot overhead**: at the operating cadence (one snapshot every
//!     48 epochs) the amortized per-epoch cost of writing a snapshot stays
//!     under **5%** of the durable run's per-epoch wall-time. The
//!     per-snapshot cost is measured here directly — the minimum over
//!     repeated same-sized checkpoint writes — because differencing whole
//!     runs drowns a millisecond of fsync in scheduler noise;
//!   - **resume equivalence**: the uninterrupted durable run and the run
//!     killed right after journalling the midpoint epoch and restarted
//!     from disk both reproduce the plain run's report bit-for-bit
//!     (modulo wall-clock timing).
//!
//! The lane pins one worker thread and a branch-and-bound node cap, so
//! every run is deterministic and the equivalence floors are stable across
//! machines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

use rental_bench::write_bench_json;
use rental_experiments::{
    fleet_recovery_json, fleet_recovery_markdown, run_fleet_recovery_experiment, FleetRecoverySpec,
};
use rental_persist::Store;

/// The operating snapshot cadence the overhead floor is asserted at.
const OPERATING_CADENCE: usize = 48;
/// Snapshot-write repetitions; the minimum is the noise-free cost estimate.
const SNAPSHOT_TRIALS: usize = 32;
/// Amortized snapshot cost per epoch vs epoch wall-time.
const OVERHEAD_FLOOR: f64 = 0.05;

/// The lane at one cadence, killed after the midpoint of its 96 epochs.
fn spec(cadence: usize) -> FleetRecoverySpec {
    FleetRecoverySpec {
        num_tenants: 8,
        snapshot_cadences: vec![cadence],
        crash_epoch: 48,
        ..FleetRecoverySpec::default()
    }
}

/// Minimum wall seconds of writing a `bytes`-sized snapshot.
fn snapshot_write_seconds(bytes: usize) -> f64 {
    let dir = std::env::temp_dir().join(format!(
        "rental-bench-snapshot-write-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).expect("the scratch store opens");
    let payload = vec![0xA5u8; bytes];
    let seconds = (0..SNAPSHOT_TRIALS as u64)
        .map(|trial| {
            let start = Instant::now();
            store
                .write_snapshot(1_000 + trial, &payload)
                .expect("the snapshot write succeeds");
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    let _ = std::fs::remove_dir_all(&dir);
    seconds
}

fn bench_fleet_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_recovery");
    group.sample_size(10);
    for cadence in [8usize, OPERATING_CADENCE] {
        group.bench_with_input(
            BenchmarkId::new("cadence", cadence as u64),
            &spec(cadence),
            |b, spec| b.iter(|| run_fleet_recovery_experiment(black_box(spec)).unwrap()),
        );
    }
    group.finish();

    let table = run_fleet_recovery_experiment(&spec(OPERATING_CADENCE))
        .expect("the recovery lane completes");
    print!("{}", fleet_recovery_markdown(&table));
    let row = &table.rows[0];
    assert!(
        row.uninterrupted_equivalent,
        "the uninterrupted durable run diverged from the plain run"
    );
    assert!(
        row.resume_equivalent,
        "the kill-and-resume run diverged from the plain run"
    );

    // At the operating cadence, snapshotting must amortize to under 5% of
    // the durable run's per-epoch wall-time.
    let epoch_seconds = row.resumable_seconds / table.reference.epochs as f64;
    let snapshot_bytes = row.snapshot_bytes / row.snapshots.max(1) as u64;
    let snapshot_seconds = snapshot_write_seconds(snapshot_bytes as usize);
    let overhead_fraction = (snapshot_seconds / OPERATING_CADENCE as f64) / epoch_seconds;
    println!(
        "fleet_recovery snapshot: {:.0} us for {snapshot_bytes} B, amortized {:.2}% of \
         {:.0} us/epoch at cadence {OPERATING_CADENCE}",
        1e6 * snapshot_seconds,
        100.0 * overhead_fraction,
        1e6 * epoch_seconds,
    );
    assert!(
        overhead_fraction < OVERHEAD_FLOOR,
        "snapshot overhead {:.2}% exceeds the {:.0}% floor at cadence {OPERATING_CADENCE}",
        100.0 * overhead_fraction,
        100.0 * OVERHEAD_FLOOR,
    );
    write_bench_json(
        "BENCH_fleet_recovery.json",
        &fleet_recovery_json(&table),
        |floors| {
            floors
                .usize("snapshot_cadence", OPERATING_CADENCE)
                .f64("epoch_seconds", epoch_seconds)
                .u64("snapshot_bytes", snapshot_bytes)
                .f64("snapshot_write_seconds", snapshot_seconds)
                .f64("snapshot_overhead_fraction", overhead_fraction)
                .f64("overhead_floor", OVERHEAD_FLOOR)
                .bool("uninterrupted_equivalent", true)
                .bool("resume_equivalent", true)
        },
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(200)).measurement_time(std::time::Duration::from_secs(1));
    targets = bench_fleet_recovery
}
criterion_main!(benches);
