#![allow(missing_docs)] // criterion_group!/criterion_main! generate undocumented items

//! Speed-up benchmarks for the LP/MILP substrate rewrite.
//!
//! * `lp_speedup/relaxation-*` times the **revised simplex** (sparse columns,
//!   LU + eta-file basis, native bounds) against the retained dense tableau
//!   on MinCost relaxations with `m ≥ 60` rows — the regime the ROADMAP
//!   called out. Both engines are first asserted to agree on status and
//!   objective. The acceptance target is a ≥ 3× speedup.
//! * `lp_speedup/sweep-*` times warm-started target sweeps (incumbent + bound
//!   threading via `solve_sweep`) against cold per-target ILP solves on a
//!   fine-grained Table III sweep.
//!
//! Besides the criterion output, the harness writes `BENCH_lp.json`, one
//! JSON line per relaxation (pivots/sec for both engines, the speedup
//! ratio), one for the sweep (cold vs warm node counts) and a floors row,
//! for CI logs and regression tracking.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rental_bench::write_bench_json;
use rental_core::examples::illustrating_example;
use rental_experiments::lp_large::{measure, relaxation};
use rental_lp::simplex::{self, dense, SimplexOptions};
use rental_obs::json::JsonRow;
use rental_solvers::batch::solve_sweep;
use rental_solvers::exact::IlpSolver;
use rental_solvers::MinCostSolver;

fn bench_relaxation_engines(c: &mut Criterion) {
    let options = SimplexOptions::default();
    let mut json_rows = String::new();

    let mut group = c.benchmark_group("lp_speedup");
    group.sample_size(10);
    for &(num_types, num_recipes) in &[(63usize, 24usize), (95, 32)] {
        let model = relaxation(num_types, num_recipes, 500, 0xD1CE);
        let m = 1 + num_types;

        // Both engines must agree before their speeds are compared.
        let revised = simplex::solve_with(&model, &options).unwrap();
        let dense_solution = dense::solve_with(&model, &options).unwrap();
        assert_eq!(revised.status, dense_solution.status, "m = {m}");
        assert!(
            (revised.objective - dense_solution.objective).abs()
                <= 1e-6 * (1.0 + dense_solution.objective.abs()),
            "objective divergence at m = {m}"
        );

        group.bench_with_input(
            BenchmarkId::new("relaxation-revised", m),
            &model,
            |b, model| {
                b.iter(|| {
                    simplex::solve_with(black_box(model), &options)
                        .unwrap()
                        .objective
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("relaxation-dense", m),
            &model,
            |b, model| {
                b.iter(|| {
                    dense::solve_with(black_box(model), &options)
                        .unwrap()
                        .objective
                })
            },
        );

        // Manual medians for the JSON summary (criterion's shim prints only).
        let mut revised_pivots = 0;
        let revised_secs = measure(
            || revised_pivots = simplex::solve_with(&model, &options).unwrap().iterations,
            15,
        );
        let mut dense_pivots = 0;
        let dense_secs = measure(
            || dense_pivots = dense::solve_with(&model, &options).unwrap().iterations,
            15,
        );
        let speedup = dense_secs / revised_secs;
        println!(
            "lp_speedup summary m={m}: revised {:.3}ms ({} pivots), dense {:.3}ms ({} pivots), speedup {speedup:.1}x",
            revised_secs * 1e3,
            revised_pivots,
            dense_secs * 1e3,
            dense_pivots,
        );
        json_rows.push_str(
            &JsonRow::new()
                .str("record", "lp_relaxation")
                .usize("rows", m)
                .f64("revised_secs", revised_secs)
                .f64(
                    "revised_pivots_per_sec",
                    revised_pivots as f64 / revised_secs,
                )
                .f64("dense_secs", dense_secs)
                .f64("dense_pivots_per_sec", dense_pivots as f64 / dense_secs)
                .f64("speedup", speedup)
                .finish(),
        );
        json_rows.push('\n');
    }
    group.finish();

    // ------------------------------------------------------------------
    // Warm-started sweep vs cold per-target solves.
    // ------------------------------------------------------------------
    let instance = illustrating_example();
    let targets: Vec<u64> = (5..=100).map(|k| k * 2).collect();
    let solver = IlpSolver::new();

    let cold_start = Instant::now();
    let mut cold_nodes = 0usize;
    for &target in &targets {
        cold_nodes += solver
            .solve(&instance, target)
            .unwrap()
            .nodes
            .expect("ILP reports nodes");
    }
    let cold_secs = cold_start.elapsed().as_secs_f64();

    let warm_start = Instant::now();
    let warm_nodes: usize = solve_sweep(&solver, &instance, &targets)
        .into_iter()
        .map(|result| result.unwrap().nodes.expect("ILP reports nodes"))
        .sum();
    let warm_secs = warm_start.elapsed().as_secs_f64();
    println!(
        "lp_speedup sweep (illustrating, {} targets): cold {cold_nodes} nodes in {:.1}ms, warm {warm_nodes} nodes in {:.1}ms",
        targets.len(),
        cold_secs * 1e3,
        warm_secs * 1e3,
    );

    let mut group = c.benchmark_group("lp_speedup");
    group.sample_size(10);
    group.bench_function("sweep-cold", |b| {
        b.iter(|| {
            targets
                .iter()
                .map(|&t| solver.solve(black_box(&instance), t).unwrap().cost())
                .sum::<u64>()
        })
    });
    group.bench_function("sweep-warm", |b| {
        b.iter(|| {
            solve_sweep(&solver, black_box(&instance), &targets)
                .into_iter()
                .map(|r| r.unwrap().cost())
                .sum::<u64>()
        })
    });
    group.finish();

    json_rows.push_str(
        &JsonRow::new()
            .str("record", "lp_sweep")
            .usize("targets", targets.len())
            .usize("cold_nodes", cold_nodes)
            .usize("warm_nodes", warm_nodes)
            .f64("cold_secs", cold_secs)
            .f64("warm_secs", warm_secs)
            .finish(),
    );
    json_rows.push('\n');
    write_bench_json("BENCH_lp.json", &json_rows, |floors| {
        floors.bool("revised_matches_dense", true)
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(200)).measurement_time(std::time::Duration::from_secs(1));
    targets = bench_relaxation_engines
}
criterion_main!(benches);
