#![allow(missing_docs)] // criterion_group!/criterion_main! generate undocumented items

//! Benchmark of the **epoch-deadline** serving path: anytime solving under
//! a per-epoch branch-and-bound node budget, split across each epoch's
//! batched re-solves.
//!
//! * `fleet_deadline/nodes-N` times the `fleet_deadline` experiment lane on
//!   the 8-tenant diurnal+spike scenario at each budget tier of its default
//!   sweep (`nodes-0` is the unlimited tier).
//! * The harness then runs the whole sweep once more as the acceptance
//!   check and writes `BENCH_fleet_deadline.json`: the lane's rows plus a
//!   floors row. The floors asserted here:
//!   - the **unlimited** tier is bit-identical to the budget-free
//!     `fleet` lane on the same scenario (same bill, same adoption trail);
//!   - every budgeted tier stays within **5%** of the proven-optimal
//!     bill, the mid tier within **3%** — graceful degradation, not
//!     collapse;
//!   - the tight tier actually exercises the anytime ladder (exhausted
//!     epochs and incumbent adoptions are non-zero).
//!
//! Node budgets — unlike wall-clock deadlines — make every row
//! deterministic, so these floors are stable across machines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rental_bench::write_bench_json;
use rental_experiments::{
    fleet_deadline_json, fleet_deadline_markdown, run_fleet_deadline_experiment,
    run_fleet_experiment, FleetDeadlineSpec, FleetExperimentSpec,
};

/// Ceiling on every tier's cost over the unlimited tier.
const MAX_COST_RATIO: f64 = 1.05;
/// The mid tier pinned to the tighter 3% floor.
const MID_TIER: usize = 64;
const MID_TIER_MAX_COST_RATIO: f64 = 1.03;
/// The tight tier that must visibly exercise the anytime ladder.
const TIGHT_TIER: usize = 8;

fn bench_fleet_deadline(c: &mut Criterion) {
    let sweep = FleetDeadlineSpec::default();

    let mut group = c.benchmark_group("fleet_deadline");
    group.sample_size(10);
    for &node_budget in &sweep.node_budgets {
        let spec = FleetDeadlineSpec {
            node_budgets: vec![node_budget],
            ..sweep.clone()
        };
        group.bench_with_input(
            BenchmarkId::new("nodes", node_budget.map_or(0, |n| n as u64)),
            &spec,
            |b, spec| b.iter(|| run_fleet_deadline_experiment(black_box(spec)).unwrap()),
        );
    }
    group.finish();

    let table = run_fleet_deadline_experiment(&sweep).expect("the deadline sweep solves");
    print!("{}", fleet_deadline_markdown(&table));

    // Floor 1: the unlimited tier is bit-identical to the budget-free run.
    let unlimited = table
        .rows
        .iter()
        .find(|row| row.node_budget.is_none())
        .expect("the sweep includes the unlimited tier");
    let plain = run_fleet_experiment(&FleetExperimentSpec {
        num_tenants: sweep.num_tenants,
        seed: sweep.seed,
        threads: sweep.threads,
    })
    .expect("the budget-free scenario solves")
    .report;
    assert_eq!(
        plain.total_cost(),
        unlimited.report.total_cost(),
        "an unlimited epoch budget must not change the bill"
    );
    assert_eq!(
        plain.adoptions.len(),
        unlimited.report.adoptions.len(),
        "an unlimited epoch budget must not change the adoption trail"
    );

    for row in &table.rows {
        let report = &row.report;
        let ratio = table.cost_ratio(row);
        // Floor 2: graceful degradation — no tier collapses the bill.
        assert!(
            ratio <= MAX_COST_RATIO,
            "nodes {}: an epoch budget may cost at most 5% over proven-optimal, got {ratio:.4}",
            row.label()
        );
        if row.node_budget == Some(MID_TIER) {
            assert!(
                ratio <= MID_TIER_MAX_COST_RATIO,
                "nodes {MID_TIER}: the mid tier must stay within 3% of proven-optimal, got \
                 {ratio:.4}"
            );
        }
        // Floor 3: the tight tier visibly rides the anytime ladder.
        if row.node_budget == Some(TIGHT_TIER) {
            assert!(
                report.budget_exhausted_epochs() > 0,
                "nodes {TIGHT_TIER}: the tight tier must exhaust some solves"
            );
            assert!(
                report.incumbent_adoptions() > 0,
                "nodes {TIGHT_TIER}: the tight tier must adopt anytime incumbents"
            );
        }
    }
    write_bench_json(
        "BENCH_fleet_deadline.json",
        &fleet_deadline_json(&table),
        |floors| {
            floors
                .bool("unlimited_matches_budget_free", true)
                .f64("max_cost_ratio", MAX_COST_RATIO)
                .usize("mid_tier", MID_TIER)
                .f64("mid_tier_max_cost_ratio", MID_TIER_MAX_COST_RATIO)
                .usize("tight_tier", TIGHT_TIER)
                .bool("tight_tier_exercises_ladder", true)
        },
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(200)).measurement_time(std::time::Duration::from_secs(1));
    targets = bench_fleet_deadline
}
criterion_main!(benches);
