//! # rental-bench
//!
//! Criterion benchmarks regenerating the timing-oriented figures of the paper
//! (Figures 5 and 8) and providing per-table / per-figure harness benchmarks
//! for the remaining experiments, plus micro-benchmarks of the LP substrate
//! and of the streaming simulator.
//!
//! The fleet and LP-scaling benches are thin callers of the
//! `rental-experiments` lanes: the lane builds the scenario, times it and
//! renders its rows; the bench adds criterion lanes and asserts its floors.
//! Each `BENCH_*.json` is the named lane's JSON-lines rows plus one floors
//! row ([`write_bench_json`]):
//!
//! | file | rows from |
//! |---|---|
//! | `BENCH_fleet.json` | `run_fleet_experiment` / `fleet_json` |
//! | `BENCH_fleet_scaling.json` | `run_fleet_scale_experiment` / `fleet_scale_json` |
//! | `BENCH_fleet_failure.json` | `run_fleet_failure_experiment` / `fleet_failure_json` |
//! | `BENCH_fleet_deadline.json` | `run_fleet_deadline_experiment` / `fleet_deadline_json` |
//! | `BENCH_fleet_recovery.json` | `run_fleet_recovery_experiment` / `fleet_recovery_json` |
//! | `BENCH_lp_large.json` | `run_lp_large` / `lp_large_rows_json` |
//!
//! `BENCH_fleet_obs.json` and `BENCH_lp.json` measure what no lane does
//! (telemetry overhead, the dense tableau baseline), so their benches render
//! their own rows, with the same [`JsonRow`] writer.
//!
//! The library part only contains shared fixture helpers and the
//! `BENCH_*.json` writer; the benchmarks live in `benches/`.

use rental_core::Instance;
use rental_obs::json::JsonRow;
use rental_simgen::{GeneratorConfig, InstanceGenerator};

/// Writes `file` into the working directory (the package root under
/// `cargo bench`): the JSON-lines `rows` followed by one
/// `{"record":"floors",…}` row, which `floors` fills with the floors the
/// bench asserted and the measurements they were held against.
///
/// # Panics
///
/// Panics when the file cannot be written: a bench whose summary is lost
/// must fail.
pub fn write_bench_json(file: &str, rows: &str, floors: impl FnOnce(JsonRow) -> JsonRow) {
    let floors = floors(JsonRow::new().str("record", "floors")).finish();
    if let Err(err) = std::fs::write(file, format!("{rows}{floors}\n")) {
        panic!("could not write {file}: {err}");
    }
}

/// A deterministic instance for each of the paper's workload classes.
/// Benchmarks use a fixed seed so successive runs measure the same instance.
pub fn fixture(config: GeneratorConfig, seed: u64) -> Instance {
    InstanceGenerator::new(config, seed).generate_instance()
}

/// The small-graphs fixture (§VIII-C parameters).
pub fn small_instance() -> Instance {
    fixture(GeneratorConfig::small_graphs(), 0xBEEF)
}

/// The medium-graphs fixture (§VIII-D parameters).
pub fn medium_instance() -> Instance {
    fixture(GeneratorConfig::medium_graphs(), 0xBEEF)
}

/// The large-graphs fixture (§VIII-E parameters).
pub fn large_instance() -> Instance {
    fixture(GeneratorConfig::large_graphs(), 0xBEEF)
}

/// The huge-graphs fixture (Figure 8 parameters).
pub fn huge_instance() -> Instance {
    fixture(GeneratorConfig::huge_graphs(), 0xBEEF)
}

/// A many-tenants serving fixture beyond the paper's classes: many
/// alternative recipes (J = 32) over a wide platform (Q = 48), with the
/// paper's "alternatives are small mutations of a common parent" structure
/// (3 % mutation). This is the regime where the O(J²) candidate scans of the
/// local-search heuristics dominate and where recipe pairs differ in only a
/// few of the 48 types, so the sparse kernel pays off most. Used by the
/// `kernel_speedup` benchmark.
pub fn many_tenants_instance() -> Instance {
    fixture(
        GeneratorConfig {
            num_recipes: 32,
            tasks_per_recipe: 30..=60,
            mutation_percent: 3,
            num_types: 48,
            throughput_range: 10..=100,
            cost_range: 1..=100,
            edge_probability: 0.15,
        },
        0xBEEF,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_have_the_expected_shape() {
        assert_eq!(small_instance().num_types(), 5);
        assert_eq!(medium_instance().num_types(), 8);
        assert_eq!(large_instance().num_types(), 8);
        assert_eq!(huge_instance().num_types(), 50);
        assert_eq!(huge_instance().num_recipes(), 10);
        assert_eq!(many_tenants_instance().num_recipes(), 32);
        assert_eq!(many_tenants_instance().num_types(), 48);
    }

    #[test]
    fn fixtures_are_deterministic() {
        assert_eq!(small_instance(), small_instance());
    }
}
