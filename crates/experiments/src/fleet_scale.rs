//! The fleet-scaling experiment: sharded-vs-sequential epoch-loop
//! throughput at 10³–10⁴ tenants.
//!
//! This lane drives the `rental-fleet` controller over the synthetic
//! plateau-shift **scaling fleet** (every tenant probes every epoch, nobody
//! re-solves — the epoch loop itself is the workload) at a sweep of fleet
//! sizes, once with the sequential loop (`shards: Some(1)`) and once with
//! the sharded pipelines (`FleetPolicy::shards`). The headline metric is
//! **tenant-epochs/sec**: tenants × epoch-loop epochs over the wall-clock
//! of the epoch loop alone — the initial solve fan-out is subtracted by
//! timing a one-epoch twin of the same scenario, whose init work is
//! identical. Every row also re-checks the determinism contract: the
//! sharded report must be bit-identical (modulo the wall-clock timing
//! family) to the sequential one. When the shard policy resolves to one
//! shard, the "sharded" run is the sequential loop itself: the row is timed
//! once and reports no speedup (`n/a`, JSON `null`) rather than the noise
//! between two runs of the same code path.

use std::time::Instant;

use rental_fleet::{scaling_fleet, scaling_fleet_one_epoch, FleetController, FleetPolicy};
use rental_solvers::exact::IlpSolver;
use rental_solvers::SolveResult;

pub use rental_fleet::SCALING_EPOCHS;

/// Parameters of the fleet-scaling sweep.
#[derive(Debug, Clone)]
pub struct FleetScaleSpec {
    /// Fleet sizes to sweep (tenants per row).
    pub sizes: Vec<usize>,
    /// Scenario seed (instances, demand plateaus).
    pub seed: u64,
    /// Shard count of the sharded run; `None` auto-sizes from the fleet
    /// and worker count (the production default).
    pub shards: Option<usize>,
    /// Timed trials per measurement; the minimum is kept.
    pub trials: usize,
}

impl Default for FleetScaleSpec {
    fn default() -> Self {
        FleetScaleSpec {
            sizes: vec![1_000, 4_000],
            seed: 0x5CA1E5,
            shards: None,
            trials: 2,
        }
    }
}

/// One fleet-size row of the sweep.
#[derive(Debug, Clone)]
pub struct FleetScaleRow {
    /// Tenants in this row.
    pub tenants: usize,
    /// Shard count the sharded run actually used.
    pub shards_used: usize,
    /// Epoch-loop seconds of the sequential run (init solves subtracted).
    pub sequential_secs: f64,
    /// Epoch-loop seconds of the sharded run (init solves subtracted).
    pub sharded_secs: f64,
    /// Whether the sharded report was bit-identical (modulo timing) to the
    /// sequential one.
    pub deterministic: bool,
}

impl FleetScaleRow {
    /// Epochs attributed to the epoch loop (the first epoch belongs to the
    /// one-epoch init twin and is subtracted out).
    pub fn loop_epochs(&self) -> usize {
        SCALING_EPOCHS - 1
    }

    /// Sequential tenant-epochs/sec.
    pub fn sequential_teps(&self) -> f64 {
        (self.tenants * self.loop_epochs()) as f64 / self.sequential_secs.max(1e-9)
    }

    /// Sharded tenant-epochs/sec — the headline metric.
    pub fn sharded_teps(&self) -> f64 {
        (self.tenants * self.loop_epochs()) as f64 / self.sharded_secs.max(1e-9)
    }

    /// Sharded-over-sequential speedup; `None` when the sharded run used
    /// one shard, i.e. ran the sequential loop itself.
    pub fn speedup(&self) -> Option<f64> {
        (self.shards_used > 1).then(|| self.sequential_secs / self.sharded_secs.max(1e-9))
    }

    /// The speedup rendered for a table cell: `n/a` without a sharded run.
    fn speedup_cell(&self, precision: usize, suffix: &str) -> String {
        match self.speedup() {
            Some(speedup) => format!("{speedup:.precision$}{suffix}"),
            None => "n/a".to_string(),
        }
    }
}

/// The outcome of the sweep.
#[derive(Debug, Clone)]
pub struct FleetScaleTable {
    /// Scenario name (of the largest row).
    pub scenario: String,
    /// Worker threads rayon reports available.
    pub cores: usize,
    /// One row per fleet size, in spec order.
    pub rows: Vec<FleetScaleRow>,
}

impl FleetScaleTable {
    /// Whether every row reproduced the sequential report exactly.
    pub fn all_deterministic(&self) -> bool {
        self.rows.iter().all(|row| row.deterministic)
    }
}

/// Epoch-loop seconds of the scaling fleet run under `shards`: minimum
/// full-run wall-time minus minimum one-epoch wall-time, over `trials`
/// trials each.
fn time_epoch_loop(
    tenants: usize,
    seed: u64,
    shards: Option<usize>,
    trials: usize,
) -> SolveResult<(f64, rental_fleet::FleetReport)> {
    let solver = IlpSolver::new();
    let controller = |policy| FleetController::new(FleetPolicy { shards, ..policy });
    let mut best_full = f64::INFINITY;
    let mut best_one = f64::INFINITY;
    let mut report = None;
    for _ in 0..trials.max(1) {
        let full = scaling_fleet(tenants, seed);
        let start = Instant::now();
        let full_report = controller(full.policy).run(&solver, &full.tenants)?;
        best_full = best_full.min(start.elapsed().as_secs_f64());
        report = Some(full_report);

        let one = scaling_fleet_one_epoch(tenants, seed);
        let start = Instant::now();
        controller(one.policy).run(&solver, &one.tenants)?;
        best_one = best_one.min(start.elapsed().as_secs_f64());
    }
    Ok((
        (best_full - best_one).max(1e-9),
        report.expect("trials >= 1"),
    ))
}

/// Runs the sequential-vs-sharded scaling sweep. A row whose sharded run
/// resolves to one shard *is* the sequential loop, so it is timed once.
///
/// # Errors
///
/// Propagates solver failures from the controller.
pub fn run_fleet_scale_experiment(spec: &FleetScaleSpec) -> SolveResult<FleetScaleTable> {
    let mut rows = Vec::with_capacity(spec.sizes.len());
    let mut scenario_name = String::new();
    for &tenants in &spec.sizes {
        let scenario = scaling_fleet(tenants, spec.seed);
        scenario_name = scenario.name;
        let shards_used = FleetPolicy {
            shards: spec.shards,
            ..scenario.policy
        }
        .shard_count(tenants);
        let (sequential_secs, sequential_report) =
            time_epoch_loop(tenants, spec.seed, Some(1), spec.trials)?;
        let (sharded_secs, deterministic) = if shards_used == 1 {
            (sequential_secs, true)
        } else {
            let (secs, report) = time_epoch_loop(tenants, spec.seed, spec.shards, spec.trials)?;
            (secs, sequential_report.matches_modulo_timing(&report))
        };
        rows.push(FleetScaleRow {
            tenants,
            shards_used,
            sequential_secs,
            sharded_secs,
            deterministic,
        });
    }
    Ok(FleetScaleTable {
        scenario: scenario_name,
        cores: rayon::current_num_threads(),
        rows,
    })
}

/// Renders the scaling sweep as Markdown.
pub fn fleet_scale_markdown(table: &FleetScaleTable) -> String {
    let mut out = String::new();
    out.push_str(
        "| tenants | shards | sequential s | sharded s | seq teps | sharded teps | speedup | \
         deterministic |\n",
    );
    out.push_str("|---:|---:|---:|---:|---:|---:|---:|---:|\n");
    for row in &table.rows {
        out.push_str(&format!(
            "| {} | {} | {:.3} | {:.3} | {:.0} | {:.0} | {} | {} |\n",
            row.tenants,
            row.shards_used,
            row.sequential_secs,
            row.sharded_secs,
            row.sequential_teps(),
            row.sharded_teps(),
            row.speedup_cell(2, "x"),
            if row.deterministic { "yes" } else { "NO" },
        ));
    }
    out.push_str(&format!(
        "\n{} epoch-loop epochs per row on {} worker threads; teps = tenant-epochs/sec with the \
         initial solve fan-out subtracted\n",
        SCALING_EPOCHS - 1,
        table.cores,
    ));
    out
}

/// Renders the scaling sweep as CSV.
pub fn fleet_scale_csv(table: &FleetScaleTable) -> String {
    let mut out = String::from(
        "tenants,shards,sequential_secs,sharded_secs,sequential_teps,sharded_teps,speedup,\
         deterministic\n",
    );
    for row in &table.rows {
        out.push_str(&format!(
            "{},{},{:.4},{:.4},{:.1},{:.1},{},{}\n",
            row.tenants,
            row.shards_used,
            row.sequential_secs,
            row.sharded_secs,
            row.sequential_teps(),
            row.sharded_teps(),
            row.speedup_cell(3, ""),
            row.deterministic,
        ));
    }
    out
}

/// Renders the scaling sweep as JSON lines: one object per fleet size.
pub fn fleet_scale_json(table: &FleetScaleTable) -> String {
    let mut out = String::new();
    for row in &table.rows {
        let json = rental_obs::json::JsonRow::new()
            .str("record", "fleet_scale")
            .str("scenario", &table.scenario)
            .usize("cores", table.cores)
            .usize("tenants", row.tenants)
            .usize("shards", row.shards_used)
            .usize("loop_epochs", row.loop_epochs())
            .f64("sequential_secs", row.sequential_secs)
            .f64("sharded_secs", row.sharded_secs)
            .f64("sequential_teps", row.sequential_teps())
            .f64("sharded_teps", row.sharded_teps());
        let json = match row.speedup() {
            Some(speedup) => json.f64("speedup", speedup),
            None => json.raw("speedup", "null"),
        };
        out.push_str(&json.bool("deterministic", row.deterministic).finish());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_sweep_measures_and_stays_deterministic() {
        for shards in [4, 1] {
            let spec = FleetScaleSpec {
                sizes: vec![96],
                seed: 7,
                shards: Some(shards),
                trials: 1,
            };
            let table = run_fleet_scale_experiment(&spec).unwrap();
            assert_eq!(table.rows.len(), 1);
            let row = &table.rows[0];
            assert_eq!(row.shards_used, shards);
            assert!(row.sequential_teps() > 0.0);
            assert!(row.sharded_teps() > 0.0);
            assert!(table.all_deterministic());
            // One shard is the sequential loop: no speedup is reported.
            assert_eq!(row.speedup().is_some(), shards > 1);
            let markdown = fleet_scale_markdown(&table);
            assert!(markdown.contains("| 96 |"));
            assert_eq!(markdown.contains("| n/a |"), shards == 1);
            let csv = fleet_scale_csv(&table);
            assert_eq!(csv.lines().count(), 2);
            assert_eq!(csv.contains(",n/a,"), shards == 1);
            let json = fleet_scale_json(&table);
            assert!(json.contains("\"record\":\"fleet_scale\""));
            assert_eq!(json.contains("\"speedup\":null"), shards == 1);
        }
    }
}
