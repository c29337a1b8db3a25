//! The `lp.warm_fallbacks` counter, in a test binary of its own: the
//! telemetry sink is process-global, so no other test may solve while this
//! one counts.

use std::sync::Arc;

use rental_lp::model::{Model, Relation, VarId};
use rental_lp::revised::RevisedLp;
use rental_lp::SimplexOptions;
use rental_obs::Recorder;

/// minimize `Σ c_q x_q` s.t. `Σ ρ_j ≥ 40` and `r_q x_q ≥ Σ_j n_jq ρ_j`.
fn mincost_model(costs: &[f64], rates: &[f64], needs: &[&[f64]]) -> Model {
    let mut model = Model::minimize();
    let rho: Vec<VarId> = (0..needs.len())
        .map(|j| model.add_nonneg_var(format!("rho{j}"), 0.0))
        .collect();
    let x: Vec<VarId> = costs
        .iter()
        .enumerate()
        .map(|(q, &c)| model.add_nonneg_var(format!("x{q}"), c))
        .collect();
    model.add_constraint(
        rho.iter().map(|&v| (v, 1.0)).collect(),
        Relation::GreaterEq,
        40.0,
    );
    for (q, &rate) in rates.iter().enumerate() {
        let mut terms = vec![(x[q], rate)];
        terms.extend(rho.iter().zip(needs).map(|(&v, n)| (v, -n[q])));
        model.add_constraint(terms, Relation::GreaterEq, 0.0);
    }
    model
}

/// A warm start whose basis does not fit the LP re-solves cold and counts;
/// a fitting one and a cold solve do not.
#[test]
fn warm_fallbacks_count_warm_starts_that_re_solve_cold() {
    let recorder = Arc::new(Recorder::new());
    let _guard = rental_obs::install_scoped(recorder.clone());
    let small = mincost_model(&[3.0, 5.0], &[20.0, 30.0], &[&[1.0, 2.0], &[2.0, 1.0]]);
    let large = mincost_model(
        &[3.0, 5.0, 7.0],
        &[20.0, 30.0, 40.0],
        &[&[1.0, 2.0, 0.0], &[2.0, 1.0, 3.0]],
    );
    let small_lp = RevisedLp::new(&small).unwrap();
    let large_lp = RevisedLp::new(&large).unwrap();
    let options = SimplexOptions::default();
    let small_root = small_lp.solve(&options);
    let large_root = large_lp.solve(&options);
    let tighten = [(VarId(0), f64::NEG_INFINITY, 15.0)];
    let fitting = small_lp.solve_node(&tighten, small_root.basis.as_deref(), &options);
    let misfit = small_lp.solve_node(&tighten, large_root.basis.as_deref(), &options);
    assert_eq!(fitting.status, misfit.status);
    let counters = recorder.snapshot().counters;
    assert_eq!(counters.get("lp.solves"), Some(&4));
    assert_eq!(counters.get("lp.warm_fallbacks"), Some(&1));
}
