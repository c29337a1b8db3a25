//! One reused simplex workspace against a fresh solve per call.
//!
//! Branch and bound threads one [`SimplexWorkspace`] through every node of a
//! solve; [`RevisedLp::solve_node`] builds a fresh one per call. Both must
//! take the same pivots: this suite runs random sequences of bound
//! tightenings on MinCost-shaped models (a coverage row and one capacity row
//! per machine type) through both and requires every outcome to match bit
//! for bit — status, `f64::to_bits` of every value, iteration and flip
//! counts, factorization counters and the returned basis — across warm and
//! cold starts, both LU backends, and a second model of other dimensions.

use proptest::prelude::*;

use rental_lp::model::{Model, Relation, VarId};
use rental_lp::revised::{RevisedLp, RevisedOutcome};
use rental_lp::{LpStatus, SimplexOptions, SimplexWorkspace};

/// The §V-C relaxation shape: `J` recipe throughputs `ρ_j` and `Q` machine
/// counts `x_q`, minimizing `Σ c_q x_q` subject to `Σ ρ_j ≥ target` and
/// `r_q x_q − Σ_j n_jq ρ_j ≥ 0` for every type `q`.
fn mincost_model(costs: &[u32], rates: &[u32], needs: &[u32], target: u32) -> Model {
    let mut model = Model::minimize();
    let recipes = needs.len() / costs.len();
    let rho: Vec<VarId> = (0..recipes)
        .map(|j| model.add_nonneg_var(format!("rho{j}"), 0.0))
        .collect();
    let x: Vec<VarId> = costs
        .iter()
        .enumerate()
        .map(|(q, &c)| model.add_nonneg_var(format!("x{q}"), f64::from(c)))
        .collect();
    model.add_constraint(
        rho.iter().map(|&v| (v, 1.0)).collect(),
        Relation::GreaterEq,
        f64::from(target),
    );
    for (q, &rate) in rates.iter().enumerate() {
        let mut terms = vec![(x[q], f64::from(rate))];
        for (j, &v) in rho.iter().enumerate() {
            let n = needs[j * costs.len() + q];
            if n > 0 {
                terms.push((v, -f64::from(n)));
            }
        }
        model.add_constraint(terms, Relation::GreaterEq, 0.0);
    }
    model
}

/// A model with `J ∈ 2..=6` recipes and `Q ∈ 2..=5` types: `(costs, rates,
/// needs (J × Q, row-major), target)`.
fn mincost_data() -> impl Strategy<Value = (Vec<u32>, Vec<u32>, Vec<u32>, u32)> {
    (2usize..=6, 2usize..=5).prop_flat_map(|(recipes, types)| {
        (
            proptest::collection::vec(1u32..=100, types),
            proptest::collection::vec(10u32..=100, types),
            proptest::collection::vec(0u32..=3, recipes * types),
            10u32..=200,
        )
    })
}

/// One step of a dive: `(variable pick, up branch, shift, warm, dense LU)`.
type Step = (usize, bool, u32, bool, bool);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (
            0usize..64,
            any::<bool>(),
            0u32..=2,
            any::<bool>(),
            any::<bool>(),
        ),
        1..=10,
    )
}

/// Everything a solve reports, with values compared through their bits.
fn fingerprint(outcome: &RevisedOutcome) -> String {
    let bits: Vec<u64> = outcome.values.iter().map(|v| v.to_bits()).collect();
    format!(
        "{:?} {bits:?} it={} flips={} stats={:?} stall={} bland={} basis={:?}",
        outcome.status,
        outcome.iterations,
        outcome.bound_flips,
        outcome.factor_stats,
        outcome.stall_perturbations,
        outcome.bland_escalations,
        outcome.basis.as_deref(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_reused_workspace_solves_bit_identically_to_a_fresh_one(
        (costs, rates, needs, target) in mincost_data(),
        dive in steps(),
    ) {
        let model = mincost_model(&costs, &rates, &needs, target);
        let lp = RevisedLp::new(&model).unwrap();
        let n = model.num_vars();
        // A root solve fills the workspace before the dive starts.
        let mut workspace = SimplexWorkspace::default();
        let root = lp.solve_node_in(&mut workspace, &[], None, &SimplexOptions::default());
        prop_assert_eq!(fingerprint(&root), fingerprint(&lp.solve(&SimplexOptions::default())));
        prop_assert_eq!(root.status, LpStatus::Optimal);

        let mut tighten: Vec<(VarId, f64, f64)> = Vec::new();
        let mut values = root.values.clone();
        let mut basis = root.basis.clone();
        for (pick, up, shift, warm, dense_lu) in dive {
            // Branch like a dive would: around the variable's last value.
            let var = VarId(pick % n);
            let v = values.get(var.index()).copied().unwrap_or(0.0);
            let bound = if up {
                (var, v.ceil() + f64::from(shift), f64::INFINITY)
            } else {
                (var, f64::NEG_INFINITY, v.floor() - f64::from(shift))
            };
            tighten.push(bound);
            let options = SimplexOptions { dense_lu, ..SimplexOptions::default() };
            let warm_basis = if warm { basis.as_deref() } else { None };
            let reused = lp.solve_node_in(&mut workspace, &tighten, warm_basis, &options);
            let fresh = lp.solve_node(&tighten, warm_basis, &options);
            prop_assert_eq!(fingerprint(&reused), fingerprint(&fresh));
            if reused.status == LpStatus::Optimal {
                values = reused.values.clone();
                basis = reused.basis.clone();
            } else {
                // Back out of an infeasible child, as the search would.
                tighten.pop();
            }
        }

        // The same workspace then serves a model with one type fewer (fewer
        // rows and columns), on both backends.
        let types = costs.len() - 1;
        let fewer: Vec<u32> = needs
            .chunks(costs.len())
            .flat_map(|row| row[..types].to_vec())
            .collect();
        let smaller = mincost_model(&costs[..types], &rates[..types], &fewer, target);
        let smaller_lp = RevisedLp::new(&smaller).unwrap();
        for dense_lu in [true, false] {
            let options = SimplexOptions { dense_lu, ..SimplexOptions::default() };
            let reused = smaller_lp.solve_node_in(&mut workspace, &[], None, &options);
            prop_assert_eq!(fingerprint(&reused), fingerprint(&smaller_lp.solve(&options)));
        }
    }
}
