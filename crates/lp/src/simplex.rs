//! Public simplex entry points, backed by the revised simplex.
//!
//! [`solve`] / [`solve_with`] are the LP interface the rest of the workspace
//! uses. Since the factorized-basis rewrite they run the **revised simplex**
//! of [`crate::revised`] — sparse columns, an LU-factorized basis updated by
//! an eta file, native bounded variables and a dual-simplex warm-start path
//! for branch & bound. The original dense two-phase tableau is retained as
//! [`dense`] ([`crate::dense_simplex`]) and serves as the correctness oracle
//! in the `revised_vs_dense` property suite and as the baseline of the
//! `lp_speedup` benchmark.

use crate::error::LpResult;
use crate::model::{Model, Sense};
use crate::revised::RevisedLp;
use crate::solution::{LpSolution, LpStatus};

/// The retained dense tableau simplex (the pre-rewrite engine), kept as a
/// differential-testing oracle and benchmark baseline.
pub use crate::dense_simplex as dense;

/// Tunable parameters of the simplex solvers (shared by the revised and the
/// dense engine).
#[derive(Debug, Clone, Copy)]
pub struct SimplexOptions {
    /// Numerical tolerance used for optimality / feasibility tests.
    pub tol: f64,
    /// Hard cap on the number of pivots (per phase).
    pub max_iterations: usize,
    /// Number of Dantzig-pricing pivots before switching to Bland's rule
    /// (which cannot cycle).
    pub bland_after: usize,
    /// Consecutive **degenerate** pivots (zero-step, the signature of
    /// stalling/cycling) tolerated before the primal anti-stall ladder
    /// engages: first a bounded deterministic cost perturbation, then — if
    /// the stall recurs — Bland's rule for the rest of the solve. Optimality
    /// is always re-proved against the true costs, so the ladder changes the
    /// pivot path, never the answer.
    pub stall_after: usize,
    /// Factorize the basis with the retained dense LU
    /// ([`crate::factor::DenseLu`]) instead of the sparse Markowitz LU — the
    /// oracle path of the differential suite and the baseline of the
    /// `lp_large` bench. Defaults to `false`.
    pub dense_lu: bool,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            tol: 1e-9,
            max_iterations: 50_000,
            bland_after: 10_000,
            stall_after: 128,
            dense_lu: false,
        }
    }
}

/// Solves a linear program (ignoring any integrality flags) with default
/// options, using the revised simplex.
///
/// # Errors
///
/// Returns a model-validation error if the model is structurally invalid.
pub fn solve(model: &Model) -> LpResult<LpSolution> {
    solve_with(model, &SimplexOptions::default())
}

/// Solves a linear program (ignoring integrality flags) with explicit
/// options, using the revised simplex.
///
/// # Errors
///
/// Returns a model-validation error if the model is structurally invalid.
pub fn solve_with(model: &Model, options: &SimplexOptions) -> LpResult<LpSolution> {
    let lp = RevisedLp::new(model)?;
    let outcome = lp.solve(options);
    let minimize = model.sense() == Sense::Minimize;
    Ok(match outcome.status {
        LpStatus::Optimal => LpSolution {
            status: LpStatus::Optimal,
            objective: model.objective_value(&outcome.values),
            values: outcome.values,
            iterations: outcome.iterations,
        },
        LpStatus::Unbounded => LpSolution {
            status: LpStatus::Unbounded,
            objective: if minimize {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            },
            values: vec![],
            iterations: outcome.iterations,
        },
        status => LpSolution {
            status,
            objective: f64::NAN,
            values: vec![],
            iterations: outcome.iterations,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Relation};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    #[test]
    fn maximization_with_slacks_only() {
        // maximize 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> optimum 36 at (2, 6).
        let mut model = Model::maximize();
        let x = model.add_nonneg_var("x", 3.0);
        let y = model.add_nonneg_var("y", 5.0);
        model.add_constraint(vec![(x, 1.0)], Relation::LessEq, 4.0);
        model.add_constraint(vec![(y, 2.0)], Relation::LessEq, 12.0);
        model.add_constraint(vec![(x, 3.0), (y, 2.0)], Relation::LessEq, 18.0);
        let sol = solve(&model).unwrap();
        assert!(sol.is_optimal());
        assert_close(sol.objective, 36.0);
        assert_close(sol.values[0], 2.0);
        assert_close(sol.values[1], 6.0);
    }

    #[test]
    fn minimization_with_greater_equal_constraints() {
        // minimize 3x + 2y s.t. x + y >= 4, x <= 3 -> optimum 8 at (0, 4).
        let mut model = Model::minimize();
        let x = model.add_nonneg_var("x", 3.0);
        let y = model.add_nonneg_var("y", 2.0);
        model.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::GreaterEq, 4.0);
        model.add_constraint(vec![(x, 1.0)], Relation::LessEq, 3.0);
        let sol = solve(&model).unwrap();
        assert!(sol.is_optimal());
        assert_close(sol.objective, 8.0);
        assert_close(sol.values[0], 0.0);
        assert_close(sol.values[1], 4.0);
    }

    #[test]
    fn equality_constraints_are_respected() {
        // minimize x + 2y s.t. x + y = 10, x - y >= 2 -> optimum at y as small as possible?
        // x + y = 10, x >= y + 2 -> x = 10 - y, 10 - y >= y + 2 -> y <= 4.
        // objective x + 2y = 10 - y + 2y = 10 + y minimized at y = 0 -> 10, x = 10.
        let mut model = Model::minimize();
        let x = model.add_nonneg_var("x", 1.0);
        let y = model.add_nonneg_var("y", 2.0);
        model.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Equal, 10.0);
        model.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::GreaterEq, 2.0);
        let sol = solve(&model).unwrap();
        assert!(sol.is_optimal());
        assert_close(sol.objective, 10.0);
        assert_close(sol.values[0], 10.0);
        assert_close(sol.values[1], 0.0);
    }

    #[test]
    fn infeasible_problem_is_detected() {
        // x <= 1 and x >= 3 cannot both hold.
        let mut model = Model::minimize();
        let x = model.add_nonneg_var("x", 1.0);
        model.add_constraint(vec![(x, 1.0)], Relation::LessEq, 1.0);
        model.add_constraint(vec![(x, 1.0)], Relation::GreaterEq, 3.0);
        let sol = solve(&model).unwrap();
        assert_eq!(sol.status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_problem_is_detected() {
        // maximize x with only x >= 0: unbounded.
        let mut model = Model::maximize();
        let x = model.add_nonneg_var("x", 1.0);
        model.add_constraint(vec![(x, 1.0)], Relation::GreaterEq, 0.0);
        let sol = solve(&model).unwrap();
        assert_eq!(sol.status, LpStatus::Unbounded);
    }

    #[test]
    fn variable_bounds_are_enforced() {
        // minimize x + y with x in [2, 5], y in [1, inf), x + y >= 7.
        // Optimum: x = 5? No: minimize so x as small as allowed while meeting x+y>=7.
        // Any (x, y) with x+y = 7, x in [2,5], y >= 1 gives objective 7.
        let mut model = Model::minimize();
        let x = model.add_var("x", 1.0, 2.0, 5.0);
        let y = model.add_var("y", 1.0, 1.0, f64::INFINITY);
        model.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::GreaterEq, 7.0);
        let sol = solve(&model).unwrap();
        assert!(sol.is_optimal());
        assert_close(sol.objective, 7.0);
        assert!(sol.values[0] >= 2.0 - 1e-6 && sol.values[0] <= 5.0 + 1e-6);
        assert!(sol.values[1] >= 1.0 - 1e-6);
    }

    #[test]
    fn lower_bounds_shift_the_optimum() {
        // minimize 2x + 3y, x >= 4, y >= 1, x + y >= 6 -> x = 5, y = 1 -> 13.
        let mut model = Model::minimize();
        let x = model.add_var("x", 2.0, 4.0, f64::INFINITY);
        let y = model.add_var("y", 3.0, 1.0, f64::INFINITY);
        model.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::GreaterEq, 6.0);
        let sol = solve(&model).unwrap();
        assert!(sol.is_optimal());
        assert_close(sol.objective, 13.0);
        assert_close(sol.values[0], 5.0);
        assert_close(sol.values[1], 1.0);
    }

    #[test]
    fn free_variables_are_split() {
        // minimize x s.t. x >= -5 is not expressible with non-negative vars alone;
        // use a free variable with constraint x >= -5 -> optimum -5.
        let mut model = Model::minimize();
        let x = model.add_var("x", 1.0, f64::NEG_INFINITY, f64::INFINITY);
        model.add_constraint(vec![(x, 1.0)], Relation::GreaterEq, -5.0);
        let sol = solve(&model).unwrap();
        assert!(sol.is_optimal());
        assert_close(sol.objective, -5.0);
        assert_close(sol.values[0], -5.0);
    }

    #[test]
    fn fixed_variables_via_equal_bounds() {
        // x fixed to 3 by bounds, minimize x + y with y >= 0 and x + y >= 5 -> y = 2.
        let mut model = Model::minimize();
        let x = model.add_var("x", 1.0, 3.0, 3.0);
        let y = model.add_nonneg_var("y", 1.0);
        model.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::GreaterEq, 5.0);
        let sol = solve(&model).unwrap();
        assert!(sol.is_optimal());
        assert_close(sol.values[0], 3.0);
        assert_close(sol.values[1], 2.0);
        assert_close(sol.objective, 5.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // A classic degenerate LP; just check we terminate at the optimum.
        let mut model = Model::maximize();
        let x1 = model.add_nonneg_var("x1", 10.0);
        let x2 = model.add_nonneg_var("x2", -57.0);
        let x3 = model.add_nonneg_var("x3", -9.0);
        let x4 = model.add_nonneg_var("x4", -24.0);
        model.add_constraint(
            vec![(x1, 0.5), (x2, -5.5), (x3, -2.5), (x4, 9.0)],
            Relation::LessEq,
            0.0,
        );
        model.add_constraint(
            vec![(x1, 0.5), (x2, -1.5), (x3, -0.5), (x4, 1.0)],
            Relation::LessEq,
            0.0,
        );
        model.add_constraint(vec![(x1, 1.0)], Relation::LessEq, 1.0);
        let sol = solve(&model).unwrap();
        assert!(sol.is_optimal());
        assert_close(sol.objective, 1.0);
    }

    #[test]
    fn negative_rhs_rows_are_normalised() {
        // minimize x + y s.t. -x - y <= -4  (i.e. x + y >= 4).
        let mut model = Model::minimize();
        let x = model.add_nonneg_var("x", 1.0);
        let y = model.add_nonneg_var("y", 1.0);
        model.add_constraint(vec![(x, -1.0), (y, -1.0)], Relation::LessEq, -4.0);
        let sol = solve(&model).unwrap();
        assert!(sol.is_optimal());
        assert_close(sol.objective, 4.0);
    }

    #[test]
    fn solution_is_feasible_for_the_model() {
        let mut model = Model::minimize();
        let x = model.add_nonneg_var("x", 2.0);
        let y = model.add_nonneg_var("y", 3.0);
        let z = model.add_nonneg_var("z", 1.0);
        model.add_constraint(
            vec![(x, 1.0), (y, 2.0), (z, 1.0)],
            Relation::GreaterEq,
            10.0,
        );
        model.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::LessEq, 3.0);
        model.add_constraint(vec![(z, 1.0)], Relation::LessEq, 4.0);
        let sol = solve(&model).unwrap();
        assert!(sol.is_optimal());
        assert!(model.is_feasible(&sol.values, 1e-6));
        // z is the cheapest way to cover demand, capped at 4; remainder via y.
        assert_close(sol.values[2], 4.0);
    }

    #[test]
    fn relaxation_of_mincost_milp_matches_hand_computation() {
        // LP relaxation of the illustrating example at rho = 70 (no integrality):
        // every machine count can be fractional, so the cost is
        // min over splits of sum_q (demand_q / r_q) * c_q; recipe 2 alone is
        // the cheapest direction: (25/30 + 33/40) per unit = 1.658.. -> 116.08 at rho=70.
        let mut model = Model::minimize();
        // rho_j variables.
        let r1 = model.add_nonneg_var("rho1", 0.0);
        let r2 = model.add_nonneg_var("rho2", 0.0);
        let r3 = model.add_nonneg_var("rho3", 0.0);
        // x_q variables.
        let costs = [10.0, 18.0, 25.0, 33.0];
        let thr = [10.0, 20.0, 30.0, 40.0];
        let xs: Vec<_> = (0..4)
            .map(|q| model.add_nonneg_var(format!("x{q}"), costs[q]))
            .collect();
        // Coverage constraint.
        model.add_constraint(
            vec![(r1, 1.0), (r2, 1.0), (r3, 1.0)],
            Relation::GreaterEq,
            70.0,
        );
        // Capacity constraints: x_q * r_q >= sum_j n_jq rho_j.
        // n: recipe1 uses types 2,4; recipe2 types 3,4; recipe3 types 1,2.
        let demands: [Vec<(crate::model::VarId, f64)>; 4] = [
            vec![(r3, 1.0)],
            vec![(r1, 1.0), (r3, 1.0)],
            vec![(r2, 1.0)],
            vec![(r1, 1.0), (r2, 1.0)],
        ];
        for q in 0..4 {
            let mut terms = vec![(xs[q], thr[q])];
            for &(v, c) in &demands[q] {
                terms.push((v, -c));
            }
            model.add_constraint(terms, Relation::GreaterEq, 0.0);
        }
        let sol = solve(&model).unwrap();
        assert!(sol.is_optimal());
        let expected = 70.0 * (25.0 / 30.0 + 33.0 / 40.0);
        assert!((sol.objective - expected).abs() < 1e-4);
    }
}
