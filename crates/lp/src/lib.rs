//! # rental-lp
//!
//! A small, dependency-free linear-programming and mixed-integer-programming
//! solver used as the substitute for the Gurobi solver in the paper's
//! experiments.
//!
//! * [`model`] — LP/MILP builder: variables with bounds and integrality,
//!   linear constraints, minimize/maximize objective.
//! * [`simplex`] — the LP entry points, backed by the **revised simplex** of
//!   [`revised`]: the constraint matrix lives in sparse column *and* row
//!   form, the basis inverse is a **sparse Markowitz LU** ([`factor`]) with
//!   hyper-sparse FTRAN/BTRAN, extended by **product-form (eta file)
//!   updates** — one sparse rank-one update per pivot instead of a full
//!   tableau elimination — refactorized every ~48 pivots for numerical
//!   stability; pricing is partial (rotating candidate sections), and
//!   general variable bounds are handled natively (no shifting, splitting or
//!   extra bound rows). The pre-rewrite dense LU survives as
//!   [`factor::DenseLu`] (see [`SimplexOptions::dense_lu`]) and the dense
//!   tableau as [`simplex::dense`] ([`dense_simplex`]) — the
//!   differential-testing oracles and benchmark baselines.
//! * [`mip`] — best-first branch-and-bound with an LP-rounding primal
//!   heuristic, time/node/gap limits (the 100 s time limit of the paper's
//!   Figure 8 maps to [`mip::SolveLimits::with_time_limit`]). Child nodes
//!   re-solve **from the parent's basis** with the dual simplex (branching
//!   changes one bound, which preserves dual feasibility), and target sweeps
//!   can thread a proven **objective floor** through
//!   [`mip::MipSolver::solve_with_hints`] to collapse plateaued solves.
//!
//! The solver is deliberately sized for the MinCost MILPs of the paper
//! (tens to low hundreds of variables and constraints); it is exact, pure
//! Rust, and fast enough for the experiment harness, but it is not a
//! general-purpose industrial solver.
//!
//! ```
//! use rental_lp::model::{Model, Relation};
//! use rental_lp::mip::MipSolver;
//!
//! // minimize 10 x1 + 18 x2  subject to  x1 + x2 >= 3.5, integers.
//! let mut model = Model::minimize();
//! let x1 = model.add_nonneg_int_var("x1", 10.0);
//! let x2 = model.add_nonneg_int_var("x2", 18.0);
//! model.add_constraint(vec![(x1, 1.0), (x2, 1.0)], Relation::GreaterEq, 3.5);
//! let solution = MipSolver::new().solve(&model).unwrap();
//! assert_eq!(solution.rounded_values(), vec![4, 0]);
//! ```

pub mod dense_simplex;
pub mod error;
pub mod factor;
pub mod mip;
pub mod model;
pub mod revised;
pub mod simplex;
pub mod solution;

pub use error::{LpError, LpResult};
pub use factor::{DenseLu, FactorStats, SparseLu, SparseVector};
pub use mip::{MipSolver, SolveLimits};
pub use model::{Model, Relation, Sense, VarId};
pub use revised::SimplexWorkspace;
pub use simplex::SimplexOptions;
pub use solution::{LpSolution, LpStatus, MipSolution, MipStatus};
