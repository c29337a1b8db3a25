//! Allocation budget of branch-and-bound nodes.
//!
//! Every node of a MinCost branch-and-bound solve re-solves its relaxation
//! in one simplex workspace that the whole solve shares, so a node should
//! allocate only what it returns (its values and its basis snapshot) plus
//! the search's own bookkeeping. This binary wraps the system allocator
//! with a **thread-local** counter — other test threads cannot pollute the
//! count — and checks the average over cold node-capped `IlpSolver` solves
//! of seeded §VIII-C small-graph instances, set-up included.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rental_core::Instance;
use rental_simgen::{GeneratorConfig, InstanceGenerator};
use rental_solvers::exact::IlpSolver;
use rental_solvers::{SolveBudget, WarmStartSolver};

/// Counts every allocation and reallocation made by the current thread.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Branch-and-bound node cap of every solve (the plan-solve benchmark's).
const NODE_CAP: usize = 200;
/// Allocations a node may make on average, solve set-up included.
const BUDGET_PER_NODE: f64 = 10.0;

fn instance(seed: u64) -> Instance {
    InstanceGenerator::new(GeneratorConfig::small_graphs(), seed).generate_instance()
}

#[test]
fn branch_and_bound_nodes_allocate_only_their_outputs() {
    let solver = IlpSolver::new();
    let budget = SolveBudget::with_node_cap(NODE_CAP);
    let mut total_allocations = 0u64;
    let mut total_nodes = 0usize;
    for seed in 0..40u64 {
        let instance = instance(0xA110C ^ seed);
        // ρ = 10..200, the paper's targets, rotating with the seed.
        let target = 10 * (1 + seed % 20);
        let before = allocations();
        let outcome = solver
            .solve_with_prior_budgeted(&instance, target, None, &budget)
            .expect("capped cold solves of small graphs find a plan");
        total_allocations += allocations() - before;
        total_nodes += outcome.nodes.expect("the ILP reports its node count");
    }
    assert!(total_nodes > 0);
    let per_node = total_allocations as f64 / total_nodes as f64;
    assert!(
        per_node <= BUDGET_PER_NODE,
        "{per_node:.1} allocations per node over {total_nodes} nodes \
         (budget {BUDGET_PER_NODE})"
    );
}
