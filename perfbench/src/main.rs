//! One benchmark for the MinCost stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ilp-cold|fleet-failure|fleet-probe> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is generated from `--seed`, driven through the
//! workspace's public APIs only, and checked: each plan goes through
//! `certify_plan`, the illustrating example must reproduce the paper's
//! Table III, and every repeat of the workload must reproduce the first one
//! exactly (costs, optimality proofs, node and iteration counts, fleet
//! decisions). With `--trace 0` the run repeats its inputs a fixed number
//! of times, set by `--seconds` alone (about `--seconds` of work on the
//! host the benchmark was tuned on), and measures the end-to-end metrics:
//! every timing is calibrated by a host-speed reference sampled between
//! pieces of work (`report::HostClock`), and each piece counts at the
//! median of its repeats. With `--trace 1` it
//! serves its inputs once untraced and once traced, then replays each
//! layer's public calls on them, and reports the per-layer split instead;
//! spans recorded around each call into a layer are written to
//! `perfbench/out/`. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; a failed check makes
//! the run exit non-zero. `perfbench/rationale.json` says why the workloads
//! and metrics are what they are.

mod fleet;
mod layers;
mod report;
mod solve;
mod spans;

use std::process::ExitCode;
use std::time::Instant;

use report::Outcome;

/// The workloads, as listed in `BENCHMARK.json`.
const WORKLOADS: [&str; 3] = ["ilp-cold", "fleet-failure", "fleet-probe"];

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Worker threads the fleet controller may use; `ilp-cold` is one
/// closed-loop caller. One: on a shared 2-vCPU host a two-thread fan-out
/// per epoch waits for the slower vCPU and for cross-vCPU wake-ups, which
/// made epochs slower and noisier than one thread doing the same work.
pub const WORKER_THREADS: usize = 1;

/// How many times set-up is timed in a `--trace 0` run, at evenly spaced
/// points of the measured phase (see `report::SetupClock`).
pub const SETUP_SAMPLES: usize = 15;

/// SplitMix64: a well-mixed 64-bit value per (seed, index), giving every
/// generated instance or fleet its own sub-seed.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"));
                }
                workload = Some(value);
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let outcome: Outcome = match args.workload.as_str() {
        "ilp-cold" => solve::run(&args),
        "fleet-failure" => fleet::run(fleet::Lane::Failure, &args),
        "fleet-probe" => fleet::run(fleet::Lane::Probe, &args),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    if outcome.print(&args, started.elapsed().as_secs_f64()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
