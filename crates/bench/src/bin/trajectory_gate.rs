//! CI gate: the "fast" variant of each gated pair must not be slower
//! than its baseline.
//!
//! Reads a benchmark JSON-lines file (as written by
//! [`hfta_testkit::Harness`] under `HFTA_BENCH_JSON`), takes the *last*
//! record per `(bench, case)`, and asserts each gated median stays
//! within `HFTA_PAR_GATE_TOL` (default 1.25) of its baseline:
//!
//! * `parallel_scaling/hier_t4`   vs `parallel_scaling/hier_serial`
//! * `parallel_scaling/demand_t4` vs `parallel_scaling/demand_serial`
//! * `ablation_stability_oracle/persistent_oracle_4_threads` vs
//!   `ablation_stability_oracle/persistent_oracle`
//! * `warm_start/warm_from_db` vs `warm_start/cold_characterize`
//!   (a model-database warm start that is not faster than
//!   re-characterizing from scratch means persistence regressed)
//! * `serve_throughput/whatif_oracle_rebind` vs
//!   `serve_throughput/whatif_fresh_analysis` (a warm daemon whose
//!   persistent-oracle what-if path is not faster than re-encoding a
//!   fresh analysis per request means the daemon's warmth regressed)
//! * `ablation_shared_solver/flat_xbd0_shared` vs
//!   `ablation_shared_solver/flat_xbd0_per_cone` (the shared
//!   module-level SAT instance must not regress past fresh per-cone
//!   solvers; the bench builds that baseline itself, since no analysis
//!   setting selects it). Demand-driven refinement has no in-run
//!   baseline: its default path is guarded across revisions by the
//!   perfbench `hier_ms` records instead.
//! * `serve_load/concurrent_4conn` vs `serve_load/serial_1conn` (four
//!   concurrent unix-socket clients replay the same transcript as one
//!   pipelined connection; the multiplexing machinery must not make
//!   them slower)
//!
//! The tolerance absorbs timer noise on small medians (a 1-core CI
//! runner measures parity, not speedup — requested threads clamp to
//! the machine); the gate exists to catch the failure mode this
//! workspace once shipped, where a 4-thread run was *several times*
//! slower than serial. Exits 1 on violation, 2 when a gated case is
//! missing from the file (a silently skipped gate is no gate).
//!
//! Usage: `trajectory_gate [BENCH_smoke.json]`.

use std::collections::HashMap;
use std::process::ExitCode;

const GATES: [(&str, &str, &str); 7] = [
    (
        "serve_load",
        "serve_load/concurrent_4conn",
        "serve_load/serial_1conn",
    ),
    (
        "ablation",
        "ablation_shared_solver/flat_xbd0_shared",
        "ablation_shared_solver/flat_xbd0_per_cone",
    ),
    (
        "warm_start",
        "warm_start/warm_from_db",
        "warm_start/cold_characterize",
    ),
    (
        "serve_throughput",
        "serve_throughput/whatif_oracle_rebind",
        "serve_throughput/whatif_fresh_analysis",
    ),
    (
        "parallel",
        "parallel_scaling/hier_t4",
        "parallel_scaling/hier_serial",
    ),
    (
        "parallel",
        "parallel_scaling/demand_t4",
        "parallel_scaling/demand_serial",
    ),
    (
        "ablation",
        "ablation_stability_oracle/persistent_oracle_4_threads",
        "ablation_stability_oracle/persistent_oracle",
    ),
];

/// Pulls the string value of `"key":"…"` out of one JSON line.
fn str_field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\":\"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Pulls the numeric value of `"key":…` out of one JSON line.
fn num_field(line: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag)? + tag.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn main() -> ExitCode {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_smoke.json".to_string());
    let tol: f64 = std::env::var("HFTA_PAR_GATE_TOL")
        .ok()
        .map(|v| v.trim().parse().expect("HFTA_PAR_GATE_TOL is a number"))
        .unwrap_or(1.25);
    assert!(
        tol >= 1.0,
        "a tolerance below 1.0 gates serial against itself"
    );

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trajectory_gate: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    // Last record per (bench, case) wins: trajectory files append.
    let mut medians: HashMap<(String, String), u64> = HashMap::new();
    for line in text.lines() {
        let (Some(bench), Some(case), Some(median)) = (
            str_field(line, "bench"),
            str_field(line, "case"),
            num_field(line, "median_ns"),
        ) else {
            continue;
        };
        medians.insert((bench, case), median);
    }

    let mut failed = false;
    for (bench, par, ser) in GATES {
        let key = |case: &str| (bench.to_string(), case.to_string());
        let (Some(&p), Some(&s)) = (medians.get(&key(par)), medians.get(&key(ser))) else {
            eprintln!("trajectory_gate: MISSING {bench}: need both {par} and {ser} in {path}");
            return ExitCode::from(2);
        };
        let ratio = p as f64 / s as f64;
        let verdict = if ratio <= tol { "ok" } else { "FAIL" };
        println!(
            "{verdict}: {bench}/{par} {:.3}ms vs {ser} {:.3}ms (ratio {ratio:.2}, tol {tol:.2})",
            p as f64 / 1e6,
            s as f64 / 1e6,
        );
        failed |= ratio > tol;
    }
    if failed {
        eprintln!("trajectory_gate: parallel regressed past serial — see FAIL lines above");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
