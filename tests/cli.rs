//! End-to-end tests of the `hfta` command-line tool.

use std::path::PathBuf;
use std::process::Command;

fn hfta_bin() -> PathBuf {
    // target/debug/hfta, located relative to the test binary.
    let mut p = PathBuf::from(env!("CARGO_BIN_EXE_hfta"));
    assert!(p.exists(), "CLI binary missing at {}", p.display());
    p = p.canonicalize().expect("canonical path");
    p
}

fn write_temp(name: &str, contents: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hfta-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write temp file");
    path
}

const BENCH: &str = "\
INPUT(c)
INPUT(a0)
INPUT(a1)
OUTPUT(z)
p0 = XOR(a0, a1) # delay=2
t0 = AND(p0, c)
g0 = AND(a0, a1)
k1 = OR(g0, t0)
t1 = AND(p0, k1)
k2 = OR(g0, t1)
z  = MUX(p0, c, k2) # delay=2
";

const HNL: &str = "\
module blk
  input c a b
  output s z
  gate xor p a b delay=2
  gate and t p c
  gate and g a b
  gate or  k g t
  gate xor s p c delay=2
  gate mux z p c k delay=2
endmodule

module top
  input cin a0 b0 a1 b1
  output s0 s1 zout
  net mid
  inst u0 blk cin a0 b0 -> s0 mid
  inst u1 blk mid a1 b1 -> s1 zout
endmodule

top top
";

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(hfta_bin())
        .args(args)
        .output()
        .expect("spawn CLI");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn report_finds_false_path() {
    let path = write_temp("report.bench", BENCH);
    let (ok, stdout, _) = run(&["report", path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("topological 8"), "{stdout}");
    assert!(stdout.contains("functional 6"), "{stdout}");
    assert!(stdout.contains("[false]"), "false path flagged: {stdout}");
    assert!(stdout.contains("->"), "critical path shown: {stdout}");
}

#[test]
fn report_with_arrival_override() {
    let path = write_temp("report2.bench", BENCH);
    let (ok, stdout, _) = run(&["report", path.to_str().unwrap(), "--arrival", "c=5"]);
    assert!(ok);
    assert!(stdout.contains("topological 11"), "{stdout}");
    assert!(stdout.contains("functional 7"), "{stdout}");
}

/// Arrival times past ±2^60 exit 1 with a message naming the flag,
/// instead of panicking on the infinity sentinels or wrapping into a
/// wrong delay.
#[test]
fn out_of_range_arrival_is_rejected_without_panicking() {
    let bench = write_temp("range.bench", BENCH);
    let hnl = write_temp("range.hnl", HNL);
    let cases = [
        ("report", &bench, "c=9223372036854775807"),
        ("report", &bench, "a0=9223372036854775806"),
        ("report", &bench, "a1=-9223372036854775808"),
        ("hier", &hnl, "cin=1152921504606846977"),
    ];
    for (cmd, file, spec) in cases {
        let (ok, _, stderr) = run(&[cmd, file.to_str().unwrap(), "--arrival", spec]);
        assert!(!ok, "{cmd} --arrival {spec} must fail");
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(stderr.contains("out of range"), "{stderr}");
    }
}

#[test]
fn hier_both_algorithms_agree() {
    let path = write_temp("hier.hnl", HNL);
    let (ok, demand, _) = run(&["hier", path.to_str().unwrap()]);
    assert!(ok);
    assert!(demand.contains("estimated delay: 8"), "{demand}");
    let (ok, twostep, _) = run(&["hier", path.to_str().unwrap(), "--algo", "two-step"]);
    assert!(ok);
    assert!(twostep.contains("estimated delay: 8"), "{twostep}");
}

#[test]
fn stats_flag_prints_counters() {
    // `report --stats` surfaces the stability/solver counters.
    let path = write_temp("stats.bench", BENCH);
    let (ok, stdout, _) = run(&["report", path.to_str().unwrap(), "--stats"]);
    assert!(ok);
    assert!(stdout.contains("stability:"), "{stdout}");
    assert!(stdout.contains("SAT queries"), "{stdout}");
    // Without the flag the counters stay quiet.
    let (ok, quiet, _) = run(&["report", path.to_str().unwrap()]);
    assert!(ok);
    assert!(!quiet.contains("SAT queries"), "{quiet}");

    // `hier --stats` aggregates across the whole analysis, for both
    // algorithms, and the demand path accepts --threads.
    let hier = write_temp("stats.hnl", HNL);
    let (ok, stdout, _) = run(&["hier", hier.to_str().unwrap(), "--stats", "--threads", "2"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("demand-driven:"), "{stdout}");
    assert!(stdout.contains("stability:"), "{stdout}");
    assert!(stdout.contains("SAT queries"), "{stdout}");
    let (ok, stdout, _) = run(&[
        "hier",
        hier.to_str().unwrap(),
        "--algo",
        "two-step",
        "--stats",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("modules characterized"), "{stdout}");
    assert!(stdout.contains("SAT queries"), "{stdout}");
}

/// Two textually identical leaf modules under different names: only
/// structural signatures can share their characterization.
const HNL_TWINS: &str = "\
module blk
  input c a b
  output s z
  gate xor p a b delay=2
  gate and t p c
  gate and g a b
  gate or  k g t
  gate xor s p c delay=2
  gate mux z p c k delay=2
endmodule

module blk2
  input c a b
  output s z
  gate xor p a b delay=2
  gate and t p c
  gate and g a b
  gate or  k g t
  gate xor s p c delay=2
  gate mux z p c k delay=2
endmodule

module top
  input cin a0 b0 a1 b1
  output s0 s1 zout
  net mid
  inst u0 blk cin a0 b0 -> s0 mid
  inst u1 blk2 mid a1 b1 -> s1 zout
endmodule

top top
";

#[test]
fn cone_sig_sharing_surfaces_in_stats() {
    let path = write_temp("twins.hnl", HNL_TWINS);
    let (ok, on, _) = run(&[
        "hier",
        path.to_str().unwrap(),
        "--algo",
        "two-step",
        "--stats",
    ]);
    assert!(ok, "{on}");
    assert!(on.contains("1 modules aliased"), "{on}");
    assert!(on.contains("aliased module: blk2 -> blk"), "{on}");
    assert!(on.contains("cone signatures:"), "{on}");
    assert!(on.contains("estimated delay: 8"), "{on}");

    // The demand-driven path shares verdicts and gets the same answer.
    let (ok, demand, _) = run(&["hier", path.to_str().unwrap()]);
    assert!(ok, "{demand}");
    assert!(demand.contains("estimated delay: 8"), "{demand}");
}

/// Every subcommand accepts exactly the flags its usage line lists: a
/// removed switch or a typo is an error naming the flag and the
/// subcommand, never silently ignored.
#[test]
fn unknown_flags_are_rejected() {
    let corpus = |name: &str| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/corpus")
            .join(name)
            .to_str()
            .expect("utf-8 path")
            .to_string()
    };
    let (c17, pair) = (corpus("c17.bench"), corpus("csa_pair.hnl"));
    let rejects = |flag: &str, args: &[&str]| {
        let (ok, stdout, stderr) = run(args);
        assert!(!ok, "{args:?} must fail: {stdout}");
        let subcommand = format!("`hfta {}`", args[0]);
        assert!(
            stderr.contains(&format!("`{flag}`")) && stderr.contains(&subcommand),
            "{args:?}: {stderr}"
        );
    };
    rejects("--no-such-flag", &["report", &c17, "--no-such-flag"]);
    rejects("--bogus", &["hier", &pair, "--algo", "demand", "--bogus"]);
    rejects("--thread", &["hier", &pair, "--thread", "4"]);
    // Removed sharing switches: every analysis shares solver state and
    // a budget only caps each query, so every subcommand rejects them.
    for removed in ["no-shared-solver", "shared-solver", "no-cone-sig"] {
        let flag = format!("--{removed}");
        rejects(&flag, &["report", &c17, &flag]);
        rejects(&flag, &["hier", &pair, &flag]);
        rejects(&flag, &["serve", &pair, &flag]);
    }
    // The flags still listed for a subcommand keep working.
    let (ok, _, stderr) = run(&["hier", &pair, "--threads", "2", "--stats"]);
    assert!(ok, "{stderr}");
}

#[test]
fn budget_ms_zero_degrades_but_succeeds() {
    // `report --budget-ms 0`: every solver-bound proof degrades to the
    // topological arrival (a sound upper bound); exit stays 0.
    let path = write_temp("budget.bench", BENCH);
    let (ok, stdout, _) = run(&[
        "report",
        path.to_str().unwrap(),
        "--budget-ms",
        "0",
        "--stats",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("functional 8"), "at-topological: {stdout}");
    assert!(stdout.contains("[degraded]"), "{stdout}");
    assert!(stdout.contains("degraded outputs"), "{stdout}");
    assert!(
        !stdout.contains("[false]"),
        "false path no longer provable: {stdout}"
    );

    // `hier --budget-ms 0` on both algorithms: still exits 0 with a
    // (topological, hence sound) delay and nonzero degradation counters.
    let hier = write_temp("budget.hnl", HNL);
    let (ok, stdout, _) = run(&[
        "hier",
        hier.to_str().unwrap(),
        "--budget-ms",
        "0",
        "--stats",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("estimated delay:"), "{stdout}");
    assert!(stdout.contains("degraded"), "{stdout}");
    let (ok, stdout, _) = run(&[
        "hier",
        hier.to_str().unwrap(),
        "--algo",
        "two-step",
        "--budget-ms",
        "0",
        "--stats",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("degraded module:"), "{stdout}");
}

#[test]
fn budget_conflicts_flag_reports_counters() {
    let path = write_temp("budgetc.bench", BENCH);
    let (ok, stdout, _) = run(&[
        "report",
        path.to_str().unwrap(),
        "--budget-conflicts",
        "0",
        "--stats",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("degraded outputs"), "{stdout}");
    // A generous budget degrades nothing: the report matches the exact
    // one, false path included, and the degradation line stays quiet.
    let (ok, stdout, _) = run(&[
        "report",
        path.to_str().unwrap(),
        "--budget-conflicts",
        "1000000",
        "--stats",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("functional 6"), "{stdout}");
    assert!(stdout.contains("[false]"), "{stdout}");
    assert!(!stdout.contains("degraded outputs"), "{stdout}");
}

#[test]
fn characterize_round_trips() {
    let path = write_temp("char.bench", BENCH);
    let model_path = std::env::temp_dir().join("hfta-cli-tests/model.hfta");
    let (ok, _, _) = run(&[
        "characterize",
        path.to_str().unwrap(),
        "-o",
        model_path.to_str().unwrap(),
    ]);
    assert!(ok);
    let text = std::fs::read_to_string(&model_path).expect("model written");
    assert!(text.contains("hfta-timing-model v1"));
    assert!(
        text.contains("tuple 2 6 6"),
        "false-path-aware tuple: {text}"
    );
    // And it parses back.
    let parsed = hfta::ModuleTiming::from_text(&text).expect("parses");
    assert_eq!(parsed.module(), "char");
}

#[test]
fn sim_reports_settle() {
    let path = write_temp("sim.bench", BENCH);
    let (ok, stdout, _) = run(&[
        "sim",
        path.to_str().unwrap(),
        "--from",
        "000",
        "--to",
        "110",
    ]);
    assert!(ok);
    assert!(stdout.contains("settle time:"), "{stdout}");
}

#[test]
fn errors_are_reported() {
    let (ok, _, stderr) = run(&["report", "/nonexistent/file.bench"]);
    assert!(!ok);
    assert!(stderr.contains("error:"), "{stderr}");
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"), "{stderr}");
    let path = write_temp("err.bench", BENCH);
    let (ok, _, stderr) = run(&["sim", path.to_str().unwrap(), "--from", "0", "--to", "1"]);
    assert!(!ok);
    assert!(stderr.contains("bits"), "{stderr}");
}

/// An output listed twice is a structured error naming the net, never a
/// panic, in every decoder and every command that reads a design.
#[test]
fn duplicate_outputs_are_rejected_without_panicking() {
    let bench = write_temp("dup.bench", "INPUT(a)\nOUTPUT(z)\nOUTPUT(z)\nz = NOT(a)\n");
    let blif = write_temp(
        "dup.blif",
        ".model m\n.inputs a\n.outputs z z\n.names a z\n0 1\n.end\n",
    );
    let leaf = write_temp(
        "dup_leaf.hnl",
        "module m\n  input a\n  output z z\n  gate not z a\nendmodule\n",
    );
    let composite = write_temp(
        "dup_composite.hnl",
        "module inv\n  input a\n  output z\n  gate not z a\nendmodule\n\
         module top\n  input x\n  output y y\n  inst u0 inv x -> y\nendmodule\ntop top\n",
    );
    let mut cases = Vec::new();
    for file in [&bench, &blif, &leaf] {
        for cmd in ["report", "characterize", "check"] {
            cases.push((vec![cmd, file.to_str().unwrap()], "`z`"));
        }
    }
    for cmd in ["hier", "flatten", "serve"] {
        cases.push((vec![cmd, composite.to_str().unwrap()], "`y`"));
    }
    for (args, net) in cases {
        let out = Command::new(hfta_bin())
            .args(&args)
            .stdin(std::process::Stdio::null())
            .output()
            .expect("spawn CLI");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("duplicate output {net}")),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn help_prints_usage() {
    let (ok, stdout, _) = run(&["help"]);
    assert!(ok);
    assert!(stdout.contains("usage:"));
}

#[test]
fn check_reports_stats() {
    let path = write_temp("check.bench", BENCH);
    let (ok, stdout, _) = run(&["check", path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("7 gates"), "{stdout}");
    assert!(stdout.contains("validation: OK"), "{stdout}");
}

#[test]
fn dot_renders_graph() {
    let path = write_temp("dot.bench", BENCH);
    let (ok, stdout, _) = run(&["dot", path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.starts_with("digraph"), "{stdout}");
    assert!(stdout.contains("mux/2"), "{stdout}");
}

#[test]
fn blif_input_supported() {
    let blif = "\
.model maj
.inputs a b c
.outputs z
.names a b c z
11- 1
1-1 1
-11 1
.end
";
    let path = write_temp("maj.blif", blif);
    let (ok, stdout, _) = run(&["report", path.to_str().unwrap()]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("module maj"), "{stdout}");
}

#[test]
fn verify_accepts_honest_and_rejects_forged_models() {
    let path = write_temp("verify.bench", BENCH);
    let model_path = std::env::temp_dir().join("hfta-cli-tests/verify_model.hfta");
    let (ok, _, _) = run(&[
        "characterize",
        path.to_str().unwrap(),
        "-o",
        model_path.to_str().unwrap(),
    ]);
    assert!(ok);
    let (ok, stdout, _) = run(&[
        "verify",
        path.to_str().unwrap(),
        "--model",
        model_path.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("VERIFIED"), "{stdout}");

    // Forge: claim the c pin delay is 1 instead of 2.
    let text = std::fs::read_to_string(&model_path).unwrap();
    let forged = text.replace("tuple 2 6 6", "tuple 1 6 6");
    assert_ne!(text, forged);
    let forged_path = std::env::temp_dir().join("hfta-cli-tests/forged_model.hfta");
    std::fs::write(&forged_path, forged).unwrap();
    let (ok, _, stderr) = run(&[
        "verify",
        path.to_str().unwrap(),
        "--model",
        forged_path.to_str().unwrap(),
    ]);
    assert!(!ok);
    assert!(stderr.contains("optimistic"), "{stderr}");
}

/// Extracts the value of a `"key":"string"` pair from a JSONL record.
fn json_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":\"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')? + start;
    Some(&line[start..end])
}

#[test]
fn trace_json_emits_schema_covered_records() {
    let path = write_temp("trace.hnl", HNL_TWINS);
    let out = std::env::temp_dir().join("hfta-cli-tests/trace_twostep.jsonl");
    let (ok, stdout, stderr) = run(&[
        "hier",
        path.to_str().unwrap(),
        "--algo",
        "two-step",
        "--trace-json",
        out.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}{stderr}");
    assert!(stderr.contains("trace: wrote"), "{stderr}");
    let text = std::fs::read_to_string(&out).expect("trace written");
    // Golden schema: every line is one record with the fixed keys.
    let mut names = Vec::new();
    for line in text.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        for key in [
            "\"kind\":",
            "\"name\":",
            "\"worker\":",
            "\"depth\":",
            "\"at_us\":",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
        let kind = json_str(line, "kind").expect("kind");
        assert!(kind == "span" || kind == "event", "{line}");
        if kind == "span" {
            assert!(
                line.contains("\"dur_us\":"),
                "span without duration: {line}"
            );
        }
        names.push(json_str(line, "name").expect("name").to_string());
    }
    // The promised coverage: module characterizations, per-output
    // spans, cone-signature aliasing, relaxation steps, SAT episodes.
    for expected in [
        "characterize_module",
        "characterize_output",
        "module_alias",
        "relax_step",
        "sat_episode",
    ] {
        assert!(
            names.iter().any(|n| n == expected),
            "missing {expected}: {names:?}"
        );
    }

    // Relaxation steps implied by a verdict already proven for the same
    // cone are traced too, flagged `implied`, and counted per output
    // beside the checks. csa_pair's carry-skip leaves have such steps.
    let pair = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/csa_pair.hnl");
    let out = std::env::temp_dir().join("hfta-cli-tests/trace_implied.jsonl");
    let (ok, stdout, stderr) = run(&[
        "hier",
        pair.to_str().unwrap(),
        "--algo",
        "two-step",
        "--trace-json",
        out.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}{stderr}");
    let text = std::fs::read_to_string(&out).expect("trace written");
    let steps: Vec<&str> = text
        .lines()
        .filter(|l| json_str(l, "name") == Some("relax_step"))
        .collect();
    for implied in ["true", "false"] {
        assert!(
            steps
                .iter()
                .any(|l| l.ends_with(&format!("\"implied\":{implied}}}"))),
            "no relax_step with implied {implied}: {steps:?}"
        );
    }
    assert!(
        text.lines()
            .filter(|l| json_str(l, "name") == Some("characterize_output"))
            .all(|l| l.contains("\"checks\":") && l.contains("\"implied\":")),
        "{text}"
    );

    // Demand-driven coverage: refinement rounds, probes, SAT episodes.
    let out = std::env::temp_dir().join("hfta-cli-tests/trace_demand.jsonl");
    let (ok, stdout, stderr) = run(&[
        "hier",
        path.to_str().unwrap(),
        "--trace-json",
        out.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}{stderr}");
    let text = std::fs::read_to_string(&out).expect("trace written");
    for expected in ["refine_round", "refine_probe", "sat_episode"] {
        assert!(
            text.contains(&format!("\"name\":\"{expected}\"")),
            "missing {expected}"
        );
    }

    // Report coverage via the env-var path, overriding the flag-less
    // default (disabled).
    let bench = write_temp("trace.bench", BENCH);
    let report_out = std::env::temp_dir().join("hfta-cli-tests/trace_report.jsonl");
    let out = Command::new(hfta_bin())
        .args(["report", bench.to_str().unwrap()])
        .env("HFTA_TRACE_JSON", report_out.to_str().unwrap())
        .output()
        .expect("spawn CLI");
    assert!(out.status.success());
    let text = std::fs::read_to_string(&report_out).expect("trace written");
    for expected in ["timing_report", "output_arrival", "sat_episode"] {
        assert!(
            text.contains(&format!("\"name\":\"{expected}\"")),
            "missing {expected}"
        );
    }
}

#[test]
fn trace_flag_prints_tree_and_leaves_stdout_alone() {
    let path = write_temp("tracetree.hnl", HNL);
    let (ok, plain, _) = run(&["hier", path.to_str().unwrap()]);
    assert!(ok);
    let (ok, traced, stderr) = run(&["hier", path.to_str().unwrap(), "--trace"]);
    assert!(ok);
    // Traced runs answer identically, on stdout, to untraced runs.
    assert_eq!(plain, traced);
    // The span tree goes to stderr: indented spans with durations.
    assert!(stderr.contains("refine_round"), "{stderr}");
    assert!(stderr.contains("us"), "{stderr}");
}

#[test]
fn model_db_seed_and_warm_start_two_step() {
    let path = write_temp("modeldb.hnl", HNL_TWINS);
    let dir = std::env::temp_dir().join("hfta-cli-tests/modeldb-twostep");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap().to_string();

    // Seed the database from every leaf. blk and blk2 are structurally
    // identical, so the second is reused from the record the first
    // just stored — one characterization, one file.
    let (ok, seeded, _) = run(&[
        "characterize",
        path.to_str().unwrap(),
        "--emit-model",
        &dir_s,
    ]);
    assert!(ok, "{seeded}");
    assert!(
        seeded.contains("1 characterized, 1 reused, 1 record(s)"),
        "{seeded}"
    );

    // Re-seeding an unchanged design does no solver work at all.
    let (ok, reseeded, _) = run(&[
        "characterize",
        path.to_str().unwrap(),
        "--emit-model",
        &dir_s,
    ]);
    assert!(ok, "{reseeded}");
    assert!(
        reseeded.contains("0 characterized, 2 reused, 1 record(s)"),
        "{reseeded}"
    );

    // A cold process warm-starts from disk: zero characterizations,
    // same answer as the reference run.
    let (ok, cold, _) = run(&["hier", path.to_str().unwrap(), "--algo", "two-step"]);
    assert!(ok, "{cold}");
    let (ok, warm, _) = run(&[
        "hier",
        path.to_str().unwrap(),
        "--algo",
        "two-step",
        "--use-models",
        &dir_s,
        "--stats",
    ]);
    assert!(ok, "{warm}");
    assert!(warm.contains("0 modules characterized"), "{warm}");
    assert!(warm.contains("model-db: 2 hits"), "{warm}");
    assert!(cold.contains("estimated delay: 8"), "{cold}");
    assert!(warm.contains("estimated delay: 8"), "{warm}");

    // The audit subcommand sees one valid record.
    let (ok, audit, _) = run(&["models", &dir_s]);
    assert!(ok, "{audit}");
    assert!(audit.contains("1 valid record(s), 0 invalid"), "{audit}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn model_db_persists_demand_verdicts() {
    let path = write_temp("modeldb_demand.hnl", HNL_TWINS);
    let dir = std::env::temp_dir().join("hfta-cli-tests/modeldb-demand");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap().to_string();

    // First demand-driven run stores its stability verdicts.
    let (ok, first, _) = run(&[
        "hier",
        path.to_str().unwrap(),
        "--emit-models",
        &dir_s,
        "--stats",
    ]);
    assert!(ok, "{first}");
    assert!(first.contains("verdicts stored"), "{first}");
    assert!(!first.contains("0 verdicts stored"), "{first}");

    // A cold process answers those probes from disk, bit-identically.
    let (ok, warm, _) = run(&[
        "hier",
        path.to_str().unwrap(),
        "--use-models",
        &dir_s,
        "--stats",
    ]);
    assert!(ok, "{warm}");
    assert!(warm.contains("verdicts loaded"), "{warm}");
    assert!(!warm.contains("0 verdicts loaded"), "{warm}");
    assert!(warm.contains("estimated delay: 8"), "{warm}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flatten_and_convert() {
    let path = write_temp("flat.hnl", HNL);
    let out = std::env::temp_dir().join("hfta-cli-tests/flat.bench");
    let (ok, stdout, _) = run(&[
        "flatten",
        path.to_str().unwrap(),
        "-o",
        out.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("12 gates"), "{stdout}");
    // The flattened file is a valid .bench and converts to BLIF.
    let blif_out = std::env::temp_dir().join("hfta-cli-tests/flat.blif");
    let (ok, _, _) = run(&[
        "convert",
        out.to_str().unwrap(),
        "-o",
        blif_out.to_str().unwrap(),
    ]);
    assert!(ok);
    let text = std::fs::read_to_string(&blif_out).unwrap();
    assert!(text.starts_with(".model"));
    // And the BLIF loads back.
    let (ok, stdout, _) = run(&["check", blif_out.to_str().unwrap()]);
    assert!(ok, "{stdout}");
}

/// Pipes `input` into the CLI's stdin and captures the full run.
fn run_with_stdin(args: &[&str], input: &str) -> (bool, String, String) {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = Command::new(hfta_bin())
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn CLI");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("write transcript");
    // Dropping the handle closes stdin; the daemon sees EOF.
    let out = child.wait_with_output().expect("wait for CLI");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn serve_answers_the_whole_protocol_on_stdin() {
    let path = write_temp("serve.hnl", HNL);
    let transcript = concat!(
        r#"{"id":1,"kind":"report"}"#,
        "\n",
        r#"{"id":2,"kind":"delay","output":"zout"}"#,
        "\n",
        r#"{"id":3,"kind":"slack","net":"mid"}"#,
        "\n",
        r#"{"id":4,"kind":"whatif","module":"blk","output":"z","arrivals":{"c":5}}"#,
        "\n",
        "this is not json\n",
        r#"{"id":5,"kind":"eco","module":"blk","gate":"p","delay":1}"#,
        "\n",
        r#"{"id":6,"kind":"stats"}"#,
        "\n",
        r#"{"id":7,"kind":"shutdown"}"#,
        "\n",
    );
    let (ok, stdout, stderr) = run_with_stdin(&["serve", path.to_str().unwrap()], transcript);
    assert!(ok, "serve exits 0 on shutdown: {stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 8, "every line answered: {stdout}");
    for (i, want) in [
        r#""id":1,"ok":true,"kind":"report""#,
        r#""id":2,"ok":true,"kind":"delay","output":"zout""#,
        r#""id":3,"ok":true,"kind":"slack","net":"mid""#,
        r#""id":4,"ok":true,"kind":"whatif","module":"blk","output":"z""#,
        r#""id":null,"ok":false"#,
        r#""id":5,"ok":true,"kind":"eco","module":"blk""#,
        r#""id":6,"ok":true,"kind":"stats""#,
        r#""id":7,"ok":true,"kind":"shutdown""#,
    ]
    .iter()
    .enumerate()
    {
        assert!(lines[i].contains(want), "line {i}: {} !~ {want}", lines[i]);
    }
    assert!(stderr.contains("modules characterized"), "{stderr}");
    assert!(stderr.contains("shutdown request"), "{stderr}");
}

#[test]
fn serve_mid_stream_disconnect_is_a_clean_exit() {
    let path = write_temp("serve_eof.hnl", HNL);
    // A good request, then the client dies mid-line (no newline, EOF).
    let transcript = concat!(
        r#"{"id":1,"kind":"delay","output":"zout"}"#,
        "\n",
        r#"{"id":2,"kind":"del"#,
    );
    let (ok, stdout, stderr) = run_with_stdin(&["serve", path.to_str().unwrap()], transcript);
    assert!(ok, "disconnect is not an error: {stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(lines[0].contains(r#""id":1,"ok":true"#), "{stdout}");
    assert!(
        lines[1].contains(r#""ok":false"#),
        "partial line answered: {stdout}"
    );
    assert!(stderr.contains("end of input"), "{stderr}");
}

#[test]
fn serve_warm_starts_from_a_model_db_without_characterizing() {
    let path = write_temp("serve_warm.hnl", HNL);
    let db = std::env::temp_dir().join("hfta-cli-tests/serve-warm-db");
    let _ = std::fs::remove_dir_all(&db);
    let (ok, _, _) = run(&[
        "characterize",
        path.to_str().unwrap(),
        "--emit-model",
        db.to_str().unwrap(),
    ]);
    assert!(ok);
    let (ok, stdout, stderr) = run_with_stdin(
        &[
            "serve",
            path.to_str().unwrap(),
            "--use-models",
            db.to_str().unwrap(),
            "--stats",
        ],
        concat!(r#"{"id":1,"kind":"report"}"#, "\n"),
    );
    assert!(ok, "{stderr}");
    assert!(
        stderr.contains("0 modules characterized"),
        "warm start must not characterize: {stderr}"
    );
    assert!(stdout.contains(r#""characterized":0"#), "{stdout}");
}

#[cfg(unix)]
#[test]
fn serve_socket_mode_round_trips() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    use std::process::Stdio;

    let path = write_temp("serve_sock.hnl", HNL);
    let sock = std::env::temp_dir().join("hfta-cli-tests/serve.sock");
    let _ = std::fs::remove_file(&sock);
    let mut child = Command::new(hfta_bin())
        .args(["serve", path.to_str().unwrap(), "--socket"])
        .arg(&sock)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon");
    // Wait for the daemon to warm up and bind the socket.
    let mut stream = None;
    for _ in 0..200 {
        if let Ok(s) = UnixStream::connect(&sock) {
            stream = Some(s);
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    let Some(mut stream) = stream else {
        let _ = child.kill();
        panic!("daemon never bound {}", sock.display());
    };
    stream
        .write_all(b"{\"id\":1,\"kind\":\"report\"}\n{\"id\":2,\"kind\":\"shutdown\"}\n")
        .expect("write requests");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    assert!(
        line.contains(r#""id":1,"ok":true,"kind":"report""#),
        "{line}"
    );
    line.clear();
    reader.read_line(&mut line).expect("read response");
    assert!(
        line.contains(r#""id":2,"ok":true,"kind":"shutdown""#),
        "{line}"
    );
    let status = child.wait().expect("daemon exits after shutdown");
    assert!(status.success());
    assert!(!sock.exists(), "socket removed on shutdown");
}
