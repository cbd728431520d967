//! `perfbench`: the hfta benchmark.
//!
//! ```text
//! perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1> \
//!               --work <dir> [--hfta <path to the hfta binary>]
//! ```
//!
//! Each workload generates its inputs from the seed (in a child
//! process, so generation never counts towards the measured process's
//! memory), writes them as `.hnl`/`.bench` text, then times the program
//! from outside: spans around calls into each crate's public functions
//! plus the counters those crates return. Every answer is checked. Timed
//! samples go on a timeline between calibration samples (see `calib`);
//! the last stdout line is one JSON record of raw measurements, from
//! which `perfbench/run.py` computes the end-to-end metrics, applies the
//! host-speed correction and prints the result line.

mod calib;
mod layers;
mod modular;
mod paper;
mod serve;
mod util;

use std::path::PathBuf;
use std::time::Instant;

use calib::Calib;
use util::{Spans, J};

/// Everything one workload run shares: arguments, the span recorder,
/// the calibration helper and the answer-check tally.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work: PathBuf,
    pub hfta: PathBuf,
    pub spans: Spans,
    pub calib: Calib,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub started: Instant,
}

impl Ctx {
    /// Books one checked answer.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Seconds of the run's measuring budget still left.
    pub fn left(&self) -> f64 {
        self.seconds - self.started.elapsed().as_secs_f64()
    }
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Peak resident set size of the process doing the analysis, in MB.
    /// (The time metrics are booked on the calibration timeline.)
    pub peak_rss_mb: f64,
    /// Further measurements recorded beside the gated metrics.
    pub native: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(String, f64, &'static str)>,
    /// Answers compared against the stored default-seed expectations.
    pub answers: Vec<(String, J)>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
    hfta: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut work = None;
    let mut hfta = PathBuf::from("hfta");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--work" => work = Some(PathBuf::from(value()?)),
            "--hfta" => hfta = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        work: work.ok_or("--work is required")?,
        hfta,
    })
}

fn run(args: Args) -> Result<J, String> {
    // Inputs first, in a child process.
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = std::process::Command::new(exe)
        .args(["gen", &args.workload, &args.seed.to_string()])
        .arg(&args.work)
        .status()
        .map_err(|e| format!("spawn generator: {e}"))?;
    if !status.success() {
        return Err(format!("input generation failed: {status}"));
    }
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work: args.work,
        hfta: args.hfta,
        spans: Spans::new(args.trace),
        calib: Calib::start()?,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        started: Instant::now(),
    };
    ctx.calib.sample();
    let outcome = match args.workload.as_str() {
        "paper_tables" => paper::run(&mut ctx)?,
        "modular_100k" => modular::run(&mut ctx)?,
        "serve_closed_loop" => serve::run(&mut ctx)?,
        other => return Err(format!("unknown workload `{other}`")),
    };

    if ctx.trace {
        let path = ctx.work.join("spans.jsonl");
        std::fs::write(&path, ctx.spans.to_jsonl()).map_err(|e| format!("{path:?}: {e}"))?;
    }
    let triple = |name: &str, v: f64, unit: &str| {
        (
            name.to_string(),
            J::obj(vec![("value", J::Num(v)), ("unit", J::Str(unit.into()))]),
        )
    };
    let native = outcome
        .native
        .iter()
        .map(|&(n, v, u)| triple(n, v, u))
        .collect();
    let layers = outcome
        .layers
        .iter()
        .map(|(n, v, u)| triple(n, *v, u))
        .collect();
    Ok(J::obj(vec![
        ("workload", J::Str(args.workload)),
        ("seed", J::Int(ctx.seed as i64)),
        ("trace", J::Bool(ctx.trace)),
        ("attempted", J::Int(ctx.attempted as i64)),
        ("failed", J::Int(ctx.failed as i64)),
        (
            "failures",
            J::Arr(ctx.failures.iter().cloned().map(J::Str).collect()),
        ),
        (
            "calib_samples_ms",
            J::Arr(ctx.calib.samples().iter().map(|&v| J::Num(v)).collect()),
        ),
        (
            "timeline",
            J::Arr(
                ctx.calib
                    .timeline()
                    .iter()
                    .map(|(l, v)| J::Arr(vec![J::Str(l.clone()), J::Num(*v)]))
                    .collect(),
            ),
        ),
        ("elapsed_s", J::Num(ctx.started.elapsed().as_secs_f64())),
        ("peak_rss_mb", J::Num(outcome.peak_rss_mb)),
        ("native", J::Obj(native)),
        ("layers", J::Obj(layers)),
        ("answers", J::Obj(outcome.answers)),
    ]))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("calib-helper") => {
            calib::helper_main();
            0
        }
        Some("gen") if args.len() == 4 => {
            let seed: u64 = args[2].parse().expect("numeric seed");
            let dir = PathBuf::from(&args[3]);
            let res = match args[1].as_str() {
                "paper_tables" => paper::generate(seed, &dir),
                "modular_100k" => modular::generate(seed, &dir),
                "serve_closed_loop" => serve::generate(seed, &dir),
                other => Err(format!("unknown workload `{other}`")),
            };
            match res {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("perfbench gen: {e}");
                    1
                }
            }
        }
        Some("run") => match parse_args(&args[1..]).and_then(run) {
            Ok(record) => {
                println!("{}", record.render());
                0
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                1
            }
        },
        _ => {
            eprintln!("usage: perfbench run --workload W --seed N --seconds S --trace 0|1 --work DIR [--hfta PATH]");
            2
        }
    };
    std::process::exit(code);
}
