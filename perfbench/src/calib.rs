//! Host-speed correction.
//!
//! A shared host drifts in speed from minute to minute, by more than the
//! bounds the benchmark gates on. Fixed CPU kernels owned by the
//! benchmark — a random read-modify-write over 8 MB, a pointer chase
//! over a 512 KB permutation and a sort of 400k `u32` — are timed
//! between the timed samples, only while the program under test is idle
//! (analyzers dropped, daemon between requests). They run in a helper
//! child process so their buffers neither count towards the measured
//! process's peak RSS nor sit in its caches.
//!
//! Every timed sample is booked on a timeline between the calibration
//! samples; `perfbench/run.py` turns it into raw and host-corrected
//! metrics (`raw × calib_ref / calib`, with `calib_ref` a constant
//! recorded in `perfbench/design.json`).

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use crate::util::{median, ms_since, Rng};

/// The kernels' buffers, built once.
struct Kernels {
    rmw: Vec<u64>,
    chase: Vec<u32>,
    sort_src: Vec<u32>,
    sort_buf: Vec<u32>,
}

impl Kernels {
    fn new() -> Kernels {
        let mut rng = Rng::new(0x5eed);
        let rmw: Vec<u64> = (0..(1u64 << 20)).collect();
        // Sattolo's shuffle: one cycle through all 128k slots.
        let n = 1usize << 17;
        let mut chase: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = rng.below(i);
            chase.swap(i, j);
        }
        let sort_src: Vec<u32> = (0..400_000).map(|_| rng.next_u64() as u32).collect();
        Kernels {
            rmw,
            chase,
            sort_buf: sort_src.clone(),
            sort_src,
        }
    }

    /// Times each kernel once; returns their times in ms.
    fn run(&mut self) -> [f64; 3] {
        let t = Instant::now();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mask = self.rmw.len() - 1;
        for k in 0..400_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & mask;
            self.rmw[i] = self.rmw[i].wrapping_mul(3).wrapping_add(k);
        }
        std::hint::black_box(&self.rmw);
        let rmw = ms_since(t);

        let t = Instant::now();
        let mut at = 0u32;
        for _ in 0..(1u32 << 19) {
            at = self.chase[at as usize];
        }
        std::hint::black_box(at);
        let chase = ms_since(t);

        let t = Instant::now();
        self.sort_buf.copy_from_slice(&self.sort_src);
        self.sort_buf.sort_unstable();
        std::hint::black_box(&self.sort_buf);
        let sort = ms_since(t);
        [rmw, chase, sort]
    }
}

/// The geometric mean of the kernel times.
fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Body of the `calib-helper` subcommand: one kernel pass per `run`
/// line on stdin, answered with the geometric mean in ms; exits on EOF.
pub fn helper_main() {
    let mut kernels = Kernels::new();
    kernels.run(); // fault the buffers in
    let stdin = std::io::stdin();
    let mut out = std::io::stdout().lock();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if line.trim() != "run" {
            break;
        }
        let times = kernels.run();
        if writeln!(out, "{:?}", geomean(&times))
            .and_then(|()| out.flush())
            .is_err()
        {
            break;
        }
    }
}

/// Client side: the helper process and the samples it returned.
pub struct Calib {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    samples: Vec<f64>,
    /// Timed samples and calibration samples in the order they were
    /// taken (`"cal"` marks a calibration sample).
    timeline: Vec<(String, f64)>,
}

impl Calib {
    /// Starts the helper (this same executable, `calib-helper`).
    pub fn start() -> Result<Calib, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("calib-helper")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn calib helper: {e}"))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Calib {
            child,
            stdin: Some(stdin),
            stdout,
            samples: Vec::new(),
            timeline: Vec::new(),
        })
    }

    /// One kernel pass (call only while the program under test is idle).
    pub fn sample(&mut self) {
        let stdin = self.stdin.as_mut().expect("helper running");
        writeln!(stdin, "run").expect("calib helper stdin");
        stdin.flush().expect("calib helper stdin");
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .expect("calib helper stdout");
        let v: f64 = line.trim().parse().expect("calib helper answers a number");
        self.samples.push(v);
        self.timeline.push(("cal".into(), v));
    }

    /// Books a timed sample of end-to-end metric `label` (optionally
    /// `metric:part`, for metrics that sum per-part medians).
    pub fn mark(&mut self, label: impl Into<String>, value: f64) {
        self.timeline.push((label.into(), value));
    }

    pub fn timeline(&self) -> &[(String, f64)] {
        &self.timeline
    }

    /// `calib_run`: the median kernel geometric mean so far, in ms.
    pub fn run_ms(&self) -> f64 {
        median(&self.samples)
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

impl Drop for Calib {
    fn drop(&mut self) {
        // Closing stdin ends the helper; wait so no process outlives us.
        self.stdin.take();
        let _ = self.child.wait();
    }
}
