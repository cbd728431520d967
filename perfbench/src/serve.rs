//! `serve_closed_loop`: the interactive use.
//!
//! A child process runs `hfta serve --socket … --threads 2 --use-models
//! <fresh dir>` over the fixed `modular_design(ModularDesignSpec::sized(
//! 20_000, 2))` design. Two client connections run a closed loop — EDA
//! callers wait for each reply — sending a mix of `report`, `delay`,
//! `slack` and `whatif` reads drawn from the seed, with perturbed
//! arrivals, a share of which repeat an earlier read so that they hit
//! the response cache. A few times per segment the second client sends
//! an `eco` raising the delay of an internal gate, which goes through the
//! write barrier, recharacterization and write-through. Characterization
//! shows up only in `setup_s`. The run is a fixed amount of work (daemon
//! start-ups, segments, requests), not a fixed time.
//!
//! The four read kinds are equally likely, as in the `serve_load` bench.
//! The repeat share and the ECO rate are assumptions, not measured from
//! recorded client traffic (the repository has no such recording); see
//! `REPEAT_SHARE` and `ECOS_PER_SEGMENT`.
//!
//! Every response is checked: `"ok":true`, not degraded, and equal to a
//! fresh in-process `HierAnalyzer` (reads, ECOs) or `DelayAnalyzer`
//! (what-ifs) answer for the design state the ECO sequence produced.

use std::collections::HashMap;
use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use hfta_core::{AnalysisConfig, HierAnalyzer, TraceSink};
use hfta_fta::DelayAnalyzer;
use hfta_netlist::{hnl, Design, Netlist, Time};
use hfta_serve::{parse_request, ServeSession};

use crate::layers::Layers;
use crate::util::{mean, median, parse_json, proc_status_mb, quantile, Rng, J};
use crate::{Ctx, Outcome};

const GATES: usize = 20_000;
const THREADS: usize = 2;
/// Daemon start-ups per run; `setup_s` is their median.
const SPAWNS: usize = 3;
/// Requests per client per segment; the clients pause between
/// segments for a calibration sample. The loop length is fixed so the
/// daemon's peak RSS and the ECO count do not depend on host speed.
const PER_SEGMENT: usize = 200;
const SEGMENTS: usize = 8;
/// Calibration samples per pause (between daemon start-ups and between
/// segments): the loop has few pauses, and `calib_run` is their median.
const CALIB_PER_PAUSE: usize = 4;
/// Seed of the ECO targets (see `transcript`).
const ECO_SEED: u64 = 0xec0;
/// ECOs client 1 sends per segment, evenly spaced: one per 50 of its
/// requests. An assumption, chosen so that a run makes 32 ECOs, enough
/// samples for a steady mean ECO time.
const ECOS_PER_SEGMENT: usize = 4;
/// Share of reads that repeat one of the client's recent cacheable reads.
/// An assumption, chosen so that cache hits get about a hundred samples
/// per segment while fresh reads stay the large majority.
const REPEAT_SHARE: f64 = 0.3;

pub fn generate(_seed: u64, dir: &Path) -> Result<(), String> {
    crate::modular::write_design(GATES, dir, "serve.hnl")
}

/// What one request asks, in the benchmark's own terms (for checking).
#[derive(Clone, Debug)]
enum Ask {
    Report(Vec<(usize, i64)>),
    Delay(usize, Vec<(usize, i64)>),
    Slack(String, Vec<(usize, i64)>),
    WhatIf(String, String, Vec<(usize, i64)>),
    Eco(usize),
}

impl Ask {
    fn kind(&self) -> &'static str {
        match self {
            Ask::Report(_) => "report",
            Ask::Delay(..) => "delay",
            Ask::Slack(..) => "slack",
            Ask::WhatIf(..) => "whatif",
            Ask::Eco(_) => "eco",
        }
    }
}

#[derive(Clone, Debug)]
struct Req {
    ask: Ask,
    repeat: bool,
    /// The request line without its id (the cache key of the checker).
    body: String,
}

/// One ECO edit: module, gate output net and new delay.
#[derive(Clone, Debug)]
struct Eco {
    module: String,
    gate: String,
    delay: u32,
}

/// Names the request generator and the checker need.
struct Shape {
    inputs: Vec<String>,
    outputs: Vec<String>,
    nets: Vec<String>,
    leaves: Vec<String>,
}

fn arrivals_json(names: &[String], arr: &[(usize, i64)]) -> String {
    let fields: Vec<String> = arr
        .iter()
        .map(|&(i, t)| format!("\"{}\":{t}", names[i]))
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn perturb(rng: &mut Rng, n: usize) -> Vec<(usize, i64)> {
    let k = 1 + rng.below(3);
    let mut arr: Vec<(usize, i64)> = (0..k)
        .map(|_| (rng.below(n), 1 + rng.below(8) as i64))
        .collect();
    arr.sort_unstable();
    arr.dedup_by_key(|a| a.0);
    arr
}

fn fresh_read(rng: &mut Rng, shape: &Shape, design: &Design) -> Req {
    let n = shape.inputs.len();
    let ask = match rng.below(4) {
        0 => Ask::Report(perturb(rng, n)),
        1 => Ask::Delay(rng.below(shape.outputs.len()), perturb(rng, n)),
        2 => Ask::Slack(
            shape.nets[rng.below(shape.nets.len())].clone(),
            perturb(rng, n),
        ),
        _ => {
            let module = shape.leaves[rng.below(shape.leaves.len())].clone();
            let leaf = design.leaf(&module).expect("leaf");
            let out = leaf.outputs()[rng.below(leaf.outputs().len())];
            let arr = perturb(rng, leaf.inputs().len());
            Ask::WhatIf(module, leaf.net_name(out).to_string(), arr)
        }
    };
    let body = match &ask {
        Ask::Report(a) => format!(
            r#""kind":"report","arrivals":{}"#,
            arrivals_json(&shape.inputs, a)
        ),
        Ask::Delay(o, a) => format!(
            r#""kind":"delay","output":"{}","arrivals":{}"#,
            shape.outputs[*o],
            arrivals_json(&shape.inputs, a)
        ),
        Ask::Slack(net, a) => format!(
            r#""kind":"slack","net":"{net}","arrivals":{}"#,
            arrivals_json(&shape.inputs, a)
        ),
        Ask::WhatIf(m, o, a) => {
            let leaf = design.leaf(m).expect("leaf");
            let names: Vec<String> = leaf
                .inputs()
                .iter()
                .map(|&i| leaf.net_name(i).to_string())
                .collect();
            format!(
                r#""kind":"whatif","module":"{m}","output":"{o}","arrivals":{}"#,
                arrivals_json(&names, a)
            )
        }
        Ask::Eco(_) => unreachable!("reads only"),
    };
    Req {
        ask,
        repeat: false,
        body,
    }
}

/// Builds both clients' request lists for `segments` segments, and the
/// ECO sequence: client 1 sends `ECOS_PER_SEGMENT` per segment, and the
/// edited modules cycle through every flavor. An ECO's cost is the
/// recharacterization of the outputs its gate reaches, which spans two
/// orders of magnitude between gates, so the targets are drawn from the
/// fixed `ECO_SEED` (the design is fixed too): every run makes the same
/// edits, and the benchmark seed draws only the reads.
fn transcript(
    seed: u64,
    segments: usize,
    shape: &Shape,
    design: &Design,
) -> ([Vec<Req>; 2], Vec<Eco>) {
    let mut ecos = Vec::new();
    let mut current = design.clone();
    let mut erng = Rng::new(ECO_SEED);
    let mut cycle: Vec<&String> = Vec::new();
    for _ in 0..segments * ECOS_PER_SEGMENT {
        if cycle.is_empty() {
            cycle = shape.leaves.iter().collect();
            erng.shuffle(&mut cycle);
        }
        let module = cycle.pop().expect("refilled").clone();
        let leaf = current.leaf(&module).expect("leaf").clone();
        let outs: Vec<_> = leaf.outputs().to_vec();
        let internal: Vec<_> = leaf
            .gates()
            .iter()
            .filter(|g| !outs.contains(&g.output))
            .collect();
        let g = internal[erng.below(internal.len())];
        let (gate, delay) = (leaf.net_name(g.output).to_string(), g.delay + 1);
        let mut edited = leaf.clone();
        let gid = edited.driver(g.output).expect("driven");
        edited.set_gate_delay(gid, delay);
        current.replace_leaf(edited).expect("same leaf");
        ecos.push(Eco {
            module,
            gate,
            delay,
        });
    }
    let clients = [0u64, 1].map(|c| {
        let mut rng = Rng::new(seed.wrapping_mul(2).wrapping_add(c));
        let mut reqs: Vec<Req> = Vec::new();
        for s in 0..segments {
            for i in 0..PER_SEGMENT {
                let slot = i * ECOS_PER_SEGMENT / PER_SEGMENT;
                if c == 1 && i == (2 * slot + 1) * PER_SEGMENT / (2 * ECOS_PER_SEGMENT) {
                    let k = s * ECOS_PER_SEGMENT + slot;
                    let e = &ecos[k];
                    reqs.push(Req {
                        ask: Ask::Eco(k),
                        repeat: false,
                        body: format!(
                            r#""kind":"eco","module":"{}","gate":"{}","delay":{}"#,
                            e.module, e.gate, e.delay
                        ),
                    });
                    continue;
                }
                let recent: Vec<&Req> = reqs
                    .iter()
                    .rev()
                    .take(32)
                    .filter(|r| matches!(r.ask, Ask::Report(_) | Ask::Delay(..) | Ask::Slack(..)))
                    .collect();
                if !recent.is_empty() && rng.chance(REPEAT_SHARE) {
                    let mut r = recent[rng.below(recent.len())].clone();
                    r.repeat = true;
                    reqs.push(r);
                } else {
                    reqs.push(fresh_read(&mut rng, shape, design));
                }
            }
        }
        reqs
    });
    (clients, ecos)
}

/// A running daemon.
struct Daemon {
    child: Child,
    sock: PathBuf,
    err_path: PathBuf,
}

impl Daemon {
    /// Starts `hfta serve` and waits for its first answered request (an
    /// all-zero `report`); returns the daemon, that set-up time in
    /// seconds and the report's delay.
    fn start(ctx: &Ctx, k: usize) -> Result<(Daemon, f64, i64), String> {
        let sock = ctx.work.join(format!("s{k}.sock"));
        let db = ctx.work.join(format!("daemon-models-{k}"));
        let _ = fs::remove_dir_all(&db);
        let err_path = ctx.work.join(format!("daemon-{k}.err"));
        let err_log = fs::File::create(&err_path).map_err(|e| format!("{err_path:?}: {e}"))?;
        let t = Instant::now();
        let child = Command::new(&ctx.hfta)
            .arg("serve")
            .arg(ctx.work.join("serve.hnl"))
            .arg("--socket")
            .arg(&sock)
            .args(["--threads", &THREADS.to_string()])
            .arg("--use-models")
            .arg(&db)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err_log)
            .spawn()
            .map_err(|e| format!("spawn {:?}: {e}", ctx.hfta))?;
        let mut d = Daemon {
            child,
            sock,
            err_path: err_path.clone(),
        };
        let mut conn = loop {
            if let Ok(c) = UnixStream::connect(&d.sock) {
                break Conn::new(c)?;
            }
            if let Ok(Some(status)) = d.child.try_wait() {
                return Err(format!("hfta serve exited during start-up: {status}"));
            }
            if t.elapsed() > Duration::from_secs(90) {
                return Err("hfta serve did not listen within 90 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        let first = conn
            .call(r#"{"id":0,"kind":"report"}"#)
            .map_err(|e| format!("first report: {e}; {}", d.state()))?;
        let setup = t.elapsed().as_secs_f64();
        match time_of(parse_json(&first)?.get("delay")) {
            Some(delay) if first.contains(r#""ok":true"#) => Ok((d, setup, delay)),
            _ => Err(format!("first report failed: {first}")),
        }
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        proc_status_mb(&self.child.id().to_string(), "VmHWM")
            .ok_or("no VmHWM for the daemon".into())
    }

    /// Whether the daemon still runs, and its standard error so far (for
    /// error messages).
    fn state(&mut self) -> String {
        let status = match self.child.try_wait() {
            Ok(Some(s)) => format!("daemon exited: {s}"),
            Ok(None) => "daemon still running".to_string(),
            Err(e) => format!("daemon status unknown: {e}"),
        };
        let log = fs::read_to_string(&self.err_path).unwrap_or_default();
        format!("{status}; daemon stderr: {log:?}")
    }
}

impl Drop for Daemon {
    /// Stops the daemon (SIGKILL) and waits for it to end, on every path
    /// out of the workload. The daemon is idle by then. A `shutdown`
    /// request is not used: `serve_unix_socket` shuts every connection
    /// down as soon as the dispatcher has handed the shutdown reply to
    /// the connection's writer thread, without waiting for the write, so
    /// the reply is sometimes lost.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One client connection: newline-delimited JSON, one reply per request.
struct Conn {
    w: UnixStream,
    r: BufReader<UnixStream>,
}

impl Conn {
    fn new(s: UnixStream) -> Result<Conn, String> {
        s.set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let r = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { w: s, r })
    }

    fn call(&mut self, line: &str) -> Result<String, String> {
        self.w
            .write_all(line.as_bytes())
            .map_err(|e| e.to_string())?;
        self.w.write_all(b"\n").map_err(|e| e.to_string())?;
        let mut resp = String::new();
        self.r.read_line(&mut resp).map_err(|e| e.to_string())?;
        if resp.is_empty() {
            return Err("daemon closed the connection".into());
        }
        Ok(resp.trim_end().to_string())
    }
}

/// One answered request as the client saw it.
struct Done {
    client: usize,
    idx: usize,
    sent: Instant,
    got: Instant,
    resp: String,
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let text = fs::read_to_string(ctx.work.join("serve.hnl")).map_err(|e| e.to_string())?;
    let (design, top) = hnl::parse(&text).map_err(|e| e.to_string())?;
    let top = top.ok_or("serve.hnl names no top")?;
    let comp = design.composite(&top).ok_or("top is not a composite")?;
    let names = |ns: &[hfta_netlist::NetId]| -> Vec<String> {
        ns.iter().map(|&n| comp.net_name(n).to_string()).collect()
    };
    let shape = Shape {
        inputs: names(comp.inputs()),
        outputs: names(comp.outputs()),
        nets: comp
            .instances()
            .iter()
            .flat_map(|i| i.outputs.iter().map(|&n| comp.net_name(n).to_string()))
            .collect(),
        leaves: design
            .modules()
            .iter()
            .filter(|m| design.leaf(&m.name).is_some())
            .map(|m| m.name.clone())
            .collect(),
    };

    // Set-up: spawn → first answer, cold warm-up included. The last
    // daemon serves the closed loop; its peak RSS is the metric, the
    // others' (after warm-up only) are recorded beside it.
    let mut warmup_rss = Vec::new();
    let mut daemon: Option<Daemon> = None;
    let mut initial_delay = None;
    for k in 0..SPAWNS {
        if let Some(d) = daemon.take() {
            warmup_rss.push(d.peak_rss_mb()?);
            drop(d);
        }
        pause(ctx);
        let (d, setup_s, delay) = Daemon::start(ctx, k)?;
        ctx.calib.mark("setup_s", setup_s);
        daemon = Some(d);
        ctx.check(initial_delay.is_none_or(|first| first == delay), || {
            format!("daemon {k} reports {delay}, the first reported {initial_delay:?}")
        });
        initial_delay = Some(delay);
    }
    let mut daemon = daemon.expect("spawned");
    pause(ctx);

    let (clients, ecos) = transcript(ctx.seed, SEGMENTS, &shape, &design);
    let mut conns = [0, 1].map(|_| {
        UnixStream::connect(&daemon.sock)
            .map_err(|e| e.to_string())
            .and_then(Conn::new)
    });
    let [c0, c1] = &mut conns;
    let (c0, c1) = (
        c0.as_mut().map_err(|e| e.clone())?,
        c1.as_mut().map_err(|e| e.clone())?,
    );
    let ms = |d: &Done| d.got.duration_since(d.sent).as_secs_f64() * 1e3;
    let req_of = |d: &Done| &clients[d.client][d.idx];
    let mut done: Vec<Done> = Vec::new();
    let mut busy = Duration::ZERO;
    let (mut fresh_p50, mut repeat_p50, mut eco_ms) = (Vec::new(), Vec::new(), Vec::new());
    for segment in 0..SEGMENTS {
        let range = segment * PER_SEGMENT..(segment + 1) * PER_SEGMENT;
        let t = Instant::now();
        let (a, b) = std::thread::scope(|s| {
            let h0 = s.spawn(|| drive(c0, 0, &clients[0], range.clone()));
            let h1 = s.spawn(|| drive(c1, 1, &clients[1], range.clone()));
            (h0.join().expect("client 0"), h1.join().expect("client 1"))
        });
        busy += t.elapsed();
        let (a, b) = match (a, b) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => return Err(format!("{e}; {}", daemon.state())),
        };
        let mut fresh = Vec::new();
        let mut repeats = Vec::new();
        for d in a.iter().chain(&b) {
            match req_of(d) {
                Req {
                    ask: Ask::Eco(_), ..
                } => eco_ms.push(ms(d)),
                Req { repeat: true, .. } => repeats.push(ms(d)),
                _ => fresh.push(ms(d)),
            }
        }
        fresh_p50.push(median(&fresh));
        repeat_p50.push(median(&repeats));
        done.extend(a);
        done.extend(b);
        pause(ctx);
    }
    // Read latency sits near a few scheduler wake-ups, and a segment's
    // median moves between two levels with where the threads land; the
    // mean over segments of the segment medians is steadier than their
    // median. Every run makes the same ECO sequence, so its mean is the
    // cost of a fixed amount of recharacterization.
    ctx.calib.mark("hier_ms", mean(&fresh_p50));
    ctx.calib.mark("reuse_ms", mean(&repeat_p50));
    ctx.calib.mark("sat_ms", mean(&eco_ms));
    let stats = c0.call(r#"{"id":"stats","kind":"stats"}"#)?;
    let peak_rss_mb = daemon.peak_rss_mb()?;
    drop(conns);
    drop(daemon);

    let reads: Vec<&Done> = done
        .iter()
        .filter(|d| !matches!(req_of(d).ask, Ask::Eco(_)))
        .collect();
    let all_reads: Vec<f64> = reads.iter().map(|d| ms(d)).collect();
    let repeats = reads.iter().filter(|d| req_of(d).repeat).count();
    let ecos_sent = done.len() - reads.len();

    check_all(ctx, &design, &top, &shape, &clients, &ecos, &done)?;

    let stats_json = parse_json(&stats)?;
    let stat = |k: &str| match stats_json.get(k) {
        Some(J::Int(i)) => *i as f64,
        _ => f64::NAN,
    };
    let cache_hit_ratio = stat("cache_hits") / (stat("cache_hits") + stat("cache_misses"));
    let mut out = Outcome {
        peak_rss_mb,
        native: vec![
            ("warmup_rss_mb", median(&warmup_rss), "MB"),
            ("req_p50_ms", median(&all_reads), "ms"),
            ("req_p99_ms", quantile(&all_reads, 0.99), "ms"),
            ("req_per_s", done.len() as f64 / busy.as_secs_f64(), "1/s"),
            ("reads", all_reads.len() as f64, "count"),
            ("ecos", ecos_sent as f64, "count"),
            (
                "repeat_share",
                repeats as f64 / all_reads.len() as f64,
                "ratio",
            ),
            ("cache_hit_ratio", cache_hit_ratio, "ratio"),
        ],
        ..Outcome::default()
    };
    if ctx.trace {
        let mut layers = Layers::new();
        layers.set("serve.cache_hit_ratio", cache_hit_ratio);
        layers.set("serve.queue_depth_hwm", stat("queue_depth_hwm"));
        layers.set("serve.barrier_waits", stat("barrier_waits"));
        let bytes: f64 = done.iter().map(|d| d.resp.len() as f64).sum();
        layers.set("serve.response_bytes", bytes / done.len() as f64);
        replay(
            ctx,
            &design,
            &top,
            &clients,
            &done,
            &mut layers,
            median(&all_reads),
        )?;
        layers.set("host.calib_ms", ctx.calib.run_ms());
        out.layers = layers.finish();
    }
    out.answers = vec![(
        "initial_delay".into(),
        J::Int(initial_delay.expect("spawned")),
    )];
    Ok(out)
}

/// Calibration samples while the daemon is idle.
fn pause(ctx: &mut Ctx) {
    for _ in 0..CALIB_PER_PAUSE {
        ctx.calib.sample();
    }
}

/// One client's share of a segment: a closed loop over its requests.
fn drive(
    conn: &mut Conn,
    client: usize,
    reqs: &[Req],
    range: std::ops::Range<usize>,
) -> Result<Vec<Done>, String> {
    let mut out = Vec::with_capacity(range.len());
    for idx in range {
        let line = format!(r#"{{"id":{idx},{}}}"#, reqs[idx].body);
        let sent = Instant::now();
        let resp = conn
            .call(&line)
            .map_err(|e| format!("client {client} request {idx}: {e}"))?;
        out.push(Done {
            client,
            idx,
            sent,
            got: Instant::now(),
            resp,
        });
    }
    Ok(out)
}

/// The expected answer of one read in one design state.
#[derive(Clone, PartialEq, Debug)]
enum Want {
    Report(i64, Vec<i64>),
    Arrival(i64),
    Slack(i64, i64, i64),
}

fn time_of(j: Option<&J>) -> Option<i64> {
    match j? {
        J::Int(i) => Some(*i),
        J::Str(s) if s == "-inf" => Some(Time::NEG_INF.raw()),
        J::Str(s) if s == "+inf" || s == "inf" => Some(Time::POS_INF.raw()),
        _ => None,
    }
}

/// What a response claims, in `Want` terms.
fn got_of(ask: &Ask, shape: &Shape, r: &J) -> Option<Want> {
    Some(match ask {
        Ask::Report(_) => {
            let outs = r.get("outputs")?;
            let arr: Option<Vec<i64>> =
                shape.outputs.iter().map(|o| time_of(outs.get(o))).collect();
            Want::Report(time_of(r.get("delay"))?, arr?)
        }
        Ask::Delay(..) | Ask::WhatIf(..) => Want::Arrival(time_of(r.get("arrival"))?),
        Ask::Slack(..) => Want::Slack(
            time_of(r.get("arrival"))?,
            time_of(r.get("required"))?,
            time_of(r.get("slack"))?,
        ),
        Ask::Eco(_) => Want::Arrival(time_of(r.get("delay"))?),
    })
}

/// Checks every response against fresh in-process analyses of the design
/// states the ECO sequence produces. A read that overlapped an ECO may
/// have been answered in either state.
fn check_all(
    ctx: &mut Ctx,
    design: &Design,
    top: &str,
    shape: &Shape,
    clients: &[Vec<Req>; 2],
    ecos: &[Eco],
    done: &[Done],
) -> Result<(), String> {
    // ECO k's send/receive instants, in order.
    let mut eco_times: Vec<(Instant, Instant)> = done
        .iter()
        .filter(|d| matches!(clients[d.client][d.idx].ask, Ask::Eco(_)))
        .map(|d| (d.sent, d.got))
        .collect();
    eco_times.sort_by_key(|t| t.0);
    let applied = eco_times.len();
    let mut states = vec![design.clone()];
    for e in &ecos[..applied] {
        let mut next = states.last().expect("state").clone();
        let mut leaf = next.leaf(&e.module).expect("leaf").clone();
        let net = leaf.find_net(&e.gate).expect("net");
        let gid = leaf.driver(net).expect("driver");
        leaf.set_gate_delay(gid, e.delay);
        next.replace_leaf(leaf).map_err(|e| e.to_string())?;
        states.push(next);
    }
    let db = ctx.work.join("checker-models");
    let _ = fs::remove_dir_all(&db);
    let config = AnalysisConfig::default()
        .with_threads(THREADS)
        .with_use_models(&db)
        .with_emit_models(&db);
    let mut analyzers: Vec<Option<HierAnalyzer>> = (0..states.len()).map(|_| None).collect();
    let mut memo: HashMap<(usize, String), Want> = HashMap::new();
    let mut want = |k: usize, req: &Req| -> Result<Want, String> {
        if let Some(w) = memo.get(&(k, req.body.clone())) {
            return Ok(w.clone());
        }
        let arrivals = |arr: &[(usize, i64)], n: usize| {
            let mut v = vec![Time::ZERO; n];
            for &(i, t) in arr {
                v[i] = Time::new(t);
            }
            v
        };
        let w = if let Ask::WhatIf(m, o, a) = &req.ask {
            let leaf: &Netlist = states[k].leaf(m).expect("leaf");
            let arr = arrivals(a, leaf.inputs().len());
            let mut an = DelayAnalyzer::new_sat(leaf, &arr).map_err(|e| e.to_string())?;
            Want::Arrival(an.output_arrival(leaf.find_net(o).expect("net")).raw())
        } else {
            if analyzers[k].is_none() {
                analyzers[k] = Some(
                    HierAnalyzer::with_config(&states[k], top, &config)
                        .map_err(|e| e.to_string())?,
                );
            }
            let hier = analyzers[k].as_mut().expect("built");
            let a = match &req.ask {
                Ask::Report(a) | Ask::Delay(_, a) | Ask::Slack(_, a) => a.clone(),
                _ => Vec::new(),
            };
            let an = hier
                .analyze(&arrivals(&a, shape.inputs.len()))
                .map_err(|e| e.to_string())?;
            match &req.ask {
                Ask::Report(_) => Want::Report(
                    an.delay.raw(),
                    an.output_arrivals.iter().map(|t| t.raw()).collect(),
                ),
                Ask::Delay(o, _) => Want::Arrival(an.output_arrivals[*o].raw()),
                Ask::Slack(net, _) => {
                    let id = states[k]
                        .composite(top)
                        .expect("top")
                        .find_net(net)
                        .expect("net");
                    let at = an.net_arrivals[id.index()];
                    Want::Slack(at.raw(), an.delay.raw(), (an.delay - at).raw())
                }
                Ask::Eco(_) => Want::Arrival(an.delay.raw()),
                Ask::WhatIf(..) => unreachable!(),
            }
        };
        memo.insert((k, req.body.clone()), w.clone());
        Ok(w)
    };
    for d in done {
        let req = &clients[d.client][d.idx];
        // States this answer may reflect: ECOs finished before it was
        // sent are in; ECOs sent after it came back are out.
        let (lo, hi) = match req.ask {
            Ask::Eco(k) => (k + 1, k + 1),
            _ => (
                eco_times.iter().filter(|e| e.1 < d.sent).count(),
                eco_times.iter().filter(|e| e.0 < d.got).count(),
            ),
        };
        let r = match parse_json(&d.resp) {
            Ok(r) => r,
            Err(e) => {
                ctx.check(false, || format!("unparsable response {}: {e}", d.resp));
                continue;
            }
        };
        let ok = matches!(r.get("ok"), Some(J::Bool(true)))
            && matches!(r.get("degraded"), Some(J::Bool(false)));
        let eco_ok = match req.ask {
            Ask::Eco(_) => matches!(r.get("recharacterized"), Some(J::Int(1))),
            _ => true,
        };
        let got = got_of(&req.ask, shape, &r);
        let mut matched = false;
        for k in lo..=hi {
            if got.as_ref() == Some(&want(k, req)?) {
                matched = true;
                break;
            }
        }
        ctx.check(ok && eco_ok && matched, || {
            format!(
                "client {} request {} ({}): states {lo}..={hi}, got {}",
                d.client,
                d.idx,
                req.ask.kind(),
                d.resp
            )
        });
    }
    Ok(())
}

/// Traced step: replays the transcript in process through
/// `parse_request`, `ServeSession::dispatch` and `Response::encode`,
/// once untraced and once with spans and the program's `TraceSink`.
fn replay(
    ctx: &mut Ctx,
    design: &Design,
    top: &str,
    clients: &[Vec<Req>; 2],
    done: &[Done],
    layers: &mut Layers,
    client_p50_ms: f64,
) -> Result<(), String> {
    let mut order: Vec<&Done> = done.iter().collect();
    order.sort_by_key(|d| d.sent);
    let lines: Vec<(String, &'static str)> = order
        .iter()
        .map(|d| {
            let r = &clients[d.client][d.idx];
            (format!(r#"{{"id":{},{}}}"#, d.idx, r.body), r.ask.kind())
        })
        .collect();
    let mut totals = [0.0f64; 2];
    for (pass, total) in totals.iter_mut().enumerate() {
        let traced = pass == 1;
        let sink = if traced {
            TraceSink::enabled()
        } else {
            TraceSink::disabled()
        };
        let config = AnalysisConfig::default()
            .with_threads(THREADS)
            .with_trace(sink.clone());
        let mut session =
            ServeSession::new(design.clone(), top, &config).map_err(|e| e.to_string())?;
        session.warm().map_err(|e| e.to_string())?;
        let mut per_kind: HashMap<&'static str, Vec<f64>> = HashMap::new();
        let (mut decode, mut encode, mut whole) = (Vec::new(), Vec::new(), Vec::new());
        for (k, (line, kind)) in lines.iter().enumerate() {
            let t0 = Instant::now();
            let req = parse_request(line).map_err(|(_, e)| e)?;
            let t1 = Instant::now();
            let (resp, _) = session.dispatch(&req);
            let t2 = Instant::now();
            let text = resp.encode();
            let t3 = Instant::now();
            std::hint::black_box(text);
            if traced {
                ctx.spans.record("serve.decode", t0, t1, k as u64);
                ctx.spans.record("serve.dispatch", t1, t2, k as u64);
                ctx.spans.record("serve.encode", t2, t3, k as u64);
            }
            let us = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e6;
            decode.push(us(t0, t1));
            per_kind.entry(kind).or_default().push(us(t1, t2));
            encode.push(us(t2, t3));
            if *kind != "eco" {
                whole.push(us(t0, t3));
            }
            *total += us(t0, t3);
        }
        if traced {
            layers.set(
                "core.modules_characterized",
                session.characterizations() as f64,
            );
            layers.set("serve.decode_us", median(&decode));
            layers.set("serve.encode_us", median(&encode));
            for (kind, metric) in [
                ("report", "serve.dispatch_us.report"),
                ("delay", "serve.dispatch_us.delay"),
                ("slack", "serve.dispatch_us.slack"),
                ("whatif", "serve.dispatch_us.whatif"),
                ("eco", "serve.dispatch_us.eco"),
            ] {
                layers.set(metric, per_kind.get(kind).map_or(0.0, |v| median(v)));
            }
            layers.set("serve.transport_us", client_p50_ms * 1e3 - median(&whole));
            layers.folded(&sink.drain().folded_stacks(), lines.len() as f64);
        }
    }
    layers.set(
        "trace.overhead_pct",
        (totals[1] - totals[0]) / totals[0] * 100.0,
    );
    Ok(())
}
