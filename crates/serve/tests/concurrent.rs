//! Socket-level concurrency tests for [`serve_unix_socket`]: N
//! concurrent clients replaying shuffled transcript slices must each
//! receive a response stream byte-identical to a serial
//! single-connection replay of their slice; hostile clients —
//! disconnecting mid-request, sending oversized lines — must never
//! poison their neighbours; ECO edits run behind the write barrier and
//! are either fully visible or fully invisible to concurrent readers.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use hfta_fta::AnalysisConfig;
use hfta_netlist::gen::{carry_skip_adder, CsaDelays};
use hfta_netlist::GateId;
use hfta_sched::Scheduler;
use hfta_serve::{serve_unix_socket, Action, ServeCounters, ServeSession};
use hfta_testkit::{from_fn_with_shrink, prop, Rng, Strategy};
use hfta_trace::TraceSink;

fn seed_strategy() -> impl Strategy<Value = u64> {
    from_fn_with_shrink(
        |rng: &mut Rng| rng.gen_range(0u64..1_000_000),
        |s: &u64| if *s == 0 { vec![] } else { vec![0, *s / 2] },
    )
}

/// A warm session over the standard 4-bit/2-block carry-skip adder.
fn session() -> ServeSession {
    let design = carry_skip_adder(4, 2, CsaDelays::default());
    let mut s = ServeSession::new(design, "csa4.2", &AnalysisConfig::default()).unwrap();
    s.warm().unwrap();
    s
}

/// The serial oracle: replays `lines` one at a time through an
/// in-memory session — exactly what a single-connection client with no
/// neighbours would get.
fn serial_replay(session: &mut ServeSession, lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .map(|line| {
            let (resp, action) = session.handle_line(line);
            assert_eq!(
                action,
                Action::Continue,
                "oracle must not shut down: {line}"
            );
            resp.expect("every request line is answered")
        })
        .collect()
}

/// A daemon running [`serve_unix_socket`] on its own thread and socket
/// path; the session comes back out at shutdown for counter checks.
struct Daemon {
    path: PathBuf,
    handle: thread::JoinHandle<ServeSession>,
}

static NEXT_SOCKET: AtomicUsize = AtomicUsize::new(0);

fn spawn_daemon(mut session: ServeSession, threads: usize) -> Daemon {
    let path = std::env::temp_dir().join(format!(
        "hfta-serve-test-{}-{}.sock",
        std::process::id(),
        NEXT_SOCKET.fetch_add(1, Ordering::Relaxed)
    ));
    let handle = {
        let path = path.clone();
        thread::spawn(move || {
            let pool = (threads > 1).then(|| Scheduler::new(threads));
            serve_unix_socket(&mut session, &path, pool.as_ref(), &TraceSink::disabled())
                .expect("daemon serves");
            session
        })
    };
    Daemon { path, handle }
}

impl Daemon {
    /// Connects, retrying until the daemon thread has bound the socket.
    fn connect(&self) -> UnixStream {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match UnixStream::connect(&self.path) {
                Ok(stream) => return stream,
                Err(_) if Instant::now() < deadline => thread::sleep(Duration::from_millis(2)),
                Err(e) => panic!("daemon socket never came up: {e}"),
            }
        }
    }

    /// Sends `shutdown` on a fresh connection, joins the daemon thread
    /// and returns the final counters.
    fn shutdown(self) -> ServeCounters {
        self.shutdown_with_reply().0
    }

    /// [`Daemon::shutdown`], also returning the reply line as received
    /// (empty when the daemon hung up without answering).
    fn shutdown_with_reply(self) -> (ServeCounters, String) {
        let mut conn = self.connect();
        writeln!(conn, r#"{{"id":"bye","kind":"shutdown"}}"#).expect("shutdown writes");
        let mut line = String::new();
        let _ = BufReader::new(&conn).read_line(&mut line);
        let session = self.handle.join().expect("daemon thread panicked");
        (session.counters(), line)
    }
}

/// Pipelines every request, then reads exactly one response per
/// request (the per-connection FIFO contract).
fn exchange(conn: &mut UnixStream, lines: &[String]) -> Vec<String> {
    let mut reader = BufReader::new(conn.try_clone().expect("stream clones"));
    for line in lines {
        conn.write_all(line.as_bytes()).unwrap();
        conn.write_all(b"\n").unwrap();
    }
    conn.flush().unwrap();
    lines
        .iter()
        .map(|_| {
            let mut resp = String::new();
            let n = reader.read_line(&mut resp).expect("daemon answers");
            assert!(n > 0, "daemon hung up before answering");
            while resp.ends_with('\n') {
                resp.pop();
            }
            resp
        })
        .collect()
}

/// A mixed transcript hitting every read-only kind (`stats` excluded:
/// its counters legitimately depend on interleaving).
fn request_pool() -> Vec<String> {
    let mut pool = Vec::new();
    let mut id = 0;
    for k in 0..4i64 {
        pool.push(format!(
            r#"{{"id":{id},"kind":"report","arrivals":{{"c_in":{k}}}}}"#
        ));
        id += 1;
        pool.push(format!(
            r#"{{"id":{id},"kind":"delay","output":"s3","arrivals":{{"a0":{k}}}}}"#
        ));
        id += 1;
        pool.push(format!(
            r#"{{"id":{id},"kind":"slack","net":"c4","required":{}}}"#,
            10 + k
        ));
        id += 1;
        pool.push(format!(
            r#"{{"id":{id},"kind":"whatif","module":"csa_block2","output":"c_out","arrivals":{{"c_in":{k}}}}}"#
        ));
        id += 1;
    }
    pool
}

// The determinism pin from the issue: shuffle a mixed transcript, deal
// it to 4 concurrent clients over a real unix socket (sharded pool
// active), and require every connection's stream to be byte-identical
// to the serial single-connection replay of its slice.
prop!(cases = 4, fn concurrent_clients_match_serial_replay(seed in seed_strategy()) {
    const CLIENTS: usize = 4;
    let mut requests = request_pool();
    let mut rng = Rng::seed_from_u64(seed);
    for i in (1..requests.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        requests.swap(i, j);
    }
    let slice_len = requests.len() / CLIENTS;
    let slices: Vec<Vec<String>> = requests.chunks(slice_len).map(<[String]>::to_vec).collect();

    let mut oracle = session();
    let expected: Vec<Vec<String>> = slices
        .iter()
        .map(|slice| serial_replay(&mut oracle, slice))
        .collect();

    let daemon = spawn_daemon(session(), 3);
    let results: Vec<Vec<String>> = thread::scope(|scope| {
        let handles: Vec<_> = slices
            .iter()
            .map(|slice| {
                let daemon = &daemon;
                scope.spawn(move || exchange(&mut daemon.connect(), slice))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    for (k, (got, want)) in results.iter().zip(&expected).enumerate() {
        assert_eq!(got, want, "connection {k} diverged from serial replay (seed {seed})");
    }

    let counters = daemon.shutdown();
    assert_eq!(counters.connections_accepted, CLIENTS as u64 + 1);
    assert_eq!(counters.connections_active, 0);
    assert!(counters.queue_depth_hwm >= 1);
    assert_eq!(counters.errors, 0);
});

/// One client hanging up mid-request (and another vanishing before
/// reading its answer) must not disturb a third connection's answers.
#[test]
fn mid_request_disconnect_does_not_poison_other_connections() {
    let mut oracle = session();
    let good = vec![r#"{"id":"g","kind":"report"}"#.to_string()];
    let want = serial_replay(&mut oracle, &good);

    let daemon = spawn_daemon(session(), 1);

    // Half a request — no trailing newline — then hang up.
    let mut victim = daemon.connect();
    victim.write_all(br#"{"id":"bad","kind":"rep"#).unwrap();
    victim.flush().unwrap();
    drop(victim);

    // A complete request whose answer nobody will ever read.
    let mut ghost = daemon.connect();
    writeln!(ghost, r#"{{"id":"ghost","kind":"report"}}"#).unwrap();
    ghost.flush().unwrap();
    drop(ghost);

    let got = exchange(&mut daemon.connect(), &good);
    assert_eq!(got, want, "good query after a neighbour's disconnect");

    let counters = daemon.shutdown();
    assert_eq!(counters.connections_accepted, 4);
    assert_eq!(counters.connections_active, 0);
}

/// An oversized line gets a structured error and the *same* connection
/// keeps answering — byte-identically — afterwards.
#[test]
fn oversized_line_is_rejected_but_connection_survives() {
    let mut served = session();
    served.set_max_line(128);
    let mut oracle = session();
    let good = r#"{"id":"after","kind":"delay","output":"s3"}"#.to_string();
    let want = serial_replay(&mut oracle, std::slice::from_ref(&good));

    let daemon = spawn_daemon(served, 1);
    let mut conn = daemon.connect();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let huge = format!(
        "{{\"id\":1,\"kind\":\"report\",\"pad\":\"{}\"}}\n",
        "x".repeat(1 << 12)
    );
    conn.write_all(huge.as_bytes()).unwrap();
    conn.flush().unwrap();
    let mut first = String::new();
    reader.read_line(&mut first).unwrap();
    assert!(first.contains("exceeds 128 bytes"), "{first}");

    conn.write_all(good.as_bytes()).unwrap();
    conn.write_all(b"\n").unwrap();
    conn.flush().unwrap();
    let mut second = String::new();
    reader.read_line(&mut second).unwrap();
    assert_eq!(
        second.trim_end_matches('\n'),
        want[0],
        "good query after bad"
    );

    drop((conn, reader));
    let counters = daemon.shutdown();
    assert!(counters.errors >= 1, "{counters:?}");
}

/// An ECO runs behind the write barrier: the editing connection sees
/// strictly before/after answers in FIFO order, and a concurrent
/// reader only ever sees the pre-edit or post-edit report — never a
/// torn in-between state.
#[test]
fn eco_behind_write_barrier_keeps_reads_coherent() {
    let design = carry_skip_adder(4, 2, CsaDelays::default());
    let leaf = design.leaf("csa_block2").unwrap();
    // Slow down the gate driving c_out: every path to that output runs
    // through it, so the report is guaranteed to change.
    let c_out = *leaf.outputs().last().unwrap();
    let gid = (0..leaf.gate_count())
        .map(GateId::from_index)
        .find(|&g| leaf.gate(g).output == c_out)
        .expect("c_out is gate-driven");
    let gate_net = leaf.net_name(leaf.gate(gid).output).to_string();

    let report = r#"{"id":"r","kind":"report"}"#.to_string();
    let eco = format!(
        r#"{{"id":"e","kind":"eco","module":"csa_block2","gate":"{gate_net}","delay":60}}"#
    );
    let mut oracle = session();
    let pre = serial_replay(&mut oracle, std::slice::from_ref(&report))[0].clone();
    let eco_ok = serial_replay(&mut oracle, std::slice::from_ref(&eco))[0].clone();
    assert!(eco_ok.contains(r#""ok":true"#), "{eco_ok}");
    let post = serial_replay(&mut oracle, std::slice::from_ref(&report))[0].clone();
    assert_ne!(pre, post, "the edit must be visible in reports");

    let daemon = spawn_daemon(session(), 3);
    thread::scope(|scope| {
        let watcher = {
            let daemon = &daemon;
            let report = &report;
            scope.spawn(move || {
                let mut conn = daemon.connect();
                (0..20)
                    .map(|_| exchange(&mut conn, std::slice::from_ref(report)).remove(0))
                    .collect::<Vec<String>>()
            })
        };
        let got = exchange(
            &mut daemon.connect(),
            &[report.clone(), eco.clone(), report.clone()],
        );
        assert_eq!(
            got[0], pre,
            "read queued before the ECO sees the old design"
        );
        assert!(got[1].contains(r#""ok":true"#), "{}", got[1]);
        assert_eq!(
            got[2], post,
            "read queued after the ECO sees the new design"
        );
        for seen in watcher.join().expect("watcher panicked") {
            assert!(
                seen == pre || seen == post,
                "torn read during concurrent ECO: {seen}"
            );
        }
    });

    let counters = daemon.shutdown();
    assert_eq!(counters.eco_edits, 1);
    assert_eq!(counters.connections_active, 0);
}

/// Stopping the daemon ends its reads but never a write already queued:
/// with busy threads competing for the CPU, every run must still
/// deliver the reply to `shutdown` before the streams close.
#[test]
fn shutdown_reply_survives_a_busy_host() {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    let stop = Arc::new(AtomicBool::new(false));
    let busy: Vec<_> = (0..2)
        .map(|_| {
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut x = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005) | 1);
                }
            })
        })
        .collect();
    let lost = (0..100)
        .filter(|_| {
            let (_, reply) = spawn_daemon(session(), 1).shutdown_with_reply();
            !reply.contains(r#""ok":true"#)
        })
        .count();
    stop.store(true, Ordering::Relaxed);
    for b in busy {
        b.join().expect("busy thread panicked");
    }
    assert_eq!(lost, 0, "{lost} of 100 shutdown replies lost");
}
