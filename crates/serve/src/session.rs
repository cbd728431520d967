//! The warm analysis session behind the daemon.
//!
//! [`ServeSession`] owns an [`IncrementalAnalyzer`] (which owns the
//! design and its leaf-model table, shared cone-signature cache
//! included) plus one persistent [`StabilityOracle`] per leaf module
//! touched by a what-if query. Every request is one method call; every
//! answer is a deterministic single-line JSON string. The session is
//! serial: its warm-up and ECO re-characterizations run inline, and a
//! worker pool only shards read-only batches (DESIGN.md, "Concurrent
//! serving").
//!
//! Cache-warmth invariants (also tabulated in DESIGN.md):
//!
//! * a malformed or semantically invalid request mutates **nothing** —
//!   the next good request answers bit-identically to a fresh analysis;
//! * a per-request deadline rides the solver budget: on expiry the
//!   answer degrades soundly (`"degraded":true`) and, because the
//!   session restores its base budget after the request, which evicts
//!   every degraded model, later un-deadlined requests recompute
//!   exactly;
//! * an ECO edit invalidates exactly the edited module: its model
//!   (by content hash) and its what-if oracle; all other warm state
//!   survives.
//!
//! The session splits along a read/write seam. Once every module model
//! is warm, [`ServeSession::read_view`] hands out a [`ReadView`] —
//! an `Arc`-shared, immutable core (a [`WarmSnapshot`] of the design
//! plus the contention-safe response cache) that answers
//! `report`/`delay`/`slack` byte-identically to the exclusive path
//! from any thread. Everything that mutates (`eco`, oracle state,
//! booked counters) stays on the exclusive writer half behind
//! `&mut ServeSession`; an ECO drops the view and the next read
//! rebuilds it from the re-warmed analyzer.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hfta_core::{HierAnalysis, IncrementalAnalyzer, WarmSnapshot};
use hfta_fta::{AnalysisConfig, SatAlg, SolveBudget, StabilityOracle};
use hfta_netlist::{bench_format, Composite, Design, NetId, Netlist, NetlistError, Time};
use hfta_trace::{TraceSink, Value};

use crate::json::{Json, ObjBuilder};
use crate::protocol::{
    parse_request, time_to_json, Arrivals, EcoEdit, Request, RequestKind, Response,
};

/// Default cap on one request line (bytes). Oversized lines are
/// answered with a structured error and skipped without buffering.
pub const DEFAULT_MAX_LINE: usize = 1 << 20;

/// What the server loop should do after a response.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Action {
    /// Keep serving.
    Continue,
    /// Stop cleanly (a `shutdown` request was answered).
    Shutdown,
}

/// A persistent per-module stability oracle, tagged with the content
/// hash of the leaf it encodes.
#[derive(Debug)]
pub(crate) struct ModuleOracle {
    oracle: StabilityOracle,
    /// Content hash of the leaf this oracle encodes; an ECO bumps the
    /// hash and retires the oracle.
    hash: u64,
}

impl ModuleOracle {
    /// Builds the oracle: one incremental instance for every output of
    /// the module, each probe domain-restricted to its output's
    /// transitive fanin ([`SatAlg::new_shared`]). Each what-if sets
    /// its own budget, which only caps the probes it runs.
    fn new(leaf: &Netlist) -> Result<ModuleOracle, NetlistError> {
        let zeros = vec![Time::ZERO; leaf.inputs().len()];
        let oracle = StabilityOracle::new(leaf.clone(), &zeros, SatAlg::new_shared())?;
        Ok(ModuleOracle {
            oracle,
            hash: leaf.content_hash(),
        })
    }
}

/// A what-if query resolved to raw analyzer inputs, ready to run on
/// any thread that holds the module's oracle.
#[derive(Clone, PartialEq, Debug)]
pub(crate) struct PreparedWhatIf {
    pub(crate) id: Json,
    pub(crate) module: String,
    pub(crate) output: String,
    pub(crate) net: NetId,
    pub(crate) arrivals: Vec<Time>,
    pub(crate) budget: SolveBudget,
}

impl PreparedWhatIf {
    /// Runs the query against `oracle` and builds the typed response.
    pub(crate) fn run(&self, oracle: &mut ModuleOracle) -> Response {
        let oracle = &mut oracle.oracle;
        oracle.set_budget(self.budget);
        oracle.set_arrivals(&self.arrivals);
        let (arrival, degraded) = oracle.output_arrival(self.net);
        Response::ok(
            &self.id,
            "whatif",
            vec![
                ("module".to_string(), Json::Str(self.module.clone())),
                ("output".to_string(), Json::Str(self.output.clone())),
                ("arrival".to_string(), time_to_json(arrival)),
                ("degraded".to_string(), Json::Bool(degraded)),
            ],
        )
    }
}

/// Session counters reported by the `stats` request (a point-in-time
/// snapshot assembled by [`ServeSession::counters`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ServeCounters {
    /// Requests answered (including errors).
    pub requests: u64,
    /// Requests answered with `"ok":false`.
    pub errors: u64,
    /// What-if queries served by persistent oracles.
    pub whatif_queries: u64,
    /// ECO edits applied.
    pub eco_edits: u64,
    /// Query responses replayed from the arrivals-keyed response cache
    /// (only unlimited-budget, deadline-free requests are eligible).
    pub cache_hits: u64,
    /// Eligible query responses that had to be computed.
    pub cache_misses: u64,
    /// Unix-socket connections accepted over the daemon's life.
    pub connections_accepted: u64,
    /// Unix-socket connections currently open.
    pub connections_active: u64,
    /// High-water mark of the bounded multi-client request queue.
    pub queue_depth_hwm: u64,
    /// Mutating requests (`eco`/`shutdown`) that drained earlier
    /// requests out of their batch before running (write barrier).
    pub barrier_waits: u64,
}

/// The subset of counters booked serially on the writer half (one
/// increment per answered request, on the dispatcher thread).
#[derive(Clone, Copy, Debug, Default)]
struct Booked {
    requests: u64,
    errors: u64,
    whatif_queries: u64,
    eco_edits: u64,
}

/// Connection/queue counters shared with the socket server's accept
/// and reader threads (lock-free; exact totals, relaxed ordering).
#[derive(Debug, Default)]
pub(crate) struct ConnCounters {
    pub(crate) accepted: AtomicU64,
    pub(crate) active: AtomicU64,
    pub(crate) queue_depth_hwm: AtomicU64,
    pub(crate) barrier_waits: AtomicU64,
}

impl ConnCounters {
    /// Raises the queue high-water mark to at least `depth`.
    pub(crate) fn note_queue_depth(&self, depth: u64) {
        self.queue_depth_hwm.fetch_max(depth, Ordering::Relaxed);
    }
}

/// Cap on the arrivals-keyed response cache — a full cache skips
/// inserts (never evicts: hit entries stay bit-stable for the
/// session's life).
const RESPONSE_CACHE_CAP: usize = 4096;

/// Key of one cached query response: the request kind plus every input
/// that determines the answer (resolved arrival vectors, so named and
/// positional payloads that mean the same condition share an entry).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum ResponseKey {
    Report {
        arrivals: Vec<Time>,
    },
    Delay {
        output: String,
        arrivals: Vec<Time>,
    },
    Slack {
        net: String,
        required: Option<Time>,
        arrivals: Vec<Time>,
    },
}

impl ResponseKey {
    /// The resolved arrival vector the answer is computed under.
    fn arrivals(&self) -> &[Time] {
        match self {
            ResponseKey::Report { arrivals }
            | ResponseKey::Delay { arrivals, .. }
            | ResponseKey::Slack { arrivals, .. } => arrivals,
        }
    }
}

/// The arrivals-keyed response cache, contention-safe so sharded read
/// workers and the exclusive writer half share one instance. Entries
/// are deterministic functions of their key, so a racing double-insert
/// stores the same bytes either way.
#[derive(Debug, Default)]
struct ResponseCache {
    map: Mutex<HashMap<ResponseKey, Vec<(String, Json)>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResponseCache {
    /// Cache probe for an eligible request (books a hit or miss);
    /// ineligible requests bypass the cache without touching counters.
    fn lookup(&self, key: &ResponseKey, eligible: bool) -> Option<Vec<(String, Json)>> {
        if !eligible {
            return None;
        }
        let map = self.map.lock().expect("response cache poisoned");
        match map.get(key) {
            Some(fields) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(fields.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a computed response unless the cache is full.
    fn insert(&self, key: ResponseKey, fields: &[(String, Json)]) {
        let mut map = self.map.lock().expect("response cache poisoned");
        if map.len() < RESPONSE_CACHE_CAP {
            map.insert(key, fields.to_vec());
        }
    }

    /// Drops every entry (ECO invalidation).
    fn clear(&self) {
        self.map.lock().expect("response cache poisoned").clear();
    }
}

/// The top-level composite's name and port names, shared by the session
/// and its read views.
#[derive(Debug)]
struct Ports {
    top: String,
    /// Primary-input names, in input order.
    input_names: Vec<String>,
    /// Primary-output names, in output order.
    output_names: Vec<String>,
}

/// Whether `request`'s response may come from (and feed) the response
/// cache: the session's base budget must be unlimited and the request
/// deadline-free (its own or the session default), so the answer is a
/// pure function of the cache key. Budgeted/deadlined answers can
/// degrade and depend on solver history — they are never cached or
/// replayed.
fn cache_eligible(
    base_unlimited: bool,
    default_deadline_ms: Option<u64>,
    request: &Request,
) -> bool {
    base_unlimited && request.deadline_ms.or(default_deadline_ms).is_none()
}

/// Where a read request's analysis comes from: the exclusive path's
/// analyzer, or a read view's snapshot.
trait ReadSource {
    /// The top-level composite (`slack` resolves its net here).
    fn composite(&self) -> &Composite;
    /// The analysis under `arrivals`.
    fn analyze(&mut self, arrivals: &[Time]) -> Result<HierAnalysis, String>;
}

impl ReadSource for &WarmSnapshot {
    fn composite(&self) -> &Composite {
        WarmSnapshot::composite(self)
    }

    fn analyze(&mut self, arrivals: &[Time]) -> Result<HierAnalysis, String> {
        WarmSnapshot::analyze(self, arrivals).map_err(|e| e.to_string())
    }
}

/// The exclusive path's source: the session's analyzer, under the
/// request's budget.
struct Exclusive<'a> {
    analyzer: &'a mut IncrementalAnalyzer,
    top: &'a str,
    base_budget: SolveBudget,
    deadline_ms: Option<u64>,
}

impl ReadSource for Exclusive<'_> {
    fn composite(&self) -> &Composite {
        self.analyzer
            .design()
            .composite(self.top)
            .expect("validated by the analyzer constructor")
    }

    fn analyze(&mut self, arrivals: &[Time]) -> Result<HierAnalysis, String> {
        analyze_under(self.analyzer, self.base_budget, self.deadline_ms, arrivals)
    }
}

/// The budget one request runs under: the base budget, tightened by the
/// request's (or the session's default) deadline.
fn budget_for(base: SolveBudget, deadline_ms: Option<u64>) -> SolveBudget {
    match deadline_ms {
        Some(ms) => base.with_deadline(Instant::now() + Duration::from_millis(ms)),
        None => base,
    }
}

/// Runs one top-level analysis under a request's budget, then restores
/// the base budget. Each budget change evicts the degraded models the
/// last one left; undegraded models and the signature cache survive.
fn analyze_under(
    analyzer: &mut IncrementalAnalyzer,
    base: SolveBudget,
    deadline_ms: Option<u64>,
    arrivals: &[Time],
) -> Result<HierAnalysis, String> {
    analyzer.set_budget(budget_for(base, deadline_ms));
    let result = analyzer.analyze(arrivals);
    analyzer.set_budget(base);
    result.map_err(|e| e.to_string())
}

/// Answers one `report`/`delay`/`slack` request from `source`: resolves
/// the request, replays its response from the cache or renders
/// `source`'s analysis, and caches what it rendered when `eligible`. The
/// one body behind the exclusive path and [`ReadView`], so both answer
/// byte-identically.
fn answer_read(
    request: &Request,
    ports: &Ports,
    cache: &ResponseCache,
    eligible: bool,
    source: &mut impl ReadSource,
) -> Result<Response, String> {
    type Render<'r> = Box<dyn Fn(&HierAnalysis) -> Vec<(String, Json)> + 'r>;
    let resolve = |arrivals: &Option<Arrivals>| {
        resolve_arrivals(arrivals.as_ref(), &ports.input_names, &ports.top)
    };
    let (kind, key, render): (&str, ResponseKey, Render<'_>) = match &request.kind {
        RequestKind::Report { arrivals } => (
            "report",
            ResponseKey::Report {
                arrivals: resolve(arrivals)?,
            },
            Box::new(|analysis| report_fields(&ports.output_names, analysis)),
        ),
        RequestKind::Delay { output, arrivals } => {
            let pos = ports
                .output_names
                .iter()
                .position(|n| n == output)
                .ok_or_else(|| format!("no primary output `{output}` in module `{}`", ports.top))?;
            let key = ResponseKey::Delay {
                output: output.clone(),
                arrivals: resolve(arrivals)?,
            };
            (
                "delay",
                key,
                Box::new(move |analysis| delay_fields(output, pos, analysis)),
            )
        }
        RequestKind::Slack {
            net,
            required,
            arrivals,
        } => {
            let net_id = source
                .composite()
                .find_net(net)
                .ok_or_else(|| format!("no net `{net}` in module `{}`", ports.top))?;
            let key = ResponseKey::Slack {
                net: net.clone(),
                required: *required,
                arrivals: resolve(arrivals)?,
            };
            (
                "slack",
                key,
                Box::new(move |analysis| slack_fields(net, net_id, *required, analysis)),
            )
        }
        _ => unreachable!("only report/delay/slack are reads"),
    };
    if let Some(fields) = cache.lookup(&key, eligible) {
        return Ok(Response::ok(&request.id, kind, fields));
    }
    let analysis = source.analyze(key.arrivals())?;
    let fields = render(&analysis);
    // Only fully-warm answers are cached: a response that reports
    // `characterized > 0` would replay that stale counter. (A view's
    // snapshot never characterizes.)
    if eligible && analysis.stats.modules_characterized == 0 {
        cache.insert(key, &fields);
    }
    Ok(Response::ok(&request.id, kind, fields))
}

/// The shared read-only core of a fully-warm session: a detached
/// [`WarmSnapshot`] plus everything needed to answer
/// `report`/`delay`/`slack` byte-identically to the exclusive path —
/// from any thread, concurrently. Handed out by
/// [`ServeSession::read_view`] only when every module model is warm and
/// undegraded, which is exactly when those answers involve no solver
/// work (pure propagation: `characterized` is 0 and nothing can
/// degrade).
#[derive(Debug)]
pub(crate) struct ReadView {
    ports: Arc<Ports>,
    snapshot: WarmSnapshot,
    /// Whether the session's base budget is unlimited (the static half
    /// of response-cache eligibility).
    cache_base: bool,
    default_deadline_ms: Option<u64>,
    cache: Arc<ResponseCache>,
}

impl ReadView {
    /// Answers one read-only request. Panics on any other kind — the
    /// dispatcher routes only `report`/`delay`/`slack` here.
    pub(crate) fn respond(&self, request: &Request) -> Response {
        let eligible = cache_eligible(self.cache_base, self.default_deadline_ms, request);
        answer_read(
            request,
            &self.ports,
            &self.cache,
            eligible,
            &mut &self.snapshot,
        )
        .unwrap_or_else(|message| Response::error(&request.id, message))
    }
}

/// One warm, long-lived analysis session: the daemon's state.
#[derive(Debug)]
pub struct ServeSession {
    analyzer: IncrementalAnalyzer,
    ports: Arc<Ports>,
    base_budget: SolveBudget,
    /// Deadline applied to requests that don't carry their own.
    default_deadline_ms: Option<u64>,
    oracles: HashMap<String, ModuleOracle>,
    /// Arrivals-keyed response cache: response fields (everything after
    /// the echoed id) of previously answered queries. Only filled and
    /// consulted for unlimited-budget, deadline-free requests — those
    /// answers are deterministic functions of the key, so a replay is
    /// byte-identical to a recompute. An ECO clears it wholesale.
    /// Shared (`Arc`) with every outstanding [`ReadView`].
    cache: Arc<ResponseCache>,
    /// Lazily built shared read core; dropped on anything that could
    /// change read answers (ECO, default-deadline change) and rebuilt
    /// from the analyzer the next time it is fully warm.
    view: Option<Arc<ReadView>>,
    /// Connection/queue counters shared with the socket server.
    conn: Arc<ConnCounters>,
    trace: TraceSink,
    max_line: usize,
    booked: Booked,
}

impl ServeSession {
    /// Builds a session for module `top` of `design`, wiring budgets,
    /// model databases and the trace sink from `config`.
    ///
    /// # Errors
    ///
    /// Same as [`IncrementalAnalyzer::with_config`]: validation
    /// failures, a missing/non-composite top, non-leaf instances, and
    /// I/O errors opening the emit model database.
    pub fn new(design: Design, top: &str, config: &AnalysisConfig) -> Result<Self, NetlistError> {
        let analyzer = IncrementalAnalyzer::with_config(design, top, config)?;
        let composite = analyzer
            .design()
            .composite(top)
            .expect("validated by the analyzer constructor");
        let input_names = composite
            .inputs()
            .iter()
            .map(|&n| composite.net_name(n).to_string())
            .collect();
        let output_names = composite
            .outputs()
            .iter()
            .map(|&n| composite.net_name(n).to_string())
            .collect();
        Ok(ServeSession {
            analyzer,
            ports: Arc::new(Ports {
                top: top.to_string(),
                input_names,
                output_names,
            }),
            base_budget: config.budget,
            default_deadline_ms: None,
            oracles: HashMap::new(),
            cache: Arc::new(ResponseCache::default()),
            view: None,
            conn: Arc::new(ConnCounters::default()),
            trace: config.trace.clone(),
            max_line: DEFAULT_MAX_LINE,
            booked: Booked::default(),
        })
    }

    /// Sets the deadline applied to requests that don't carry their own
    /// `deadline_ms` (the CLI's `--deadline-ms`). Drops the shared read
    /// view — cache eligibility depends on the default deadline.
    pub fn set_default_deadline_ms(&mut self, ms: Option<u64>) {
        self.default_deadline_ms = ms;
        self.view = None;
    }

    /// Sets the per-line byte cap (protocol hygiene; the server loop
    /// also enforces it while streaming).
    pub fn set_max_line(&mut self, max: usize) {
        self.max_line = max.max(1);
    }

    /// The per-line byte cap.
    #[must_use]
    pub fn max_line(&self) -> usize {
        self.max_line
    }

    /// Session counters so far (a point-in-time snapshot: the serially
    /// booked request counters plus the shared cache and connection
    /// atomics).
    #[must_use]
    pub fn counters(&self) -> ServeCounters {
        ServeCounters {
            requests: self.booked.requests,
            errors: self.booked.errors,
            whatif_queries: self.booked.whatif_queries,
            eco_edits: self.booked.eco_edits,
            cache_hits: self.cache.hits.load(Ordering::Relaxed),
            cache_misses: self.cache.misses.load(Ordering::Relaxed),
            connections_accepted: self.conn.accepted.load(Ordering::Relaxed),
            connections_active: self.conn.active.load(Ordering::Relaxed),
            queue_depth_hwm: self.conn.queue_depth_hwm.load(Ordering::Relaxed),
            barrier_waits: self.conn.barrier_waits.load(Ordering::Relaxed),
        }
    }

    /// The connection/queue counters shared with the socket server's
    /// accept and reader threads.
    pub(crate) fn conn_counters(&self) -> Arc<ConnCounters> {
        Arc::clone(&self.conn)
    }

    /// The shared read-only core, built lazily whenever every module
    /// model is warm (`None` on a cold or degraded session — callers
    /// fall back to the exclusive path). Cloning the `Arc` is cheap;
    /// the view answers read requests from any thread.
    pub(crate) fn read_view(&mut self) -> Option<Arc<ReadView>> {
        if self.view.is_none() {
            let snapshot = self.analyzer.warm_snapshot()?;
            self.view = Some(Arc::new(ReadView {
                ports: Arc::clone(&self.ports),
                snapshot,
                cache_base: self.base_budget.is_unlimited(),
                default_deadline_ms: self.default_deadline_ms,
                cache: Arc::clone(&self.cache),
            }));
        }
        self.view.clone()
    }

    /// Total characterizations across the session (the number a warm
    /// start keeps at zero).
    #[must_use]
    pub fn characterizations(&self) -> u64 {
        self.analyzer.characterizations()
    }

    /// Warms the session: characterizes (or loads from the model
    /// database) every leaf model and runs one all-zero propagation.
    /// The daemon calls this once before serving.
    ///
    /// # Errors
    ///
    /// Returns characterization/propagation errors.
    pub fn warm(&mut self) -> Result<HierAnalysis, NetlistError> {
        let arrivals = vec![Time::ZERO; self.ports.input_names.len()];
        self.analyzer.analyze(&arrivals)
    }

    /// Handles one raw request line, returning the response line (no
    /// trailing newline) and what the server loop should do next.
    /// Empty lines yield no response (`None`). A thin
    /// parse→[`dispatch`](Self::dispatch)→encode wrapper: the JSON
    /// codec lives only at this transport edge.
    pub fn handle_line(&mut self, line: &str) -> (Option<String>, Action) {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return (None, Action::Continue);
        }
        if trimmed.len() > self.max_line {
            let response = self.booked_error(
                &Json::Null,
                format!("request line exceeds {} bytes", self.max_line),
            );
            return (Some(response.encode()), Action::Continue);
        }
        let request = match parse_request(trimmed) {
            Ok(r) => r,
            Err((id, message)) => {
                return (
                    Some(self.booked_error(&id, message).encode()),
                    Action::Continue,
                )
            }
        };
        let (response, action) = self.dispatch(&request);
        (Some(response.encode()), action)
    }

    /// Books a protocol-level error (oversized/unparsable line) into
    /// the counters and builds its typed response.
    pub(crate) fn booked_error(&mut self, id: &Json, message: impl Into<String>) -> Response {
        self.booked.requests += 1;
        self.booked.errors += 1;
        Response::error(id, message)
    }

    /// Answers one typed request: the core of the serve API. Read-only
    /// kinds (`report`/`delay`/`slack`) route through the shared
    /// `ReadView` whenever the session is fully warm — the same code
    /// path sharded pool workers run — so serial and concurrent
    /// execution produce byte-identical responses by construction.
    /// Everything else (and every cold-session request) runs on the
    /// exclusive writer half.
    pub fn dispatch(&mut self, request: &Request) -> (Response, Action) {
        let mut tracer = self.trace.tracer();
        let span = tracer.is_enabled().then(|| tracer.begin("serve_request"));
        let shutdown = matches!(request.kind, RequestKind::Shutdown);
        let result = match &request.kind {
            RequestKind::Report { .. } | RequestKind::Delay { .. } | RequestKind::Slack { .. } => {
                match self.read_view() {
                    Some(view) => Ok(view.respond(request)),
                    None => self.respond_exclusive(request),
                }
            }
            _ => self.respond_exclusive(request),
        };
        let response = result.unwrap_or_else(|message| Response::error(&request.id, message));
        let ok = response.is_ok();
        if let Some(span) = span {
            tracer.end_with(
                span,
                vec![
                    ("kind", Value::from(kind_name(&request.kind))),
                    ("ok", Value::from(ok)),
                ],
            );
        }
        self.trace.absorb(tracer);
        self.booked.requests += 1;
        if !ok {
            self.booked.errors += 1;
        }
        let action = if shutdown && ok {
            Action::Shutdown
        } else {
            Action::Continue
        };
        (response, action)
    }

    /// The writer-half request handlers (also the read fallback while
    /// models are cold or degraded).
    fn respond_exclusive(&mut self, request: &Request) -> Result<Response, String> {
        match &request.kind {
            RequestKind::Report { .. } | RequestKind::Delay { .. } | RequestKind::Slack { .. } => {
                let eligible = cache_eligible(
                    self.base_budget.is_unlimited(),
                    self.default_deadline_ms,
                    request,
                );
                let mut source = Exclusive {
                    analyzer: &mut self.analyzer,
                    top: &self.ports.top,
                    base_budget: self.base_budget,
                    deadline_ms: request.deadline_ms.or(self.default_deadline_ms),
                };
                answer_read(request, &self.ports, &self.cache, eligible, &mut source)
            }
            RequestKind::WhatIf {
                module,
                output,
                arrivals,
            } => self.do_whatif(request, module, output, arrivals),
            RequestKind::Eco { module, edit } => self.do_eco(request, module, edit),
            RequestKind::Stats => Ok(self.do_stats(request)),
            RequestKind::Shutdown => Ok(Response::ok(&request.id, "shutdown", Vec::new())),
        }
    }

    /// Resolves a what-if request against the named leaf module,
    /// ready to run wherever its oracle is.
    pub(crate) fn prepare_whatif(
        &self,
        request: &Request,
        module: &str,
        output: &str,
        arrivals: &Arrivals,
    ) -> Result<PreparedWhatIf, String> {
        let leaf = self
            .analyzer
            .design()
            .leaf(module)
            .ok_or_else(|| format!("no leaf module `{module}` in the design"))?;
        let input_names: Vec<String> = leaf
            .inputs()
            .iter()
            .map(|&n| leaf.net_name(n).to_string())
            .collect();
        let times = resolve_arrivals(Some(arrivals), &input_names, module)?;
        let net = leaf
            .find_net(output)
            .ok_or_else(|| format!("no net `{output}` in module `{module}`"))?;
        Ok(PreparedWhatIf {
            id: request.id.clone(),
            module: module.to_string(),
            output: output.to_string(),
            net,
            arrivals: times,
            budget: budget_for(
                self.base_budget,
                request.deadline_ms.or(self.default_deadline_ms),
            ),
        })
    }

    /// Takes the named module's oracle out of the session (building it
    /// on first use), e.g. to ship it to a pool worker.
    pub(crate) fn checkout_oracle(&mut self, module: &str) -> Result<ModuleOracle, String> {
        let leaf = self
            .analyzer
            .design()
            .leaf(module)
            .ok_or_else(|| format!("no leaf module `{module}` in the design"))?;
        let hash = leaf.content_hash();
        match self.oracles.remove(module) {
            // A stale oracle (the module was ECO-edited while the
            // oracle sat idle) is silently rebuilt.
            Some(oracle) if oracle.hash == hash => Ok(oracle),
            _ => ModuleOracle::new(leaf).map_err(|e| e.to_string()),
        }
    }

    /// Returns an oracle after use.
    pub(crate) fn checkin_oracle(&mut self, module: String, oracle: ModuleOracle) {
        self.oracles.insert(module, oracle);
    }

    /// Number of live per-module oracles.
    #[must_use]
    pub fn oracle_count(&self) -> usize {
        self.oracles.len()
    }

    // What-if answers are deliberately *not* response-cached: repeats
    // are already served warm by the per-module oracle's memo, and the
    // sharded batch path must stay byte-identical (counters included)
    // to serial execution.
    fn do_whatif(
        &mut self,
        request: &Request,
        module: &str,
        output: &str,
        arrivals: &Arrivals,
    ) -> Result<Response, String> {
        let prepared = self.prepare_whatif(request, module, output, arrivals)?;
        let mut oracle = self.checkout_oracle(module)?;
        let response = prepared.run(&mut oracle);
        self.checkin_oracle(module.to_string(), oracle);
        self.booked.whatif_queries += 1;
        Ok(response)
    }

    /// Books a sharded-path response into the counters (the response
    /// itself was computed by a pool worker). Successful what-ifs pass
    /// `whatif = true`.
    pub(crate) fn book(&mut self, ok: bool, whatif: bool) {
        self.booked.requests += 1;
        if !ok {
            self.booked.errors += 1;
        }
        if ok && whatif {
            self.booked.whatif_queries += 1;
        }
    }

    fn do_eco(
        &mut self,
        request: &Request,
        module: &str,
        edit: &EcoEdit,
    ) -> Result<Response, String> {
        let old = self
            .analyzer
            .design()
            .leaf(module)
            .ok_or_else(|| format!("no leaf module `{module}` in the design"))?;
        let edited = match edit {
            EcoEdit::GateDelay { gate, delay } => {
                let mut nl = old.clone();
                let net = nl
                    .find_net(gate)
                    .ok_or_else(|| format!("no net `{gate}` in module `{module}`"))?;
                let gid = nl
                    .driver(net)
                    .ok_or_else(|| format!("net `{gate}` has no driving gate (primary input?)"))?;
                nl.set_gate_delay(gid, *delay);
                nl
            }
            EcoEdit::Replace { bench } => {
                let nl = bench_format::parse(bench, module)
                    .map_err(|e| format!("bad `bench` body: {e}"))?;
                check_same_ports(old, &nl)?;
                nl
            }
        };
        self.analyzer
            .replace_module(edited)
            .map_err(|e| e.to_string())?;
        // The edited module's oracle encodes the old body; retire it.
        self.oracles.remove(module);
        // Invalidation order matters for concurrent readers: drop the
        // view first (no new reads against the old design), then clear
        // the cache (no stale replays), then re-analyze. Outstanding
        // view clones on workers keep answering for the *old* design
        // until the write barrier drains them — which is why the
        // server serializes ECOs behind it.
        self.view = None;
        self.cache.clear();
        self.booked.eco_edits += 1;
        let arrivals = vec![Time::ZERO; self.ports.input_names.len()];
        let deadline_ms = request.deadline_ms.or(self.default_deadline_ms);
        let analysis = analyze_under(&mut self.analyzer, self.base_budget, deadline_ms, &arrivals)?;
        Ok(Response::ok(
            &request.id,
            "eco",
            vec![
                ("module".to_string(), Json::Str(module.to_string())),
                (
                    "recharacterized".to_string(),
                    Json::Num(analysis.stats.modules_characterized as i64),
                ),
                ("delay".to_string(), time_to_json(analysis.delay)),
                (
                    "degraded".to_string(),
                    Json::Bool(analysis.stats.modules_degraded > 0),
                ),
            ],
        ))
    }

    fn do_stats(&self, request: &Request) -> Response {
        let db = self.analyzer.model_db_stats();
        let c = self.counters();
        Response::ok(
            &request.id,
            "stats",
            vec![
                (
                    "characterized".to_string(),
                    Json::Num(self.analyzer.characterizations() as i64),
                ),
                ("model_db_hits".to_string(), Json::Num(db.hits as i64)),
                ("model_db_misses".to_string(), Json::Num(db.misses as i64)),
                ("oracles".to_string(), Json::Num(self.oracles.len() as i64)),
                ("requests".to_string(), Json::Num(c.requests as i64)),
                ("errors".to_string(), Json::Num(c.errors as i64)),
                (
                    "whatif_queries".to_string(),
                    Json::Num(c.whatif_queries as i64),
                ),
                ("eco_edits".to_string(), Json::Num(c.eco_edits as i64)),
                ("cache_hits".to_string(), Json::Num(c.cache_hits as i64)),
                ("cache_misses".to_string(), Json::Num(c.cache_misses as i64)),
                (
                    "connections_accepted".to_string(),
                    Json::Num(c.connections_accepted as i64),
                ),
                (
                    "connections_active".to_string(),
                    Json::Num(c.connections_active as i64),
                ),
                (
                    "queue_depth_hwm".to_string(),
                    Json::Num(c.queue_depth_hwm as i64),
                ),
                (
                    "barrier_waits".to_string(),
                    Json::Num(c.barrier_waits as i64),
                ),
            ],
        )
    }
}

/// `report` response fields, shared verbatim by the exclusive path and
/// [`ReadView`] so both render byte-identical answers.
fn report_fields(output_names: &[String], analysis: &HierAnalysis) -> Vec<(String, Json)> {
    let mut outputs = ObjBuilder::new();
    for (name, &t) in output_names.iter().zip(&analysis.output_arrivals) {
        outputs = outputs.field(name, time_to_json(t));
    }
    vec![
        ("delay".to_string(), time_to_json(analysis.delay)),
        ("outputs".to_string(), outputs.build()),
        (
            "characterized".to_string(),
            Json::Num(analysis.stats.modules_characterized as i64),
        ),
        (
            "degraded".to_string(),
            Json::Bool(analysis.stats.modules_degraded > 0),
        ),
    ]
}

/// `delay` response fields (see [`report_fields`]).
fn delay_fields(output: &str, pos: usize, analysis: &HierAnalysis) -> Vec<(String, Json)> {
    vec![
        ("output".to_string(), Json::Str(output.to_string())),
        (
            "arrival".to_string(),
            time_to_json(analysis.output_arrivals[pos]),
        ),
        (
            "degraded".to_string(),
            Json::Bool(analysis.stats.modules_degraded > 0),
        ),
    ]
}

/// `slack` response fields (see [`report_fields`]).
fn slack_fields(
    net: &str,
    net_id: NetId,
    required: Option<Time>,
    analysis: &HierAnalysis,
) -> Vec<(String, Json)> {
    let arrival = analysis.net_arrivals[net_id.index()];
    let required = required.unwrap_or(analysis.delay);
    vec![
        ("net".to_string(), Json::Str(net.to_string())),
        ("arrival".to_string(), time_to_json(arrival)),
        ("required".to_string(), time_to_json(required)),
        ("slack".to_string(), time_to_json(required - arrival)),
        (
            "degraded".to_string(),
            Json::Bool(analysis.stats.modules_degraded > 0),
        ),
    ]
}

/// Resolves an arrival payload against `input_names` (default 0 for
/// unnamed inputs; positional payloads must cover every input).
fn resolve_arrivals(
    arrivals: Option<&Arrivals>,
    input_names: &[String],
    module: &str,
) -> Result<Vec<Time>, String> {
    match arrivals {
        None => Ok(vec![Time::ZERO; input_names.len()]),
        Some(Arrivals::Named(named)) => {
            let mut times = vec![Time::ZERO; input_names.len()];
            for (name, t) in named {
                let pos = input_names
                    .iter()
                    .position(|n| n == name)
                    .ok_or_else(|| format!("no primary input `{name}` in module `{module}`"))?;
                times[pos] = *t;
            }
            Ok(times)
        }
        Some(Arrivals::Positional(times)) => {
            if times.len() != input_names.len() {
                return Err(format!(
                    "positional arrivals cover {} inputs, module `{module}` has {}",
                    times.len(),
                    input_names.len()
                ));
            }
            Ok(times.clone())
        }
    }
}

/// The ports of an ECO replacement must match the old body exactly
/// (same input/output names in the same order) — the top composite's
/// instances bind by position.
fn check_same_ports(old: &Netlist, new: &Netlist) -> Result<(), String> {
    let names = |nl: &Netlist, nets: &[NetId]| -> Vec<String> {
        nets.iter().map(|&n| nl.net_name(n).to_string()).collect()
    };
    let (oi, ni) = (names(old, old.inputs()), names(new, new.inputs()));
    if oi != ni {
        return Err(format!(
            "replacement inputs {ni:?} do not match the module's {oi:?}"
        ));
    }
    let (oo, no) = (names(old, old.outputs()), names(new, new.outputs()));
    if oo != no {
        return Err(format!(
            "replacement outputs {no:?} do not match the module's {oo:?}"
        ));
    }
    Ok(())
}

pub(crate) fn kind_name(kind: &RequestKind) -> &'static str {
    match kind {
        RequestKind::Report { .. } => "report",
        RequestKind::Delay { .. } => "delay",
        RequestKind::Slack { .. } => "slack",
        RequestKind::WhatIf { .. } => "whatif",
        RequestKind::Eco { .. } => "eco",
        RequestKind::Stats => "stats",
        RequestKind::Shutdown => "shutdown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfta_netlist::gen::{carry_skip_adder, CsaDelays};

    fn session() -> ServeSession {
        let design = carry_skip_adder(4, 2, CsaDelays::default());
        ServeSession::new(design, "csa4.2", &AnalysisConfig::default()).unwrap()
    }

    fn line(s: &mut ServeSession, req: &str) -> String {
        let (resp, action) = s.handle_line(req);
        assert_eq!(action, Action::Continue);
        resp.expect("non-empty line gets a response")
    }

    #[test]
    fn report_matches_direct_analysis() {
        let mut s = session();
        s.warm().unwrap();
        let resp = line(&mut s, r#"{"id":1,"kind":"report"}"#);
        // Section 4: c4 arrives at 10; the last sum bit s3 dominates
        // the circuit delay at 12.
        assert!(resp.contains(r#""delay":12"#), "{resp}");
        assert!(resp.contains(r#""c4":10"#), "{resp}");
        assert!(resp.contains(r#""s3":12"#), "{resp}");
        assert!(resp.contains(r#""characterized":0"#), "warm: {resp}");
        assert!(resp.contains(r#""ok":true"#), "{resp}");
    }

    #[test]
    fn whatif_matches_fresh_delay_analyzer() {
        use hfta_fta::DelayAnalyzer;

        let mut s = session();
        let resp = line(
            &mut s,
            r#"{"id":2,"kind":"whatif","module":"csa_block2","output":"c_out","arrivals":{"c_in":5}}"#,
        );
        let design = carry_skip_adder(4, 2, CsaDelays::default());
        let leaf = design.leaf("csa_block2").unwrap();
        let mut arrivals = vec![Time::ZERO; 5];
        arrivals[0] = Time::new(5); // c_in is input 0
        let mut fresh = DelayAnalyzer::new_sat(leaf, &arrivals).unwrap();
        let want = fresh.output_arrival(leaf.find_net("c_out").unwrap());
        assert_eq!(want, Time::new(8), "paper figure 5");
        assert!(resp.contains(r#""arrival":8"#), "{resp}");
        assert_eq!(s.oracle_count(), 1);
        // Another condition reuses the same oracle.
        let resp = line(
            &mut s,
            r#"{"id":3,"kind":"whatif","module":"csa_block2","output":"c_out","arrivals":{}}"#,
        );
        assert!(resp.contains(r#""arrival":8"#), "{resp}");
        assert_eq!(s.oracle_count(), 1);
    }

    #[test]
    fn eco_delay_edit_recharacterizes_one_module() {
        let mut s = session();
        s.warm().unwrap();
        assert_eq!(s.characterizations(), 1);
        let resp = line(
            &mut s,
            r#"{"id":4,"kind":"eco","module":"csa_block2","gate":"c_out","delay":9}"#,
        );
        assert!(resp.contains(r#""recharacterized":1"#), "{resp}");
        assert_eq!(s.characterizations(), 2);
        // The report is bit-identical to a cold analysis of the edited
        // design.
        let mut edited = carry_skip_adder(4, 2, CsaDelays::default());
        let mut block = edited.leaf("csa_block2").unwrap().clone();
        let c_out = block.find_net("c_out").unwrap();
        let gid = block.driver(c_out).unwrap();
        block.set_gate_delay(gid, 9);
        edited.replace_leaf(block).unwrap();
        let mut cold =
            IncrementalAnalyzer::with_config(edited, "csa4.2", &AnalysisConfig::default()).unwrap();
        let want = cold.analyze(&[Time::ZERO; 9]).unwrap().delay;
        let resp = line(&mut s, r#"{"id":5,"kind":"report"}"#);
        assert!(
            resp.contains(&format!(r#""delay":{}"#, want.raw())),
            "want {want}, got {resp}"
        );
    }

    #[test]
    fn bad_requests_get_structured_errors_and_mutate_nothing() {
        let mut s = session();
        s.warm().unwrap();
        let before = line(&mut s, r#"{"id":1,"kind":"report"}"#);
        for bad in [
            r#"{"id":2,"kind":"report""#,                  // truncated JSON
            r#"{"id":3,"kind":"frobnicate"}"#,             // unknown kind
            r#"{"id":4,"kind":"delay"}"#,                  // missing field
            r#"{"id":5,"kind":"delay","output":"ghost"}"#, // unknown output
            "[1,2,3]",                                     // not an object
        ] {
            let resp = line(&mut s, bad);
            assert!(resp.contains(r#""ok":false"#), "{bad} -> {resp}");
        }
        let after = line(&mut s, r#"{"id":1,"kind":"report"}"#);
        assert_eq!(before, after, "errors must not perturb the warm session");
        assert_eq!(s.counters().errors, 5);
    }

    #[test]
    fn shutdown_stops_the_loop() {
        let mut s = session();
        let (resp, action) = s.handle_line(r#"{"id":9,"kind":"shutdown"}"#);
        assert_eq!(action, Action::Shutdown);
        assert!(resp.unwrap().contains(r#""kind":"shutdown""#));
    }

    #[test]
    fn oversized_line_is_rejected_structurally() {
        let mut s = session();
        s.set_max_line(64);
        let huge = format!(r#"{{"id":1,"kind":"report","pad":"{}"}}"#, "x".repeat(256));
        let (resp, action) = s.handle_line(&huge);
        assert_eq!(action, Action::Continue);
        assert!(resp.unwrap().contains("exceeds 64 bytes"));
    }

    #[test]
    fn repeated_queries_replay_from_the_response_cache() {
        let mut s = session();
        s.warm().unwrap();
        let first = line(&mut s, r#"{"id":1,"kind":"report"}"#);
        let again = line(&mut s, r#"{"id":1,"kind":"report"}"#);
        assert_eq!(first, again, "replay must be byte-identical");
        assert_eq!(s.counters().cache_misses, 1);
        assert_eq!(s.counters().cache_hits, 1);
        // Same condition spelled differently (explicit zero arrivals)
        // resolves to the same key.
        let named = line(&mut s, r#"{"id":2,"kind":"report","arrivals":{"a0":0}}"#);
        assert_eq!(s.counters().cache_hits, 2);
        assert!(named.contains(r#""id":2"#), "{named}");
        // Delay and slack are cached under their own keys.
        line(&mut s, r#"{"id":3,"kind":"delay","output":"s3"}"#);
        line(&mut s, r#"{"id":4,"kind":"delay","output":"s3"}"#);
        line(
            &mut s,
            r#"{"id":5,"kind":"slack","net":"s3","required":15}"#,
        );
        line(
            &mut s,
            r#"{"id":6,"kind":"slack","net":"s3","required":15}"#,
        );
        assert_eq!(s.counters().cache_hits, 4);
        assert_eq!(s.counters().cache_misses, 3);
        let stats = line(&mut s, r#"{"id":7,"kind":"stats"}"#);
        assert!(stats.contains(r#""cache_hits":4"#), "{stats}");
        assert!(stats.contains(r#""cache_misses":3"#), "{stats}");
    }

    #[test]
    fn deadline_requests_bypass_the_response_cache() {
        let mut s = session();
        s.warm().unwrap();
        line(&mut s, r#"{"id":1,"kind":"report","deadline_ms":60000}"#);
        line(&mut s, r#"{"id":1,"kind":"report","deadline_ms":60000}"#);
        assert_eq!(s.counters().cache_hits, 0);
        assert_eq!(s.counters().cache_misses, 0);
        // A session-wide default deadline disables it too.
        s.set_default_deadline_ms(Some(60_000));
        line(&mut s, r#"{"id":2,"kind":"report"}"#);
        assert_eq!(s.counters().cache_misses, 0);
        s.set_default_deadline_ms(None);
        line(&mut s, r#"{"id":3,"kind":"report"}"#);
        assert_eq!(s.counters().cache_misses, 1);
    }

    #[test]
    fn eco_clears_the_response_cache() {
        let mut s = session();
        s.warm().unwrap();
        let before = line(&mut s, r#"{"id":1,"kind":"report"}"#);
        assert_eq!(s.counters().cache_misses, 1);
        line(
            &mut s,
            r#"{"id":2,"kind":"eco","module":"csa_block2","gate":"c_out","delay":9}"#,
        );
        // The edit invalidated every cached answer: the next report is a
        // miss and reflects the new timing.
        let after = line(&mut s, r#"{"id":3,"kind":"report"}"#);
        assert_eq!(s.counters().cache_misses, 2);
        assert_eq!(s.counters().cache_hits, 0);
        assert_ne!(
            before.replace(r#""id":1"#, r#""id":3"#),
            after,
            "stale answer replayed across an ECO"
        );
    }
}
