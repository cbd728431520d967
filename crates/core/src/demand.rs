//! The improved, demand-driven hierarchical analysis (Section 5).
//!
//! The two-step algorithm characterizes every pin-to-pin delay of every
//! leaf module even when the pin pair is never critical in any
//! instance, wasting CPU on accuracy that cannot influence the final
//! answer. The demand-driven algorithm instead:
//!
//! 1. builds a *timing graph* whose vertices are the top-level nets and
//!    whose edges are the module pin pairs, initially weighted with
//!    longest topological path lengths;
//! 2. runs forward (arrival) and backward (required) topological
//!    propagation, asserting the latest output arrival as the required
//!    time of every primary output, and computes slacks;
//! 3. picks *critical* edges (both endpoints at zero slack, edge
//!    tight) and refines each by one step: probe the next smaller
//!    distinct topological path length `l′` with a functional
//!    stability check of the module cone ("others at −lᵢ, the critical
//!    input at −l′"); accept the smaller weight in **all** instances of
//!    the module, or mark the edge accurate;
//! 4. repeats until every critical edge is marked.
//!
//! Weights only ever shrink and every accepted weight vector is
//! validated by a full XBD0 stability check, so the final delay remains
//! a conservative approximation of flat analysis (Theorem 1) while only
//! spending characterization effort where it matters.
//!
//! A probe asks of an output's [`OutputCone`] what characterization
//! asks of a timing tuple: with input `j` arriving at `−w_j` and the
//! probed input at `−l′`, is the output stable at 0? Structurally
//! identical cones (equal [`hfta_netlist::ConeSig`]) form a *signature
//! class* that shares two things: a *verdict memo*, one [`VerdictStore`]
//! over delay tuples in canonical slot order that answers a probe
//! implied by monotone speedup (at or above a valid tuple, at or below
//! a refuted one) without touching a solver, and one class oracle, a
//! shared-solver [`StabilityOracle`] over the class's representative
//! cone that answers every member's probes through the same slots:
//! member input order → slots → the representative's input order.
//! Stability is a semantic property of the cone function and the
//! arrival vector, so an implied or routed verdict is exactly what a
//! private solver would have returned. The solver, its learnt clauses
//! and the settled-function caches persist across rounds and `analyze`
//! calls. With a model database, a class's memo starts from the
//! verdicts stored under its signature, and each `analyze` flushes the
//! classes that gained verdicts back, merged with what is on disk.
//!
//! The budget ([`AnalysisConfig::budget`]) only caps each probe. A
//! probe it interrupts is not a verdict: it never enters the memo (so
//! the memo, and the model database it is flushed into, hold exact
//! verdicts under any budget), and its edge is marked degraded at its
//! last proven weight. Which probes a binding budget interrupts depends
//! on the class's probe history, which is the same however classes are
//! scheduled.
//!
//! Independent classes are probed in parallel when
//! [`AnalysisConfig::threads`] allows: a round's critical edges are
//! grouped by `(module, output)` (probes of one group interact through
//! its shared weights and must stay ordered), groups of one class stay
//! together, and classes are distributed over the persistent worker
//! pool. The grouping preserves the serial probe order within each
//! class, so the parallel analysis is bit-identical to the serial one.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use hfta_fta::{
    solve_episode_fields, AnalysisConfig, BoolAlg, OutputCone, PhaseWall, SatAlg, SolveBudget,
    StabilityOracle, StabilityStats, TopoSta, VerdictStore, LENGTHS_CAP,
};
use hfta_modeldb::ModelDbStats;
use hfta_netlist::{Composite, ConeKey, Design, NetId, Netlist, NetlistError, Time};
use hfta_sched::Scheduler;
use hfta_trace::{Tracer, Value};

use crate::deadline::DeadlineToken;
use crate::models::{depth1_top, micros_since, ModelDbs, Pool};

/// Work counters and result of a demand-driven analysis.
#[derive(Clone, PartialEq, Debug)]
pub struct DemandAnalysis {
    /// Arrival time of every top-level net.
    pub net_arrivals: Vec<Time>,
    /// Arrival times of the primary outputs, in output order.
    pub output_arrivals: Vec<Time>,
    /// The estimated circuit delay.
    pub delay: Time,
    /// Refinement rounds executed.
    pub rounds: u64,
    /// Edge-weight reductions accepted.
    pub refinements: u64,
    /// Functional stability checks performed.
    pub checks: u64,
    /// Stability/solver work aggregated over every class oracle,
    /// cumulative across `analyze` calls on one analyzer (the oracles
    /// live as long as the analyzer).
    pub stability: StabilityStats,
}

/// Per-(module, output) refinement state: what the timing graph reads,
/// plus the output's cone once refinement has probed it.
#[derive(Debug)]
struct OutputState {
    /// Topological weight per module input: the longest path to this
    /// output (`−∞` = no path). Refinement starts here, and
    /// [`DemandDrivenAnalyzer::reset_refinement`] rewinds to it.
    topo: Vec<Time>,
    /// Current edge weights per module input (`−∞` = no influence).
    weights: Vec<Time>,
    /// Cursor into the length lists per input (index of the current
    /// weight).
    cursor: Vec<usize>,
    /// Edges proven accurate (no further probes).
    marked: Vec<bool>,
    /// Extracted the first time one of this output's edges is critical;
    /// outputs that never become critical never pay for extraction.
    cone: Option<OutputCone>,
    /// Distinct path lengths per module input, descending (the head is
    /// the topological weight; empty for an input with no path), filled
    /// with the cone.
    lists: Vec<Vec<Time>>,
    /// Whether this cone identity has registered with its class's
    /// [`ClassOracle`].
    attached: bool,
    /// Counters booked outside the solvers: verdict-memo hits and
    /// misses, and degraded probes.
    probe_stats: StabilityStats,
}

/// One signature class's stability oracle: a shared-solver oracle over
/// the class's representative cone, answering every member's probes
/// through canonical slots.
///
/// * **Encode once.** The representative's characteristic functions
///   are Tseitin-encoded a single time; member probes re-use the
///   encoding via the backend's persistent operation caches.
/// * **Cross-cone learnt sharing.** Every conflict clause learnt while
///   answering one member's probe is available to every other member —
///   slot-permuted clause import, realized by construction rather than
///   by copying clauses between solvers. [`ClassOracle::attach`]
///   counts the clauses already warm when a new member joins
///   (`learnts_imported`).
#[derive(Debug)]
struct ClassOracle {
    oracle: StabilityOracle<SatAlg>,
    /// The representative cone's input-to-slot correspondence.
    key: ConeKey,
    /// Cone identities routed through this oracle so far.
    members: u64,
    /// Learnt clauses already warm at each non-first `attach`.
    learnts_imported: u64,
}

/// Outcome of one class's probes within a refinement round.
#[derive(Clone, Copy, Default)]
struct RoundWork {
    checks: u64,
    refinements: u64,
    /// Verdicts that joined the class's memo.
    recorded: u64,
}

/// The Section 5 analyzer.
///
/// # Example
///
/// ```
/// use hfta_core::{AnalysisConfig, DemandDrivenAnalyzer};
/// use hfta_netlist::gen::{carry_skip_adder, CsaDelays};
/// use hfta_netlist::Time;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let design = carry_skip_adder(8, 2, CsaDelays::default());
/// let mut an = DemandDrivenAnalyzer::with_config(&design, "csa8.2", &AnalysisConfig::default())?;
/// let result = an.analyze(&vec![Time::ZERO; 17])?;
/// assert_eq!(result.delay, Time::new(16)); // matches flat analysis
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DemandDrivenAnalyzer<'a> {
    top: &'a Composite,
    /// Instance order (topological) and resolved module names.
    order: Vec<usize>,
    /// Interned module names, index-aligned with `modules`.
    module_names: Vec<String>,
    /// Name → index into `module_names`/`modules`.
    module_index: HashMap<String, usize>,
    /// Per instance (by position in `top.instances()`): its module
    /// index.
    inst_module: Vec<usize>,
    /// Leaf netlists, index-aligned with `modules` (cones are extracted
    /// from them on demand).
    leaves: Vec<&'a Netlist>,
    /// Per distinct module: refinement state per output index. Each
    /// slot is `Some` except while its cone is checked out to a worker
    /// inside [`DemandDrivenAnalyzer::refine_round`] (persistent
    /// workers need owned tasks, so a round moves the probed states out
    /// and back).
    modules: Vec<Vec<Option<OutputState>>>,
    /// Decided stability verdicts per structural signature class, on
    /// delay tuples in canonical slot order. Persists across rounds and
    /// `analyze` calls, like the class oracles; a class has an entry
    /// from its first probe on, persisted verdicts folded in.
    verdict_memo: HashMap<u128, VerdictStore>,
    /// One class oracle per signature class. Checked out to the class's
    /// worker for the duration of a round, like the verdict memo;
    /// persists across rounds and `analyze` calls.
    class_oracles: HashMap<u128, ClassOracle>,
    /// Persistent verdict stores ([`AnalysisConfig::model_db`]). The
    /// read side is probed once per signature class: stored verdicts
    /// are exact (a memo never holds an interrupted probe), so a warm
    /// run answers from disk what a cold one solves. After each
    /// `analyze`, the memo of every class that gained verdicts is
    /// flushed into the write side (merged with whatever is already on
    /// disk).
    dbs: ModelDbs,
    /// Signature classes whose memo gained verdicts since the last
    /// flush.
    unflushed: HashSet<u128>,
    config: AnalysisConfig,
    checks: u64,
    refinements: u64,
    wall: PhaseWall,
    /// Persistent worker pool for parallel rounds: created once (first
    /// parallel round) or seated in the config, then reused across
    /// rounds and across `analyze` calls — never re-spawned per round.
    pool: Pool,
}

/// Invariant message for the `Option<OutputState>` slots.
const STATE_PRESENT: &str = "cone state present (only checked out inside refine_round)";

/// Invariant message for probes: `refine_round` extracts a cone before
/// it probes an output's edges.
const CONE_BUILT: &str = "cone extracted before the first probe";

impl<'a> DemandDrivenAnalyzer<'a> {
    /// Creates an analyzer for module `top` of `design` (depth-1
    /// hierarchy, as in the paper) under `config`: budget, round cap,
    /// thread count and pool, trace sink and model databases all come
    /// from it.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Unknown`] for missing/non-leaf modules,
    /// validation errors, and [`NetlistError::Io`] when the emit model
    /// database cannot be created.
    pub fn with_config(
        design: &'a Design,
        top: &str,
        config: &AnalysisConfig,
    ) -> Result<DemandDrivenAnalyzer<'a>, NetlistError> {
        let top = depth1_top(design, top)?;
        let order = top.instance_topo_order()?;
        let mut module_names: Vec<String> = Vec::new();
        let mut module_index: HashMap<String, usize> = HashMap::new();
        let mut modules: Vec<Vec<Option<OutputState>>> = Vec::new();
        let mut leaves = Vec::new();
        let mut inst_module = Vec::with_capacity(top.instances().len());
        for inst in top.instances() {
            if let Some(&mi) = module_index.get(&inst.module) {
                inst_module.push(mi);
                continue;
            }
            let leaf = design.leaf(&inst.module).expect("depth-1 checked above");
            // One topological sort per leaf and one longest-path pass per
            // output give every topological weight; cones are extracted
            // only when refinement probes them.
            let sta = TopoSta::new(leaf)?;
            let states = leaf
                .outputs()
                .iter()
                .map(|&out| Some(OutputState::new(leaf, &sta.longest_to(out))))
                .collect();
            let mi = modules.len();
            module_index.insert(inst.module.clone(), mi);
            module_names.push(inst.module.clone());
            modules.push(states);
            leaves.push(leaf);
            inst_module.push(mi);
        }
        Ok(DemandDrivenAnalyzer {
            top,
            order,
            module_names,
            module_index,
            inst_module,
            leaves,
            modules,
            verdict_memo: HashMap::new(),
            class_oracles: HashMap::new(),
            dbs: ModelDbs::open(&config.model_db)?,
            unflushed: HashSet::new(),
            config: config.clone(),
            checks: 0,
            refinements: 0,
            wall: PhaseWall::default(),
            pool: Pool::new(config),
        })
    }

    /// Counters of the attached model-database handles, merged across
    /// the read and emit sides (all zero when no database is attached).
    #[must_use]
    pub fn model_db_stats(&self) -> ModelDbStats {
        self.dbs.stats()
    }

    /// The worker pool parallel rounds run on, if one exists yet
    /// (seated in the config or lazily created by the first parallel
    /// round).
    #[must_use]
    pub fn scheduler_handle(&self) -> Option<&Scheduler> {
        self.pool.handle()
    }

    /// Runs the refinement loop to fixpoint and returns the analysis.
    ///
    /// # Errors
    ///
    /// Returns netlist errors from the underlying stability analyses.
    ///
    /// # Panics
    ///
    /// Panics if `pi_arrivals.len()` differs from the top-level input
    /// count.
    pub fn analyze(&mut self, pi_arrivals: &[Time]) -> Result<DemandAnalysis, NetlistError> {
        assert_eq!(
            pi_arrivals.len(),
            self.top.inputs().len(),
            "arrival vector length mismatch"
        );
        let deadline = DeadlineToken::new(self.config.budget.deadline);
        let mut tracer = self.config.trace.tracer();
        let mut rounds = 0u64;
        let arrivals = loop {
            let graph_t0 = Instant::now();
            let arrivals = self.forward(pi_arrivals);
            let required = self.backward(&arrivals);
            let critical = self.critical_edges(&arrivals, &required);
            self.wall.propagate_micros += micros_since(graph_t0);
            if critical.is_empty() {
                break arrivals;
            }
            let capped = self
                .config
                .max_rounds
                .is_some_and(|max| rounds as usize >= max);
            if capped || deadline.expired() {
                // Cap or deadline hit: freeze the graph in its current
                // (still conservative) state — no further probes, this
                // call or later ones. The edges that were still being
                // chased count as degraded: their weights stay at the
                // last proven (possibly topological) value without the
                // accuracy mark a finished refinement earns.
                if tracer.is_enabled() {
                    tracer.event(
                        "refine_freeze",
                        vec![
                            (
                                "reason",
                                Value::from(if capped { "max_rounds" } else { "deadline" }),
                            ),
                            ("frozen_edges", Value::from(critical.len())),
                        ],
                    );
                }
                for &(mi, o, _) in &critical {
                    self.modules[mi][o]
                        .as_mut()
                        .expect(STATE_PRESENT)
                        .probe_stats
                        .degraded += 1;
                }
                for states in &mut self.modules {
                    for s in states.iter_mut().flatten() {
                        s.marked.iter_mut().for_each(|m| *m = true);
                    }
                }
                break arrivals;
            }
            let span = tracer.is_enabled().then(|| tracer.begin("refine_round"));
            let (checks0, refinements0) = (self.checks, self.refinements);
            let refine_t0 = Instant::now();
            let refined = self.refine_round(&critical, &mut tracer);
            self.wall.refine_micros += micros_since(refine_t0);
            if let Some(span) = span {
                tracer.end_with(
                    span,
                    vec![
                        ("round", Value::from(rounds)),
                        ("critical_edges", Value::from(critical.len())),
                        ("checks", Value::from(self.checks - checks0)),
                        ("refinements", Value::from(self.refinements - refinements0)),
                    ],
                );
            }
            if let Err(e) = refined {
                self.config.trace.absorb(tracer);
                return Err(e);
            }
            rounds += 1;
        };
        if tracer.is_enabled() {
            let s = self.stability_stats();
            tracer.event(
                "shared_solver_stats",
                vec![
                    ("domains_built", Value::from(s.domains_built)),
                    ("clauses_subsumed", Value::from(s.clauses_subsumed)),
                    ("learnts_imported", Value::from(s.learnts_imported)),
                ],
            );
        }
        self.config.trace.absorb(tracer);
        // Flush the classes that gained verdicts to the persistent store
        // (merged with whatever is already on disk). The memo holds
        // decided verdicts only, so everything flushed here is exact and
        // safe to replay in any later session, under any budget.
        if let Some(db) = self.dbs.write.as_mut() {
            for sig in self.unflushed.drain() {
                db.store_verdicts(sig, &self.verdict_memo[&sig]);
            }
        }
        let output_arrivals: Vec<Time> = self
            .top
            .outputs()
            .iter()
            .map(|&n| arrivals[n.index()])
            .collect();
        let delay = output_arrivals
            .iter()
            .copied()
            .fold(Time::NEG_INF, Time::max);
        Ok(DemandAnalysis {
            net_arrivals: arrivals,
            output_arrivals,
            delay,
            rounds,
            refinements: self.refinements,
            checks: self.checks,
            stability: self.stability_stats(),
        })
    }

    /// Stability/solver work aggregated across every class oracle plus
    /// the memo and degradation counters.
    #[must_use]
    pub fn stability_stats(&self) -> StabilityStats {
        let mut total = StabilityStats::default();
        for states in &self.modules {
            for st in states.iter().flatten() {
                total.merge(&st.probe_stats);
            }
        }
        for class in self.class_oracles.values() {
            total.merge(&class.stats());
        }
        total.wall = self.wall;
        total
    }

    /// The current weight of a module edge (for inspection/tests), or
    /// `None` for an unknown module, output or input.
    #[must_use]
    pub fn edge_weight(&self, module: &str, out_idx: usize, in_idx: usize) -> Option<Time> {
        self.module_index
            .get(module)
            .and_then(|&mi| self.modules[mi].get(out_idx))
            .and_then(|s| s.as_ref())
            .and_then(|s| s.weights.get(in_idx).copied())
    }

    /// A human-readable summary of what refinement did: for every
    /// module edge whose weight was tightened below its topological
    /// value, one line `module out<-in: topo -> refined [accurate]`.
    /// Call after [`DemandDrivenAnalyzer::analyze`].
    #[must_use]
    pub fn refinement_report(&self) -> String {
        use std::fmt::Write as _;
        let mut names: Vec<(&String, usize)> = self
            .module_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n, i))
            .collect();
        names.sort();
        let mut s = String::new();
        for (name, mi) in names {
            for (o, st) in self.modules[mi].iter().enumerate() {
                let st = st.as_ref().expect(STATE_PRESENT);
                for (j, (&w, &topo)) in st.weights.iter().zip(&st.topo).enumerate() {
                    if w < topo {
                        let _ = writeln!(
                            s,
                            "{name} out{o} <- in{j}: {topo} -> {w}{}",
                            if st.marked[j] { " [accurate]" } else { "" }
                        );
                    }
                }
            }
        }
        if s.is_empty() {
            s.push_str("no edges refined (topological weights were already accurate)\n");
        }
        s
    }

    /// Cones with probes abandoned by a budget or frozen by a cap:
    /// `(module name, output index, degraded probe count)`, sorted by
    /// module name. Empty when no budget/cap fired.
    #[must_use]
    pub fn degraded_cones(&self) -> Vec<(String, usize, u64)> {
        let mut names: Vec<(&String, usize)> = self
            .module_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n, i))
            .collect();
        names.sort();
        let mut v = Vec::new();
        for (name, mi) in names {
            for (o, st) in self.modules[mi].iter().enumerate() {
                let st = st.as_ref().expect(STATE_PRESENT);
                if st.probe_stats.degraded > 0 {
                    v.push((name.clone(), o, st.probe_stats.degraded));
                }
            }
        }
        v
    }

    /// Forward arrival propagation over the timing graph. Instances are
    /// visited in topological order, so an instance's input arrivals
    /// are final before its outputs are written.
    fn forward(&self, pi_arrivals: &[Time]) -> Vec<Time> {
        let mut arrivals = vec![Time::NEG_INF; self.top.net_count()];
        for (k, &pi) in self.top.inputs().iter().enumerate() {
            arrivals[pi.index()] = pi_arrivals[k];
        }
        for &idx in &self.order {
            let inst = &self.top.instances()[idx];
            let states = &self.modules[self.inst_module[idx]];
            for (o, &out_net) in inst.outputs.iter().enumerate() {
                let st = states[o].as_ref().expect(STATE_PRESENT);
                let mut worst = Time::NEG_INF;
                for (&in_net, &w) in inst.inputs.iter().zip(&st.weights) {
                    if w == Time::NEG_INF {
                        continue;
                    }
                    let a = arrivals[in_net.index()];
                    let term = if a == Time::POS_INF {
                        Time::POS_INF
                    } else {
                        a + w
                    };
                    worst = worst.max(term);
                }
                arrivals[out_net.index()] = worst;
            }
        }
        arrivals
    }

    /// Backward required-time propagation: the latest output arrival is
    /// asserted at every primary output.
    fn backward(&self, arrivals: &[Time]) -> Vec<Time> {
        let latest = self
            .top
            .outputs()
            .iter()
            .map(|&n| arrivals[n.index()])
            .fold(Time::NEG_INF, Time::max);
        let mut required = vec![Time::POS_INF; self.top.net_count()];
        for &po in self.top.outputs() {
            required[po.index()] = required[po.index()].min(latest);
        }
        for &idx in self.order.iter().rev() {
            let inst = &self.top.instances()[idx];
            let states = &self.modules[self.inst_module[idx]];
            for (o, &out_net) in inst.outputs.iter().enumerate() {
                let st = states[o].as_ref().expect(STATE_PRESENT);
                let r = required[out_net.index()];
                if r == Time::POS_INF {
                    continue;
                }
                for (j, &in_net) in inst.inputs.iter().enumerate() {
                    let w = st.weights[j];
                    if w == Time::NEG_INF {
                        continue;
                    }
                    required[in_net.index()] = required[in_net.index()].min(r - w);
                }
            }
        }
        required
    }

    /// Critical, unmarked, still-refinable edges, deduplicated at the
    /// module level: `(module index, output index, input index)`.
    fn critical_edges(&self, arrivals: &[Time], required: &[Time]) -> Vec<(usize, usize, usize)> {
        let slack_zero = |n: NetId| {
            arrivals[n.index()].is_finite()
                && required[n.index()].is_finite()
                && arrivals[n.index()] == required[n.index()]
        };
        let mut seen = HashSet::new();
        let mut edges = Vec::new();
        for (idx, inst) in self.top.instances().iter().enumerate() {
            let mi = self.inst_module[idx];
            let states = &self.modules[mi];
            for (o, &out_net) in inst.outputs.iter().enumerate() {
                if !slack_zero(out_net) {
                    continue;
                }
                let st = states[o].as_ref().expect(STATE_PRESENT);
                for (j, &in_net) in inst.inputs.iter().enumerate() {
                    if st.marked[j] || st.weights[j] == Time::NEG_INF {
                        continue;
                    }
                    if !slack_zero(in_net) {
                        continue;
                    }
                    // The edge must be tight to lie on a critical path.
                    if arrivals[in_net.index()] + st.weights[j] != arrivals[out_net.index()] {
                        continue;
                    }
                    let key = (mi, o, j);
                    if seen.insert(key) {
                        edges.push(key);
                    }
                }
            }
        }
        edges
    }

    /// Probes one round's critical edges. Edges are grouped by
    /// `(module, output)` — probes within a group read each other's
    /// accepted weights and stay in their serial order. Groups whose
    /// cones share a structural signature are bundled into one *class*
    /// so they can share that signature's verdict memo and oracle; a
    /// class stays on one worker and its groups are probed serially, in
    /// their serial order, so memo hits and the oracle's probe history
    /// are identical however the classes are scheduled. Distinct
    /// classes touch disjoint state and run as owned tasks on the
    /// persistent pool when one is available (their `OutputState`s are
    /// checked out of `self.modules` for the duration and restored in
    /// class order). Either way the outcome is the same as probing all
    /// edges serially in `critical` order.
    fn refine_round(
        &mut self,
        critical: &[(usize, usize, usize)],
        tracer: &mut Tracer,
    ) -> Result<(), NetlistError> {
        // Group edge probes per (module, output), preserving order.
        let mut group_edges: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
        let mut group_order: Vec<(usize, usize)> = Vec::new();
        for &(mi, o, j) in critical {
            let entry = group_edges.entry((mi, o)).or_default();
            if entry.is_empty() {
                group_order.push((mi, o));
            }
            entry.push(j);
        }
        let pool = self.pool.get(tracer);
        // Check the probed cones out of their slots, in ascending
        // (module, output) order, extracting the cone of any output
        // probed for the first time. Extraction cannot fail, so no slot
        // is left empty.
        group_order.sort_unstable();
        let mut work: Vec<(usize, usize, OutputState, Vec<usize>)> =
            Vec::with_capacity(group_order.len());
        for &(mi, o) in &group_order {
            let mut st = self.modules[mi][o].take().expect(STATE_PRESENT);
            st.ensure_cone(self.leaves[mi], o);
            let edges = group_edges.remove(&(mi, o)).expect("grouped above");
            work.push((mi, o, st, edges));
        }
        // Bundle the groups into signature classes, each taking its
        // verdict memo and oracle out of the analyzer until the round
        // hands them back below.
        let budget = self.config.budget;
        let mut class_of: HashMap<u128, usize> = HashMap::new();
        let mut classes: Vec<ClassTask> = Vec::new();
        for (mi, o, st, edges) in work {
            let sig = st.cone.as_ref().expect(CONE_BUILT).key().sig.0;
            if let Some(&ci) = class_of.get(&sig) {
                classes[ci].work.push((mi, o, st, edges));
                continue;
            }
            class_of.insert(sig, classes.len());
            // Each class probes into a forked tracer (worker = class
            // index + 1); buffers merge back in class order below, so
            // the trace is identical however classes are scheduled.
            let class_tracer = tracer.fork(classes.len() as u32 + 1);
            // First touch of this signature class: start from its
            // persisted verdicts. They are exact (a memo never holds an
            // interrupted probe), so a warm start answers the same
            // probes the solver would — just without the solver.
            let memo = self
                .verdict_memo
                .remove(&sig)
                .unwrap_or_else(|| self.load_verdicts(sig, tracer));
            // The class's oracle travels with its memo (both are
            // exclusive to the class's worker for the round).
            let oracle = self.class_oracles.remove(&sig);
            classes.push(ClassTask {
                sig,
                memo,
                oracle,
                work: vec![(mi, o, st, edges)],
                round: RoundWork::default(),
                tracer: class_tracer,
            });
        }
        let run = move |mut class: ClassTask| {
            let outcome = class.refine(budget);
            (class, outcome)
        };
        let done: Vec<(ClassTask, Result<(), NetlistError>)> = match pool {
            Some(pool) if classes.len() > 1 => pool.run(classes, run),
            _ => classes.into_iter().map(run).collect(),
        };
        let mut first_err = None;
        for (d, outcome) in done {
            tracer.absorb(d.tracer);
            self.verdict_memo.insert(d.sig, d.memo);
            if let Some(oracle) = d.oracle {
                self.class_oracles.insert(d.sig, oracle);
            }
            // Restore the checked-out states — on the error path too,
            // so a failed round leaves the analyzer whole.
            for (mi, o, st, _) in d.work {
                debug_assert!(self.modules[mi][o].is_none());
                self.modules[mi][o] = Some(st);
            }
            self.checks += d.round.checks;
            self.refinements += d.round.refinements;
            if d.round.recorded > 0 {
                self.unflushed.insert(d.sig);
            }
            if let Err(e) = outcome {
                first_err = first_err.or(Some(e));
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// The persisted verdicts of signature class `sig` (empty without a
    /// read database).
    fn load_verdicts(&mut self, sig: u128, tracer: &mut Tracer) -> VerdictStore {
        let Some(db) = self.dbs.read.as_mut() else {
            return VerdictStore::default();
        };
        let stored = db.load_verdicts(sig);
        if !stored.is_empty() && tracer.is_enabled() {
            tracer.event(
                "verdict_db_load",
                vec![
                    ("sig", Value::from(format!("{sig:032x}"))),
                    ("verdicts", Value::from(stored.len())),
                ],
            );
        }
        stored
    }

    /// Rewinds every edge to its topological weight and clears shared
    /// verdicts and counters, as if the analyzer were freshly built —
    /// but keeps the expensive long-lived state: extracted and signed
    /// cones, class oracles (learnt clauses included), and the worker
    /// pool. Benchmarks use this to
    /// measure steady-state refinement without paying construction on
    /// every iteration.
    pub fn reset_refinement(&mut self) {
        for states in &mut self.modules {
            for st in states.iter_mut().flatten() {
                st.weights.copy_from_slice(&st.topo);
                st.cursor.fill(0);
                st.marked.fill(false);
                st.probe_stats = StabilityStats::default();
            }
        }
        self.verdict_memo.clear();
        self.unflushed.clear();
        self.checks = 0;
        self.refinements = 0;
        self.wall = PhaseWall::default();
    }
}

/// One signature class's share of a refinement round: its probed
/// cones with their critical edges, and the verdict memo and oracle
/// they share, checked out of the analyzer for the round (workers need
/// exclusive access).
struct ClassTask {
    sig: u128,
    memo: VerdictStore,
    oracle: Option<ClassOracle>,
    work: Vec<(usize, usize, OutputState, Vec<usize>)>,
    round: RoundWork,
    tracer: Tracer,
}

impl ClassTask {
    /// Probes every `(cone, edges)` group in order, all sharing the
    /// class's memo and its oracle (built by the class's first solver
    /// probe).
    fn refine(&mut self, budget: SolveBudget) -> Result<(), NetlistError> {
        for (_, _, st, edges) in &mut self.work {
            for &j in edges.iter() {
                let (memo, oracle) = (&mut self.memo, &mut self.oracle);
                st.refine_edge(j, budget, &mut self.round, memo, oracle, &mut self.tracer)?;
            }
        }
        Ok(())
    }
}

impl OutputState {
    /// The graph-side state of one output, given the longest path from
    /// every leaf net to it.
    fn new(leaf: &Netlist, longest: &[Time]) -> OutputState {
        let topo: Vec<Time> = leaf.inputs().iter().map(|pi| longest[pi.index()]).collect();
        let n = topo.len();
        OutputState {
            weights: topo.clone(),
            topo,
            cursor: vec![0; n],
            marked: vec![false; n],
            cone: None,
            lists: Vec::new(),
            attached: false,
            probe_stats: StabilityStats::default(),
        }
    }

    /// Extracts and signs the cone of `leaf`'s output `o` and lists its
    /// distinct path lengths, unless that was done already.
    fn ensure_cone(&mut self, leaf: &Netlist, o: usize) {
        if self.cone.is_some() {
            return;
        }
        const ACYCLIC: &str =
            "the leaf was sorted when the analyzer was built, so its cones are acyclic";
        let cone = OutputCone::new(leaf, leaf.outputs()[o]).expect(ACYCLIC);
        let mut lists = vec![Vec::new(); self.topo.len()];
        for (list, &p) in cone
            .lengths(LENGTHS_CAP)
            .expect(ACYCLIC)
            .into_iter()
            .zip(cone.positions())
        {
            lists[p] = list;
        }
        debug_assert!(
            lists
                .iter()
                .zip(&self.topo)
                .all(|(l, &w)| l.first().copied().unwrap_or(Time::NEG_INF) == w),
            "each length list heads with its topological weight"
        );
        self.lists = lists;
        self.cone = Some(cone);
    }

    /// One refinement step of the edge into input `in_idx`: probe the
    /// next smaller distinct path length; accept or mark accurate.
    /// `memo` and `class` are the verdict memo and oracle of this
    /// cone's signature class.
    fn refine_edge(
        &mut self,
        in_idx: usize,
        budget: SolveBudget,
        round: &mut RoundWork,
        memo: &mut VerdictStore,
        class: &mut Option<ClassOracle>,
        tracer: &mut Tracer,
    ) -> Result<(), NetlistError> {
        debug_assert!(!self.marked[in_idx]);
        let list = &self.lists[in_idx];
        let next = self.cursor[in_idx] + 1;
        let candidate = if next < list.len() {
            Some(list[next])
        } else if self.weights[in_idx] != Time::NEG_INF {
            Some(Time::NEG_INF)
        } else {
            None
        };
        let Some(candidate) = candidate else {
            self.marked[in_idx] = true;
            return Ok(());
        };
        round.checks += 1;
        // The probe's delay tuple — input j at w_j, the probed input at
        // the candidate — in the class's canonical slot order. Isomorphic
        // cones share the memo through it, and a verdict it implies by
        // monotone speedup is the one the solver would return.
        let cone = self.cone.as_ref().expect(CONE_BUILT);
        let delays: Vec<Time> = cone
            .positions()
            .iter()
            .map(|&j| {
                if j == in_idx {
                    candidate
                } else {
                    self.weights[j]
                }
            })
            .collect();
        let canon = cone.key().to_slots(&delays, Time::NEG_INF);
        let implied = memo.implied(&canon);
        let stable = if implied.is_some() {
            self.probe_stats.cone_sig_hits += 1;
            implied
        } else {
            self.probe_stats.cone_sig_misses += 1;
            // The whole signature class answers from one incremental
            // instance; this cone becomes its representative if it is
            // the first to reach the solver.
            if class.is_none() {
                *class = Some(ClassOracle::new(cone, budget)?);
            }
            let class = class.as_mut().expect("just created");
            if !self.attached {
                self.attached = true;
                class.attach();
            }
            let stable = class.probe(&canon, tracer);
            // An interrupted probe is not a verdict and is never
            // memoized.
            if stable.is_some_and(|verdict| memo.record(&canon, verdict)) {
                round.recorded += 1;
            }
            stable
        };
        if tracer.is_enabled() {
            let verdict = match stable {
                Some(true) => "ok",
                Some(false) => "fail",
                None => "budget",
            };
            tracer.event(
                "refine_probe",
                vec![
                    ("input", Value::from(in_idx)),
                    ("candidate", Value::from(candidate.to_string())),
                    ("verdict", Value::from(verdict)),
                    ("memo", Value::from(implied.is_some())),
                ],
            );
        }
        self.apply_verdict(in_idx, candidate, stable, round);
        Ok(())
    }

    /// Applies a probe verdict to the edge into `in_idx`: accept the
    /// candidate weight, mark the edge accurate, or (on `None`, a
    /// budget interruption) mark it degraded at its proven weight.
    fn apply_verdict(
        &mut self,
        in_idx: usize,
        candidate: Time,
        stable: Option<bool>,
        round: &mut RoundWork,
    ) {
        match stable {
            Some(true) => {
                self.weights[in_idx] = candidate;
                if candidate == Time::NEG_INF {
                    self.marked[in_idx] = true; // nothing below −∞
                } else {
                    self.cursor[in_idx] += 1;
                }
                round.refinements += 1;
            }
            Some(false) => {
                self.marked[in_idx] = true;
            }
            None => {
                // Budget exhausted mid-probe: the candidate weight was
                // never proven, so keep the current (already validated)
                // weight and stop probing this edge — conservative, and
                // it cannot loop.
                self.marked[in_idx] = true;
                self.probe_stats.degraded += 1;
            }
        }
    }
}

impl ClassOracle {
    /// Builds the class's oracle over a representative `cone`; every
    /// probe runs under `budget`.
    fn new(cone: &OutputCone, budget: SolveBudget) -> Result<ClassOracle, NetlistError> {
        let zeros = vec![Time::ZERO; cone.positions().len()];
        let mut oracle =
            StabilityOracle::new(cone.netlist().clone(), &zeros, SatAlg::new_shared())?;
        oracle.set_budget(budget);
        Ok(ClassOracle {
            oracle,
            key: cone.key().clone(),
            members: 0,
            learnts_imported: 0,
        })
    }

    /// Registers a new cone identity routing through this oracle.
    /// Every learnt clause already in the shared solver is warm for
    /// the newcomer; the count lands in
    /// [`StabilityStats::learnts_imported`].
    fn attach(&mut self) {
        if self.members > 0 {
            self.learnts_imported += self.oracle.stats().learnt_clauses;
        }
        self.members += 1;
    }

    /// Answers a member's probe — is its output stable at 0 with slot
    /// `s` arriving at `−canon[s]`? — by rebinding the representative
    /// to the same slots in its own input order. `None` when the budget
    /// ran out.
    fn probe(&mut self, canon: &[Time], tracer: &mut Tracer) -> Option<bool> {
        // Missing slots (floating-net cones) are "unreached".
        let arrivals: Vec<Time> = self
            .key
            .perm
            .iter()
            .map(|&s| canon.get(s).map_or(Time::POS_INF, |&d| -d))
            .collect();
        self.oracle.set_arrivals(&arrivals);
        let out = self.oracle.netlist().outputs()[0];
        if !tracer.is_enabled() {
            return self.oracle.try_is_stable_at(out, Time::ZERO);
        }
        self.oracle.alg_mut().set_episode_recording(true);
        let stable = self.oracle.try_is_stable_at(out, Time::ZERO);
        for ep in self.oracle.alg_mut().take_episodes() {
            tracer.event("sat_episode", solve_episode_fields(&ep));
        }
        stable
    }

    /// Cumulative work counters across all members, with
    /// `learnts_imported` folded in.
    fn stats(&self) -> StabilityStats {
        StabilityStats {
            learnts_imported: self.learnts_imported,
            ..self.oracle.stats()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfta_fta::functional_circuit_delay;
    use hfta_netlist::gen::{carry_skip_adder, carry_skip_adder_flat, CsaDelays};
    use hfta_netlist::gen::{random_circuit, RandomCircuitSpec};
    use hfta_netlist::partition::cascade_bipartition;

    fn t(v: i64) -> Time {
        Time::new(v)
    }

    #[test]
    fn matches_flat_on_carry_skip_cascades() {
        for n in [4usize, 8, 12] {
            let name = format!("csa{n}.2");
            let design = carry_skip_adder(n, 2, CsaDelays::default());
            let mut an =
                DemandDrivenAnalyzer::with_config(&design, &name, &AnalysisConfig::default())
                    .unwrap();
            let result = an.analyze(&vec![t(0); 2 * n + 1]).unwrap();
            let flat = carry_skip_adder_flat(n, 2, CsaDelays::default()).unwrap();
            let exact = functional_circuit_delay(&flat).unwrap();
            assert_eq!(result.delay, exact, "n={n}");
            assert!(result.refinements > 0);
        }
    }

    #[test]
    fn refines_only_critical_edges() {
        let design = carry_skip_adder(8, 2, CsaDelays::default());
        let mut an =
            DemandDrivenAnalyzer::with_config(&design, "csa8.2", &AnalysisConfig::default())
                .unwrap();
        let result = an.analyze(&[t(0); 17]).unwrap();
        // The refined carry edge: c_in (input 0) → c_out (output 2).
        assert_eq!(an.edge_weight("csa_block2", 2, 0), Some(t(2)));
        // A never-critical sum edge keeps its topological weight.
        assert_eq!(an.edge_weight("csa_block2", 0, 0), Some(t(2)));
        assert_eq!(an.edge_weight("csa_block2", 1, 1), Some(t(6)));
        // Only a handful of checks were needed (demand-driven!): far
        // fewer than full characterization of all 15 pin pairs.
        assert!(result.checks <= 12, "checks = {}", result.checks);
        // The refinement report names exactly the refined carry edge.
        let report = an.refinement_report();
        assert!(
            report.contains("csa_block2 out2 <- in0: 6 -> 2"),
            "{report}"
        );
        // The persistent oracle saw every probe.
        assert_eq!(result.stability.queries, result.checks);
        assert!(result.stability.sat_queries > 0);
    }

    #[test]
    fn conservative_on_partitioned_random_logic() {
        for seed in 0..4 {
            let spec = RandomCircuitSpec {
                inputs: 10,
                gates: 80,
                seed,
                locality: 12,
                global_fanin_prob: 0.2,
                mix: Default::default(),
            };
            let flat = random_circuit(&format!("r{seed}"), spec);
            let design = cascade_bipartition(&flat, 0.5).unwrap();
            let top_name = format!("r{seed}_top");
            let mut an =
                DemandDrivenAnalyzer::with_config(&design, &top_name, &AnalysisConfig::default())
                    .unwrap();
            let top = design.composite(&top_name).unwrap();
            let result = an.analyze(&vec![t(0); top.inputs().len()]).unwrap();
            let exact = functional_circuit_delay(&flat).unwrap();
            assert!(
                result.delay >= exact,
                "seed {seed}: demand-driven {} below flat {exact}",
                result.delay
            );
            // And no worse than pure topological analysis.
            let sta = TopoSta::new(&flat).unwrap();
            let topo = sta.circuit_delay(&vec![t(0); flat.inputs().len()]);
            assert!(result.delay <= topo, "seed {seed}");
        }
    }

    #[test]
    fn max_rounds_caps_work() {
        let design = carry_skip_adder(8, 2, CsaDelays::default());
        let config = AnalysisConfig::default().with_max_rounds(Some(1));
        let mut an = DemandDrivenAnalyzer::with_config(&design, "csa8.2", &config).unwrap();
        let result = an.analyze(&[t(0); 17]).unwrap();
        assert!(result.rounds <= 2);
        // Still conservative (between flat and topological).
        let flat = carry_skip_adder_flat(8, 2, CsaDelays::default()).unwrap();
        let exact = functional_circuit_delay(&flat).unwrap();
        assert!(result.delay >= exact);
    }

    /// Regression for the `max_rounds` fall-through: once the cap is
    /// hit the loop must stop probing, so `checks` stops growing — at
    /// the cap itself and on every later `analyze` call.
    #[test]
    fn max_rounds_stops_checks_deterministically() {
        let design = carry_skip_adder(8, 2, CsaDelays::default());

        // Cap 0: the graph is frozen before any probe.
        let config = AnalysisConfig::default().with_max_rounds(Some(0));
        let mut an = DemandDrivenAnalyzer::with_config(&design, "csa8.2", &config).unwrap();
        let result = an.analyze(&[t(0); 17]).unwrap();
        assert_eq!(result.checks, 0);
        assert_eq!(result.rounds, 0);
        assert_eq!(result.refinements, 0);

        // Cap 1: exactly one round of probes, then frozen — a second
        // analyze adds no checks.
        let config = AnalysisConfig::default().with_max_rounds(Some(1));
        let mut an = DemandDrivenAnalyzer::with_config(&design, "csa8.2", &config).unwrap();
        let first = an.analyze(&[t(0); 17]).unwrap();
        assert!(first.checks > 0);
        assert_eq!(first.rounds, 1);
        let second = an.analyze(&[t(0); 17]).unwrap();
        assert_eq!(
            second.checks, first.checks,
            "checks grew after the cap froze the graph"
        );

        // Uncapped needs more checks than one round: the cap really
        // cut the loop short rather than the loop having converged.
        let mut full =
            DemandDrivenAnalyzer::with_config(&design, "csa8.2", &AnalysisConfig::default())
                .unwrap();
        let converged = full.analyze(&[t(0); 17]).unwrap();
        assert!(converged.checks > first.checks);
    }

    /// A zero-conflict budget interrupts every solver probe, yet the
    /// analysis terminates, stays sandwiched between flat and
    /// topological, and reports the abandoned edges as degraded.
    #[test]
    fn zero_budget_degrades_but_stays_conservative() {
        let design = carry_skip_adder(8, 2, CsaDelays::default());
        let config =
            AnalysisConfig::default().with_budget(SolveBudget::default().with_conflicts(0));
        let mut an = DemandDrivenAnalyzer::with_config(&design, "csa8.2", &config).unwrap();
        let capped = an.analyze(&[t(0); 17]).unwrap();
        let mut full =
            DemandDrivenAnalyzer::with_config(&design, "csa8.2", &AnalysisConfig::default())
                .unwrap();
        let exact = full.analyze(&[t(0); 17]).unwrap();
        assert!(
            capped.delay >= exact.delay,
            "{} < {}",
            capped.delay,
            exact.delay
        );
        let flat = carry_skip_adder_flat(8, 2, CsaDelays::default()).unwrap();
        let sta = TopoSta::new(&flat).unwrap();
        assert!(capped.delay <= sta.circuit_delay(&[t(0); 17]));
        assert!(capped.stability.degraded > 0, "{:?}", capped.stability);
        assert!(capped.stability.budget_hits > 0, "{:?}", capped.stability);
        // No refinement was ever accepted without proof.
        assert_eq!(capped.refinements, 0);
        // The unbudgeted run saw no budget activity at all.
        assert_eq!(exact.stability.degraded, 0);
        assert_eq!(exact.stability.budget_hits, 0);
    }

    /// Both kinds of cap — a round cap and a wall-clock deadline — are
    /// visible in the stats as degraded edges.
    #[test]
    fn capped_runs_report_degraded_edges() {
        let design = carry_skip_adder(8, 2, CsaDelays::default());

        let config = AnalysisConfig::default().with_max_rounds(Some(0));
        let mut an = DemandDrivenAnalyzer::with_config(&design, "csa8.2", &config).unwrap();
        let by_rounds = an.analyze(&[t(0); 17]).unwrap();
        assert!(
            by_rounds.stability.degraded > 0,
            "{:?}",
            by_rounds.stability
        );
        assert_eq!(by_rounds.checks, 0);

        let config = AnalysisConfig::default()
            .with_budget(SolveBudget::default().with_deadline(std::time::Instant::now()));
        let mut an = DemandDrivenAnalyzer::with_config(&design, "csa8.2", &config).unwrap();
        let by_deadline = an.analyze(&[t(0); 17]).unwrap();
        assert!(
            by_deadline.stability.degraded > 0,
            "{:?}",
            by_deadline.stability
        );
        // Both froze the graph at its topological weights, so they
        // agree on the (conservative) answer.
        assert_eq!(by_deadline.delay, by_rounds.delay);
    }

    #[test]
    fn skewed_arrivals_supported() {
        let design = carry_skip_adder(4, 2, CsaDelays::default());
        let mut an =
            DemandDrivenAnalyzer::with_config(&design, "csa4.2", &AnalysisConfig::default())
                .unwrap();
        let mut arrivals = vec![t(0); 9];
        arrivals[0] = t(5); // c_in late, as in Figure 5
        let result = an.analyze(&arrivals).unwrap();
        // Flat reference.
        let flat = carry_skip_adder_flat(4, 2, CsaDelays::default()).unwrap();
        let mut flat_arr = vec![t(0); 9];
        flat_arr[0] = t(5);
        let mut flat_an = hfta_fta::DelayAnalyzer::new_sat(&flat, &flat_arr).unwrap();
        let exact = flat_an.circuit_delay();
        assert!(result.delay >= exact);
        assert_eq!(result.delay, exact, "accuracy preserved on this example");
    }

    /// Parallel refinement is bit-identical to serial: same analysis
    /// (weights, delay, counters) and same refinement report.
    #[test]
    fn parallel_refinement_is_deterministic() {
        let specs: Vec<(Design, String, usize)> = {
            let mut v = Vec::new();
            let design = carry_skip_adder(12, 2, CsaDelays::default());
            v.push((design, "csa12.2".to_string(), 25));
            for seed in 0..2 {
                let spec = RandomCircuitSpec {
                    inputs: 10,
                    gates: 80,
                    seed,
                    locality: 12,
                    global_fanin_prob: 0.2,
                    mix: Default::default(),
                };
                let flat = random_circuit(&format!("r{seed}"), spec);
                let n = flat.inputs().len();
                let design = cascade_bipartition(&flat, 0.5).unwrap();
                v.push((design, format!("r{seed}_top"), n));
            }
            v
        };
        for (design, top, n_inputs) in &specs {
            let serial_config = AnalysisConfig::default().with_threads(1);
            // clamp off: the pool must really run multi-worker even on
            // machines with fewer cores than requested threads.
            let parallel_config = AnalysisConfig::default()
                .with_threads(4)
                .with_thread_clamp(false);
            let mut serial =
                DemandDrivenAnalyzer::with_config(design, top, &serial_config).unwrap();
            let mut parallel =
                DemandDrivenAnalyzer::with_config(design, top, &parallel_config).unwrap();
            let arrivals = vec![t(0); *n_inputs];
            let a = serial.analyze(&arrivals).unwrap();
            let b = parallel.analyze(&arrivals).unwrap();
            assert_eq!(a, b, "serial vs parallel diverged on {top}");
            assert_eq!(
                serial.refinement_report(),
                parallel.refinement_report(),
                "reports diverged on {top}"
            );
        }
    }

    /// Tracing is an observer: with a sink installed the analysis stays
    /// bit-identical (serial and parallel, counters included), and the
    /// trace carries `refine_round` spans with `refine_probe` and
    /// `sat_episode` events.
    #[test]
    fn traced_demand_is_bit_identical_and_records() {
        use hfta_trace::TraceSink;

        let design = carry_skip_adder(8, 2, CsaDelays::default());
        let arrivals = vec![t(0); 17];
        let mut plain =
            DemandDrivenAnalyzer::with_config(&design, "csa8.2", &AnalysisConfig::default())
                .unwrap();
        let want = plain.analyze(&arrivals).unwrap();

        for threads in [1usize, 4] {
            let sink = TraceSink::enabled();
            let config = AnalysisConfig::default()
                .with_threads(threads)
                .with_thread_clamp(false)
                .with_trace(sink.clone());
            let mut traced = DemandDrivenAnalyzer::with_config(&design, "csa8.2", &config).unwrap();
            let got = traced.analyze(&arrivals).unwrap();
            assert_eq!(got, want, "threads={threads}");
            assert_eq!(plain.refinement_report(), traced.refinement_report());
            let trace = sink.drain();
            let names: Vec<&str> = trace.records().iter().map(|r| r.name).collect();
            for expected in ["refine_round", "refine_probe", "sat_episode"] {
                assert!(
                    names.contains(&expected),
                    "threads={threads}: missing {expected} in {names:?}"
                );
            }
        }

        // A frozen run records the freeze and its reason.
        let sink = TraceSink::enabled();
        let config = AnalysisConfig::default()
            .with_max_rounds(Some(0))
            .with_trace(sink.clone());
        let mut frozen = DemandDrivenAnalyzer::with_config(&design, "csa8.2", &config).unwrap();
        frozen.analyze(&arrivals).unwrap();
        let trace = sink.drain();
        assert!(
            trace.records().iter().any(|r| r.name == "refine_freeze"),
            "{:?}",
            trace.records()
        );
    }
}

#[cfg(test)]
mod cone_sig_tests {
    use super::*;
    use hfta_netlist::gen::{carry_skip_adder, carry_skip_adder_flat, carry_skip_block, CsaDelays};
    use hfta_netlist::strash::cone_signature;
    use hfta_netlist::{Composite, Design};

    /// A cascade of `copies` identical 2-bit carry-skip blocks under
    /// *distinct* module names — structurally csa(2·copies).2, but the
    /// analyzer cannot share anything by name.
    fn replicated_design(copies: usize) -> (Design, usize) {
        let mut design = Design::new();
        let mut top = Composite::new("rep");
        let mut carry = top.add_input("c_in");
        for k in 0..copies {
            let mut block = carry_skip_block(2, CsaDelays::default());
            block.set_name(format!("blk{k}"));
            design.add_leaf(block).expect("fresh design");
            let mut ins = vec![carry];
            for i in 0..2 {
                ins.push(top.add_input(format!("a{k}_{i}")));
                ins.push(top.add_input(format!("b{k}_{i}")));
            }
            let mut outs = Vec::new();
            for i in 0..2 {
                let s = top.add_net(format!("s{k}_{i}"));
                top.mark_output(s);
                outs.push(s);
            }
            let c = top.add_net(format!("c{k}"));
            outs.push(c);
            top.add_instance(format!("u{k}"), format!("blk{k}"), &ins, &outs);
            carry = c;
        }
        top.mark_output(carry);
        let n = top.inputs().len();
        design.add_composite(top).expect("fresh design");
        (design, n)
    }

    /// The verdict memo shares probes across renamed block copies: the
    /// later blocks answer from it, and the analysis matches the same
    /// cascade built from one module name (csa8.2), which shares the
    /// blocks' refinement by name instead.
    #[test]
    fn memo_shares_verdicts_across_isomorphic_modules() {
        let (design, n) = replicated_design(4);
        let arrivals = vec![Time::ZERO; n];
        let mut with_memo =
            DemandDrivenAnalyzer::with_config(&design, "rep", &AnalysisConfig::default()).unwrap();
        let a = with_memo.analyze(&arrivals).unwrap();
        let by_name = carry_skip_adder(8, 2, CsaDelays::default());
        let b = DemandDrivenAnalyzer::with_config(&by_name, "csa8.2", &AnalysisConfig::default())
            .unwrap()
            .analyze(&arrivals)
            .unwrap();

        // Identical blocks, identical initial weights: the later blocks
        // answer their carry-chain probes from the memo, and only the
        // memo's misses reach the class oracle.
        assert!(
            a.stability.cone_sig_hits > 0,
            "no memo hits: {:?}",
            a.stability
        );
        assert_eq!(
            a.stability.cone_sig_hits + a.stability.cone_sig_misses,
            a.checks
        );
        assert!(a.stability.queries <= a.stability.cone_sig_misses);
        assert_eq!(a.delay, b.delay);
        assert_eq!(a.output_arrivals, b.output_arrivals);

        // Sanity: this is csa8.2 in disguise; the skip false path must
        // still be discovered through shared verdicts.
        let flat = carry_skip_adder_flat(8, 2, CsaDelays::default()).unwrap();
        let exact = hfta_fta::functional_circuit_delay(&flat).unwrap();
        assert_eq!(a.delay, exact);
    }

    /// Serial and parallel schedules agree on everything observable,
    /// including the memo hit/miss counters: one signature class stays
    /// on one worker.
    #[test]
    fn memo_sharing_is_deterministic_under_threads() {
        let (design, n) = replicated_design(4);
        let arrivals = vec![Time::ZERO; n];
        let mut serial =
            DemandDrivenAnalyzer::with_config(&design, "rep", &AnalysisConfig::default()).unwrap();
        let parallel_config = AnalysisConfig::default()
            .with_threads(4)
            .with_thread_clamp(false);
        let mut parallel =
            DemandDrivenAnalyzer::with_config(&design, "rep", &parallel_config).unwrap();
        let a = serial.analyze(&arrivals).unwrap();
        let b = parallel.analyze(&arrivals).unwrap();
        assert_eq!(a, b);
        assert_eq!(serial.refinement_report(), parallel.refinement_report());
        assert!(a.stability.cone_sig_hits > 0);
    }

    /// Verdicts persisted by one session warm-start the next: a cold
    /// analyzer answers probes from disk, bit-identically and with
    /// strictly fewer SAT queries.
    #[test]
    fn persisted_verdicts_warm_start_a_cold_session() {
        let dir = std::env::temp_dir().join(format!("hfta-demand-verdicts-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let (design, n) = replicated_design(4);
        let arrivals = vec![Time::ZERO; n];

        let emit_config = AnalysisConfig::default().with_emit_models(&dir);
        let mut emit = DemandDrivenAnalyzer::with_config(&design, "rep", &emit_config).unwrap();
        let a = emit.analyze(&arrivals).unwrap();
        assert!(emit.model_db_stats().verdicts_stored > 0, "nothing flushed");

        let warm_config = AnalysisConfig::default().with_use_models(&dir);
        let mut warm = DemandDrivenAnalyzer::with_config(&design, "rep", &warm_config).unwrap();
        let b = warm.analyze(&arrivals).unwrap();
        assert!(
            warm.model_db_stats().verdicts_loaded > 0,
            "no verdicts loaded: {:?}",
            warm.model_db_stats()
        );

        // Bit-identical analysis; the warm run answers from disk what
        // the cold run had to solve.
        assert_eq!(a.delay, b.delay);
        assert_eq!(a.net_arrivals, b.net_arrivals);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.checks, b.checks);
        assert_eq!(a.refinements, b.refinements);
        assert!(b.stability.sat_queries < a.stability.sat_queries);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A flush writes only what a class gained and counts only the
    /// verdicts it newly wrote: each solver verdict of the first call
    /// is stored once, a second call on the same analyzer adds exactly
    /// its own new verdicts, and a call that decides nothing new
    /// stores nothing.
    #[test]
    fn verdict_flush_counts_only_new_verdicts() {
        let dir = std::env::temp_dir().join(format!("hfta-demand-flush-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let design = carry_skip_adder(8, 2, CsaDelays::default());
        let config = AnalysisConfig::default().with_emit_models(&dir);
        let mut an = DemandDrivenAnalyzer::with_config(&design, "csa8.2", &config).unwrap();
        let zeros = vec![Time::ZERO; 17];
        let first = an.analyze(&zeros).unwrap();
        let decided = first.stability.cone_sig_misses;
        assert!(decided > 0);
        assert_eq!(an.model_db_stats().verdicts_stored, decided);

        // A late a1 sends refinement down an edge the first call never
        // probed.
        let mut skewed = zeros;
        skewed[3] = Time::new(5);
        let second = an.analyze(&skewed).unwrap();
        let added = second.stability.cone_sig_misses - decided;
        assert!(added > 0, "the second call decided nothing new");
        assert_eq!(an.model_db_stats().verdicts_stored, decided + added);

        let third = an.analyze(&skewed).unwrap();
        assert_eq!(third.stability.cone_sig_misses, decided + added);
        assert_eq!(an.model_db_stats().verdicts_stored, decided + added);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A limited budget only caps probes. The memo holds decided
    /// verdicts, which are exact under any budget: a generous budget
    /// shares them exactly like the unlimited run, and a zero budget,
    /// which decides no solver probe, stores none.
    #[test]
    fn limited_budget_memoizes_only_decided_verdicts() {
        let (design, n) = replicated_design(4);
        let arrivals = vec![Time::ZERO; n];
        let full = DemandDrivenAnalyzer::with_config(&design, "rep", &AnalysisConfig::default())
            .unwrap()
            .analyze(&arrivals)
            .unwrap();
        let generous =
            AnalysisConfig::default().with_budget(SolveBudget::default().with_conflicts(1_000_000));
        let capped = DemandDrivenAnalyzer::with_config(&design, "rep", &generous)
            .unwrap()
            .analyze(&arrivals)
            .unwrap();
        assert!(capped.stability.cone_sig_hits > 0);
        assert_eq!(capped.stability.cone_sig_hits, full.stability.cone_sig_hits);
        assert_eq!(
            capped.stability.cone_sig_misses,
            full.stability.cone_sig_misses
        );
        assert_eq!(capped.stability.degraded, 0);
        assert_eq!(capped.delay, full.delay);
        assert_eq!(capped.net_arrivals, full.net_arrivals);

        let zero = AnalysisConfig::default().with_budget(SolveBudget::default().with_conflicts(0));
        let mut starved = DemandDrivenAnalyzer::with_config(&design, "rep", &zero).unwrap();
        let s = starved.analyze(&arrivals).unwrap();
        assert!(s.stability.budget_hits > 0, "{:?}", s.stability);
        assert_eq!(s.stability.cone_sig_hits, 0);
        assert!(
            starved.verdict_memo.values().all(VerdictStore::is_empty),
            "an interrupted probe was memoized"
        );
    }

    /// The `c_out` cone of a 2-bit carry-skip block, and an isomorph of
    /// it that declares the same inputs in reverse order.
    fn cone_and_reversed_isomorph() -> (OutputCone, Netlist) {
        let block = carry_skip_block(2, CsaDelays::default());
        let rep = OutputCone::new(&block, block.find_net("c_out").unwrap()).unwrap();
        let cone = rep.netlist();
        let mut rev = Netlist::new("reversed");
        let mut map = vec![None; cone.net_count()];
        for &pi in cone.inputs().iter().rev() {
            map[pi.index()] = Some(rev.add_input(cone.net_name(pi)));
        }
        for g in cone.topo_gates().unwrap() {
            let gate = cone.gate(g);
            let ins: Vec<NetId> = gate
                .inputs
                .iter()
                .map(|n| map[n.index()].unwrap())
                .collect();
            let out = rev.add_net(cone.net_name(gate.output));
            rev.add_gate(gate.kind, &ins, out, gate.delay).unwrap();
            map[gate.output.index()] = Some(out);
        }
        rev.mark_output(map[cone.outputs()[0].index()].unwrap());
        (rep, rev)
    }

    /// A class oracle over one representative answers a permuted
    /// member's probes — routed through canonical slots — exactly like
    /// a fresh plain-SAT oracle over the member itself.
    #[test]
    fn class_oracle_matches_per_cone_oracles() {
        let (rep, member) = cone_and_reversed_isomorph();
        let member_key = cone_signature(&member).unwrap();
        assert_eq!(rep.key().sig, member_key.sig);
        assert_ne!(rep.key().perm, member_key.perm, "routing must permute");

        let mut class = ClassOracle::new(&rep, SolveBudget::UNLIMITED).unwrap();
        class.attach();
        class.attach(); // a second member joins before any probe
        let member_out = member.outputs()[0];
        let conditions: Vec<Vec<Time>> = vec![
            vec![Time::ZERO; 5],
            [3, 0, 1, -2, 0].map(Time::new).to_vec(),
            [0, -10, -10, -10, -10].map(Time::new).to_vec(),
        ];
        let mut tracer = Tracer::disabled();
        for cond in &conditions {
            // Probes ask for stability at 0, so shift the condition
            // through the window where the verdict flips.
            for shift in -3..13 {
                let arrivals: Vec<Time> = cond.iter().map(|&a| a - Time::new(shift)).collect();
                let mut fresh =
                    StabilityOracle::new(member.clone(), &arrivals, SatAlg::new()).unwrap();
                let delays: Vec<Time> = arrivals.iter().map(|&a| -a).collect();
                let canon = member_key.to_slots(&delays, Time::NEG_INF);
                assert_eq!(
                    class.probe(&canon, &mut tracer),
                    Some(fresh.is_stable_at(member_out, Time::ZERO)),
                    "{cond:?} shifted by {shift}"
                );
            }
        }
        // Nothing was warm when the second member joined.
        assert_eq!(class.stats().learnts_imported, 0);
    }

    /// Attaching after probes counts the warm learnt clauses.
    #[test]
    fn late_attach_counts_warm_learnts() {
        let (rep, _) = cone_and_reversed_isomorph();
        let mut class = ClassOracle::new(&rep, SolveBudget::UNLIMITED).unwrap();
        class.attach();
        let mut tracer = Tracer::disabled();
        for shift in -3..13 {
            let delays = vec![Time::new(shift); 5];
            let _ = class.probe(&rep.key().to_slots(&delays, Time::NEG_INF), &mut tracer);
        }
        let warm = class.stats().learnt_clauses;
        assert!(warm > 0);
        class.attach();
        assert_eq!(class.stats().learnts_imported, warm);
    }
}

#[cfg(test)]
mod lazy_view_tests {
    use std::collections::BTreeSet;

    use super::*;
    use hfta_netlist::gen::{carry_skip_adder, random_circuit, CsaDelays, RandomCircuitSpec};
    use hfta_netlist::partition::cascade_bipartition_min_cut;

    /// The `(module, output)` pairs whose cone has been extracted.
    fn views(an: &DemandDrivenAnalyzer<'_>) -> BTreeSet<(usize, usize)> {
        let mut v = BTreeSet::new();
        for (mi, states) in an.modules.iter().enumerate() {
            for (o, st) in states.iter().enumerate() {
                if st.as_ref().expect(STATE_PRESENT).cone.is_some() {
                    v.insert((mi, o));
                }
            }
        }
        v
    }

    /// Runs `analyze`'s refinement loop step by step and returns every
    /// `(module, output)` pair of some round's critical set.
    fn critical_pairs(an: &mut DemandDrivenAnalyzer<'_>, pi: &[Time]) -> BTreeSet<(usize, usize)> {
        let mut tracer = an.config.trace.tracer();
        let mut pairs = BTreeSet::new();
        loop {
            let arrivals = an.forward(pi);
            let required = an.backward(&arrivals);
            let critical = an.critical_edges(&arrivals, &required);
            if critical.is_empty() {
                return pairs;
            }
            pairs.extend(critical.iter().map(|&(mi, o, _)| (mi, o)));
            an.refine_round(&critical, &mut tracer).unwrap();
        }
    }

    /// Construction builds no view, the graph-only surfaces work without
    /// one, and `analyze` builds exactly the views of the outputs some
    /// round found critical. Returns `(views built, outputs)`.
    fn check_laziness(design: &Design, top: &str) -> (usize, usize) {
        let n = design.composite(top).unwrap().inputs().len();
        let pi = vec![Time::ZERO; n];
        let config = AnalysisConfig::default();
        let mut an = DemandDrivenAnalyzer::with_config(design, top, &config).unwrap();
        assert!(views(&an).is_empty(), "{top}: a view before any probe");
        assert!(an.timing_graph_dot().starts_with("digraph"));
        assert!(an.refinement_report().starts_with("no edges refined"));
        an.reset_refinement();
        assert!(views(&an).is_empty());

        let result = an.analyze(&pi).unwrap();
        let mut stepped = DemandDrivenAnalyzer::with_config(design, top, &config).unwrap();
        let pairs = critical_pairs(&mut stepped, &pi);
        assert_eq!(views(&an), pairs, "{top}");
        assert_eq!(views(&stepped), pairs, "{top}");
        assert_eq!(stepped.refinement_report(), an.refinement_report());
        assert_eq!(stepped.analyze(&pi).unwrap().delay, result.delay);

        // Rewinding keeps the views; graph surfaces still read the
        // stored topological weights.
        an.reset_refinement();
        assert_eq!(views(&an), pairs);
        assert!(an.refinement_report().starts_with("no edges refined"));
        let outputs = an.modules.iter().map(Vec::len).sum();
        (pairs.len(), outputs)
    }

    #[test]
    fn views_are_built_only_for_critical_outputs() {
        let csa = carry_skip_adder(8, 2, CsaDelays::default());
        assert_eq!(check_laziness(&csa, "csa8.2"), (2, 3));
        let flat = random_circuit("c432_like", RandomCircuitSpec::iscas_like(160, 432));
        let c432 = cascade_bipartition_min_cut(&flat, 0.25, 0.75).unwrap();
        assert_eq!(check_laziness(&c432, "c432_like_top"), (7, 24));
        let flat = random_circuit("c2670_like", RandomCircuitSpec::iscas_like(1193, 2670));
        let c2670 = cascade_bipartition_min_cut(&flat, 0.25, 0.75).unwrap();
        assert_eq!(check_laziness(&c2670, "c2670_like_top"), (2, 325));
    }

    /// Out-of-range indices read as unknown edges, not panics.
    #[test]
    fn edge_weight_rejects_unknown_edges() {
        let design = carry_skip_adder(8, 2, CsaDelays::default());
        let an = DemandDrivenAnalyzer::with_config(&design, "csa8.2", &AnalysisConfig::default())
            .unwrap();
        assert_eq!(an.edge_weight("csa_block2", 2, 0), Some(Time::new(6)));
        assert_eq!(an.edge_weight("csa_block2", 0, 99), None);
        assert_eq!(an.edge_weight("csa_block2", 3, 0), None);
        assert_eq!(an.edge_weight("no_such_block", 0, 0), None);
    }
}

#[cfg(test)]
mod infinite_arrival_tests {
    use super::*;
    use hfta_netlist::gen::{carry_skip_adder, CsaDelays};

    #[test]
    fn pos_inf_arrival_flows_through() {
        let design = carry_skip_adder(4, 2, CsaDelays::default());
        let mut an =
            DemandDrivenAnalyzer::with_config(&design, "csa4.2", &AnalysisConfig::default())
                .unwrap();
        let mut arrivals = vec![Time::ZERO; 9];
        arrivals[1] = Time::POS_INF; // a0 never arrives
        let result = an.analyze(&arrivals).unwrap();
        // Outputs depending on a0 never stabilize; others stay finite.
        assert_eq!(result.output_arrivals[0], Time::POS_INF); // s0 needs a0
        assert_eq!(result.delay, Time::POS_INF);
        // s3 of the second block depends on the carry chain → +inf too,
        // but the analysis itself must terminate (this assertion is the
        // point of the test).
        assert!(result.rounds < 100);
    }

    #[test]
    fn neg_inf_arrival_is_benign() {
        let design = carry_skip_adder(4, 2, CsaDelays::default());
        let mut an =
            DemandDrivenAnalyzer::with_config(&design, "csa4.2", &AnalysisConfig::default())
                .unwrap();
        let mut arrivals = vec![Time::ZERO; 9];
        arrivals[0] = Time::NEG_INF; // carry-in settled from forever
        let result = an.analyze(&arrivals).unwrap();
        assert!(result.delay.is_finite());
        // a0/b0 dominate: the usual 12.
        assert_eq!(result.delay, Time::new(12));
    }
}

#[cfg(test)]
mod reuse_tests {
    use super::*;
    use hfta_netlist::gen::{carry_skip_adder, carry_skip_adder_flat, CsaDelays};

    /// The Section 3.3 benefit applies to demand-driven refinement too:
    /// an accepted edge weight was validated by a required-time check
    /// (inputs at the negated weights), which does not depend on the
    /// top-level arrival condition — so refinement survives across
    /// `analyze` calls and later analyses start from the sharpened
    /// graph.
    #[test]
    fn refinement_is_reused_across_arrival_conditions() {
        let design = carry_skip_adder(8, 2, CsaDelays::default());
        let mut an =
            DemandDrivenAnalyzer::with_config(&design, "csa8.2", &AnalysisConfig::default())
                .unwrap();
        let first = an.analyze(&[Time::ZERO; 17]).unwrap();
        assert!(first.checks > 0);

        // Second condition: skewed carry-in. The carry edge is already
        // refined, so few (often zero) new checks are needed.
        let mut skewed = vec![Time::ZERO; 17];
        skewed[0] = Time::new(9);
        let checks_before = an.checks;
        let second = an.analyze(&skewed).unwrap();
        let new_checks = second.checks - checks_before;
        assert!(
            new_checks <= first.checks,
            "reuse failed: {new_checks} new checks vs {} initially",
            first.checks
        );

        // And the result is still sandwiched against flat analysis.
        let flat = carry_skip_adder_flat(8, 2, CsaDelays::default()).unwrap();
        let mut flat_an = hfta_fta::DelayAnalyzer::new_sat(&flat, &skewed).unwrap();
        let exact = flat_an.circuit_delay();
        assert!(second.delay >= exact);
        let sta = TopoSta::new(&flat).unwrap();
        assert!(second.delay <= sta.circuit_delay(&skewed));
    }
}

impl DemandDrivenAnalyzer<'_> {
    /// Renders the current timing graph as Graphviz `dot`: one node per
    /// top-level net, one edge per module pin pair labelled with its
    /// current weight. Refined edges (below topological) are drawn in
    /// red; `−∞` edges are omitted.
    #[must_use]
    pub fn timing_graph_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "digraph \"{}\" {{", self.top.name());
        let _ = writeln!(s, "  rankdir=LR;");
        for &pi in self.top.inputs() {
            let _ = writeln!(s, "  \"{}\" [shape=diamond];", self.top.net_name(pi));
        }
        for &po in self.top.outputs() {
            let _ = writeln!(s, "  \"{}\" [shape=doublecircle];", self.top.net_name(po));
        }
        for (idx, inst) in self.top.instances().iter().enumerate() {
            let states = &self.modules[self.inst_module[idx]];
            for (o, &out_net) in inst.outputs.iter().enumerate() {
                let st = states[o].as_ref().expect(STATE_PRESENT);
                for ((&in_net, &w), &topo) in inst.inputs.iter().zip(&st.weights).zip(&st.topo) {
                    if w == Time::NEG_INF {
                        continue;
                    }
                    let refined = w < topo;
                    let _ = writeln!(
                        s,
                        "  \"{}\" -> \"{}\" [label=\"{}:{}\"{}];",
                        self.top.net_name(in_net),
                        self.top.net_name(out_net),
                        inst.name,
                        w,
                        if refined { ", color=red" } else { "" }
                    );
                }
            }
        }
        let _ = writeln!(s, "}}");
        s
    }
}

#[cfg(test)]
mod dot_tests {
    use super::*;
    use hfta_netlist::gen::{carry_skip_adder, CsaDelays};

    #[test]
    fn timing_graph_dot_marks_refined_edges() {
        let design = carry_skip_adder(4, 2, CsaDelays::default());
        let mut an =
            DemandDrivenAnalyzer::with_config(&design, "csa4.2", &AnalysisConfig::default())
                .unwrap();
        let _ = an.analyze(&[Time::ZERO; 9]).unwrap();
        let dot = an.timing_graph_dot();
        assert!(dot.starts_with("digraph"));
        assert!(
            dot.contains("color=red"),
            "refined carry edge flagged:\n{dot}"
        );
        assert!(dot.contains("shape=diamond"));
        assert!(dot.ends_with("}\n"));
    }
}
