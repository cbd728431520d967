//! The unified analysis configuration.
//!
//! [`AnalysisConfig`] is the one place an analysis setting is declared
//! and the only way to configure an analyzer: flat timing reports
//! ([`TimingReport::generate`](crate::TimingReport::generate)), leaf
//! characterization ([`ModuleTiming`](crate::ModuleTiming)), and the
//! two-step, demand-driven, incremental and multi-level analyses in
//! `hfta-core` all take `&AnalysisConfig`. It also carries the
//! [`TraceSink`] that turns on structured tracing and the
//! [`ModelDbSpec`] naming any persistent model database.
//!
//! Every analysis shares solver work across cones the same way: one
//! incremental SAT instance per module (characterization, flat reports)
//! or per signature class (demand-driven refinement, with its verdict
//! memo). The budget picks nothing; it only caps each query. Decided
//! verdicts are exact under any budget, so the verdict memo, the
//! signature cache and the model caches hold only those and are shared
//! across budgets. Which queries a binding budget interrupts depends on
//! the module's or class's probe history, so budgeted results are
//! deterministic and sound (never below exact, never above
//! topological) but may differ from those of a fresh solver per cone.
//!
//! The builder is plain `with_*` setters over a [`Default`] that
//! matches every engine's historical defaults, so
//! `AnalysisConfig::default()` reproduces existing behavior
//! bit-for-bit.

use std::path::PathBuf;

use hfta_sat::{SolveBudget, SolveEpisode};
use hfta_sched::Scheduler;
use hfta_trace::{TraceSink, Value};

use crate::required::CharacterizeOptions;

/// The canonical trace-field encoding of one SAT [`SolveEpisode`] —
/// shared by every layer that emits `sat_episode` events, so the JSONL
/// schema stays uniform.
#[must_use]
pub fn solve_episode_fields(ep: &SolveEpisode) -> Vec<(&'static str, Value)> {
    vec![
        ("outcome", ep.outcome.into()),
        ("conflicts", ep.conflicts.into()),
        ("propagations", ep.propagations.into()),
        ("decisions", ep.decisions.into()),
        ("restarts", ep.restarts.into()),
        ("learnt_clauses", ep.learnt_clauses.into()),
        ("max_learnts", ep.max_learnts.into()),
        ("budgeted", ep.budgeted.into()),
    ]
}

/// An optional [`Scheduler`] handle riding inside [`AnalysisConfig`].
///
/// Like [`TraceSink`], the seat is an *observer-style* passenger:
/// which worker pool executes an analysis cannot change its result
/// (parallel analyses are bit-identical to serial ones), so the seat
/// compares equal to any other seat — configs differing only in their
/// scheduler are the same configuration.
///
/// Passing one pool to several analyzers (via
/// [`AnalysisConfig::with_scheduler`]) is how `HierAnalyzer` and
/// `DemandDrivenAnalyzer` calls share one set of persistent workers
/// instead of each spawning their own.
#[derive(Clone, Default)]
pub struct SchedulerSeat(Option<Scheduler>);

impl SchedulerSeat {
    /// An empty seat (analyzers create their own pool on demand).
    #[must_use]
    pub fn none() -> SchedulerSeat {
        SchedulerSeat(None)
    }

    /// A seat carrying `pool`.
    #[must_use]
    pub fn with(pool: Scheduler) -> SchedulerSeat {
        SchedulerSeat(Some(pool))
    }

    /// The seated pool, if any.
    #[must_use]
    pub fn get(&self) -> Option<&Scheduler> {
        self.0.as_ref()
    }
}

impl PartialEq for SchedulerSeat {
    /// All seats are equal: the executing pool is invisible in results.
    fn eq(&self, _other: &SchedulerSeat) -> bool {
        true
    }
}

impl Eq for SchedulerSeat {}

impl std::fmt::Debug for SchedulerSeat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(s) => write!(f, "SchedulerSeat({} threads)", s.threads()),
            None => write!(f, "SchedulerSeat(none)"),
        }
    }
}

/// How hierarchical analysis obtains each module's timing model.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ModelSource {
    /// Functional (false-path-aware) characterization — the paper's
    /// two-step algorithm. The default.
    #[default]
    Functional,
    /// Topological longest-path delays only (cheap, conservative).
    Topological,
}

/// Where a persistent model database lives, carried by
/// [`AnalysisConfig`].
///
/// This is only a *specification* — directory paths plus an optional
/// record limit. The analyzers (in `hfta-core`) open the actual
/// `hfta_modeldb::ModelDb` handles from it, keeping this crate free of
/// any on-disk dependency. `read` and `write` may name the same
/// directory (the common warm-start setup) or different ones (e.g.
/// consuming a vendor database while emitting to a local cache).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ModelDbSpec {
    /// Directory to warm-start from (`--use-models DIR`). Probed
    /// before every characterization; need not exist (all probes then
    /// miss).
    pub read: Option<PathBuf>,
    /// Directory to store freshly characterized, undegraded models
    /// into (`--emit-models DIR`). Created on first use.
    pub write: Option<PathBuf>,
    /// Cap on model records kept in the `write` directory;
    /// least-recently-used records are evicted past it.
    pub limit: Option<usize>,
}

impl ModelDbSpec {
    /// Whether the spec names no database at all (the default).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.read.is_none() && self.write.is_none()
    }
}

/// Unified, builder-style configuration for every HFTA analysis entry
/// point.
///
/// ```
/// use hfta_fta::{AnalysisConfig, ModelSource, SolveBudget};
///
/// let cfg = AnalysisConfig::new()
///     .with_source(ModelSource::Functional)
///     .with_threads(4)
///     .with_budget(SolveBudget::default().with_conflicts(10_000))
///     .with_max_tuples(2);
/// assert_eq!(cfg.threads, 4);
/// assert_eq!(cfg.characterize_options().max_tuples, 2);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AnalysisConfig {
    /// Where hierarchical analysis gets module timing models.
    pub source: ModelSource,
    /// Worker threads for leaf characterization (two-step,
    /// incremental and multi-level analysis: signature groups) and
    /// demand-driven refinement (signature classes); 1 = inline. The
    /// count changes only the wall time: models, verdicts, counters and
    /// answers under a binding budget are the same at any count.
    pub threads: usize,
    /// Clamp [`AnalysisConfig::threads`] to
    /// [`hfta_sched::available_parallelism`] when the pool is created
    /// (on by default — `--threads 64` on a 4-core box would otherwise
    /// oversubscribe). Analyzers emit a `threads_clamped` trace event
    /// when the clamp bites. Turn off only to *measure* oversubscription
    /// or to exercise real multi-worker schedules on small machines.
    pub clamp_threads: bool,
    /// Worker pool to run parallel phases on. Empty by default — each
    /// analyzer then lazily creates its own pool of
    /// [`AnalysisConfig::threads`] workers and keeps it for its whole
    /// life (across refinement rounds and `analyze` calls). Seat one
    /// pool here to share workers across analyzers.
    pub scheduler: SchedulerSeat,
    /// Per-query solver budget; analyses degrade soundly (never
    /// silently) when it runs out: a check the budget interrupts keeps
    /// its last proven (at worst topological) value and is counted in
    /// `StabilityStats::degraded`. Its deadline also cuts off the whole
    /// analysis — characterization in the two-step analyzer, the
    /// refinement loop in the demand-driven one. Unlimited by default.
    ///
    /// The budget never changes which solver answers (see the [module
    /// docs](self)).
    pub budget: SolveBudget,
    /// Cap on demand-driven refinement rounds (`None` = run to
    /// fixpoint).
    pub max_rounds: Option<usize>,
    /// Characterization options: the settings that shape a leaf
    /// model, and therefore its model-database key.
    pub characterize: CharacterizeOptions,
    /// Structured trace destination; disabled (free) by default.
    pub trace: TraceSink,
    /// Persistent model database to warm-start from and/or emit to;
    /// empty (no persistence) by default.
    pub model_db: ModelDbSpec,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            source: ModelSource::Functional,
            threads: 1,
            clamp_threads: true,
            scheduler: SchedulerSeat::none(),
            budget: SolveBudget::UNLIMITED,
            max_rounds: None,
            characterize: CharacterizeOptions::default(),
            trace: TraceSink::disabled(),
            model_db: ModelDbSpec::default(),
        }
    }
}

impl AnalysisConfig {
    /// The default configuration (alias for [`Default::default`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets where hierarchical analysis gets module timing models.
    #[must_use]
    pub fn with_source(mut self, source: ModelSource) -> Self {
        self.source = source;
        self
    }

    /// Sets the worker-thread count (clamped to at least 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enables or disables clamping of [`AnalysisConfig::threads`] to
    /// the machine's available parallelism (on by default).
    #[must_use]
    pub fn with_thread_clamp(mut self, clamp: bool) -> Self {
        self.clamp_threads = clamp;
        self
    }

    /// Seats a worker pool for parallel phases, shared by every
    /// analyzer built from this config.
    #[must_use]
    pub fn with_scheduler(mut self, pool: Scheduler) -> Self {
        self.scheduler = SchedulerSeat::with(pool);
        self
    }

    /// Sets the per-query solver budget.
    #[must_use]
    pub fn with_budget(mut self, budget: SolveBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Caps demand-driven refinement rounds.
    #[must_use]
    pub fn with_max_rounds(mut self, max_rounds: Option<usize>) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Sets the maximum incomparable tuples per characterized output.
    #[must_use]
    pub fn with_max_tuples(mut self, max_tuples: usize) -> Self {
        self.characterize.max_tuples = max_tuples;
        self
    }

    /// Attaches a trace sink (use [`TraceSink::enabled`] to collect).
    #[must_use]
    pub fn with_trace(mut self, trace: TraceSink) -> Self {
        self.trace = trace;
        self
    }

    /// Warm-starts analyzers from the model database at `dir`
    /// (probed before every characterization).
    #[must_use]
    pub fn with_use_models(mut self, dir: impl Into<PathBuf>) -> Self {
        self.model_db.read = Some(dir.into());
        self
    }

    /// Stores freshly characterized, undegraded models into the model
    /// database at `dir` (created on first use).
    #[must_use]
    pub fn with_emit_models(mut self, dir: impl Into<PathBuf>) -> Self {
        self.model_db.write = Some(dir.into());
        self
    }

    /// Caps the records kept in the emit database (LRU eviction past
    /// the cap).
    #[must_use]
    pub fn with_model_limit(mut self, limit: Option<usize>) -> Self {
        self.model_db.limit = limit;
        self
    }

    /// The characterization options (the model-database key).
    #[must_use]
    pub fn characterize_options(&self) -> CharacterizeOptions {
        self.characterize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_engine_defaults() {
        let cfg = AnalysisConfig::default();
        assert_eq!(cfg.source, ModelSource::Functional);
        assert_eq!(cfg.threads, 1);
        assert!(cfg.budget.is_unlimited());
        assert_eq!(cfg.max_rounds, None);
        assert!(!cfg.trace.is_enabled());
        assert_eq!(cfg.characterize_options(), CharacterizeOptions::default());
    }

    #[test]
    fn builder_threads_clamp_and_views() {
        let cfg = AnalysisConfig::new().with_threads(0).with_max_tuples(2);
        assert_eq!(cfg.threads, 1);
        assert_eq!(cfg.characterize_options().max_tuples, 2);
    }
}
