//! Step 1 of the two-step algorithm, written once: the leaf-model table.
//!
//! A leaf module is characterized once and its model reused for every
//! instance, arrival condition (Section 3.3) and hierarchy level
//! (footnote 4). [`ModelTable`] owns everything that takes: the leaf
//! models with their degraded reason, the structural signature cache,
//! the model-database pair, the deadline token, the worker pool and the
//! counters, plus the one schedule that fills it,
//! [`ModelTable::ensure`]:
//!
//! 1. The leaves to characterize are the distinct requested leaves
//!    missing from the table, in name order.
//! 2. The read database is probed for each of them, serially.
//! 3. The output cones of every leaf that misses both are extracted
//!    and signed, once ([`OutputCone`]): the characterizer probes them
//!    and the write database files them under their signatures.
//!    Topological models need none.
//! 4. Leaves that share any cone signature form one group, ordered by
//!    its first leaf. A group's leaves run in name order on a private
//!    signature cache seeded with the table's entries for the group's
//!    signatures.
//! 5. With no pool or a single group the groups run inline; otherwise
//!    they are one [`Scheduler::run`] batch.
//! 6. Signature caches, forked tracers, models, counters and database
//!    stores merge back in group order.
//!
//! No two groups meet the same signature, and a group's inputs are the
//! same whether it runs inline or on a worker, so the thread count
//! changes the wall time and nothing else: models, counters, aliases and
//! answers under a binding budget included.
//!
//! A model the budget degraded stays in the table, with its reason,
//! until the budget changes ([`ModelTable::set_budget`]); the database
//! never stores one.
//!
//! [`Pool`] and [`ModelDbs`] are the pool and database helpers every
//! analyzer shares, the demand-driven one included.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use hfta_fta::{
    AnalysisConfig, ConeSigCache, ModelDbSpec, ModelSource, OutputCone, SolveBudget, StabilityStats,
};
use hfta_modeldb::{ModelDb, ModelDbStats};
use hfta_netlist::{Composite, ConeKey, Design, Netlist, NetlistError, Time};
use hfta_sched::Scheduler;
use hfta_trace::{Tracer, Value};

use crate::deadline::DeadlineToken;
use crate::hier::{propagate, HierAnalysis};
use crate::module_timing::ModuleTiming;

/// Microseconds elapsed since `t0`, saturating.
pub(crate) fn micros_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Resolves `top` in `design` as the paper's depth-1 setting: a
/// composite whose instances all reference leaf modules.
///
/// # Errors
///
/// Returns design validation errors, and [`NetlistError::Unknown`] if
/// `top` is missing, is not a composite, or instantiates a non-leaf
/// module.
pub(crate) fn depth1_top<'d>(design: &'d Design, top: &str) -> Result<&'d Composite, NetlistError> {
    design.validate()?;
    let composite = design.composite(top).ok_or_else(|| NetlistError::Unknown {
        what: "top-level composite module",
        name: top.to_string(),
    })?;
    if let Some(inst) = composite
        .instances()
        .iter()
        .find(|inst| design.leaf(&inst.module).is_none())
    {
        return Err(NetlistError::Unknown {
            what: "leaf module (the analysis requires a depth-1 hierarchy)",
            name: inst.module.clone(),
        });
    }
    Ok(composite)
}

/// The `(read, write)` model-database handles a [`ModelDbSpec`] names.
#[derive(Debug)]
pub(crate) struct ModelDbs {
    /// Probed before characterization (warm start).
    pub(crate) read: Option<ModelDb>,
    /// Receives fresh results; it refuses degraded models.
    pub(crate) write: Option<ModelDb>,
}

impl ModelDbs {
    /// Opens the handles. The read handle tolerates a missing directory
    /// (probes miss); the write handle creates its directory, so a
    /// creation failure surfaces as [`NetlistError::Io`].
    pub(crate) fn open(spec: &ModelDbSpec) -> Result<ModelDbs, NetlistError> {
        let write = match &spec.write {
            Some(dir) => {
                let mut db = ModelDb::open(dir).map_err(|e| NetlistError::Io {
                    path: dir.display().to_string(),
                    message: e.to_string(),
                })?;
                db.set_limit(spec.limit);
                Some(db)
            }
            None => None,
        };
        Ok(ModelDbs {
            read: spec.read.as_ref().map(ModelDb::open_read_only),
            write,
        })
    }

    /// Counters of both handles, merged (all zero when none is open).
    pub(crate) fn stats(&self) -> ModelDbStats {
        let mut s = ModelDbStats::default();
        for db in self.read.iter().chain(&self.write) {
            s.merge(&db.stats());
        }
        s
    }
}

/// The worker pool parallel phases run on: the config's seated pool,
/// or one created by the first phase that asks and kept from then on.
#[derive(Debug)]
pub(crate) struct Pool {
    scheduler: Option<Scheduler>,
    threads: usize,
    clamp: bool,
    /// The `threads_clamped` event is emitted at most once.
    clamp_reported: bool,
}

impl Pool {
    pub(crate) fn new(config: &AnalysisConfig) -> Pool {
        Pool {
            scheduler: config.scheduler.get().cloned(),
            threads: config.threads,
            clamp: config.clamp_threads,
            clamp_reported: false,
        }
    }

    /// The pool, if one exists yet.
    pub(crate) fn handle(&self) -> Option<&Scheduler> {
        self.scheduler.as_ref()
    }

    /// The pool a phase runs on, or `None` to run it inline. A seated
    /// pool wins unchanged; otherwise the first call creates one with
    /// [`AnalysisConfig::threads`] workers, clamped to the machine's
    /// parallelism unless [`AnalysisConfig::clamp_threads`] is off (a
    /// `threads_clamped` trace event, once, records the clamp).
    pub(crate) fn get(&mut self, tracer: &mut Tracer) -> Option<Scheduler> {
        if self.scheduler.is_none() && self.threads > 1 {
            let effective = hfta_sched::effective_parallelism(self.threads, self.clamp);
            if effective < self.threads && tracer.is_enabled() && !self.clamp_reported {
                self.clamp_reported = true;
                tracer.event(
                    "threads_clamped",
                    vec![
                        ("requested", Value::from(self.threads)),
                        ("effective", Value::from(effective)),
                        (
                            "available",
                            Value::from(hfta_sched::available_parallelism()),
                        ),
                    ],
                );
            }
            if effective > 1 {
                self.scheduler = Some(Scheduler::new(effective));
            }
        }
        self.scheduler.clone().filter(|pool| pool.threads() > 1)
    }
}

/// What [`ModelTable::ensure`] did: one call's work, or (as
/// [`ModelTable::total`]) every call's.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Work {
    /// Leaves characterized (database hits excluded).
    pub(crate) characterized: u64,
    /// Characterized leaves whose every output replayed another
    /// module's characterization from the signature cache.
    pub(crate) aliased: u64,
    /// Solver work of the characterizations, the signature-cache and
    /// database counters, and the characterization wall time.
    pub(crate) stability: StabilityStats,
}

impl Work {
    fn merge(&mut self, other: &Work) {
        self.characterized += other.characterized;
        self.aliased += other.aliased;
        self.stability.merge(&other.stability);
    }
}

/// The leaf-model table (see the [module docs](self)).
#[derive(Debug)]
pub(crate) struct ModelTable {
    /// Model source, characterization options and budget of every
    /// characterization, shared with pooled tasks.
    config: Arc<AnalysisConfig>,
    models: HashMap<Arc<str>, ModuleTiming>,
    /// The degraded models, with the reason (`"deadline"` or
    /// `"budget"`), in the order they were recorded.
    degraded: Vec<(Arc<str>, &'static str)>,
    /// `(alias, owner)` pairs: modules whose every output model was
    /// replayed from `owner`'s characterization.
    aliases: Vec<(Arc<str>, Arc<str>)>,
    sig_cache: ConeSigCache,
    dbs: ModelDbs,
    /// Cuts off characterization when the budget's deadline passes:
    /// checked before each leaf starts, while the same deadline
    /// interrupts SAT queries in flight.
    token: DeadlineToken,
    pool: Pool,
    total: Work,
}

/// One leaf a group characterizes.
struct LeafTask {
    name: Arc<str>,
    /// An owned copy: pooled tasks must be `'static`.
    nl: Netlist,
    /// One cone per output (empty for topological models).
    cones: Vec<OutputCone>,
}

/// What characterizing one leaf produced.
struct Outcome {
    timing: ModuleTiming,
    stats: StabilityStats,
    /// Why the model is degraded, if it is.
    why: Option<&'static str>,
    /// Set when every output model was replayed from this other
    /// module's characterization.
    alias_owner: Option<String>,
}

/// One signature group, run as one task.
struct Group {
    leaves: Vec<LeafTask>,
    cache: ConeSigCache,
    config: Arc<AnalysisConfig>,
    token: DeadlineToken,
    tracer: Tracer,
}

/// A group's leaf with what characterizing it produced.
type LeafDone = (LeafTask, Result<Outcome, NetlistError>);

impl ModelTable {
    /// An empty table under `config`, with its model databases open.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Io`] when the write database cannot be
    /// created.
    pub(crate) fn new(config: &AnalysisConfig) -> Result<ModelTable, NetlistError> {
        Ok(ModelTable {
            config: Arc::new(config.clone()),
            models: HashMap::new(),
            degraded: Vec::new(),
            aliases: Vec::new(),
            sig_cache: ConeSigCache::new(),
            dbs: ModelDbs::open(&config.model_db)?,
            token: DeadlineToken::new(config.budget.deadline),
            pool: Pool::new(config),
            total: Work::default(),
        })
    }

    pub(crate) fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    pub(crate) fn model(&self, name: &str) -> Option<&ModuleTiming> {
        self.models.get(name)
    }

    /// Everything every [`ModelTable::ensure`] call did.
    pub(crate) fn total(&self) -> &Work {
        &self.total
    }

    pub(crate) fn degraded(&self) -> &[(Arc<str>, &'static str)] {
        &self.degraded
    }

    pub(crate) fn aliases(&self) -> &[(Arc<str>, Arc<str>)] {
        &self.aliases
    }

    pub(crate) fn db_stats(&self) -> ModelDbStats {
        self.dbs.stats()
    }

    pub(crate) fn pool(&self) -> Option<&Scheduler> {
        self.pool.handle()
    }

    /// Drops `name`'s model and the records describing it, so the next
    /// [`ModelTable::ensure`] characterizes it afresh.
    pub(crate) fn evict(&mut self, name: &str) {
        self.models.remove(name);
        self.degraded.retain(|(n, _)| &**n != name);
        self.aliases.retain(|(n, _)| &**n != name);
    }

    /// Installs a pre-built model (a black-box abstraction), replacing
    /// whatever the table held for its module.
    pub(crate) fn install(&mut self, timing: ModuleTiming) {
        self.evict(timing.module());
        self.models.insert(Arc::from(timing.module()), timing);
    }

    /// Changes the budget of later characterizations and evicts every
    /// degraded model: it is an artifact of the old budget.
    pub(crate) fn set_budget(&mut self, budget: SolveBudget) {
        Arc::make_mut(&mut self.config).budget = budget;
        self.token = DeadlineToken::new(budget.deadline);
        for (name, _) in std::mem::take(&mut self.degraded) {
            self.models.remove(&name);
        }
    }

    /// Step 2 over the table: propagates `pi_arrivals` through `top`,
    /// counting the degraded models it went through in
    /// `modules_degraded`.
    pub(crate) fn propagate(
        &self,
        top: &Composite,
        pi_arrivals: &[Time],
    ) -> Result<HierAnalysis, NetlistError> {
        let mut result = propagate(top, &self.models, pi_arrivals)?;
        result.stats.modules_degraded = self
            .degraded
            .iter()
            .filter(|(name, _)| top.instances().iter().any(|i| *i.module == **name))
            .count() as u64;
        Ok(result)
    }

    /// Makes sure the table holds a model for every leaf in `names`,
    /// running the schedule of the [module docs](self) for those it
    /// lacks, and returns what this call did.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Unknown`] for a name that is not a leaf
    /// of `design`, and the first characterization error (every other
    /// outcome is still booked).
    pub(crate) fn ensure<'n>(
        &mut self,
        design: &Design,
        names: impl IntoIterator<Item = &'n str>,
    ) -> Result<Work, NetlistError> {
        let mut missing: Vec<&str> = names
            .into_iter()
            .filter(|n| !self.models.contains_key(*n))
            .collect();
        let mut work = Work::default();
        if missing.is_empty() {
            return Ok(work);
        }
        missing.sort_unstable();
        missing.dedup();
        let leaves = missing
            .into_iter()
            .map(|name| match design.leaf(name) {
                Some(nl) => Ok((name, nl)),
                None => Err(NetlistError::Unknown {
                    what: "leaf module",
                    name: name.to_string(),
                }),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut tracer = self.config.trace.tracer();
        let mut pending = Vec::with_capacity(leaves.len());
        for (name, nl) in leaves {
            if !self.probe(nl, name, &mut work, &mut tracer) {
                pending.push((name, nl));
            }
        }
        let result = self.characterize(&pending, &mut work, &mut tracer);
        self.config.trace.absorb(tracer);
        self.total.merge(&work);
        result.map(|()| work)
    }

    /// Probes the read database for `name`'s model, booking a hit
    /// straight into the table (no characterization counted).
    fn probe(&mut self, nl: &Netlist, name: &str, work: &mut Work, tracer: &mut Tracer) -> bool {
        let Some(db) = self.dbs.read.as_mut() else {
            return false;
        };
        let hit = db.probe(nl, self.config.source, &self.config.characterize);
        let event = if hit.is_some() {
            work.stability.model_db_hits += 1;
            "model_db_hit"
        } else {
            work.stability.model_db_misses += 1;
            "model_db_miss"
        };
        if tracer.is_enabled() {
            tracer.event(event, vec![("module", Value::from(name))]);
        }
        let Some(timing) = hit else {
            return false;
        };
        self.models.insert(Arc::from(name), timing);
        true
    }

    /// Steps 3–6 of the schedule for `leaves` (in name order).
    fn characterize(
        &mut self,
        leaves: &[(&str, &Netlist)],
        work: &mut Work,
        tracer: &mut Tracer,
    ) -> Result<(), NetlistError> {
        if leaves.is_empty() {
            return Ok(());
        }
        let t0 = Instant::now();
        let mut cones = Vec::with_capacity(leaves.len());
        for (_, nl) in leaves {
            cones.push(match self.config.source {
                ModelSource::Functional => OutputCone::all(nl)?,
                ModelSource::Topological => Vec::new(),
            });
        }
        let keys: Vec<Vec<&ConeKey>> = cones
            .iter()
            .map(|leaf| leaf.iter().map(OutputCone::key).collect())
            .collect();
        let members_of = signature_groups(&keys);
        let mut groups = Vec::new();
        for (g, members) in members_of.into_iter().enumerate() {
            let mut sigs: Vec<_> = members
                .iter()
                .flat_map(|&i| cones[i].iter().map(|c| c.key().sig))
                .collect();
            sigs.sort_unstable();
            sigs.dedup();
            let leaves = members
                .into_iter()
                .map(|i| LeafTask {
                    name: Arc::from(leaves[i].0),
                    nl: leaves[i].1.clone(),
                    cones: std::mem::take(&mut cones[i]),
                })
                .collect();
            groups.push(Group {
                leaves,
                cache: self.sig_cache.seeded(&sigs),
                config: Arc::clone(&self.config),
                token: self.token.clone(),
                tracer: tracer.fork(g as u32 + 1),
            });
        }
        let pool = if groups.len() > 1 {
            self.pool.get(tracer)
        } else {
            None
        };
        let done: Vec<(Group, Vec<LeafDone>)> = match pool {
            Some(pool) => pool.run(groups, run_group),
            None => groups.into_iter().map(run_group).collect(),
        };
        work.stability.wall.characterize_micros += micros_since(t0);
        let mut first_err = None;
        for (group, outcomes) in done {
            tracer.absorb(group.tracer);
            self.sig_cache.merge(group.cache);
            for (leaf, outcome) in outcomes {
                match outcome {
                    Ok(outcome) => self.record(leaf, outcome, work, tracer),
                    Err(e) => first_err = first_err.or(Some(e)),
                }
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Books one characterization: the write database (filed under the
    /// signatures of the cones it characterized), the counters, the
    /// alias and degradation records, and the model.
    fn record(&mut self, leaf: LeafTask, outcome: Outcome, work: &mut Work, tracer: &mut Tracer) {
        if let Some(db) = self.dbs.write.as_mut() {
            let (source, opts) = (self.config.source, &self.config.characterize);
            let (timing, degraded) = (&outcome.timing, outcome.why.is_some());
            let stored = if source == ModelSource::Functional {
                let sigs: Vec<_> = leaf.cones.iter().map(|c| c.key().sig).collect();
                db.store_signed(&leaf.nl, &sigs, source, opts, timing, degraded)
            } else {
                db.store(&leaf.nl, source, opts, timing, degraded)
            };
            if stored && tracer.is_enabled() {
                tracer.event("model_db_store", vec![("module", Value::from(&*leaf.name))]);
            }
        }
        work.characterized += 1;
        work.stability.merge(&outcome.stats);
        if let Some(why) = outcome.why {
            self.degraded.push((Arc::clone(&leaf.name), why));
        }
        if let Some(owner) = outcome.alias_owner {
            work.aliased += 1;
            self.aliases
                .push((Arc::clone(&leaf.name), Arc::from(owner)));
        }
        self.models.insert(leaf.name, outcome.timing);
    }
}

/// Partitions leaves (given as their cone keys, in name order) into
/// groups of leaves that share a cone signature, as member indices:
/// members ascend, and groups are ordered by their first member.
/// Constant cones (no inputs) never consult the signature cache, so
/// they join nothing.
fn signature_groups(keys: &[Vec<&ConeKey>]) -> Vec<Vec<usize>> {
    fn root(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let mut parent: Vec<usize> = (0..keys.len()).collect();
    let mut first_with: HashMap<u128, usize> = HashMap::new();
    for (i, leaf) in keys.iter().enumerate() {
        for key in leaf.iter().filter(|k| !k.perm.is_empty()) {
            match first_with.entry(key.sig.0) {
                Entry::Vacant(e) => {
                    e.insert(i);
                }
                Entry::Occupied(e) => {
                    let (a, b) = (root(&mut parent, i), root(&mut parent, *e.get()));
                    parent[a.max(b)] = a.min(b);
                }
            }
        }
    }
    // A union keeps the smaller root, so each group's root is its first
    // member and comes up before the rest.
    let mut group_of = vec![0; keys.len()];
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for i in 0..keys.len() {
        let r = root(&mut parent, i);
        if r == i {
            group_of[i] = groups.len();
            groups.push(Vec::new());
        }
        groups[group_of[r]].push(i);
    }
    groups
}

/// Characterizes a group's leaves in order on its private cache,
/// stopping at the first error.
fn run_group(mut group: Group) -> (Group, Vec<LeafDone>) {
    let mut outcomes = Vec::with_capacity(group.leaves.len());
    for leaf in std::mem::take(&mut group.leaves) {
        let outcome = characterize_leaf(
            &leaf,
            &group.config,
            &group.token,
            &mut group.cache,
            &mut group.tracer,
        );
        let failed = outcome.is_err();
        outcomes.push((leaf, outcome));
        if failed {
            break;
        }
    }
    (group, outcomes)
}

/// Characterizes one leaf inside a `characterize_module` span. An
/// expired deadline degrades the whole module to its topological model
/// (counted per output in [`StabilityStats::degraded`]); a budget that
/// interrupts some outputs degrades those outputs.
fn characterize_leaf(
    leaf: &LeafTask,
    config: &AnalysisConfig,
    token: &DeadlineToken,
    cache: &mut ConeSigCache,
    tracer: &mut Tracer,
) -> Result<Outcome, NetlistError> {
    let span = tracer
        .is_enabled()
        .then(|| tracer.begin("characterize_module"));
    let nl = &leaf.nl;
    let result = if config.source == ModelSource::Functional && token.expired() {
        let topological = AnalysisConfig::default().with_source(ModelSource::Topological);
        ModuleTiming::characterize(nl, &topological).map(|timing| Outcome {
            timing,
            stats: StabilityStats {
                degraded: nl.outputs().len() as u64,
                ..StabilityStats::default()
            },
            why: Some("deadline"),
            alias_owner: None,
        })
    } else {
        ModuleTiming::characterize_traced(nl, config, &leaf.cones, Some(cache), tracer).map(
            |(timing, stats, owners)| {
                // An alias: every output replayed from one other
                // module's characterization.
                let alias_owner = match owners.first() {
                    Some(Some(owner))
                        if owner != nl.name()
                            && owners.iter().all(|o| o.as_deref() == Some(owner)) =>
                    {
                        Some(owner.clone())
                    }
                    _ => None,
                };
                Outcome {
                    why: (stats.degraded > 0).then_some("budget"),
                    timing,
                    stats,
                    alias_owner,
                }
            },
        )
    };
    if let Some(span) = span {
        match &result {
            Ok(outcome) => {
                if let Some(owner) = outcome.alias_owner.as_deref() {
                    tracer.event(
                        "module_alias",
                        vec![
                            ("module", Value::from(nl.name())),
                            ("owner", Value::from(owner)),
                        ],
                    );
                }
                tracer.end_with(
                    span,
                    vec![
                        ("module", Value::from(nl.name())),
                        ("outputs", Value::from(outcome.timing.models().len())),
                        ("degraded", Value::from(outcome.why.unwrap_or("no"))),
                        ("aliased", Value::from(outcome.alias_owner.is_some())),
                    ],
                );
            }
            Err(_) => tracer.end_with(span, vec![("module", Value::from(nl.name()))]),
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfta_netlist::ConeSig;

    fn key(sig: u128, inputs: usize) -> ConeKey {
        ConeKey {
            sig: ConeSig(sig),
            perm: (0..inputs).collect(),
        }
    }

    /// Sharing is transitive: a leaf that shares one signature with
    /// each of two others joins them into one group, which keeps its
    /// first member's place; constant cones join nothing.
    #[test]
    fn groups_close_over_shared_signatures() {
        let keys = [
            vec![key(1, 2)],
            vec![key(2, 2), key(7, 0)],
            vec![key(3, 1), key(7, 0)],
            vec![key(2, 3), key(1, 2)],
            vec![],
        ];
        let keys: Vec<Vec<&ConeKey>> = keys.iter().map(|leaf| leaf.iter().collect()).collect();
        assert_eq!(
            signature_groups(&keys),
            vec![vec![0, 1, 3], vec![2], vec![4]]
        );
    }
}
