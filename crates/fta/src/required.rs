//! Approximate required-time analysis (Kukimoto & Brayton, DAC 1997) —
//! the leaf-module characterization engine.
//!
//! Given a module output with required time 0, the analysis finds
//! maximal (loosest) tuples of input required times under which the
//! output is still guaranteed stable, expressed as delay tuples (the
//! negated required times). The approximate algorithm follows the
//! paper: starting from the topological tuple, each input's delay is
//! relaxed down the list of *distinct topological path lengths* (then
//! to `−∞` — "not needed at all"), each step validated by
//! a full XBD0 stability check. Monotone speedup makes each walk
//! monotone, so the first failure stops it.
//!
//! Several greedy passes seeded from different inputs yield the
//! incomparable tuples the paper exploits (`T` may hold more than one
//! tuple); dominated results are pruned by
//! [`TimingModel::from_tuples`].
//!
//! The passes over one cone decide each candidate tuple at most once: a
//! [`VerdictStore`] answers every candidate its proven verdicts imply by
//! monotone speedup, and only the rest reach the stability check.

use std::collections::HashMap;

use hfta_netlist::{ConeSig, NetId, Netlist, NetlistError, Time};
use hfta_sat::SolveBudget;

use hfta_trace::Tracer;

use crate::boolalg::{BoolAlg, SatAlg};
use crate::cone::{OutputCone, VerdictStore};
use crate::config::AnalysisConfig;
use crate::model::{TimingModel, TimingTuple};
use crate::oracle::StabilityOracle;
use crate::sta::TopoSta;
use crate::stability::StabilityStats;

/// Cap on the per-pin distinct path-length lists (longest kept), for
/// characterization and demand-driven refinement alike.
pub const LENGTHS_CAP: usize = 32;

/// The characterization options that shape a model — which makes them
/// the key a model database files the model under
/// (`hfta_modeldb::options_fingerprint`). Carried by
/// [`AnalysisConfig::characterize`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CharacterizeOptions {
    /// Number of greedy relaxation passes (each seeded from a different
    /// most-critical input). More passes can discover more incomparable
    /// tuples at proportional cost. `1` reproduces the single-tuple
    /// models of the paper's Section 4 example.
    pub max_tuples: usize,
}

impl Default for CharacterizeOptions {
    fn default() -> CharacterizeOptions {
        CharacterizeOptions { max_tuples: 4 }
    }
}

/// A cache of per-cone characterization results keyed by structural
/// signature ([`ConeSig`]).
///
/// The cache stores only characterizations the budget never
/// interrupted. Every check of such a run was decided, so its tuples
/// are the exact result of the greedy passes — the same under any
/// budget — and a stored entry is replayed for a candidate cone when
/// the replay is provably what an unlimited fresh characterization of
/// the candidate would produce:
///
/// * equal signature — the cones are isomorphic, so path-length lists,
///   topological tuples and exact stability verdicts all correspond
///   through the input permutation;
/// * equal criticality order (expressed in canonical slots) — the
///   greedy relaxation visits inputs in the same canonical sequence,
///   so every pass replays move for move.
///
/// Under a budget that binds, a hit is therefore at least as tight as
/// fresh (budgeted) analysis and still sound; which cones hit depends
/// on what was characterized before. The persistent on-disk model
/// database (`hfta-modeldb`) applies the same rule: it never stores a
/// degraded model.
///
/// Entries produced under different [`CharacterizeOptions`] are not
/// interchangeable; a cache must only be reused with the options that
/// filled it (as the hierarchical analyzer in `hfta-core` does).
#[derive(Debug, Default)]
pub struct ConeSigCache {
    entries: HashMap<u128, SigEntry>,
    hits: u64,
    misses: u64,
}

#[derive(Clone, Debug)]
struct SigEntry {
    /// Unpruned cone tuples (greedy passes + topological floor) with
    /// delays indexed by canonical slot.
    slot_tuples: Vec<Vec<Time>>,
    /// The characterizing cone's criticality order, as canonical slots.
    crit_slots: Vec<usize>,
    /// Module that paid for the characterization (alias observability).
    owner: String,
}

impl ConeSigCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> ConeSigCache {
        ConeSigCache::default()
    }

    /// Number of characterizations answered from the cache.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of characterizations that ran fresh (and seeded entries).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// A fresh cache (counters at zero) holding copies of this cache's
    /// entries for `sigs`: what a characterization that only meets
    /// those signatures can replay, detached so it can run on another
    /// thread and [`merge`](Self::merge) back.
    #[must_use]
    pub fn seeded(&self, sigs: &[ConeSig]) -> ConeSigCache {
        let entries = sigs
            .iter()
            .filter_map(|s| Some((s.0, self.entries.get(&s.0)?.clone())))
            .collect();
        ConeSigCache {
            entries,
            ..ConeSigCache::default()
        }
    }

    /// Folds `other` into `self`: counters add, entries merge with
    /// existing ones winning (deterministic given a deterministic merge
    /// order).
    pub fn merge(&mut self, other: ConeSigCache) {
        self.hits += other.hits;
        self.misses += other.misses;
        for (k, v) in other.entries {
            self.entries.entry(k).or_insert(v);
        }
    }
}

/// The topological delay tuple of `output`: longest path from every
/// primary input ([`Time::NEG_INF`] for inputs with no path).
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
pub fn topological_delays(netlist: &Netlist, output: NetId) -> Result<Vec<Time>, NetlistError> {
    let sta = TopoSta::new(netlist)?;
    let long = sta.longest_to(output);
    Ok(netlist.inputs().iter().map(|pi| long[pi.index()]).collect())
}

/// Characterizes module outputs into [`TimingModel`]s via repeated
/// functional timing analysis.
///
/// # Example
///
/// ```
/// use hfta_fta::{AnalysisConfig, Characterizer};
/// use hfta_netlist::gen::{carry_skip_block, CsaDelays};
/// use hfta_netlist::Time;
///
/// # fn main() -> Result<(), hfta_netlist::NetlistError> {
/// let block = carry_skip_block(2, CsaDelays::default());
/// let mut ch = Characterizer::new(&block, &AnalysisConfig::default());
/// let c_out = block.find_net("c_out").expect("exists");
/// let model = ch.output_model(c_out)?;
/// // The paper's T_cout = {(2, 8, 8, 6, 6)}: the c_in→c_out false path
/// // is captured (topological delay would be 6).
/// assert_eq!(model.tuples()[0].delay(0), Time::new(2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Characterizer<'a> {
    netlist: &'a Netlist,
    /// Greedy passes per cone ([`CharacterizeOptions::max_tuples`]).
    max_tuples: usize,
    /// Per-check budget, applied by the module's oracle.
    budget: SolveBudget,
    checks: u64,
    implied: u64,
    stability: StabilityStats,
    tracer: Tracer,
    /// The module-wide oracle: every candidate tuple of every cone is
    /// validated against this single incremental SAT instance, each
    /// check domain-restricted to the queried output's transitive
    /// fanin. Built lazily by the first cone characterized.
    oracle: Option<StabilityOracle<SatAlg>>,
}

impl<'a> Characterizer<'a> {
    /// Creates a characterizer for `netlist` under `config`'s
    /// characterization options and budget.
    #[must_use]
    pub fn new(netlist: &'a Netlist, config: &AnalysisConfig) -> Characterizer<'a> {
        Characterizer {
            netlist,
            max_tuples: config.characterize.max_tuples,
            budget: config.budget,
            checks: 0,
            implied: 0,
            stability: StabilityStats::default(),
            tracer: Tracer::disabled(),
            oracle: None,
        }
    }

    /// Installs a tracer; characterization spans/events (relaxation
    /// steps, cone-signature hits, SAT episodes) are recorded into it.
    /// Tracing never changes results — only the side buffer.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Takes the tracer back (leaving a disabled one).
    pub fn take_tracer(&mut self) -> Tracer {
        std::mem::take(&mut self.tracer)
    }

    /// Stability/solver work accumulated over all characterizations so
    /// far. One module-wide oracle backs every
    /// [`Characterizer::output_model`] call, so these counters reflect
    /// the amortized (not per-probe) cost.
    #[must_use]
    pub fn stability_stats(&self) -> StabilityStats {
        let mut s = self.stability;
        if let Some(oracle) = &self.oracle {
            s.merge(&oracle.stats());
        }
        s
    }

    /// The timing model of one output over the module's full input
    /// list.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
    pub fn output_model(&mut self, output: NetId) -> Result<TimingModel, NetlistError> {
        let cone = OutputCone::new(self.netlist, output)?;
        self.cone_model(&cone, None).map(|(m, _)| m)
    }

    /// The timing model of `cone`'s output over the module's full input
    /// list; `cone` must be a cone of this characterizer's netlist.
    /// With a [`ConeSigCache`], the cache is consulted (and fed) under
    /// the cone's signature.
    ///
    /// On a cache hit the second component names the module that
    /// originally paid for the shared cone (possibly this one, for
    /// isomorphic outputs within a module); otherwise it is `None`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
    pub fn cone_model(
        &mut self,
        cone: &OutputCone,
        cache: Option<&mut ConeSigCache>,
    ) -> Result<(TimingModel, Option<String>), NetlistError> {
        if !self.tracer.is_enabled() {
            return self.cone_model_impl(cone, cache);
        }
        let span = self.tracer.begin("characterize_output");
        let checks_before = self.checks;
        let implied_before = self.implied;
        let degraded_before = self.stability.degraded;
        let result = self.cone_model_impl(cone, cache);
        let fields = vec![
            ("output", self.netlist.net_name(cone.output()).into()),
            ("checks", (self.checks - checks_before).into()),
            ("implied", (self.implied - implied_before).into()),
            (
                "degraded",
                (self.stability.degraded > degraded_before).into(),
            ),
        ];
        self.tracer.end_with(span, fields);
        result
    }

    fn cone_model_impl(
        &mut self,
        cone: &OutputCone,
        cache: Option<&mut ConeSigCache>,
    ) -> Result<(TimingModel, Option<String>), NetlistError> {
        let expand = |tuples: Vec<TimingTuple>| {
            let expanded = tuples
                .iter()
                .map(|t| TimingTuple::new(cone.expand(t.delays())))
                .collect();
            TimingModel::from_tuples(expanded)
        };
        let n_cone = cone.positions().len();
        if n_cone == 0 {
            // Constant cone: no input matters.
            return Ok((expand(vec![TimingTuple::new(Vec::new())]), None));
        }
        let lists = cone.lengths(LENGTHS_CAP)?;
        let topo: Vec<Time> = lists
            .iter()
            .map(|l| l.first().copied().unwrap_or(Time::NEG_INF))
            .collect();

        // Input order by descending criticality (topological delay).
        let mut by_criticality: Vec<usize> = (0..n_cone).collect();
        by_criticality.sort_by(|&a, &b| topo[b].cmp(&topo[a]));

        let Some(cache) = cache else {
            let (tuples, _) = self.characterize_cone(cone, &lists, &topo, &by_criticality)?;
            return Ok((expand(tuples), None));
        };
        let key = cone.key();
        let crit_slots: Vec<usize> = by_criticality.iter().map(|&i| key.perm[i]).collect();
        if let Some(entry) = cache
            .entries
            .get(&key.sig.0)
            .filter(|e| e.crit_slots == crit_slots)
        {
            let tuples = entry
                .slot_tuples
                .iter()
                .map(|st| TimingTuple::new(key.from_slots(st)))
                .collect();
            let owner = entry.owner.clone();
            cache.hits += 1;
            self.stability.cone_sig_hits += 1;
            if self.tracer.is_enabled() {
                self.tracer
                    .event("cone_sig_hit", vec![("owner", owner.as_str().into())]);
            }
            return Ok((expand(tuples), Some(owner)));
        }
        cache.misses += 1;
        self.stability.cone_sig_misses += 1;
        if self.tracer.is_enabled() {
            self.tracer.event("cone_sig_miss", vec![]);
        }
        let (tuples, hit_budget) = self.characterize_cone(cone, &lists, &topo, &by_criticality)?;
        // A run the budget interrupted is not the exact result, so it
        // never enters the cache (see [`ConeSigCache`]).
        if !hit_budget {
            let slot_tuples = tuples
                .iter()
                .map(|t| key.to_slots(t.delays(), Time::NEG_INF))
                .collect();
            cache.entries.entry(key.sig.0).or_insert_with(|| SigEntry {
                slot_tuples,
                crit_slots,
                owner: self.netlist.name().to_string(),
            });
        }
        Ok((expand(tuples), None))
    }

    /// The uncached core: greedy relaxation passes plus the topological
    /// floor, returning the unpruned cone tuples and whether the budget
    /// interfered.
    ///
    /// One module-wide oracle validates every candidate tuple of every
    /// cone. Each check is domain-restricted to the queried output's
    /// transitive fanin, so cones don't pay for each other's logic,
    /// while learnt clauses, the Tseitin cache, and between-query
    /// inprocessing are shared across all of them. Every decided check
    /// is exact; under a budget that binds, which checks it interrupts
    /// depends on what the module's earlier checks left in the solver.
    fn characterize_cone(
        &mut self,
        cone: &OutputCone,
        lists: &[Vec<Time>],
        topo: &[Time],
        by_criticality: &[usize],
    ) -> Result<(Vec<TimingTuple>, bool), NetlistError> {
        let mut oracle = match self.oracle.take() {
            Some(o) => o,
            None => {
                let far = vec![Time::POS_INF; self.netlist.inputs().len()];
                let mut o = StabilityOracle::new(self.netlist.clone(), &far, SatAlg::new_shared())?;
                o.set_budget(self.budget);
                o
            }
        };
        if self.tracer.is_enabled() {
            oracle.alg_mut().set_episode_recording(true);
        }
        let n_cone = lists.len();
        let passes = self.max_tuples.max(1).min(n_cone);
        let mut tuples = Vec::with_capacity(passes + 1);
        let mut checker = ConeChecker {
            oracle: &mut oracle,
            cone,
            store: VerdictStore::default(),
            hit_budget: false,
        };
        for seed in 0..passes {
            let mut order = by_criticality.to_vec();
            order.rotate_left(seed);
            tuples.push(self.greedy_pass(&mut checker, lists, topo, &order));
        }
        let hit_budget = checker.hit_budget;
        if hit_budget {
            self.stability.degraded += 1;
        }
        // Cumulative oracle stats are folded in by `stability_stats` —
        // merging per cone would double-count.
        self.oracle = Some(oracle);
        // The topological tuple is always valid; keep it as a floor (it
        // will be pruned if any pass improved on it).
        tuples.push(TimingTuple::new(topo.to_vec()));
        Ok((tuples, hit_budget))
    }

    /// One greedy relaxation pass over the cone inputs in `order`: each
    /// input walks down its distinct path lengths, then to `−∞`, until
    /// a step is not proven valid. A budget-exhausted check stops the
    /// walk as an invalid candidate would — every *accepted* step was
    /// proven, so the partial tuple stays sound.
    fn greedy_pass(
        &mut self,
        checker: &mut ConeChecker<'_>,
        lists: &[Vec<Time>],
        topo: &[Time],
        order: &[usize],
    ) -> TimingTuple {
        let mut delays: Vec<Time> = topo.to_vec();
        for &i in order {
            for &l in lists[i][1..].iter().chain([&Time::NEG_INF]) {
                let kept = delays[i];
                delays[i] = l;
                if !self.relax_step(checker, i, &delays) {
                    delays[i] = kept;
                    break;
                }
            }
        }
        TimingTuple::new(delays)
    }

    /// Decides one relaxation step — `delays` with input `input` just
    /// relaxed — from the verdicts already proven for this cone when
    /// they imply it, else by a stability check whose definitive
    /// verdict joins them. Returns whether the step is proven valid.
    fn relax_step(&mut self, checker: &mut ConeChecker<'_>, input: usize, delays: &[Time]) -> bool {
        let implied = checker.store.implied(delays);
        let verdict = if implied.is_some() {
            self.implied += 1;
            implied
        } else {
            let verdict = self.tuple_is_valid(checker, delays);
            if let Some(valid) = verdict {
                checker.store.record(delays, valid);
            } else {
                checker.hit_budget = true;
            }
            verdict
        };
        if self.tracer.is_enabled() {
            let label = match verdict {
                Some(true) => "ok",
                Some(false) => "fail",
                None => "budget",
            };
            self.tracer.event(
                "relax_step",
                vec![
                    ("input", input.into()),
                    ("candidate", delays[input].to_string().into()),
                    ("verdict", label.into()),
                    ("implied", implied.is_some().into()),
                ],
            );
        }
        verdict == Some(true)
    }

    /// Validity check: with required time 0 at the output and the cone
    /// inputs arriving at `−delay`, is the output stable at 0? Inputs
    /// outside the cone never arrive, which cannot change the verdict
    /// (they are outside the queried net's support). `None` when the
    /// budget ran out before the check was decided.
    fn tuple_is_valid(&mut self, checker: &mut ConeChecker<'_>, delays: &[Time]) -> Option<bool> {
        self.checks += 1;
        let oracle = &mut *checker.oracle;
        let mut arrivals = vec![Time::POS_INF; self.netlist.inputs().len()];
        for (&p, &d) in checker.cone.positions().iter().zip(delays) {
            arrivals[p] = -d;
        }
        oracle.set_arrivals(&arrivals);
        let verdict = oracle.try_is_stable_at(checker.cone.output(), Time::ZERO);
        if self.tracer.is_enabled() {
            for ep in oracle.alg_mut().take_episodes() {
                self.tracer
                    .event("sat_episode", crate::config::solve_episode_fields(&ep));
            }
        }
        verdict
    }
}

/// One cone's relaxation state across its greedy passes: the cone its
/// checks land on, the verdicts proven so far, and whether a check ran
/// out of budget.
struct ConeChecker<'s> {
    oracle: &'s mut StabilityOracle<SatAlg>,
    cone: &'s OutputCone,
    store: VerdictStore,
    hit_budget: bool,
}

/// Convenience: characterizes every output of a module.
///
/// Returns one model per primary output, in output order.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
pub fn characterize_module(
    netlist: &Netlist,
    config: &AnalysisConfig,
) -> Result<Vec<TimingModel>, NetlistError> {
    let mut ch = Characterizer::new(netlist, config);
    netlist
        .outputs()
        .iter()
        .map(|&out| ch.output_model(out))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module_timing::ModuleTiming;
    use hfta_netlist::gen::{carry_skip_block, CsaDelays};
    use hfta_netlist::GateKind;

    fn t(v: i64) -> Time {
        Time::new(v)
    }

    /// Models, stability work and per-output owners of a
    /// characterization, through `cache` when one is given.
    fn traced(
        nl: &Netlist,
        config: &AnalysisConfig,
        cache: Option<&mut ConeSigCache>,
    ) -> (Vec<TimingModel>, StabilityStats, Vec<Option<String>>) {
        let cones = OutputCone::all(nl).unwrap();
        let (timing, stats, owners) =
            ModuleTiming::characterize_traced(nl, config, &cones, cache, &mut Tracer::disabled())
                .unwrap();
        (timing.models().to_vec(), stats, owners)
    }

    /// Models and stability work of an uncached characterization.
    fn with_stats(nl: &Netlist, config: &AnalysisConfig) -> (Vec<TimingModel>, StabilityStats) {
        let (models, stats, _) = traced(nl, config, None);
        (models, stats)
    }

    /// Characterizes `nl` through `cache`.
    fn cached(
        nl: &Netlist,
        config: &AnalysisConfig,
        cache: &mut ConeSigCache,
    ) -> (Vec<TimingModel>, StabilityStats, Vec<Option<String>>) {
        traced(nl, config, Some(cache))
    }

    /// Section 4 of the paper: the timing models of the 2-bit
    /// carry-skip block, inputs ordered c_in < a0 < b0 < a1 < b1.
    #[test]
    fn paper_models_for_carry_skip_block() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let models = characterize_module(&nl, &AnalysisConfig::default()).unwrap();
        // T_s0 = {(2, 4, 4, −∞, −∞)} (topological).
        let s0 = &models[0];
        assert_eq!(
            s0.tuples(),
            &[TimingTuple::new(vec![
                t(2),
                t(4),
                t(4),
                Time::NEG_INF,
                Time::NEG_INF
            ])]
        );
        // T_s1 = {(4, 6, 6, 4, 4)} (topological).
        let s1 = &models[1];
        assert_eq!(
            s1.tuples(),
            &[TimingTuple::new(vec![t(4), t(6), t(6), t(4), t(4)])]
        );
        // T_cout = {(2, 8, 8, 6, 6)}: more accurate than topological
        // (the longest c_in→c_out path has length 6).
        let cout = &models[2];
        assert_eq!(
            cout.tuples(),
            &[TimingTuple::new(vec![t(2), t(8), t(8), t(6), t(6)])]
        );
    }

    /// Models are conservative: for random arrival patterns the min–max
    /// stable time is never earlier than the true functional delay.
    #[test]
    fn model_is_conservative_vs_flat() {
        use crate::delay::DelayAnalyzer;
        let nl = carry_skip_block(2, CsaDelays::default());
        let models = characterize_module(&nl, &AnalysisConfig::default()).unwrap();
        let patterns: Vec<Vec<Time>> = vec![
            vec![t(0); 5],
            vec![t(8), t(0), t(0), t(0), t(0)],
            vec![t(5), t(0), t(0), t(0), t(0)],
            vec![t(0), t(3), t(1), t(-2), t(7)],
            vec![t(-4), t(2), t(2), t(9), t(0)],
        ];
        for arrivals in patterns {
            let mut flat = DelayAnalyzer::new_sat(&nl, &arrivals).unwrap();
            for (k, &out) in nl.outputs().iter().enumerate() {
                let exact = flat.output_arrival(out);
                let modeled = models[k].stable_time(&arrivals);
                assert!(
                    modeled >= exact,
                    "model optimistic for {} under {:?}: {} < {}",
                    nl.net_name(out),
                    arrivals,
                    modeled,
                    exact
                );
            }
        }
    }

    /// The AND-gate warm-up: the vector-independent approximate model
    /// cannot drop either input (the paper's incomparable tuples are
    /// per-vector), so it equals topological.
    #[test]
    fn and_gate_approximate_model() {
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::And, &[a, b], z, 1).unwrap();
        nl.mark_output(z);
        let models = characterize_module(&nl, &AnalysisConfig::default()).unwrap();
        assert_eq!(models[0].tuples(), &[TimingTuple::new(vec![t(1), t(1)])]);
    }

    /// An input that is functionally irrelevant relaxes to −∞.
    #[test]
    fn irrelevant_input_dropped() {
        // z = Mux(s, a, a): s is irrelevant (consensus).
        let mut nl = Netlist::new("m");
        let s = nl.add_input("s");
        let a = nl.add_input("a");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::Mux, &[s, a, a], z, 2).unwrap();
        nl.mark_output(z);
        let models = characterize_module(&nl, &AnalysisConfig::default()).unwrap();
        assert_eq!(
            models[0].tuples(),
            &[TimingTuple::new(vec![Time::NEG_INF, t(2)])]
        );
    }

    #[test]
    fn constant_output_has_all_neg_inf() {
        let mut nl = Netlist::new("m");
        let _a = nl.add_input("a");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::Const1, &[], z, 1).unwrap();
        nl.mark_output(z);
        let models = characterize_module(&nl, &AnalysisConfig::default()).unwrap();
        assert_eq!(models[0].tuples(), &[TimingTuple::new(vec![Time::NEG_INF])]);
    }

    /// Steps are decided by a check or implied by an earlier verdict on
    /// the same cone, and each kind is counted.
    #[test]
    fn checks_are_counted() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let mut ch = Characterizer::new(&nl, &AnalysisConfig::default());
        let c_out = nl.find_net("c_out").unwrap();
        let _ = ch.output_model(c_out).unwrap();
        assert!(ch.checks > 0);
        assert!(ch.implied > 0);
    }

    /// A zero budget degrades every solver-dependent relaxation: the
    /// models collapse to their topological tuples (still sound) and
    /// the degradation is counted.
    #[test]
    fn zero_budget_degrades_to_topological() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let config =
            AnalysisConfig::default().with_budget(SolveBudget::default().with_conflicts(0));
        let (models, stats) = with_stats(&nl, &config);
        assert!(stats.budget_hits > 0, "{stats:?}");
        assert!(stats.degraded > 0, "{stats:?}");
        // c_out loses the false-path refinement (2 → 6 on the c_in pin)
        // but keeps the sound topological tuple.
        let cout = &models[2];
        assert_eq!(
            cout.tuples(),
            &[TimingTuple::new(vec![t(6), t(8), t(8), t(6), t(6)])]
        );
        // Budgeted models are conservative versus the exact ones.
        let exact = characterize_module(&nl, &AnalysisConfig::default()).unwrap();
        let patterns: Vec<Vec<Time>> = vec![
            vec![t(0); 5],
            vec![t(8), t(0), t(0), t(0), t(0)],
            vec![t(0), t(3), t(1), t(-2), t(7)],
        ];
        for arrivals in &patterns {
            for (m, e) in models.iter().zip(&exact) {
                assert!(m.stable_time(arrivals) >= e.stable_time(arrivals));
            }
        }
        // An unlimited budget leaves the results and counters untouched.
        let (unbudgeted, s) = with_stats(&nl, &AnalysisConfig::default());
        assert_eq!(unbudgeted, exact);
        assert_eq!(s.budget_hits, 0);
        assert_eq!(s.degraded, 0);
    }

    /// Renamed copies of a module share every characterization through
    /// the signature cache, bit-identically to fresh analysis.
    #[test]
    fn signature_cache_shares_across_copies_bit_identically() {
        let a = carry_skip_block(2, CsaDelays::default());
        let mut b = carry_skip_block(2, CsaDelays::default());
        b.set_name("renamed_copy");
        let config = AnalysisConfig::default();
        let mut cache = ConeSigCache::new();
        let (ma, _, owners_a) = cached(&a, &config, &mut cache);
        let (mb, sb, owners_b) = cached(&b, &config, &mut cache);
        assert_eq!(ma, characterize_module(&a, &config).unwrap());
        assert_eq!(mb, characterize_module(&b, &config).unwrap());
        // The three output cones of the block are structurally distinct,
        // so the first module misses three times and the copy hits three
        // times, each hit crediting the original module.
        assert_eq!((cache.hits(), cache.misses()), (3, 3));
        assert!(owners_a.iter().all(Option::is_none));
        assert_eq!(sb.cone_sig_hits, 3);
        assert!(owners_b.iter().all(|o| o.as_deref() == Some(a.name())));
    }

    /// The cache holds only characterizations the budget never
    /// interrupted, which are exact under any budget: a permuted
    /// isomorph shares them under a limited budget as under an
    /// unlimited one, while a degraded characterization is never
    /// stored.
    #[test]
    fn limited_budget_shares_only_undegraded_entries() {
        let aoi = |order: &[&str]| {
            let mut nl = Netlist::new(format!("aoi_{}", order.join("")));
            let mut ids = std::collections::HashMap::new();
            for &n in order {
                ids.insert(n, nl.add_input(n));
            }
            let t = nl.add_net("t");
            let z = nl.add_net("z");
            nl.add_gate(GateKind::And, &[ids["a"], ids["b"]], t, 2)
                .unwrap();
            nl.add_gate(GateKind::Or, &[t, ids["c"]], z, 3).unwrap();
            nl.mark_output(z);
            nl
        };
        let base = aoi(&["a", "b", "c"]);
        let permuted = aoi(&["c", "a", "b"]);

        // Unlimited budget: the permuted isomorph shares.
        let config = AnalysisConfig::default();
        let mut cache = ConeSigCache::new();
        let _ = cached(&base, &config, &mut cache);
        let (mp, _, _) = cached(&permuted, &config, &mut cache);
        assert_eq!(cache.hits(), 1);
        assert_eq!(mp, characterize_module(&permuted, &config).unwrap());

        // Limited budget: an undegraded entry is the exact result, so
        // the permuted isomorph shares it too.
        let limited = config
            .clone()
            .with_budget(SolveBudget::default().with_conflicts(1_000_000));
        let mut cache = ConeSigCache::new();
        let (_, sb, _) = cached(&base, &limited, &mut cache);
        assert_eq!(sb.degraded, 0);
        let (mp_limited, _, owners) = cached(&permuted, &limited, &mut cache);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(owners, vec![Some(base.name().to_string())]);
        assert_eq!(mp_limited, mp);

        // A zero-conflict budget degrades the characterization, which
        // is therefore never stored: the isomorph misses and runs its
        // own (equally degraded) characterization.
        let zero = config
            .clone()
            .with_budget(SolveBudget::default().with_conflicts(0));
        let mut cache = ConeSigCache::new();
        let (mb, sb, _) = cached(&base, &zero, &mut cache);
        assert_eq!(sb.degraded, 1, "{sb:?}");
        let (_, sp, owners) = cached(&permuted, &zero, &mut cache);
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert_eq!(owners, vec![None]);
        assert_eq!(sp.degraded, 1, "{sp:?}");
        // Still sound: never tighter than the exact model.
        let exact = characterize_module(&base, &config).unwrap();
        assert!(mb[0].stable_time(&[t(0); 3]) >= exact[0].stable_time(&[t(0); 3]));
    }

    /// max_tuples = 1 reproduces the paper's single-tuple models.
    #[test]
    fn single_pass_option() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let config = AnalysisConfig::default().with_max_tuples(1);
        let models = characterize_module(&nl, &config).unwrap();
        for m in &models {
            assert_eq!(m.tuples().len(), 1);
        }
    }
}
