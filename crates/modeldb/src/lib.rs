//! Persistent, content-addressed storage for characterized timing
//! models and refinement verdicts.
//!
//! Characterized [`ModuleTiming`]s are the paper's whole point —
//! "characterize once, query many times" — yet without this crate every
//! `hfta` process recomputes them from scratch. A [`ModelDb`] is a
//! directory of versioned, self-describing, checksummed record files
//! that a cold process can warm-start from, and that an IP vendor can
//! ship instead of netlists (the Section 7 flow).
//!
//! # The cache key, and why it is sound
//!
//! A stored model is served for a module netlist only when *all* of
//! the following hold — the same audited predicate the in-process
//! [`ConeSigCache`](hfta_fta::ConeSigCache) uses:
//!
//! 1. **Exact fingerprint.** The record's
//!    [`exact_fingerprint`] equals the
//!    target's. The fingerprint is name-independent but verbatim —
//!    gate kinds, delays, connectivity, and port order all match, so
//!    characterization of the stored netlist and of the target are the
//!    same computation.
//! 2. **Characterization options.** `max_tuples` and the model source
//!    are part of the key (an options fingerprint in the file name and
//!    header, which also hashes the fixed path-length cap). The solve
//!    *budget* is deliberately **not** part of the key — see rule 4.
//! 3. **Per-output cone signatures.** The record stores every output's
//!    canonical [`ConeSig`]; each is recomputed
//!    on the target at load time and must match. This is
//!    defense-in-depth against 64-bit fingerprint collisions: a
//!    colliding record would also have to collide per-output in a
//!    structurally-canonical 128-bit space.
//! 4. **Never a degraded model.** [`ModelDb::store`] refuses models
//!    whose characterization was budget-degraded. An undegraded result
//!    is bit-identical to what an unlimited-budget run would produce,
//!    so a stored model is exact and serving it under *any* later
//!    budget is sound (a budget can only make a fresh run worse, never
//!    better).
//!
//! Records that fail version, checksum, arity, fingerprint, or
//! signature validation are counted as invalidations and treated as
//! misses — never silently used.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime};

use hfta_fta::{
    CharacterizeOptions, ModelSource, ModuleTiming, TimingModel, VerdictStore, LENGTHS_CAP,
};
use hfta_netlist::{cone_signature, exact_fingerprint, ConeSig, Netlist, NetlistError, Time};

/// File extension of model records.
pub const MODEL_EXT: &str = "hftam";
/// File extension of verdict records.
pub const VERDICT_EXT: &str = "hftav";
/// Header line of model records.
pub const MODEL_HEADER: &str = "hfta-model-record v1";
/// Header line of verdict records.
pub const VERDICT_HEADER: &str = "hfta-verdict-record v1";

/// Observable counters of one [`ModelDb`] handle.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ModelDbStats {
    /// Model probes served from disk.
    pub hits: u64,
    /// Model probes with no record on disk.
    pub misses: u64,
    /// Records present but rejected (version, checksum, fingerprint,
    /// signature, or arity mismatch — each counted, never served).
    pub invalidations: u64,
    /// Model records written.
    pub stores: u64,
    /// Stores skipped because an identical record already existed.
    pub store_skips: u64,
    /// Stores refused because the model was budget-degraded.
    pub rejected_degraded: u64,
    /// Model records evicted to honor the record limit.
    pub evictions: u64,
    /// Stores that failed on I/O (non-fatal; counted and dropped).
    pub store_errors: u64,
    /// Refinement verdicts loaded from disk.
    pub verdicts_loaded: u64,
    /// Refinement verdicts written to disk.
    pub verdicts_stored: u64,
}

impl ModelDbStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &ModelDbStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.invalidations += other.invalidations;
        self.stores += other.stores;
        self.store_skips += other.store_skips;
        self.rejected_degraded += other.rejected_degraded;
        self.evictions += other.evictions;
        self.store_errors += other.store_errors;
        self.verdicts_loaded += other.verdicts_loaded;
        self.verdicts_stored += other.verdicts_stored;
    }

    /// A one-line human-readable summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "model-db: {} hits, {} misses, {} invalidations, {} stores ({} skipped, {} degraded-rejected), {} evictions, {} verdicts loaded, {} verdicts stored",
            self.hits,
            self.misses,
            self.invalidations,
            self.stores,
            self.store_skips,
            self.rejected_degraded,
            self.evictions,
            self.verdicts_loaded,
            self.verdicts_stored,
        )
    }
}

/// One record's audit status, as reported by [`ModelDb::audit`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AuditRecord {
    /// File name inside the database directory.
    pub file: String,
    /// Module name recorded in the file (when parseable).
    pub module: Option<String>,
    /// Number of output models (model records) or verdicts (verdict
    /// records) the file holds.
    pub entries: usize,
    /// Why the record is unusable, or `None` for a valid record.
    pub error: Option<String>,
}

/// A handle to one on-disk model database directory.
///
/// Two handles may point at the same directory (e.g. one read, one
/// write); records are immutable once written, so the only shared
/// mutable state is the directory listing itself, and stores are
/// written atomically (temp file + rename).
#[derive(Debug)]
pub struct ModelDb {
    dir: PathBuf,
    writable: bool,
    limit: Option<usize>,
    stats: ModelDbStats,
}

impl ModelDb {
    /// Opens (creating if needed) a writable database at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the directory cannot be
    /// created.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<ModelDb> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(ModelDb {
            dir,
            writable: true,
            limit: None,
            stats: ModelDbStats::default(),
        })
    }

    /// Opens a read-only handle at `dir`. The directory need not
    /// exist — every probe then simply misses. Stores are refused.
    #[must_use]
    pub fn open_read_only(dir: impl AsRef<Path>) -> ModelDb {
        ModelDb {
            dir: dir.as_ref().to_path_buf(),
            writable: false,
            limit: None,
            stats: ModelDbStats::default(),
        }
    }

    /// The database directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Caps the number of model records kept on disk; the
    /// least-recently-*used* records (by file mtime — probes touch the
    /// files they hit) are evicted when a store exceeds the cap.
    /// `None` (the default) keeps everything.
    pub fn set_limit(&mut self, limit: Option<usize>) {
        self.limit = limit;
    }

    /// This handle's counters.
    #[must_use]
    pub fn stats(&self) -> ModelDbStats {
        self.stats
    }

    /// Looks up a stored model for `netlist`, validating the full
    /// soundness predicate (see the crate docs). Returns the model
    /// rebound to `netlist`'s port names, or `None` on miss — including
    /// when a record exists but fails validation (counted as an
    /// invalidation, never served).
    pub fn probe(
        &mut self,
        netlist: &Netlist,
        source: ModelSource,
        opts: &CharacterizeOptions,
    ) -> Option<ModuleTiming> {
        let fp = exact_fingerprint(netlist);
        let ofp = options_fingerprint(source, opts);
        let path = self.dir.join(model_file_name(fp, ofp));
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.stats.misses += 1;
                return None;
            }
            Err(_) => {
                self.stats.invalidations += 1;
                return None;
            }
        };
        match validate_model_record(&text, netlist, fp, ofp) {
            Ok(timing) => {
                self.stats.hits += 1;
                // Touch the record so LRU eviction sees the use. A
                // failure (e.g. read-only media) only weakens eviction
                // ordering, so it is ignored.
                let _ = fs::File::options()
                    .write(true)
                    .open(&path)
                    .and_then(|f| f.set_modified(SystemTime::now()));
                Some(timing)
            }
            Err(_) => {
                self.stats.invalidations += 1;
                None
            }
        }
    }

    /// [`ModelDb::store_signed`], signing every output cone of
    /// `netlist` first.
    pub fn store(
        &mut self,
        netlist: &Netlist,
        source: ModelSource,
        opts: &CharacterizeOptions,
        timing: &ModuleTiming,
        degraded: bool,
    ) -> bool {
        let Ok(sigs) = output_sigs(netlist) else {
            self.stats.store_errors += 1;
            return false;
        };
        self.store_signed(netlist, &sigs, source, opts, timing, degraded)
    }

    /// Stores a characterized model under `sigs`, the structural
    /// signature of every output cone of `netlist` in output order,
    /// unless it was budget-`degraded` (refused: degraded models are not
    /// exact, so reusing one under a different budget would be unsound)
    /// or an identical record already exists. Returns whether a record
    /// was written.
    ///
    /// Store failures are non-fatal: they are counted in
    /// [`ModelDbStats::store_errors`] and the store is dropped.
    pub fn store_signed(
        &mut self,
        netlist: &Netlist,
        sigs: &[ConeSig],
        source: ModelSource,
        opts: &CharacterizeOptions,
        timing: &ModuleTiming,
        degraded: bool,
    ) -> bool {
        debug_assert_eq!(
            sigs.len(),
            netlist.outputs().len(),
            "one signature per output"
        );
        if !self.writable {
            return false;
        }
        if degraded {
            self.stats.rejected_degraded += 1;
            return false;
        }
        let fp = exact_fingerprint(netlist);
        let ofp = options_fingerprint(source, opts);
        let path = self.dir.join(model_file_name(fp, ofp));
        if path.exists() {
            self.stats.store_skips += 1;
            return false;
        }
        let record = render_model_record(fp, ofp, source, sigs, timing);
        match write_atomic(&path, &record) {
            Ok(()) => {
                self.stats.stores += 1;
                self.evict_over_limit();
                true
            }
            Err(_) => {
                self.stats.store_errors += 1;
                false
            }
        }
    }

    /// Loads the persisted refinement verdicts of one cone-signature
    /// class, as delay tuples in canonical slot order (empty on miss or
    /// on any validation failure, which counts as an invalidation).
    pub fn load_verdicts(&mut self, sig: u128) -> VerdictStore {
        let path = self.dir.join(verdict_file_name(sig));
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => return VerdictStore::default(),
        };
        match validate_verdict_record(&text, sig) {
            Ok(store) => {
                self.stats.verdicts_loaded += store.len() as u64;
                let _ = fs::File::options()
                    .write(true)
                    .open(&path)
                    .and_then(|f| f.set_modified(SystemTime::now()));
                store
            }
            Err(_) => {
                self.stats.invalidations += 1;
                VerdictStore::default()
            }
        }
    }

    /// Persists the refinement verdicts of one cone-signature class,
    /// merged with whatever the file already holds; the record keeps
    /// only the merged store's minimal valid and maximal refuted
    /// tuples. Only exact (decided, never budget-interrupted) verdicts
    /// may be stored — the caller enforces this, mirroring the
    /// in-memory store's rule. Returns whether the file was written;
    /// [`ModelDbStats::verdicts_stored`] counts the verdicts the file
    /// did not already imply.
    pub fn store_verdicts(&mut self, sig: u128, verdicts: &VerdictStore) -> bool {
        if !self.writable || verdicts.is_empty() {
            return false;
        }
        let path = self.dir.join(verdict_file_name(sig));
        let mut merged = match fs::read_to_string(&path) {
            Ok(text) => validate_verdict_record(&text, sig).unwrap_or_default(),
            Err(_) => VerdictStore::default(),
        };
        let added = verdicts
            .verdicts()
            .filter(|&(delays, valid)| merged.record(delays, valid))
            .count();
        if added == 0 {
            return false; // nothing new to write
        }
        let record = render_verdict_record(sig, &merged);
        match write_atomic(&path, &record) {
            Ok(()) => {
                self.stats.verdicts_stored += added as u64;
                true
            }
            Err(_) => {
                self.stats.store_errors += 1;
                false
            }
        }
    }

    /// Audits every record in the database: parse + checksum + version
    /// validation (without a target netlist, so fingerprints and
    /// signatures are reported, not cross-checked). Sorted by file
    /// name.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the directory cannot be read.
    pub fn audit(&self) -> io::Result<Vec<AuditRecord>> {
        let mut out = Vec::new();
        let entries = match fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let ext = Path::new(&name)
                .extension()
                .map(|e| e.to_string_lossy().into_owned());
            let kind = match ext.as_deref() {
                Some(MODEL_EXT) => RecordKind::Model,
                Some(VERDICT_EXT) => RecordKind::Verdict,
                _ => continue,
            };
            let status = fs::read_to_string(entry.path())
                .map_err(|e| format!("unreadable: {e}"))
                .and_then(|text| audit_record(&text, kind));
            out.push(match status {
                Ok((module, entries)) => AuditRecord {
                    file: name,
                    module,
                    entries,
                    error: None,
                },
                Err(error) => AuditRecord {
                    file: name,
                    module: None,
                    entries: 0,
                    error: Some(error),
                },
            });
        }
        out.sort_by(|a, b| a.file.cmp(&b.file));
        Ok(out)
    }

    /// Number of model records currently on disk (0 when the directory
    /// is missing or unreadable).
    #[must_use]
    pub fn model_count(&self) -> usize {
        self.model_files().map_or(0, |v| v.len())
    }

    fn model_files(&self) -> io::Result<Vec<(PathBuf, SystemTime)>> {
        let mut files = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(MODEL_EXT) {
                continue;
            }
            let mtime = entry
                .metadata()
                .and_then(|m| m.modified())
                .unwrap_or(SystemTime::UNIX_EPOCH);
            files.push((path, mtime));
        }
        Ok(files)
    }

    fn evict_over_limit(&mut self) {
        let Some(limit) = self.limit else { return };
        // Serialize eviction across writers sharing the directory: two
        // concurrent LRU scans would each compute `excess` against the
        // same listing and together delete twice as many records as
        // intended. Losing the race is fine — eviction is opportunistic
        // and the next over-limit store retries.
        let Some(_lock) = self.try_lock_eviction() else {
            return;
        };
        let Ok(mut files) = self.model_files() else {
            return;
        };
        if files.len() <= limit {
            return;
        }
        // Oldest mtime first = least recently used first (probes touch
        // the records they hit). Path is the tiebreaker so eviction
        // order is deterministic on filesystems with coarse mtimes.
        files.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        let excess = files.len() - limit;
        for (path, _) in files.into_iter().take(excess) {
            if fs::remove_file(&path).is_ok() {
                self.stats.evictions += 1;
            }
        }
    }

    /// Takes the advisory eviction lock (a `create_new` lock file in
    /// the database directory), or returns `None` when another live
    /// writer holds it. A lock older than [`EVICT_LOCK_STALE`] was
    /// leaked by a crashed process and is broken and re-taken.
    fn try_lock_eviction(&self) -> Option<EvictLock> {
        let path = self.dir.join(EVICT_LOCK);
        for _ in 0..2 {
            match fs::File::options().write(true).create_new(true).open(&path) {
                Ok(_) => return Some(EvictLock(path)),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let stale = fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|m| SystemTime::now().duration_since(m).ok())
                        .is_some_and(|age| age > EVICT_LOCK_STALE);
                    if !stale {
                        return None;
                    }
                    let _ = fs::remove_file(&path);
                }
                Err(_) => return None,
            }
        }
        None
    }
}

/// Name of the advisory lock file that serializes LRU eviction among
/// writers sharing a database directory.
const EVICT_LOCK: &str = ".evict.lock";

/// Age past which an eviction lock is presumed leaked by a dead
/// process and taken over.
const EVICT_LOCK_STALE: Duration = Duration::from_secs(10);

/// RAII guard for the eviction lock file: dropping it releases the
/// lock by deleting the file.
struct EvictLock(PathBuf);

impl Drop for EvictLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.0);
    }
}

enum RecordKind {
    Model,
    Verdict,
}

/// The file name of the model record for fingerprint `fp` under
/// options fingerprint `ofp`.
#[must_use]
pub fn model_file_name(fp: u64, ofp: u64) -> String {
    format!("m{fp:016x}-{ofp:016x}.{MODEL_EXT}")
}

/// The file name of the verdict record for cone signature `sig`.
#[must_use]
pub fn verdict_file_name(sig: u128) -> String {
    format!("v{sig:032x}.{VERDICT_EXT}")
}

/// Fingerprint of the characterization options that shape a model.
///
/// Includes the model source and every value that shapes the
/// characterized tuples: `max_tuples`, the fixed path-length cap
/// ([`LENGTHS_CAP`]) and the always-on relaxation to `−∞` (hashed as
/// `1`, so keys written before both became constants stay valid).
/// Excludes the solve budget: degraded models are never stored, and
/// undegraded results are budget-independent.
#[must_use]
pub fn options_fingerprint(source: ModelSource, opts: &CharacterizeOptions) -> u64 {
    let mut h = Fnv::new();
    h.push(match source {
        ModelSource::Functional => 1,
        ModelSource::Topological => 2,
    });
    h.push(opts.max_tuples as u64);
    h.push(LENGTHS_CAP as u64);
    h.push(1);
    h.finish()
}

/// The structural signature of every output cone of `netlist`, in
/// output order.
fn output_sigs(netlist: &Netlist) -> Result<Vec<ConeSig>, NetlistError> {
    netlist
        .outputs()
        .iter()
        .map(|&out| cone_signature(&netlist.cone(out).0).map(|key| key.sig))
        .collect()
}

fn render_model_record(
    fp: u64,
    ofp: u64,
    source: ModelSource,
    sigs: &[ConeSig],
    timing: &ModuleTiming,
) -> String {
    let payload = timing.to_text();
    let mut s = String::new();
    let _ = writeln!(s, "{MODEL_HEADER}");
    let _ = writeln!(s, "fingerprint {fp:016x}");
    let _ = writeln!(s, "options {ofp:016x}");
    let _ = writeln!(
        s,
        "source {}",
        match source {
            ModelSource::Functional => "functional",
            ModelSource::Topological => "topological",
        }
    );
    for (k, sig) in sigs.iter().enumerate() {
        let _ = writeln!(s, "sig {k} {:032x}", sig.0);
    }
    let _ = writeln!(s, "checksum {:016x}", fnv1a(payload.as_bytes()));
    let _ = writeln!(s, "payload");
    s.push_str(&payload);
    s
}

/// A parsed-but-not-yet-cross-checked model record.
struct ModelRecord {
    fp: u64,
    ofp: u64,
    sigs: Vec<(usize, u128)>,
    timing: ModuleTiming,
}

fn parse_model_record(text: &str) -> Result<ModelRecord, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty record")?;
    if header.trim() != MODEL_HEADER {
        return Err(format!(
            "unsupported record version: `{}` (expected `{MODEL_HEADER}`)",
            header.trim()
        ));
    }
    let mut fp = None;
    let mut ofp = None;
    let mut sigs = Vec::new();
    let mut checksum = None;
    let mut consumed = header.len() + 1;
    for line in lines.by_ref() {
        consumed += line.len() + 1;
        let line = line.trim();
        let mut toks = line.split_whitespace();
        match toks.next() {
            Some("fingerprint") => {
                fp = Some(parse_hex64(toks.next()).ok_or("bad fingerprint line")?);
            }
            Some("options") => {
                ofp = Some(parse_hex64(toks.next()).ok_or("bad options line")?);
            }
            Some("source") => {} // informational; the options fingerprint is authoritative
            Some("sig") => {
                let k: usize = toks
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or("bad sig line")?;
                let sig = parse_hex128(toks.next()).ok_or("bad sig line")?;
                sigs.push((k, sig));
            }
            Some("checksum") => {
                checksum = Some(parse_hex64(toks.next()).ok_or("bad checksum line")?);
            }
            Some("payload") => {
                let payload = &text[consumed..];
                let fp = fp.ok_or("missing fingerprint line")?;
                let ofp = ofp.ok_or("missing options line")?;
                let checksum = checksum.ok_or("missing checksum line")?;
                let actual = fnv1a(payload.as_bytes());
                if actual != checksum {
                    return Err(format!(
                        "checksum mismatch: header {checksum:016x}, payload {actual:016x} (corrupt or truncated record)"
                    ));
                }
                let timing = ModuleTiming::from_text(payload)
                    .map_err(|e| format!("bad model payload: {e}"))?;
                return Ok(ModelRecord {
                    fp,
                    ofp,
                    sigs,
                    timing,
                });
            }
            Some(other) => return Err(format!("unknown header keyword `{other}`")),
            None => {} // blank line
        }
    }
    Err("truncated record: no payload".to_string())
}

/// Full validation of a model record against a target netlist: parse,
/// checksum, fingerprint, options, per-output signature, and arity —
/// returning the model rebound to the target's port names.
fn validate_model_record(
    text: &str,
    netlist: &Netlist,
    fp: u64,
    ofp: u64,
) -> Result<ModuleTiming, String> {
    let rec = parse_model_record(text)?;
    if rec.fp != fp {
        return Err(format!(
            "fingerprint mismatch: record {:016x}, netlist {fp:016x}",
            rec.fp
        ));
    }
    if rec.ofp != ofp {
        return Err(format!(
            "options mismatch: record {:016x}, requested {ofp:016x}",
            rec.ofp
        ));
    }
    let n_out = netlist.outputs().len();
    let n_in = netlist.inputs().len();
    if rec.timing.models().len() != n_out {
        return Err(format!(
            "arity mismatch: record has {} outputs, netlist {n_out}",
            rec.timing.models().len()
        ));
    }
    if rec.timing.models().iter().any(|m| m.num_inputs() != n_in) {
        return Err(format!(
            "arity mismatch: record inputs differ from netlist ({n_in})"
        ));
    }
    if rec.sigs.len() != n_out {
        return Err(format!(
            "signature mismatch: record has {} sigs, netlist {n_out} outputs",
            rec.sigs.len()
        ));
    }
    let actual = output_sigs(netlist).map_err(|e| format!("target cone unsignable: {e:?}"))?;
    for (k, actual) in actual.iter().enumerate() {
        let recorded = rec
            .sigs
            .iter()
            .find(|(i, _)| *i == k)
            .map(|(_, s)| *s)
            .ok_or_else(|| format!("signature mismatch: output {k} missing"))?;
        if actual.0 != recorded {
            return Err(format!(
                "signature mismatch on output {k}: record {recorded:032x}, netlist {:032x}",
                actual.0
            ));
        }
    }
    // Rebind to the target's names: the fingerprint is name-independent,
    // so the record may have been written by an isomorphically-named
    // twin of this module.
    let models: Vec<TimingModel> = rec.timing.models().to_vec();
    Ok(ModuleTiming::from_parts(
        netlist.name().to_string(),
        netlist
            .inputs()
            .iter()
            .map(|&n| netlist.net_name(n).to_string())
            .collect(),
        netlist
            .outputs()
            .iter()
            .map(|&n| netlist.net_name(n).to_string())
            .collect(),
        models,
    ))
}

fn render_verdict_record(sig: u128, verdicts: &VerdictStore) -> String {
    let mut body = String::new();
    // Records hold canonical arrival vectors (the negated delays), in
    // sorted order so equal stores render identical files.
    let mut entries: Vec<(Vec<Time>, bool)> = verdicts
        .verdicts()
        .map(|(delays, stable)| (delays.iter().map(|&d| -d).collect(), stable))
        .collect();
    entries.sort();
    for (arrivals, stable) in entries {
        let times: Vec<String> = arrivals.iter().map(Time::to_string).collect();
        let _ = writeln!(
            body,
            "verdict {} -> {}",
            times.join(" "),
            if stable { "stable" } else { "unstable" }
        );
    }
    let mut s = String::new();
    let _ = writeln!(s, "{VERDICT_HEADER}");
    let _ = writeln!(s, "sig {sig:032x}");
    let _ = writeln!(s, "checksum {:016x}", fnv1a(body.as_bytes()));
    let _ = writeln!(s, "payload");
    s.push_str(&body);
    s
}

fn validate_verdict_record(text: &str, sig: u128) -> Result<VerdictStore, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty record")?;
    if header.trim() != VERDICT_HEADER {
        return Err(format!(
            "unsupported record version: `{}` (expected `{VERDICT_HEADER}`)",
            header.trim()
        ));
    }
    let mut rec_sig = None;
    let mut checksum = None;
    let mut consumed = header.len() + 1;
    for line in lines.by_ref() {
        consumed += line.len() + 1;
        let line = line.trim();
        let mut toks = line.split_whitespace();
        match toks.next() {
            Some("sig") => rec_sig = Some(parse_hex128(toks.next()).ok_or("bad sig line")?),
            Some("checksum") => {
                checksum = Some(parse_hex64(toks.next()).ok_or("bad checksum line")?);
            }
            Some("payload") => {
                let rec_sig = rec_sig.ok_or("missing sig line")?;
                if rec_sig != sig {
                    return Err(format!(
                        "signature mismatch: record {rec_sig:032x}, requested {sig:032x}"
                    ));
                }
                let payload = &text[consumed..];
                let checksum = checksum.ok_or("missing checksum line")?;
                let actual = fnv1a(payload.as_bytes());
                if actual != checksum {
                    return Err(format!(
                        "checksum mismatch: header {checksum:016x}, payload {actual:016x} (corrupt or truncated record)"
                    ));
                }
                return parse_verdict_payload(payload);
            }
            Some(other) => return Err(format!("unknown header keyword `{other}`")),
            None => {}
        }
    }
    Err("truncated record: no payload".to_string())
}

/// Parses verdict lines into a store. Lines a later line dominates (as
/// the exact-key records of earlier revisions hold) stay implied.
fn parse_verdict_payload(payload: &str) -> Result<VerdictStore, String> {
    let mut store = VerdictStore::default();
    for line in payload.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let rest = line
            .strip_prefix("verdict ")
            .ok_or_else(|| format!("bad verdict line `{line}`"))?;
        let (times, outcome) = rest
            .rsplit_once(" -> ")
            .ok_or_else(|| format!("bad verdict line `{line}`"))?;
        let arrivals: Option<Vec<Time>> = times.split_whitespace().map(parse_time).collect();
        let arrivals = arrivals.ok_or_else(|| format!("bad time in `{line}`"))?;
        let stable = match outcome {
            "stable" => true,
            "unstable" => false,
            _ => return Err(format!("bad outcome in `{line}`")),
        };
        let delays: Vec<Time> = arrivals.iter().map(|&a| -a).collect();
        store.record(&delays, stable);
    }
    Ok(store)
}

fn audit_record(text: &str, kind: RecordKind) -> Result<(Option<String>, usize), String> {
    match kind {
        RecordKind::Model => {
            let rec = parse_model_record(text)?;
            Ok((
                Some(rec.timing.module().to_string()),
                rec.timing.models().len(),
            ))
        }
        RecordKind::Verdict => {
            // Audit without a requested sig: validate against the
            // record's own sig line.
            let sig_line = text
                .lines()
                .find_map(|l| l.trim().strip_prefix("sig "))
                .and_then(|s| parse_hex128(Some(s.trim())))
                .ok_or("missing sig line")?;
            let store = validate_verdict_record(text, sig_line)?;
            Ok((None, store.len()))
        }
    }
}

fn parse_time(tok: &str) -> Option<Time> {
    match tok {
        "-inf" => Some(Time::NEG_INF),
        "+inf" | "inf" => Some(Time::POS_INF),
        _ => tok.parse().ok().and_then(|t| Time::checked(t).ok()),
    }
}

fn parse_hex64(tok: Option<&str>) -> Option<u64> {
    u64::from_str_radix(tok?, 16).ok()
}

fn parse_hex128(tok: Option<&str>) -> Option<u128> {
    u128::from_str_radix(tok?, 16).ok()
}

fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    // A fixed temp name would let two concurrent writers interleave
    // write/rename on the same temp file and publish a torn record.
    // pid + a process-local counter make the temp path unique per
    // in-flight store; the rename is then the only shared step, and
    // rename is atomic.
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{seq}", std::process::id()));
    fs::write(&tmp, contents)?;
    fs::rename(&tmp, path).inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })
}

/// FNV-1a, the record checksum. Not cryptographic — it guards against
/// truncation and bit rot, not adversaries (an adversarial model is
/// caught by [`ModuleTiming::verify`] instead).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    for &b in bytes {
        h.byte(b);
    }
    h.finish()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
    fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfta_fta::AnalysisConfig;
    use hfta_netlist::gen::{carry_skip_block, CsaDelays};
    use std::sync::atomic::{AtomicU32, Ordering};

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn temp_db_dir(tag: &str) -> PathBuf {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("hfta-modeldb-{}-{}-{}", std::process::id(), tag, n));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn characterized(nl: &Netlist) -> ModuleTiming {
        ModuleTiming::characterize(nl, &AnalysisConfig::default()).unwrap()
    }

    #[test]
    fn store_then_probe_round_trips() {
        let dir = temp_db_dir("roundtrip");
        let nl = carry_skip_block(2, CsaDelays::default());
        let opts = CharacterizeOptions::default();
        let timing = characterized(&nl);
        let mut db = ModelDb::open(&dir).unwrap();
        assert!(db.store(&nl, ModelSource::Functional, &opts, &timing, false));
        let loaded = db.probe(&nl, ModelSource::Functional, &opts).unwrap();
        assert_eq!(loaded, timing);
        let stats = db.stats();
        assert_eq!((stats.stores, stats.hits, stats.invalidations), (1, 1, 0));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cold_handle_probes_the_same_record() {
        let dir = temp_db_dir("cold");
        let nl = carry_skip_block(2, CsaDelays::default());
        let opts = CharacterizeOptions::default();
        let timing = characterized(&nl);
        {
            let mut db = ModelDb::open(&dir).unwrap();
            db.store(&nl, ModelSource::Functional, &opts, &timing, false);
        }
        let mut db = ModelDb::open_read_only(&dir);
        assert_eq!(db.probe(&nl, ModelSource::Functional, &opts), Some(timing));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn two_writers_race_safely() {
        let dir = temp_db_dir("race");
        fs::create_dir_all(&dir).unwrap();
        // 16 structurally distinct tiny blocks (delay is part of the
        // exact fingerprint, so each gets its own record file).
        let variants: Vec<Netlist> = (1..=16)
            .map(|d| {
                carry_skip_block(
                    1,
                    CsaDelays {
                        and_or: d,
                        xor: 2,
                        mux: 2,
                    },
                )
            })
            .collect();
        let timings: Vec<ModuleTiming> = variants.iter().map(characterized).collect();
        let opts = CharacterizeOptions::default();
        // Two writers share the directory, store the variants in
        // opposite orders under a tight limit (every store races an
        // eviction scan), and probe as they go.
        std::thread::scope(|scope| {
            for t in 0..2usize {
                let (dir, variants, timings, opts) = (&dir, &variants, &timings, &opts);
                scope.spawn(move || {
                    let mut db = ModelDb::open(dir).unwrap();
                    db.set_limit(Some(4));
                    for _ in 0..3 {
                        for i in 0..variants.len() {
                            let idx = if t == 0 { i } else { variants.len() - 1 - i };
                            db.store(
                                &variants[idx],
                                ModelSource::Functional,
                                opts,
                                &timings[idx],
                                false,
                            );
                            db.probe(&variants[idx], ModelSource::Functional, opts);
                        }
                    }
                });
            }
        });
        // Every surviving record must parse cleanly — a torn write
        // (shared temp file) or a double eviction scan would surface
        // here as an audit error or an unreadable file.
        let db = ModelDb::open_read_only(&dir);
        for rec in db.audit().unwrap() {
            assert!(
                rec.error.is_none(),
                "torn record {}: {:?}",
                rec.file,
                rec.error
            );
        }
        // No stray temp files, and the advisory eviction lock was
        // released.
        for entry in fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            assert!(!name.contains("tmp"), "leftover temp file {name}");
            assert_ne!(name, EVICT_LOCK, "leaked eviction lock");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_eviction_lock_is_broken() {
        let dir = temp_db_dir("stalelock");
        fs::create_dir_all(&dir).unwrap();
        let lock = dir.join(EVICT_LOCK);
        fs::write(&lock, "pid 0\n").unwrap();
        // Backdate the lock past the stale horizon.
        fs::File::options()
            .write(true)
            .open(&lock)
            .unwrap()
            .set_modified(SystemTime::now() - EVICT_LOCK_STALE - Duration::from_secs(5))
            .unwrap();
        let db = ModelDb::open(&dir).unwrap();
        let held = db.try_lock_eviction();
        assert!(held.is_some(), "stale lock must be broken and re-taken");
        drop(held);
        assert!(!lock.exists(), "lock released on drop");
        // A fresh (live) lock is respected.
        fs::write(&lock, "pid 0\n").unwrap();
        assert!(db.try_lock_eviction().is_none(), "live lock must defer");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn degraded_models_are_refused() {
        let dir = temp_db_dir("degraded");
        let nl = carry_skip_block(2, CsaDelays::default());
        let opts = CharacterizeOptions::default();
        let timing = characterized(&nl);
        let mut db = ModelDb::open(&dir).unwrap();
        assert!(!db.store(&nl, ModelSource::Functional, &opts, &timing, true));
        assert_eq!(db.stats().rejected_degraded, 1);
        assert_eq!(db.probe(&nl, ModelSource::Functional, &opts), None);
        assert_eq!(db.stats().misses, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn options_are_part_of_the_key() {
        let dir = temp_db_dir("opts");
        let nl = carry_skip_block(2, CsaDelays::default());
        let opts = CharacterizeOptions::default();
        let timing = characterized(&nl);
        let mut db = ModelDb::open(&dir).unwrap();
        db.store(&nl, ModelSource::Functional, &opts, &timing, false);
        // Different max_tuples → different key → miss.
        let other = CharacterizeOptions { max_tuples: 2 };
        assert_eq!(db.probe(&nl, ModelSource::Functional, &other), None);
        // Different source → miss.
        assert_eq!(db.probe(&nl, ModelSource::Topological, &opts), None);
        // The solve budget is not part of the key (it is not even an
        // option): stored models are exact, so any budget may use them.
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The options fingerprint names every stored record, so a changed
    /// key would silently turn every existing database into misses.
    /// These are the keys databases were written under before the
    /// path-length cap and the `−∞` relaxation became constants.
    #[test]
    fn default_options_fingerprints_are_pinned() {
        let opts = CharacterizeOptions::default();
        assert_eq!(
            options_fingerprint(ModelSource::Functional, &opts),
            0xabc2_c6a9_5d39_4da1
        );
        assert_eq!(
            options_fingerprint(ModelSource::Topological, &opts),
            0x7dd7_514b_303d_7ae2
        );
    }

    #[test]
    fn name_rebinding_serves_isomorphically_named_twins() {
        let dir = temp_db_dir("rebind");
        let nl = carry_skip_block(2, CsaDelays::default());
        let opts = CharacterizeOptions::default();
        let timing = characterized(&nl);
        let mut db = ModelDb::open(&dir).unwrap();
        db.store(&nl, ModelSource::Functional, &opts, &timing, false);
        // Rebuild the same structure under different names.
        let mut twin = hfta_netlist::Netlist::new("twin");
        let mut map = Vec::new();
        for i in 0..nl.net_count() {
            let id = hfta_netlist::NetId::from_index(i);
            let name = format!("n{i}");
            map.push(if nl.inputs().contains(&id) {
                twin.add_input(&name)
            } else {
                twin.add_net(&name)
            });
        }
        for g in nl.gates() {
            let ins: Vec<_> = g.inputs.iter().map(|n| map[n.index()]).collect();
            twin.add_gate(g.kind, &ins, map[g.output.index()], g.delay)
                .unwrap();
        }
        for &o in nl.outputs() {
            twin.mark_output(map[o.index()]);
        }
        let loaded = db.probe(&twin, ModelSource::Functional, &opts).unwrap();
        assert_eq!(loaded.module(), "twin");
        assert_eq!(loaded.models(), timing.models());
        assert_eq!(loaded.input_names()[0], "n0");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_records_are_invalidated_not_served() {
        let dir = temp_db_dir("corrupt");
        let nl = carry_skip_block(2, CsaDelays::default());
        let opts = CharacterizeOptions::default();
        let timing = characterized(&nl);
        let mut db = ModelDb::open(&dir).unwrap();
        db.store(&nl, ModelSource::Functional, &opts, &timing, false);
        let file = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().and_then(|e| e.to_str()) == Some(MODEL_EXT))
            .unwrap();
        let good = fs::read_to_string(&file).unwrap();

        // Flip a digit inside a tuple line.
        let bad = good.replacen("tuple 2", "tuple 3", 1);
        assert_ne!(bad, good);
        fs::write(&file, &bad).unwrap();
        assert_eq!(db.probe(&nl, ModelSource::Functional, &opts), None);
        assert_eq!(db.stats().invalidations, 1);

        // Truncate mid-payload.
        fs::write(&file, &good[..good.len() - 10]).unwrap();
        assert_eq!(db.probe(&nl, ModelSource::Functional, &opts), None);
        assert_eq!(db.stats().invalidations, 2);

        // Wrong version header.
        fs::write(&file, good.replace("v1", "v9")).unwrap();
        assert_eq!(db.probe(&nl, ModelSource::Functional, &opts), None);
        assert_eq!(db.stats().invalidations, 3);

        // A time past `Time::LIMIT` under a valid checksum: refused as
        // invalid, not a panic or a wrapped delay.
        let (head, payload) = good.split_once("payload\n").unwrap();
        let huge = payload.replacen("tuple 2", "tuple 9223372036854775806", 1);
        assert_ne!(huge, payload);
        let forged = head.replace(
            &format!("checksum {:016x}", fnv1a(payload.as_bytes())),
            &format!("checksum {:016x}", fnv1a(huge.as_bytes())),
        );
        fs::write(&file, format!("{forged}payload\n{huge}")).unwrap();
        assert_eq!(db.probe(&nl, ModelSource::Functional, &opts), None);
        assert_eq!(db.stats().invalidations, 4);
        let audit = db.audit().unwrap();
        let err = audit[0].error.as_deref().unwrap();
        assert!(err.contains("bad time value"), "{err}");

        // Audit names the problem.
        fs::write(&file, &bad).unwrap();
        let audit = db.audit().unwrap();
        assert_eq!(audit.len(), 1);
        let err = audit[0].error.as_deref().unwrap();
        assert!(err.contains("checksum mismatch"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn eviction_is_lru_with_observable_stats() {
        let dir = temp_db_dir("evict");
        let opts = CharacterizeOptions::default();
        let mut db = ModelDb::open(&dir).unwrap();
        db.set_limit(Some(2));
        let blocks: Vec<Netlist> = (2..=4)
            .map(|w| carry_skip_block(w, CsaDelays::default()))
            .collect();
        for (i, nl) in blocks.iter().enumerate() {
            let timing = characterized(nl);
            // Distinct mtimes on coarse-grained filesystems.
            std::thread::sleep(std::time::Duration::from_millis(20));
            db.store(nl, ModelSource::Functional, &opts, &timing, false);
            assert!(db.model_count() <= 2, "after store {i}");
        }
        assert_eq!(db.stats().evictions, 1);
        // The first (oldest) record was evicted; the last two remain.
        assert_eq!(db.probe(&blocks[0], ModelSource::Functional, &opts), None);
        assert!(db
            .probe(&blocks[2], ModelSource::Functional, &opts)
            .is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Verdict records round-trip a store, merge with what is on disk
    /// and keep only antichains: a line a later verdict dominates is
    /// pruned but stays implied, and an implied verdict writes nothing.
    /// The verdicts fit one monotone predicate: with delays `(d₁, d₂)`
    /// the output is stable iff `d₁ ≥ 5`, or `d₁ ≥ 2` and `d₂ ≥ 1`. A
    /// v1 record as the exact-key memo of earlier revisions wrote it,
    /// with dominated lines, loads into a store implying every line.
    #[test]
    fn verdicts_round_trip_and_merge() {
        let dir = temp_db_dir("verdicts");
        let mut db = ModelDb::open(&dir).unwrap();
        let sig = 0x1234_5678_9abc_def0_u128;
        let t = Time::new;
        let lines = [
            ([t(6), Time::NEG_INF], true),
            ([t(4), t(0)], false),
            ([t(5), Time::NEG_INF], true),
            ([t(2), t(1)], true),
            ([t(1), t(9)], false),
        ];
        let store_of = |lines: &[([Time; 2], bool)]| {
            let mut store = VerdictStore::default();
            for (delays, valid) in lines {
                store.record(delays, *valid);
            }
            store
        };
        let first = store_of(&lines[..2]);
        assert!(db.store_verdicts(sig, &first));
        assert_eq!(db.load_verdicts(sig), first);
        assert_eq!(db.stats().verdicts_stored, 2);
        // Merge: (5, −∞) prunes (6, −∞) on disk, the other two are new.
        let more = store_of(&lines[2..]);
        assert!(db.store_verdicts(sig, &more));
        assert_eq!(db.stats().verdicts_stored, 5);
        let all = db.load_verdicts(sig);
        assert_eq!(all.len(), 4);
        for (delays, valid) in &lines {
            assert_eq!(all.implied(delays), Some(*valid), "{delays:?}");
        }
        // Everything implied: no write, nothing counted.
        assert!(!db.store_verdicts(sig, &first));
        assert_eq!(db.stats().verdicts_stored, 5);
        // Unknown sig loads empty.
        assert!(db.load_verdicts(0xdead).is_empty());

        // The exact-key memo wrote every decided probe: here a chain of
        // stable verdicts and a chain of unstable ones, in arrival form.
        let old = 0xfeed_u128;
        let body = "verdict -6 +inf -> stable\n\
                    verdict -5 +inf -> stable\n\
                    verdict -4 0 -> unstable\n\
                    verdict -3 0 -> unstable\n";
        let record = format!(
            "{VERDICT_HEADER}\nsig {old:032x}\nchecksum {:016x}\npayload\n{body}",
            fnv1a(body.as_bytes())
        );
        fs::write(dir.join(verdict_file_name(old)), record).unwrap();
        let loaded_before = db.stats().verdicts_loaded;
        let loaded = db.load_verdicts(old);
        for (delays, valid) in [
            ([t(6), Time::NEG_INF], true),
            ([t(5), Time::NEG_INF], true),
            ([t(4), t(0)], false),
            ([t(3), t(0)], false),
        ] {
            assert_eq!(loaded.implied(&delays), Some(valid), "{delays:?}");
        }
        assert_eq!(loaded.len(), 2);
        assert_eq!(db.stats().verdicts_loaded - loaded_before, 2);
        assert_eq!(db.stats().invalidations, 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
