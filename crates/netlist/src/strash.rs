//! Structural hashing of fanin cones into canonical signatures.
//!
//! [`cone_signature`] reduces a single-output fanin cone (as produced by
//! [`Netlist::cone`]) to a canonical 128-bit [`ConeSig`] plus the
//! input-correspondence permutation mapping the cone's primary inputs to
//! *signature slots*. Two cones receive the same signature exactly when
//! their normalized gate DAGs are isomorphic — same gate kinds, same
//! delays, same wiring — up to renaming of nets, reordering of gates,
//! reordering of commutative gate inputs, and permutation of primary
//! inputs (modulo the negligible 2⁻¹²⁸ hash-collision probability).
//!
//! The pipeline:
//!
//! 1. **Normalization.** `Buf`/`Not` chains collapse into edge
//!    attributes: every net reference becomes `(root, accumulated delay,
//!    inversion parity)` where the root is a primary input, a normalized
//!    gate, or a constant. `Not` over a constant folds into the constant.
//! 2. **Canonical input ordering.** Weisfeiler–Leman-style iterative
//!    refinement ranks the inputs by alternating bottom-up structure
//!    labels and top-down context labels; remaining ties (automorphic or
//!    WL-indistinguishable inputs) are broken by individualizing the
//!    lowest original index and re-refining. Ties broken this way can at
//!    worst cause two isomorphic cones to canonicalize differently — a
//!    missed sharing opportunity, never a false match, because equality
//!    is decided by hashing the full canonical form below.
//! 3. **Canonical serialization.** Gates are ordered by (depth, final
//!    structure label, original index), commutative gate inputs are
//!    sorted by their serialized form, and the whole description —
//!    input slots, gates, output reference — is fed through a two-lane
//!    64-bit mixer producing the 128-bit signature.
//!
//! Because equal signatures certify isomorphism, any analysis result
//! that is itself invariant under cone isomorphism (required-time tuple
//! sets, exact stability verdicts) may be shared across equal-signature
//! cones once re-indexed through the permutation. See DESIGN.md, "Why
//! signature sharing is sound".

use crate::{GateKind, NetId, Netlist, NetlistError};

/// A canonical 128-bit structural signature of a fanin cone.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ConeSig(pub u128);

impl std::fmt::Display for ConeSig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// A cone's signature together with its input correspondence.
///
/// `perm[i]` is the canonical *slot* assigned to the cone's `i`-th
/// primary input. Two cones with equal [`ConeSig`] are isomorphic via
/// the permutation that matches equal slots: input `i` of one
/// corresponds to input `j` of the other iff `a.perm[i] == b.perm[j]`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ConeKey {
    /// The canonical structural signature.
    pub sig: ConeSig,
    /// Canonical slot of each primary input, indexed by input position.
    pub perm: Vec<usize>,
}

impl ConeKey {
    /// Re-indexes per-input values into canonical slot order.
    ///
    /// `vals[i]` belongs to input `i`; the result holds it at
    /// `perm[i]`. Values for slots without a declared input (which only
    /// arise on malformed cones with floating internal nets) are `fill`.
    #[must_use]
    pub fn to_slots<T: Copy>(&self, vals: &[T], fill: T) -> Vec<T> {
        let slots = self.slot_count();
        let mut out = vec![fill; slots];
        for (i, &v) in vals.iter().enumerate() {
            out[self.perm[i]] = v;
        }
        out
    }

    /// Re-indexes canonical-slot values back into input order.
    #[must_use]
    pub fn from_slots<T: Copy>(&self, slots: &[T]) -> Vec<T> {
        self.perm.iter().map(|&s| slots[s]).collect()
    }

    /// Number of canonical slots (≥ the number of declared inputs).
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.perm.iter().map(|&s| s + 1).max().unwrap_or(0)
    }
}

// ---------------------------------------------------------------------
// Normalized cone representation
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Root {
    /// Source `i`: a declared primary input (or, defensively, a floating
    /// net), indexed into the source list.
    Source(u32),
    /// Normalized gate `g` (index into `Norm::gates`).
    Gate(u32),
    /// A constant value.
    Const(bool),
}

/// A reference to a normalized net: the root it reduces to after
/// collapsing `Buf`/`Not` chains, plus accumulated delay and inversion
/// parity along the chain.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Ref {
    root: Root,
    delay: u64,
    inv: bool,
}

struct NGate {
    kind: GateKind,
    delay: u64,
    /// The gate's input references: `Norm::ins[first..end]`.
    first: usize,
    end: usize,
}

struct Norm {
    /// Declared primary inputs first, then any floating nets in id order.
    n_declared: usize,
    n_sources: usize,
    gates: Vec<NGate>,
    /// Every gate's input references, concatenated in gate order.
    ins: Vec<Ref>,
    outs: Vec<Ref>,
}

impl Norm {
    fn ins_of(&self, g: &NGate) -> &[Ref] {
        &self.ins[g.first..g.end]
    }
}

fn normalize(cone: &Netlist) -> Result<Norm, NetlistError> {
    let mut source_of = vec![None::<u32>; cone.net_count()];
    let mut n_sources = 0u32;
    for &pi in cone.inputs() {
        source_of[pi.index()] = Some(n_sources);
        n_sources += 1;
    }
    let n_declared = n_sources as usize;
    // Defensive: floating (undriven, non-input) nets become extra sources.
    for (idx, src) in source_of.iter_mut().enumerate() {
        let net = NetId::from_index(idx);
        if src.is_none() && cone.driver(net).is_none() && !cone.is_input(net) {
            *src = Some(n_sources);
            n_sources += 1;
        }
    }

    let mut refs = vec![None::<Ref>; cone.net_count()];
    for (idx, src) in source_of.iter().enumerate() {
        if let Some(s) = src {
            refs[idx] = Some(Ref {
                root: Root::Source(*s),
                delay: 0,
                inv: false,
            });
        }
    }

    let mut gates = Vec::new();
    let mut ins = Vec::new();
    for gid in cone.topo_gates()? {
        let g = cone.gate(gid);
        let d = u64::from(g.delay);
        let resolve = |net: NetId, refs: &[Option<Ref>]| {
            refs[net.index()].expect("topological order resolves gate inputs")
        };
        let out_ref = match g.kind {
            GateKind::Const0 | GateKind::Const1 => Ref {
                root: Root::Const(g.kind == GateKind::Const1),
                delay: d,
                inv: false,
            },
            GateKind::Buf => {
                let mut r = resolve(g.inputs[0], &refs);
                r.delay += d;
                r
            }
            GateKind::Not => {
                let mut r = resolve(g.inputs[0], &refs);
                r.delay += d;
                match r.root {
                    Root::Const(b) => r.root = Root::Const(!b),
                    _ => r.inv = !r.inv,
                }
                r
            }
            _ => {
                let first = ins.len();
                ins.extend(g.inputs.iter().map(|&n| resolve(n, &refs)));
                gates.push(NGate {
                    kind: g.kind,
                    delay: d,
                    first,
                    end: ins.len(),
                });
                Ref {
                    root: Root::Gate((gates.len() - 1) as u32),
                    delay: 0,
                    inv: false,
                }
            }
        };
        refs[g.output.index()] = Some(out_ref);
    }

    let outs = cone
        .outputs()
        .iter()
        .map(|&o| refs[o.index()].expect("outputs are driven or sources"))
        .collect();
    Ok(Norm {
        n_declared,
        n_sources: n_sources as usize,
        gates,
        ins,
        outs,
    })
}

// ---------------------------------------------------------------------
// Hashing primitives
// ---------------------------------------------------------------------

/// splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// The 64-bit label hash of a word sequence, absorbed as a stream: the
/// word count is folded in first, so a caller that knows it can hash a
/// label without collecting its words. Every WL label and every stored
/// signature depends on this exact sequence of operations.
struct Words(u64);

impl Words {
    fn new(len: usize) -> Words {
        Words(GOLDEN ^ (len as u64))
    }

    fn push(&mut self, v: u64) {
        self.0 = mix64(self.0.rotate_left(7) ^ v.wrapping_mul(GOLDEN));
    }

    fn extend(&mut self, vals: &[u64]) {
        for &v in vals {
            self.push(v);
        }
    }
}

fn h(vals: &[u64]) -> u64 {
    let mut w = Words::new(vals.len());
    w.extend(vals);
    w.0
}

/// Two independent 64-bit lanes absorbed word-by-word into a 128-bit
/// digest; both lanes fold in the word count so prefixes never collide
/// with their extensions.
struct Sink {
    a: u64,
    b: u64,
    n: u64,
}

impl Sink {
    fn new() -> Sink {
        Sink {
            a: 0x6a09_e667_f3bc_c908,
            b: 0xbb67_ae85_84ca_a73b,
            n: 0,
        }
    }

    fn push(&mut self, v: u64) {
        self.n += 1;
        self.a = mix64(self.a ^ v.wrapping_mul(GOLDEN));
        self.b = mix64(
            self.b
                .wrapping_add(v ^ 0x3c6e_f372_fe94_f82b)
                .rotate_left(23),
        );
    }

    fn finish(self) -> u128 {
        let hi = mix64(self.a ^ self.n.wrapping_mul(GOLDEN));
        let lo = mix64(self.b ^ self.n.rotate_left(32) ^ self.a);
        (u128::from(hi) << 64) | u128::from(lo)
    }
}

fn kind_tag(kind: GateKind) -> u64 {
    match kind {
        GateKind::Const0 => 1,
        GateKind::Const1 => 2,
        GateKind::Buf => 3,
        GateKind::Not => 4,
        GateKind::And => 5,
        GateKind::Or => 6,
        GateKind::Nand => 7,
        GateKind::Nor => 8,
        GateKind::Xor => 9,
        GateKind::Xnor => 10,
        GateKind::Mux => 11,
    }
}

/// Whether the gate function is invariant under input permutation.
/// `Mux` is positional (select first), so it is excluded.
fn commutative(kind: GateKind) -> bool {
    matches!(
        kind,
        GateKind::And
            | GateKind::Or
            | GateKind::Nand
            | GateKind::Nor
            | GateKind::Xor
            | GateKind::Xnor
    )
}

// ---------------------------------------------------------------------
// Weisfeiler–Leman refinement of the input ordering
// ---------------------------------------------------------------------

const TAG_SOURCE: u64 = 0x51;
const TAG_GATE: u64 = 0x52;
const TAG_CONST: u64 = 0x53;
const TAG_OUT: u64 = 0x54;
const TAG_DOWN: u64 = 0x55;
const TAG_CHILD: u64 = 0x56;

fn eff(r: Ref, src_label: &[u64], up: &[u64]) -> u64 {
    let (tag, root) = match r.root {
        Root::Source(s) => (TAG_SOURCE, src_label[s as usize]),
        Root::Gate(g) => (TAG_GATE, up[g as usize]),
        Root::Const(b) => (TAG_CONST, u64::from(b)),
    };
    h(&[tag, root, r.delay, u64::from(r.inv)])
}

/// Bottom-up structure labels for every normalized gate, given the
/// current per-source labels, written into `up`. Gates are stored in
/// topological order, so one forward pass suffices; `in_labels` holds one
/// gate's input labels at a time.
fn up_labels(norm: &Norm, src_label: &[u64], up: &mut Vec<u64>, in_labels: &mut Vec<u64>) {
    up.clear();
    for g in &norm.gates {
        in_labels.clear();
        for &r in norm.ins_of(g) {
            in_labels.push(eff(r, src_label, up));
        }
        if commutative(g.kind) {
            in_labels.sort_unstable();
        }
        let mut w = Words::new(2 + in_labels.len());
        w.push(kind_tag(g.kind));
        w.push(g.delay);
        w.extend(in_labels);
        up.push(w.0);
    }
}

/// Flat per-target contribution lists: target `t`'s contributions live
/// in `buf[off[t]..off[t + 1]]`. The bounds come from the cone's
/// fan-out references, which no round changes, so every round refills
/// the same slices.
struct Slices {
    off: Vec<usize>,
    /// Next free position per target during a round.
    fill: Vec<usize>,
    buf: Vec<u64>,
}

impl Slices {
    /// `counts[t + 1]` holds target `t`'s reference count (`counts[0]`
    /// is zero); prefix sums turn the counts into slice bounds.
    fn from_counts(counts: Vec<usize>) -> Slices {
        let mut off = counts;
        for t in 1..off.len() {
            off[t] += off[t - 1];
        }
        let targets = off.len() - 1;
        Slices {
            fill: off[..targets].to_vec(),
            buf: vec![0; off[targets]],
            off,
        }
    }

    /// Starts a round: every slice becomes empty.
    fn clear(&mut self) {
        let targets = self.fill.len();
        self.fill.copy_from_slice(&self.off[..targets]);
    }

    fn push(&mut self, t: usize, v: u64) {
        self.buf[self.fill[t]] = v;
        self.fill[t] += 1;
    }

    /// Target `t`'s contributions, sorted (order-free).
    fn sorted(&mut self, t: usize) -> &[u64] {
        debug_assert_eq!(self.fill[t], self.off[t + 1], "slice fully written");
        let s = &mut self.buf[self.off[t]..self.off[t + 1]];
        s.sort_unstable();
        s
    }
}

/// Books contribution `c` to the root `r` refers to.
fn route(gate_in: &mut Slices, src_in: &mut Slices, r: Ref, c: u64) {
    match r.root {
        Root::Source(s) => src_in.push(s as usize, c),
        Root::Gate(g) => gate_in.push(g as usize, c),
        Root::Const(_) => {}
    }
}

/// The buffers of one cone's WL refinement. Every round and every
/// individualization reuses them, so refinement allocates only when it
/// starts.
struct Wl {
    /// Current per-source labels, and the next round's.
    label: Vec<u64>,
    next: Vec<u64>,
    /// Bottom-up structure label per normalized gate.
    up: Vec<u64>,
    /// One gate's input labels.
    in_labels: Vec<u64>,
    /// Top-down contributions per gate and per source.
    gate_in: Slices,
    src_in: Slices,
    /// `(label, source)` in ascending order.
    ranked: Vec<(u64, usize)>,
    /// The partitions `label` and `next` induce (see
    /// [`partition_shape`]).
    shape: Vec<usize>,
    next_shape: Vec<usize>,
}

impl Wl {
    fn new(norm: &Norm) -> Wl {
        let mut gate_counts = vec![0usize; norm.gates.len() + 1];
        let mut src_counts = vec![0usize; norm.n_sources + 1];
        for r in norm.outs.iter().chain(&norm.ins) {
            match r.root {
                Root::Source(s) => src_counts[s as usize + 1] += 1,
                Root::Gate(g) => gate_counts[g as usize + 1] += 1,
                Root::Const(_) => {}
            }
        }
        let n = norm.n_sources;
        Wl {
            label: vec![0; n],
            next: Vec::with_capacity(n),
            up: Vec::with_capacity(norm.gates.len()),
            in_labels: Vec::new(),
            gate_in: Slices::from_counts(gate_counts),
            src_in: Slices::from_counts(src_counts),
            ranked: Vec::with_capacity(n),
            shape: vec![0; n],
            next_shape: vec![0; n],
        }
    }

    /// One full WL round: bottom-up labels, then top-down context
    /// labels, producing a refined per-source signature in `next`.
    fn round(&mut self, norm: &Norm) {
        let Wl {
            label,
            next,
            up,
            in_labels,
            gate_in,
            src_in,
            ..
        } = self;
        up_labels(norm, label, up, in_labels);
        gate_in.clear();
        src_in.clear();
        for (pos, r) in norm.outs.iter().enumerate() {
            let c = h(&[TAG_OUT, pos as u64, r.delay, u64::from(r.inv)]);
            route(gate_in, src_in, *r, c);
        }

        // Reverse topological order: every consumer of gate `g` has a
        // larger index, so gate `g`'s slice is complete when we reach it.
        for (gi, g) in norm.gates.iter().enumerate().rev() {
            let contribs = gate_in.sorted(gi);
            let mut w = Words::new(2 + contribs.len());
            w.push(TAG_DOWN);
            w.push(up[gi]);
            w.extend(contribs);
            let down = w.0;
            for (pos, r) in norm.ins_of(g).iter().enumerate() {
                // Position is only structural for non-commutative gates;
                // for commutative ones the sibling's own label keys the
                // edge.
                let slot = if commutative(g.kind) {
                    eff(*r, label, up)
                } else {
                    pos as u64
                };
                let c = h(&[
                    TAG_CHILD,
                    down,
                    kind_tag(g.kind),
                    g.delay,
                    slot,
                    r.delay,
                    u64::from(r.inv),
                ]);
                route(gate_in, src_in, *r, c);
            }
        }

        next.clear();
        for (s, &l) in label.iter().enumerate() {
            let contribs = src_in.sorted(s);
            let mut w = Words::new(3 + contribs.len());
            w.push(TAG_SOURCE);
            w.push(l);
            w.push(u64::from(s < norm.n_declared));
            w.extend(contribs);
            next.push(w.0);
        }
    }

    /// Iterates WL rounds until the induced partition stops changing.
    fn refine_to_fixpoint(&mut self, norm: &Norm) {
        partition_shape(&self.label, &mut self.ranked, &mut self.shape);
        // The partition stabilizes in ≤ n rounds in practice; the cap
        // only guards determinism on adversarial hash behaviour.
        for _ in 0..norm.n_sources + 2 {
            self.round(norm);
            partition_shape(&self.next, &mut self.ranked, &mut self.next_shape);
            let done = self.next_shape == self.shape;
            std::mem::swap(&mut self.label, &mut self.next);
            std::mem::swap(&mut self.shape, &mut self.next_shape);
            if done {
                break;
            }
        }
    }

    /// Computes the canonical slot of every source: WL refinement plus
    /// individualization of surviving ties by lowest original index.
    fn canonical_slots(&mut self, norm: &Norm) -> Vec<usize> {
        if norm.n_sources == 0 {
            return Vec::new();
        }
        self.refine_to_fixpoint(norm);
        let mut individualized = 0u64;
        loop {
            // The smallest-labelled class that still has a tie, and its
            // lowest index: the first equal pair of the ranked labels.
            rank(&self.label, &mut self.ranked);
            let tied = self.ranked.windows(2).find(|w| w[0].0 == w[1].0);
            let Some(&[(_, pivot), _]) = tied else { break };
            individualized += 1;
            // A value outside `h`'s typical range is unnecessary;
            // distinctness within this labeling is what matters.
            self.label[pivot] = h(&[0x1d1u64, individualized, self.label[pivot]]);
            self.refine_to_fixpoint(norm);
        }
        // Every label is now distinct: a source's slot is its rank.
        let mut slot_of = vec![0; norm.n_sources];
        for (slot, &(_, s)) in self.ranked.iter().enumerate() {
            slot_of[s] = slot;
        }
        slot_of
    }
}

/// Sorts `(label, index)` pairs of `labels` into `ranked`.
fn rank(labels: &[u64], ranked: &mut Vec<(u64, usize)>) {
    ranked.clear();
    ranked.extend(labels.iter().enumerate().map(|(i, &l)| (l, i)));
    ranked.sort_unstable();
}

/// The partition `labels` induces, written into `shape` as each
/// element's lowest same-label index: two labelings give equal shapes
/// exactly when they induce the same partition.
fn partition_shape(labels: &[u64], ranked: &mut Vec<(u64, usize)>, shape: &mut [usize]) {
    rank(labels, ranked);
    for class in ranked.chunk_by(|a, b| a.0 == b.0) {
        let lowest = class[0].1;
        for &(_, i) in class {
            shape[i] = lowest;
        }
    }
}

// ---------------------------------------------------------------------
// Canonical serialization
// ---------------------------------------------------------------------

fn serialize_ref(r: Ref, slot_of: &[usize], canon_gate: &[u32]) -> [u64; 4] {
    match r.root {
        Root::Source(s) => [
            TAG_SOURCE,
            slot_of[s as usize] as u64,
            r.delay,
            u64::from(r.inv),
        ],
        Root::Gate(g) => [
            TAG_GATE,
            u64::from(canon_gate[g as usize]),
            r.delay,
            u64::from(r.inv),
        ],
        Root::Const(b) => [TAG_CONST, u64::from(b), r.delay, u64::from(r.inv)],
    }
}

/// Computes the canonical signature and input correspondence of a
/// fanin cone.
///
/// The cone is expected to come from [`Netlist::cone`]: a self-contained
/// netlist whose inputs are the cone sources and whose (usually single)
/// outputs are the cone roots. Output order is significant.
///
/// # Errors
///
/// Propagates [`NetlistError::CombinationalCycle`] from the topological
/// sort; well-formed cones never fail.
pub fn cone_signature(cone: &Netlist) -> Result<ConeKey, NetlistError> {
    let norm = normalize(cone)?;
    let mut wl = Wl::new(&norm);
    let slot_of = wl.canonical_slots(&norm);

    // Final bottom-up labels with discrete (slot-valued) source labels.
    let final_src: Vec<u64> = slot_of.iter().map(|&s| s as u64).collect();
    up_labels(&norm, &final_src, &mut wl.up, &mut wl.in_labels);
    let up = &wl.up;

    // Canonical gate order: by depth (topologically valid), then by the
    // final structure label, then by original index as a last resort.
    let mut depth = vec![0u64; norm.gates.len()];
    for (gi, g) in norm.gates.iter().enumerate() {
        depth[gi] = 1 + norm
            .ins_of(g)
            .iter()
            .map(|r| match r.root {
                Root::Gate(p) => depth[p as usize],
                _ => 0,
            })
            .max()
            .unwrap_or(0);
    }
    let mut order: Vec<usize> = (0..norm.gates.len()).collect();
    order.sort_unstable_by_key(|&gi| (depth[gi], up[gi], gi));
    let mut canon_gate = vec![0u32; norm.gates.len()];
    for (pos, &gi) in order.iter().enumerate() {
        canon_gate[gi] = pos as u32;
    }

    let mut sink = Sink::new();
    sink.push(0x4846_5441_0001); // "HFTA" v1
    sink.push(norm.n_sources as u64);
    sink.push(norm.n_declared as u64);
    sink.push(norm.gates.len() as u64);
    sink.push(norm.outs.len() as u64);
    let mut ins: Vec<[u64; 4]> = Vec::new();
    for &gi in &order {
        let g = &norm.gates[gi];
        ins.clear();
        ins.extend(
            norm.ins_of(g)
                .iter()
                .map(|&r| serialize_ref(r, &slot_of, &canon_gate)),
        );
        if commutative(g.kind) {
            ins.sort_unstable();
        }
        sink.push(kind_tag(g.kind));
        sink.push(g.delay);
        sink.push(ins.len() as u64);
        for w in ins.iter().flatten() {
            sink.push(*w);
        }
    }
    for &r in &norm.outs {
        for w in serialize_ref(r, &slot_of, &canon_gate) {
            sink.push(w);
        }
    }

    let perm = slot_of[..norm.n_declared].to_vec();
    Ok(ConeKey {
        sig: ConeSig(sink.finish()),
        perm,
    })
}

/// A name-independent fingerprint of the literal cone structure: gate
/// list in creation order with raw net ids, inputs, and outputs.
///
/// Unlike [`ConeSig`] this is *not* canonical — permuting inputs or
/// reordering gates changes it — which is exactly what callers need
/// when they must distinguish "literally the same netlist modulo names"
/// from "isomorphic": under a limited solve budget only the former
/// guarantees identical solver behaviour.
#[must_use]
pub fn exact_fingerprint(cone: &Netlist) -> u64 {
    let mut sink = Sink::new();
    sink.push(cone.net_count() as u64);
    sink.push(cone.inputs().len() as u64);
    for &pi in cone.inputs() {
        sink.push(pi.index() as u64);
    }
    sink.push(cone.outputs().len() as u64);
    for &po in cone.outputs() {
        sink.push(po.index() as u64);
    }
    sink.push(cone.gate_count() as u64);
    for g in cone.gates() {
        sink.push(kind_tag(g.kind));
        sink.push(u64::from(g.delay));
        sink.push(g.output.index() as u64);
        sink.push(g.inputs.len() as u64);
        for &i in &g.inputs {
            sink.push(i.index() as u64);
        }
    }
    mix64(sink.finish() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{carry_skip_block, CsaDelays};
    use crate::GateKind as K;

    fn sig_of(nl: &Netlist) -> ConeKey {
        cone_signature(nl).expect("acyclic")
    }

    /// A tiny AOI cone: out = (a·b) + c, with configurable delays.
    fn aoi(d_and: u32, d_or: u32) -> Netlist {
        let mut nl = Netlist::new("aoi");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let t = nl.add_net("t");
        let z = nl.add_net("z");
        nl.add_gate(K::And, &[a, b], t, d_and).unwrap();
        nl.add_gate(K::Or, &[t, c], z, d_or).unwrap();
        nl.mark_output(z);
        nl
    }

    #[test]
    fn renaming_and_gate_reorder_are_invisible() {
        let base = aoi(2, 3);
        // Same structure, different names, gates created in a different
        // order (Or's non-tree input first).
        let mut nl = Netlist::new("other");
        let x = nl.add_input("x");
        let y = nl.add_input("y");
        let w = nl.add_input("w");
        let m = nl.add_net("m");
        let o = nl.add_net("o");
        nl.add_gate(K::And, &[x, y], m, 2).unwrap();
        nl.add_gate(K::Or, &[m, w], o, 3).unwrap();
        nl.mark_output(o);
        assert_eq!(sig_of(&base).sig, sig_of(&nl).sig);
    }

    #[test]
    fn input_permutation_matches_through_perm() {
        let base = aoi(2, 3);
        // c declared first: inputs permuted, same function/structure.
        let mut nl = Netlist::new("perm");
        let c = nl.add_input("c");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let t = nl.add_net("t");
        let z = nl.add_net("z");
        nl.add_gate(K::And, &[a, b], t, 2).unwrap();
        nl.add_gate(K::Or, &[t, c], z, 3).unwrap();
        nl.mark_output(z);
        let ka = sig_of(&base);
        let kb = sig_of(&nl);
        assert_eq!(ka.sig, kb.sig);
        // base inputs (a, b, c); perm maps c (base pos 2) and c (perm
        // pos 0) to the same slot.
        assert_eq!(ka.perm[2], kb.perm[0]);
        assert_eq!(
            {
                let mut s = ka.perm.clone();
                s.sort_unstable();
                s
            },
            vec![0, 1, 2]
        );
    }

    #[test]
    fn commutative_input_order_is_invisible_but_mux_is_not() {
        let mut a = Netlist::new("a");
        let x = a.add_input("x");
        let y = a.add_input("y");
        let z = a.add_net("z");
        a.add_gate(K::And, &[x, y], z, 1).unwrap();
        a.mark_output(z);

        let mut b = Netlist::new("b");
        let x2 = b.add_input("x");
        let y2 = b.add_input("y");
        let z2 = b.add_net("z");
        b.add_gate(K::And, &[y2, x2], z2, 1).unwrap();
        b.mark_output(z2);
        assert_eq!(sig_of(&a).sig, sig_of(&b).sig);

        // Mux data inputs are positional: swapping them changes the
        // function unless the inputs are symmetric, so the signature
        // must distinguish the two orderings' wiring to the *select*.
        let mk = |sel_first: bool| {
            let mut nl = Netlist::new("m");
            let s = nl.add_input("s");
            let p = nl.add_input("p");
            let q = nl.add_input("q");
            let t = nl.add_net("t");
            let o = nl.add_net("o");
            nl.add_gate(K::And, &[p, q], t, 1).unwrap();
            if sel_first {
                nl.add_gate(K::Mux, &[s, t, p], o, 2).unwrap();
            } else {
                nl.add_gate(K::Mux, &[s, p, t], o, 2).unwrap();
            }
            nl.mark_output(o);
            nl
        };
        assert_ne!(sig_of(&mk(true)).sig, sig_of(&mk(false)).sig);
    }

    #[test]
    fn buf_not_chains_normalize() {
        // not(not(a)) with delays 1,2 == buf(buf(a)) with delays 2,1
        // == buf(a) with delay 3: all collapse to (a, +3, even parity).
        let chain = |kinds: &[(K, u32)]| {
            let mut nl = Netlist::new("c");
            let a = nl.add_input("a");
            let b = nl.add_input("b");
            let mut cur = a;
            for (i, &(k, d)) in kinds.iter().enumerate() {
                let n = nl.add_net(format!("n{i}"));
                nl.add_gate(k, &[cur], n, d).unwrap();
                cur = n;
            }
            let z = nl.add_net("z");
            nl.add_gate(K::And, &[cur, b], z, 5).unwrap();
            nl.mark_output(z);
            nl
        };
        let double_not = chain(&[(K::Not, 1), (K::Not, 2)]);
        let double_buf = chain(&[(K::Buf, 2), (K::Buf, 1)]);
        let single_buf = chain(&[(K::Buf, 3)]);
        assert_eq!(sig_of(&double_not).sig, sig_of(&double_buf).sig);
        assert_eq!(sig_of(&double_not).sig, sig_of(&single_buf).sig);
        // Odd parity differs.
        let single_not = chain(&[(K::Not, 3)]);
        assert_ne!(sig_of(&double_not).sig, sig_of(&single_not).sig);
        // Different accumulated delay differs.
        let slow_buf = chain(&[(K::Buf, 4)]);
        assert_ne!(sig_of(&single_buf).sig, sig_of(&slow_buf).sig);
    }

    #[test]
    fn const_folding_through_not() {
        let mk = |kind: K, invert: bool| {
            let mut nl = Netlist::new("k");
            let a = nl.add_input("a");
            let c = nl.add_net("c");
            nl.add_gate(kind, &[], c, 1).unwrap();
            let src = if invert {
                let ci = nl.add_net("ci");
                nl.add_gate(K::Not, &[c], ci, 0).unwrap();
                ci
            } else {
                c
            };
            let z = nl.add_net("z");
            nl.add_gate(K::And, &[a, src], z, 2).unwrap();
            nl.mark_output(z);
            nl
        };
        // not(const0) == const1 (with matching accumulated delay).
        assert_eq!(
            sig_of(&mk(K::Const0, true)).sig,
            sig_of(&mk(K::Const1, false)).sig
        );
        assert_ne!(
            sig_of(&mk(K::Const0, false)).sig,
            sig_of(&mk(K::Const1, false)).sig
        );
    }

    #[test]
    fn kind_delay_and_structure_differences_are_visible() {
        assert_ne!(sig_of(&aoi(2, 3)).sig, sig_of(&aoi(2, 4)).sig);
        let mut nl = Netlist::new("nand_version");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let t = nl.add_net("t");
        let z = nl.add_net("z");
        nl.add_gate(K::Nand, &[a, b], t, 2).unwrap();
        nl.add_gate(K::Or, &[t, c], z, 3).unwrap();
        nl.mark_output(z);
        assert_ne!(sig_of(&aoi(2, 3)).sig, sig_of(&nl).sig);
    }

    #[test]
    fn symmetric_inputs_share_any_correspondence() {
        // out = a·b: both inputs are automorphic; whatever slots are
        // assigned, signatures agree and tuple sharing is valid either
        // way round.
        let mut a = Netlist::new("and2");
        let x = a.add_input("p");
        let y = a.add_input("q");
        let z = a.add_net("z");
        a.add_gate(K::And, &[x, y], z, 1).unwrap();
        a.mark_output(z);
        let ka = sig_of(&a);
        assert_eq!(ka.perm.len(), 2);
        assert_ne!(ka.perm[0], ka.perm[1]);
    }

    #[test]
    fn carry_skip_block_output_cones_match_across_copies() {
        let blk = carry_skip_block(2, CsaDelays::default());
        let mut other = carry_skip_block(2, CsaDelays::default());
        other.set_name("renamed");
        for (&oa, &ob) in blk.outputs().iter().zip(other.outputs()) {
            let (ca, _) = blk.cone(oa);
            let (cb, _) = other.cone(ob);
            let ka = sig_of(&ca);
            let kb = sig_of(&cb);
            assert_eq!(ka.sig, kb.sig);
            assert_eq!(ka.perm, kb.perm);
            assert_eq!(exact_fingerprint(&ca), exact_fingerprint(&cb));
        }
        // Different delays produce different signatures: delay is part
        // of the timing-relevant structure.
        let slow = carry_skip_block(
            2,
            CsaDelays {
                mux: 9,
                ..CsaDelays::default()
            },
        );
        let (ca, _) = blk.cone(*blk.outputs().last().unwrap());
        let (cs, _) = slow.cone(*slow.outputs().last().unwrap());
        assert_ne!(sig_of(&ca).sig, sig_of(&cs).sig);
    }

    #[test]
    fn trivial_cones() {
        // Output is directly a primary input.
        let mut nl = Netlist::new("wire");
        let a = nl.add_input("a");
        nl.mark_output(a);
        let k = sig_of(&nl);
        assert_eq!(k.perm, vec![0]);

        // Constant-only cone: no inputs at all.
        let mut c = Netlist::new("const");
        let z = c.add_net("z");
        c.add_gate(K::Const1, &[], z, 1).unwrap();
        c.mark_output(z);
        let kc = sig_of(&c);
        assert!(kc.perm.is_empty());
        assert_ne!(k.sig, kc.sig);
    }

    /// Exact signatures and permutations of fixed cones. Stored model
    /// records carry per-output signatures and are checked against them
    /// on load, and verdict records are named by signature, so a changed
    /// value silently turns every stored database into misses. These
    /// values must not change; a deliberate signature change must bump
    /// the record format.
    #[test]
    fn signatures_are_pinned() {
        use crate::gen::{array_multiplier, parity_tree, random_circuit, RandomCircuitSpec};
        let pin = |nl: &Netlist, net: &str, sig: &str, perm: &[usize]| {
            let root = nl.find_net(net).expect("pinned net exists");
            let key = sig_of(&nl.cone(root).0);
            assert_eq!(key.sig.to_string(), sig, "{}: {net}", nl.name());
            assert_eq!(key.perm, perm, "{}: {net}", nl.name());
        };
        let blk = carry_skip_block(2, CsaDelays::default());
        pin(&blk, "s0", "89a34c703ea8c488f8f3144b1cb0abcc", &[1, 2, 0]);
        pin(
            &blk,
            "s1",
            "f7a71f242002e00660396ee276f4469b",
            &[0, 2, 4, 1, 3],
        );
        pin(
            &blk,
            "c_out",
            "111f8a5091c109d4c9b9f6e3bf9db5d8",
            &[4, 0, 2, 3, 1],
        );
        // Every input of a parity tree is automorphic: the slots come
        // from individualization.
        let parity = parity_tree(8, 2);
        let out = parity.net_name(parity.outputs()[0]).to_string();
        pin(
            &parity,
            &out,
            "c4109703c68bfe5173834f7c64d143f5",
            &[6, 1, 0, 4, 7, 2, 5, 3],
        );
        let mult = array_multiplier(3, CsaDelays::default());
        pin(
            &mult,
            "fa2_2_c",
            "d895ca4e827413385b84a2a7ad36ac44",
            &[0, 1, 5, 4, 3, 2],
        );
        // A 135-gate, 12-input cone of the Table 2 c432_like circuit.
        let c432 = random_circuit("c432_like", RandomCircuitSpec::iscas_like(160, 432));
        pin(
            &c432,
            "g157",
            "ffcd7775397bb1570e6f7810ca9678c8",
            &[6, 10, 8, 9, 1, 3, 0, 5, 7, 2, 4, 11],
        );
    }

    #[test]
    fn slot_round_trip() {
        let key = ConeKey {
            sig: ConeSig(1),
            perm: vec![2, 0, 1],
        };
        let vals = [10i64, 20, 30];
        let slots = key.to_slots(&vals, 0);
        assert_eq!(slots, vec![20, 30, 10]);
        assert_eq!(key.from_slots(&slots), vals);
    }
}
