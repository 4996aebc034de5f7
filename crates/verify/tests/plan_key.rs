//! The plan cache's compact exact key, `Diagram::structural_key`, held
//! against the fingerprint it encodes and the plans it selects, over
//! seeded diagrams from the verify generator.
//!
//! * equal keys ⇔ equal `fingerprint()` (diagrams without ±0.0 or NaN
//!   parameters; those two follow the bits, see
//!   `signed_zero_and_nan_key_by_bits`);
//! * equal `(digest, key)` ⇒ equal `CompiledPlan::structural_bytes()`;
//! * renaming a block, rewiring one input, moving a sample offset and
//!   `Constant(Bool(true))` vs `Constant(F64(1.0))` each miss the cache;
//! * inserting after an unlocked compile never leaves two entries for
//!   one key.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use peert_model::block::ParamValue;
use peert_model::library::{Constant, Gain, SineWave};
use peert_model::{
    lowering_digest, Block, BlockCtx, CompiledPlan, Diagram, DiagramFingerprint, Lowering,
    PlanCache, PortCount, SampleTime, Value,
};
use peert_verify::gen::{gen_mil_spec, gen_numeric_spec, DT};
use peert_verify::spec::DiagramSpec;

const SEED: u64 = 0x6B65_7973;
const CASES: u64 = 64;

/// The generated specs: MIL differential cases plus numeric-phase
/// cases, each listed twice so independently built equal diagrams
/// meet in the pairwise checks.
fn specs() -> Vec<DiagramSpec> {
    let mut v: Vec<DiagramSpec> = (0..CASES)
        .map(|c| gen_mil_spec(SEED, c))
        .chain((0..CASES / 4).map(|c| gen_numeric_spec(SEED, c)))
        .collect();
    v.extend(v.clone());
    v
}

/// A diagram's lowering under the serve flags, or `None` if it does
/// not lower.
fn lower(d: &Diagram) -> Option<Lowering> {
    Lowering::new(d, d.sorted_order().ok()?, DT).ok()
}

/// Whether a parameter is -0.0 or NaN, where the key's bitwise
/// comparison and the fingerprint's `PartialEq` part ways.
fn has_negative_zero_or_nan(fp: &DiagramFingerprint) -> bool {
    fp.blocks.iter().flat_map(|b| &b.params).any(|(_, v)| match v {
        ParamValue::F(x) => (*x == 0.0 && x.is_sign_negative()) || x.is_nan(),
        _ => false,
    })
}

/// Look `d` up in `cache`; on a miss build it, as a serve shard does,
/// and insert it. Returns the resident plan and whether it hit.
fn fetch(cache: &mut PlanCache, d: &Diagram) -> (Arc<CompiledPlan>, bool) {
    let l = lower(d).expect("lowers");
    let key = d.structural_key();
    match cache.lookup(l.digest(), &key) {
        Some(plan) => (plan, true),
        None => (cache.insert(l.digest(), &key, Arc::new(l.build(d))), false),
    }
}

#[test]
fn equal_keys_iff_equal_fingerprints() {
    let built: Vec<(Vec<u8>, DiagramFingerprint)> = specs()
        .iter()
        .map(|s| s.build().expect("generated specs build"))
        .map(|d| (d.structural_key(), d.fingerprint()))
        .filter(|(_, fp)| !has_negative_zero_or_nan(fp))
        .collect();
    assert!(built.len() > CASES as usize, "too few diagrams survive the filter");
    let mut equal = 0;
    for (i, (ki, fi)) in built.iter().enumerate() {
        for (kj, fj) in &built[i + 1..] {
            assert_eq!(ki == kj, fi == fj, "key and fingerprint disagree");
            equal += usize::from(ki == kj);
        }
    }
    assert!(equal >= built.len() / 2, "only {equal} equal pairs");
}

#[test]
fn equal_digest_and_key_compile_to_equal_plans() {
    let diagrams: Vec<Diagram> =
        specs().iter().map(|s| s.build().expect("generated specs build")).collect();
    let keyed: Vec<(u64, Vec<u8>, &Diagram)> = diagrams
        .iter()
        .filter_map(|d| Some((lower(d)?.digest(), d.structural_key(), d)))
        .collect();
    // admission routes by the lowering's digest; it must stay the
    // public `lowering_digest` that `route_shard` computes
    for (digest, _, d) in &keyed {
        assert_eq!(Some(*digest), lowering_digest(d, DT));
    }
    let mut compared = 0;
    for (i, (di, ki, a)) in keyed.iter().enumerate() {
        for (dj, kj, b) in &keyed[i + 1..] {
            if di == dj && ki == kj {
                let pa = lower(a).unwrap().build(a).structural_bytes();
                let pb = lower(b).unwrap().build(b).structural_bytes();
                assert!(pa == pb, "equal (digest, key) compiled to different plans");
                compared += 1;
            }
        }
    }
    assert!(compared >= CASES as usize, "only {compared} equal pairs compared");
}

/// Wraps a block and moves its sample time to `period`/`offset`,
/// lowering as the wrapped block does (the lowered specs do not carry
/// the sample time, so the digest cannot tell offsets apart).
struct Offset<B> {
    inner: B,
    offset: f64,
}

impl<B: Block> Block for Offset<B> {
    fn type_name(&self) -> &'static str {
        self.inner.type_name()
    }
    fn params(&self) -> Vec<(&'static str, ParamValue)> {
        self.inner.params()
    }
    fn ports(&self) -> PortCount {
        self.inner.ports()
    }
    fn sample(&self) -> SampleTime {
        SampleTime::Discrete { period: 0.004, offset: self.offset }
    }
    fn lower(&self) -> Option<peert_model::kernel::KernelSpec> {
        self.inner.lower()
    }
    fn output(&mut self, ctx: &mut BlockCtx) {
        self.inner.output(ctx);
    }
}

/// sine → gain (sampled at 4 ms + `offset`) → gain, with the last
/// gain's input from block `src` and the middle block named `mid`.
fn chain(mid: &str, src: usize, offset: f64) -> Diagram {
    let mut d = Diagram::new();
    let s = d.add("sine", SineWave::new(1.0, 25.0)).unwrap();
    let g = d.add(mid, Offset { inner: Gain::new(3.0), offset }).unwrap();
    let out = d.add("out", Gain::new(0.5)).unwrap();
    d.connect((s, 0), (g, 0)).unwrap();
    d.connect((peert_model::BlockId::from_index(src), 0), (out, 0)).unwrap();
    d
}

fn constant(value: Value) -> Diagram {
    let mut d = Diagram::new();
    let c = d.add("c", Constant { value }).unwrap();
    let g = d.add("g", Gain::new(2.0)).unwrap();
    d.connect((c, 0), (g, 0)).unwrap();
    d
}

#[test]
fn single_mutations_miss_the_cache() {
    let base = || chain("mid", 1, 0.002);
    // (name, mutant, whether the key — rather than the digest — is
    // what tells it from its base)
    let cases: [(&str, Diagram, Diagram, bool); 4] = [
        ("rename", base(), chain("renamed", 1, 0.002), true),
        ("rewire", base(), chain("mid", 0, 0.002), true),
        ("offset", base(), chain("mid", 1, 0.003), true),
        ("value variant", constant(Value::F64(1.0)), constant(Value::Bool(true)), false),
    ];
    for (what, a, b, by_key) in cases {
        let (la, lb) = (lower(&a).unwrap(), lower(&b).unwrap());
        assert_eq!(la.digest() == lb.digest(), by_key, "{what}: digest");
        assert_eq!(a.structural_key() == b.structural_key(), !by_key, "{what}: key");
        let mut cache = PlanCache::new(8);
        let (_, hit_a) = fetch(&mut cache, &a);
        let (_, hit_b) = fetch(&mut cache, &b);
        assert!(!hit_a && !hit_b, "{what}: mutant hit the base's plan");
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 2, 2), "{what}");
        // and the base itself still hits
        assert!(fetch(&mut cache, &a).1, "{what}: base no longer hits");
    }

    // one rewired input of each generated diagram misses as well
    let mut rewired = 0;
    for c in 0..CASES {
        let mut spec = gen_mil_spec(SEED, c);
        let Some(w) = spec.wires.first().copied() else { continue };
        let (a, src) = (spec.build().unwrap(), (w.0 + 1) % w.2.max(1));
        if src == w.0 {
            continue;
        }
        spec.wires[0].0 = src;
        let Ok(b) = spec.build() else { continue };
        if lower(&a).is_none() || lower(&b).is_none() {
            continue;
        }
        let mut cache = PlanCache::new(8);
        fetch(&mut cache, &a);
        assert!(!fetch(&mut cache, &b).1, "case {c}: rewired diagram hit");
        rewired += 1;
    }
    assert!(rewired >= CASES as usize / 2, "only {rewired} rewired cases");
}

#[test]
fn signed_zero_and_nan_key_by_bits() {
    let gain = |g: f64| {
        let mut d = Diagram::new();
        d.add("g", Gain::new(g)).unwrap();
        d
    };
    // PartialEq calls 0.0 and -0.0 equal; the key keeps them apart
    assert!(gain(0.0).fingerprint() == gain(-0.0).fingerprint());
    assert_ne!(gain(0.0).structural_key(), gain(-0.0).structural_key());
    // PartialEq calls NaN unequal to itself; the key matches equal bits
    assert!(gain(f64::NAN).fingerprint() != gain(f64::NAN).fingerprint());
    assert_eq!(gain(f64::NAN).structural_key(), gain(f64::NAN).structural_key());
}

#[test]
fn insert_after_unlocked_compile_keeps_one_entry_per_key() {
    // two callers miss the same key, both compile, both insert: the
    // first plan stays resident and the second caller gets it back
    let d = chain("mid", 1, 0.002);
    let l = lower(&d).unwrap();
    let key = d.structural_key();
    let mut cache = PlanCache::new(8);
    assert!(cache.lookup(l.digest(), &key).is_none());
    assert!(cache.lookup(l.digest(), &key).is_none());
    let first = cache.insert(l.digest(), &key, Arc::new(l.build(&d)));
    let second = cache.insert(l.digest(), &key, Arc::new(l.build(&d)));
    assert!(Arc::ptr_eq(&first, &second));
    assert_eq!((cache.len(), cache.misses(), cache.hits()), (1, 2, 0));

    // four threads race over the same diagrams, compiling with the
    // lock released: one entry per key, and every thread ends up with
    // that entry's plan
    let specs: Vec<DiagramSpec> = (0..8).map(|c| gen_mil_spec(SEED, c)).collect();
    let distinct = {
        let mut keys: Vec<(u64, Vec<u8>)> = specs
            .iter()
            .map(|s| s.build().unwrap())
            .map(|d| (lower(&d).unwrap().digest(), d.structural_key()))
            .collect();
        keys.sort();
        keys.dedup();
        keys.len()
    };
    let cache = Mutex::new(PlanCache::new(64));
    let plans: Vec<HashMap<usize, Arc<CompiledPlan>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let (cache, specs) = (&cache, &specs);
                scope.spawn(move || {
                    let mut got = HashMap::new();
                    for k in 0..specs.len() {
                        let i = (k + 3 * t) % specs.len();
                        let d = specs[i].build().unwrap();
                        let l = lower(&d).unwrap();
                        let key = d.structural_key();
                        let cached = cache.lock().unwrap().lookup(l.digest(), &key);
                        let plan = cached.unwrap_or_else(|| {
                            let built = Arc::new(l.build(&d));
                            cache.lock().unwrap().insert(l.digest(), &key, built)
                        });
                        got.insert(i, plan);
                    }
                    got
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let cache = cache.into_inner().unwrap();
    assert_eq!(cache.len(), distinct, "a key holds two entries");
    assert_eq!(cache.hits() + cache.misses(), 4 * specs.len() as u64);
    for i in 0..specs.len() {
        let first = &plans[0][&i];
        assert!(
            plans.iter().all(|got| Arc::ptr_eq(&got[&i], first)),
            "threads disagree on diagram {i}'s plan"
        );
    }
}
