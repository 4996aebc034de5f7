//! Plan-cache accounting when both shards compile at once. Shards look
//! plans up under the server's cache lock but build them with the lock
//! released, so two shards' misses overlap. A paused two-shard server
//! takes distinct plans on both shards plus repeats that land in extra
//! gangs (past `max_lanes`, or at another priority), resumes, and must
//! count one miss per distinct plan and one hit per further gang, with
//! every trajectory bit-exact against a solo interpreted engine.

use std::time::Duration;

use peert_model::library::{Gain, Integrator, SineWave};
use peert_model::{Backend, Diagram, Engine, Value};
use peert_serve::{route_shard, ServeConfig, Server, SessionOutcome, SessionSpec};

const DT: f64 = 1e-3;
const SHARDS: usize = 2;
const MAX_LANES: usize = 2;
const STEPS: u64 = 40;
const JOIN: Duration = Duration::from_secs(60);

/// sine → `len` gains → integrator; `gain` sets the first gain, so
/// each value is its own plan. Long enough that a compile takes a
/// while and the two shards' compiles overlap.
fn chain(len: usize, gain: f64) -> Diagram {
    let mut d = Diagram::new();
    let mut prev = d.add("sine", SineWave::new(1.0, 10.0)).unwrap();
    for k in 0..len {
        let g = d.add(format!("g{k}"), Gain::new(if k == 0 { gain } else { 0.999 })).unwrap();
        d.connect((prev, 0), (g, 0)).unwrap();
        prev = g;
    }
    let i = d.add("int", Integrator::new(0.0)).unwrap();
    d.connect((prev, 0), (i, 0)).unwrap();
    d
}

fn reference(diagram: Diagram) -> Vec<u64> {
    let probes = peert_serve::all_ports(&diagram);
    let mut e = Engine::with_backend(diagram, DT, Backend::Interpreted).unwrap();
    let mut out = Vec::new();
    for _ in 0..STEPS {
        e.step().unwrap();
        out.extend(probes.iter().map(|&p| e.probe(p)));
    }
    bits(&out)
}

fn bits(vs: &[Value]) -> Vec<u64> {
    vs.iter().map(|v| v.as_f64().to_bits()).collect()
}

#[test]
fn concurrent_misses_count_one_compile_per_plan() {
    // three distinct plans per shard
    let mut plans: Vec<(usize, f64)> = Vec::new();
    let mut per_shard = [0; SHARDS];
    for k in 0.. {
        let gain = 1.0 + 0.125 * f64::from(k);
        let shard = route_shard(&chain(200, gain), DT, SHARDS);
        if per_shard[shard] < 3 {
            per_shard[shard] += 1;
            plans.push((shard, gain));
        }
        if per_shard == [3; SHARDS] {
            break;
        }
    }

    let server = Server::start(ServeConfig {
        shards: SHARDS,
        queue_cap: 64,
        tenant_quota: 64,
        max_lanes: MAX_LANES,
        quantum: 8,
        plan_cache_cap: 16,
        compact: true,
        start_paused: true,
    });
    // plan p gets p % 3 + 1 sessions at priority 0 (three sessions cut
    // into two gangs), plus one at priority 1 for every other plan
    let mut handles = Vec::new();
    let mut gangs = 0;
    for (p, &(_, gain)) in plans.iter().enumerate() {
        let repeats = p % 3 + 1;
        gangs += repeats.div_ceil(MAX_LANES);
        for _ in 0..repeats {
            handles.push((gain, SessionSpec::new("t", chain(200, gain), DT, STEPS)));
        }
        if p % 2 == 0 {
            gangs += 1;
            handles.push((gain, SessionSpec::new("t", chain(200, gain), DT, STEPS).priority(1)));
        }
    }
    let handles: Vec<_> = handles
        .into_iter()
        .map(|(gain, spec)| (gain, server.submit(spec.probe_all()).expect("roomy config admits")))
        .collect();
    server.resume();
    for (gain, h) in handles {
        let r = h.join_deadline(JOIN).expect("session wedged");
        assert_eq!(r.outcome, SessionOutcome::Completed);
        assert!(bits(&r.trajectory) == reference(chain(200, gain)), "gain {gain} diverged");
    }

    let stats = server.shutdown();
    let distinct = plans.len() as u64;
    assert_eq!(stats.counters.batches, gangs as u64);
    assert_eq!(stats.plan_cache.misses, distinct);
    assert_eq!(stats.plan_cache.hits, gangs as u64 - distinct);
    assert_eq!(stats.plan_cache.resident, plans.len());
    assert_eq!(stats.shards.iter().map(|s| s.cache_misses).sum::<u64>(), stats.plan_cache.misses);
    assert_eq!(stats.shards.iter().map(|s| s.cache_hits).sum::<u64>(), stats.plan_cache.hits);
    for (shard, s) in stats.shards.iter().enumerate() {
        let mine = plans.iter().filter(|(sh, _)| *sh == shard).count() as u64;
        assert_eq!(s.cache_misses, mine, "shard {shard} compiled another shard's plan");
    }
}
