//! Serve phase: seeded multi-tenant schedules through `peert-serve`,
//! every batched-lane trajectory proved bit-exact against a solo
//! interpreted [`Engine`] run of the same (possibly overridden) spec.
//!
//! Each schedule builds a few generated diagrams, submits several
//! sessions per diagram (random tenants, priorities and per-lane `Gain`
//! overrides) into a paused server with a deliberately small gang width
//! — so one diagram spans several gangs and the plan cache must hit —
//! then resumes, joins every stream and compares bit-for-bit. One
//! session per schedule may be cancelled mid-run: its trajectory must
//! be an exact prefix of the reference.
//!
//! Late-joiner schedules run unpaused: an early gang steps one quantum
//! before a burst of sessions of the same diagram arrives, which then
//! catches up with it and merges into one wider gang whenever the two
//! fit — so the oracle covers merged lanes too.

use peert_model::{Backend, Engine, Value};
use peert_serve::{
    LaneOverride, Reject, ServeConfig, Server, SessionHandle, SessionOutcome, SessionSpec,
};

use crate::diff::value_bits;
use crate::gen;
use crate::rng::Rng;
use crate::spec::{BlockSpec, DiagramSpec};
use crate::MIL_STEPS;

/// What one schedule proved.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScheduleReport {
    /// Sessions joined bit-exact (including the cancelled prefix, if any).
    pub sessions: u64,
    /// Plan-cache hits the server recorded.
    pub cache_hits: u64,
    /// Plan-cache misses the server recorded.
    pub cache_misses: u64,
    /// Late gangs merged into a running one.
    pub merges: u64,
}

const JOIN: std::time::Duration = std::time::Duration::from_secs(60);

/// Reference trajectory: a solo interpreted engine over every output
/// port of every block, probed after each step — exactly what a served
/// session with `probe_all` streams back.
fn reference(spec: &DiagramSpec, steps: u64) -> Result<Vec<Value>, String> {
    let diagram = spec.build()?;
    let probes = peert_serve::all_ports(&diagram);
    let mut e = Engine::with_backend(diagram, spec.dt, Backend::Interpreted)
        .map_err(|e| format!("reference engine: {e:?}"))?;
    let mut out = Vec::with_capacity((steps as usize) * probes.len());
    for step in 0..steps {
        e.step().map_err(|e| format!("reference step {step}: {e:?}"))?;
        for &p in &probes {
            out.push(e.probe(p));
        }
    }
    Ok(out)
}

/// The spec with its first `Gain` re-parameterized to `gain` — the solo
/// twin of a served session carrying a `LaneOverride::Param` on that
/// block. Returns the block index alongside.
fn override_gain(spec: &DiagramSpec, gain: f64) -> Option<(DiagramSpec, usize)> {
    let idx = spec
        .blocks
        .iter()
        .position(|b| matches!(b, BlockSpec::Gain { .. }))?;
    let mut twin = spec.clone();
    twin.blocks[idx] = BlockSpec::Gain { gain };
    Some((twin, idx))
}

fn bits(vs: &[Value]) -> Vec<(u8, u64)> {
    vs.iter().map(|&v| value_bits(v)).collect()
}

/// Run schedule `case` of `seed`. Every session must complete (or, for
/// the one cancelled session, stop early) with a bit-exact trajectory.
pub fn run_serve_schedule(seed: u64, case: u64) -> Result<ScheduleReport, String> {
    let mut r = Rng::derive(seed, 0x5E12_7E00 ^ case);

    let max_lanes = 2 + r.below(3) as usize; // 2..=4: small on purpose
    let config = ServeConfig {
        shards: 1 + (case % 3) as usize,
        queue_cap: 256,
        tenant_quota: 64,
        max_lanes,
        quantum: 4 + r.below(12),
        plan_cache_cap: 16,
        compact: r.chance(1, 2),
        start_paused: true,
    };
    let server = Server::start(config);

    // (handle, reference spec) per session, submitted paused so
    // gang formation sees the whole schedule at once
    let mut pending = Vec::new();
    let n_specs = 1 + r.below(3);
    for si in 0..n_specs {
        let spec = gen::gen_mil_spec(seed, case * 31 + si * 7);
        // more sessions than the gang is wide → ≥2 gangs per spec →
        // the second gang must hit the plan cache
        let k = 2 * max_lanes as u64 + r.below(3);
        for _ in 0..k {
            let tenant = format!("tenant{}", r.below(4));
            let priority = r.below(2) as u8;
            let (s, ref_spec) = session(&spec, &mut r, tenant, priority)?;
            pending.push((submit(&server, s, si, case)?, ref_spec));
        }
    }

    // one long session, cancelled mid-run: must stop early with an
    // exact prefix of the reference
    let cancelled = if r.chance(1, 2) {
        let spec = gen::gen_mil_spec(seed, case * 31);
        let h = server
            .submit(
                SessionSpec::new("tenant-cancel", spec.build()?, spec.dt, MIL_STEPS * 1000)
                    .probe_all(),
            )
            .map_err(|e| format!("cancel-session reject: {e}"))?;
        Some((h, spec))
    } else {
        None
    };

    server.resume();
    if let Some((h, _)) = &cancelled {
        h.cancel();
    }

    let mut report = ScheduleReport::default();
    for (i, (h, ref_spec)) in pending.into_iter().enumerate() {
        check_completed(i, h, &ref_spec)?;
        report.sessions += 1;
    }

    if let Some((h, spec)) = cancelled {
        let res = h.join_deadline(JOIN).map_err(|e| format!("cancelled session: {e}"))?;
        if res.outcome != SessionOutcome::Cancelled {
            return Err(format!("cancelled session ended {:?}", res.outcome));
        }
        let want = reference(&spec, res.steps)?;
        if bits(&res.trajectory) != bits(&want) {
            return Err(format!(
                "cancelled session's {}-step prefix diverged from the solo engine",
                res.steps
            ));
        }
        report.sessions += 1;
    }

    finish(server, report)
}

/// Run late-joiner schedule `case` of `seed`. A few sessions of one
/// diagram start on a running one-shard server and step exactly one
/// quantum; then a burst of sessions of the same diagram arrives. The
/// burst's gang must merge into the early one exactly when the two
/// share a priority and fit one gang, and every trajectory must be
/// bit-exact.
pub fn run_late_join_schedule(seed: u64, case: u64) -> Result<ScheduleReport, String> {
    let mut r = Rng::derive(seed, 0x1A7E_501E ^ case);

    let max_lanes = 2 + r.below(3) as usize; // 2..=4
    let quantum = 4 + r.below(12); // ≤ half of MIL_STEPS: always chaseable
    let server = Server::start(ServeConfig {
        shards: 1,
        queue_cap: 64,
        tenant_quota: 64,
        max_lanes,
        quantum,
        plan_cache_cap: 16,
        compact: r.chance(1, 2),
        start_paused: true,
    });
    let spec = gen::gen_mil_spec(seed, case * 31 + 11);
    let early = 1 + r.below(max_lanes as u64 - 1);
    // one more than fits, some of the time
    let late = 1 + r.below(max_lanes as u64 - early + 1);
    let late_priority = r.below(2) as u8;

    let mut pending = Vec::new();
    for _ in 0..early {
        let (s, ref_spec) = session(&spec, &mut r, "early".into(), 0)?;
        pending.push((submit(&server, s, 0, case)?, ref_spec));
    }
    // Generic jobs run at the end of a scheduling round, so this one
    // holds the worker right after the early gang's first quantum.
    let (running_tx, running_rx) = std::sync::mpsc::channel();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    server.submit_job(move || {
        let _ = running_tx.send(());
        let _ = release_rx.recv(); // released when the sender drops
    });
    server.resume();
    running_rx.recv_timeout(JOIN).map_err(|_| "the round gate never ran".to_string())?;
    for _ in 0..late {
        let (s, ref_spec) = session(&spec, &mut r, "late".into(), late_priority)?;
        pending.push((submit(&server, s, 0, case)?, ref_spec));
    }
    drop(release_tx);

    let mut report = ScheduleReport::default();
    for (i, (h, ref_spec)) in pending.into_iter().enumerate() {
        check_completed(i, h, &ref_spec)?;
        report.sessions += 1;
    }
    let expect = u64::from(late_priority == 0 && early + late <= max_lanes as u64);
    let report = finish(server, report)?;
    if report.merges != expect {
        return Err(format!(
            "{early} early + {late} late lane(s) (late priority {late_priority}, gang width \
             {max_lanes}) merged {} time(s), expected {expect}",
            report.merges
        ));
    }
    Ok(report)
}

/// One session of `spec` for `tenant`, half the time with its first
/// `Gain` overridden per lane; returns it with its solo twin.
fn session(
    spec: &DiagramSpec,
    r: &mut Rng,
    tenant: String,
    priority: u8,
) -> Result<(SessionSpec, DiagramSpec), String> {
    let (ref_spec, override_of) = if r.chance(1, 2) {
        match override_gain(spec, r.range_f64(0.25, 2.0)) {
            Some((twin, idx)) => {
                let BlockSpec::Gain { gain } = twin.blocks[idx] else { unreachable!() };
                (twin, Some((idx, gain)))
            }
            None => (spec.clone(), None),
        }
    } else {
        (spec.clone(), None)
    };
    let mut s =
        SessionSpec::new(tenant, spec.build()?, spec.dt, MIL_STEPS).probe_all().priority(priority);
    if let Some((idx, gain)) = override_of {
        s = s.with_override(LaneOverride::Param {
            block: peert_model::BlockId::from_index(idx),
            index: 0,
            value: gain,
        });
    }
    Ok((s, ref_spec))
}

fn submit(server: &Server, s: SessionSpec, si: u64, case: u64) -> Result<SessionHandle, String> {
    let overridden = !s.overrides.is_empty();
    match server.submit(s) {
        Ok(h) => Ok(h),
        Err(Reject::OverridesUnsupported(_)) if overridden => Err(format!(
            "spec {si} of schedule {case} did not lower but gen_mil_spec \
             diagrams must (kernel phase relies on it)"
        )),
        Err(e) => Err(format!("unexpected reject: {e}")),
    }
}

/// Join session `i`: it must complete its `MIL_STEPS` budget bit-exact
/// against a solo engine run of `ref_spec`.
fn check_completed(i: usize, h: SessionHandle, ref_spec: &DiagramSpec) -> Result<(), String> {
    let budget = MIL_STEPS;
    let res = h.join_deadline(JOIN).map_err(|e| format!("session {i}: {e}"))?;
    if res.outcome != SessionOutcome::Completed {
        return Err(format!("session {i} ended {:?}, expected completion", res.outcome));
    }
    if res.steps != budget {
        return Err(format!("session {i} recorded {} steps, budget {budget}", res.steps));
    }
    let want = reference(ref_spec, budget)?;
    if bits(&res.trajectory) != bits(&want) {
        let at = bits(&res.trajectory)
            .iter()
            .zip(bits(&want).iter())
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        return Err(format!(
            "session {i} diverged from the solo engine at flat index {at}: \
             served {:?} != reference {:?}\nspec: {}",
            res.trajectory.get(at),
            want.get(at),
            ref_spec.to_json()
        ));
    }
    Ok(())
}

/// Shut the server down: nothing may have failed inside the daemon.
/// Fills in the cache and merge counts.
fn finish(server: Server, mut report: ScheduleReport) -> Result<ScheduleReport, String> {
    let stats = server.shutdown();
    if stats.counters.failed != 0 {
        return Err(format!("{} session(s) failed inside the daemon", stats.counters.failed));
    }
    report.cache_hits = stats.plan_cache.hits;
    report.cache_misses = stats.plan_cache.misses;
    report.merges = stats.shards.iter().map(|s| s.merges).sum();
    Ok(report)
}
