//! Catch-up gang merging: a gang formed while an older same-plan gang
//! is running chases it (the older gang parks) and merges into it at
//! equal step counts. Each case drives a one-shard server one
//! scheduling round at a time, so every chase, park and merge happens
//! at a known step, and checks every trajectory bit-for-bit against a
//! solo interpreted engine plus the shard's `merges` count.

use std::sync::mpsc;
use std::time::Duration;

use peert_model::library::continuous::Integrator;
use peert_model::library::math::Gain;
use peert_model::library::sources::SineWave;
use peert_model::{Backend, BlockId, Diagram, Engine, Value};
use peert_serve::{
    LaneOverride, ServeConfig, Server, SessionHandle, SessionOutcome, SessionResult, SessionSpec,
};

const DT: f64 = 1e-3;
const JOIN: Duration = Duration::from_secs(60);
const QUANTUM: u64 = 16;
const MAX_LANES: usize = 4;
/// Block index of the `Gain` in [`chain`] (the override target).
const GAIN: usize = 1;

/// sine → gain → integrator: the integrator's state must survive the
/// repack for a merged lane to stay exact.
fn chain(gain: f64) -> Diagram {
    let mut d = Diagram::new();
    let s = d.add("sine", SineWave::new(1.0, 10.0)).unwrap();
    let g = d.add("gain", Gain::new(gain)).unwrap();
    let i = d.add("int", Integrator::new(0.0)).unwrap();
    d.connect((s, 0), (g, 0)).unwrap();
    d.connect((g, 0), (i, 0)).unwrap();
    d
}

/// Every port of `chain(gain)` after each of `steps` solo steps.
fn reference(gain: f64, steps: u64) -> Vec<u64> {
    let diagram = chain(gain);
    let probes = peert_serve::all_ports(&diagram);
    let mut e = Engine::with_backend(diagram, DT, Backend::Interpreted).unwrap();
    let mut out = Vec::new();
    for _ in 0..steps {
        e.step().unwrap();
        out.extend(probes.iter().map(|&p| e.probe(p)));
    }
    bits(&out)
}

fn bits(vs: &[Value]) -> Vec<u64> {
    vs.iter().map(|v| v.as_f64().to_bits()).collect()
}

fn server() -> Server {
    Server::start(ServeConfig {
        shards: 1,
        queue_cap: 64,
        tenant_quota: 64,
        max_lanes: MAX_LANES,
        quantum: QUANTUM,
        plan_cache_cap: 8,
        compact: true,
        start_paused: true,
    })
}

/// Submit a session of `chain(1.5)`, its gain overridden to `gain`
/// when that differs.
fn submit(server: &Server, gain: f64, steps: u64) -> SessionHandle {
    let mut spec = SessionSpec::new("t", chain(1.5), DT, steps).probe_all();
    if gain != 1.5 {
        spec = spec.with_override(LaneOverride::Param {
            block: BlockId::from_index(GAIN),
            index: 0,
            value: gain,
        });
    }
    server.submit(spec).expect("roomy config admits")
}

/// Steps the shard worker one scheduling round at a time. Generic jobs
/// run at the end of a round, after the queue drain and the quanta, so
/// a job that blocks until released holds the worker between rounds.
struct Rounds {
    release: Option<mpsc::Sender<()>>,
}

impl Rounds {
    fn new() -> Self {
        Rounds { release: None }
    }

    /// Run exactly one more round: queue the next blocker, release the
    /// current one (or resume the paused server), and return once the
    /// new blocker is running. Sessions submitted before the call are
    /// drained in that round.
    fn tick(&mut self, server: &Server) {
        let (running_tx, running_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        assert!(server.submit_job(move || {
            running_tx.send(()).expect("test thread alive");
            let _ = release_rx.recv(); // released when the sender drops
        }));
        self.release = Some(release_tx);
        server.resume();
        running_rx.recv_timeout(JOIN).expect("round never ran");
    }
}

fn merges(server: &Server) -> u64 {
    server.stats().shards[0].merges
}

fn join(h: SessionHandle) -> SessionResult {
    h.join_deadline(JOIN).expect("session wedged")
}

fn assert_completed(r: &SessionResult, gain: f64, steps: u64) {
    assert_eq!(r.outcome, SessionOutcome::Completed);
    assert_eq!(r.steps, steps);
    assert!(bits(&r.trajectory) == reference(gain, steps), "trajectory diverged from solo engine");
}

fn assert_cancelled(r: &SessionResult, gain: f64, steps: u64) {
    assert_eq!(r.outcome, SessionOutcome::Cancelled);
    assert_eq!(r.steps, steps);
    assert!(bits(&r.trajectory) == reference(gain, steps), "prefix diverged from solo engine");
}

#[test]
fn late_joiners_merge_and_keep_their_overrides() {
    let server = server();
    let mut rounds = Rounds::new();
    let a = submit(&server, 1.5, 200);
    rounds.tick(&server); // a: 16 steps
    let b = submit(&server, -0.75, 150);
    let c = submit(&server, 1.5, 200);
    rounds.tick(&server); // {b, c} chase a, reach 16 steps and merge
    assert_eq!(merges(&server), 1);
    let d = submit(&server, 2.5, 100);
    rounds.tick(&server); // d catches the merged gang, parked at 16 last round
    assert_eq!(merges(&server), 2);
    drop(rounds);

    assert_completed(&join(a), 1.5, 200);
    assert_completed(&join(b), -0.75, 150);
    assert_completed(&join(c), 1.5, 200);
    assert_completed(&join(d), 2.5, 100);
    let stats = server.shutdown();
    // counters keep their at-formation meaning: three gangs formed, one
    // of them (b, c) two lanes wide
    assert_eq!(stats.counters.batches, 3);
    assert_eq!(stats.counters.coalesced_lanes, 2);
    assert_eq!(stats.counters.failed, 0);
    assert_eq!(stats.shards[0].merges, 2);
}

#[test]
fn cancelling_the_target_mid_chase_lets_the_chaser_finish() {
    let server = server();
    let mut rounds = Rounds::new();
    let a = submit(&server, 1.5, 400);
    rounds.tick(&server);
    rounds.tick(&server); // a: 32 steps
    let b = submit(&server, 0.5, 300);
    rounds.tick(&server); // b chases a: 16 of 32
    a.cancel();
    rounds.tick(&server); // a's lane ends while parked; b reaches 32
    drop(rounds);

    assert_cancelled(&join(a), 1.5, 2 * QUANTUM);
    assert_completed(&join(b), 0.5, 300);
    assert_eq!(server.shutdown().shards[0].merges, 0);
}

#[test]
fn cancelling_the_chaser_mid_chase_lets_the_target_resume() {
    let server = server();
    let mut rounds = Rounds::new();
    let a = submit(&server, 1.5, 400);
    rounds.tick(&server);
    rounds.tick(&server); // a: 32 steps
    let b = submit(&server, 0.5, 300);
    rounds.tick(&server); // b chases a: 16 of 32
    b.cancel();
    rounds.tick(&server); // b's lane ends; the chase is dropped
    drop(rounds);

    assert_cancelled(&join(b), 0.5, QUANTUM);
    assert_completed(&join(a), 1.5, 400);
    assert_eq!(server.shutdown().shards[0].merges, 0);
}

#[test]
fn a_target_past_half_way_is_not_chased() {
    for (budget, expect) in [(2 * QUANTUM - 1, 0), (2 * QUANTUM, 1)] {
        let server = server();
        let mut rounds = Rounds::new();
        let a = submit(&server, 1.5, budget);
        rounds.tick(&server); // a: 16 steps, budget - 16 to go
        let b = submit(&server, 0.5, 100);
        rounds.tick(&server);
        rounds.tick(&server);
        drop(rounds);

        assert_completed(&join(a), 1.5, budget);
        assert_completed(&join(b), 0.5, 100);
        assert_eq!(server.shutdown().shards[0].merges, expect, "target budget {budget}");
    }
}

#[test]
fn gangs_too_wide_together_are_not_merged() {
    let server = server();
    let mut rounds = Rounds::new();
    let early: Vec<_> = (0..3).map(|i| submit(&server, 1.0 + f64::from(i), 200)).collect();
    rounds.tick(&server);
    let late: Vec<_> = (0..2).map(|i| submit(&server, -1.0 - f64::from(i), 200)).collect();
    rounds.tick(&server);
    rounds.tick(&server);
    drop(rounds);

    for (i, h) in (0..3).zip(early) {
        assert_completed(&join(h), 1.0 + f64::from(i), 200);
    }
    for (i, h) in (0..2).zip(late) {
        assert_completed(&join(h), -1.0 - f64::from(i), 200);
    }
    assert_eq!(server.shutdown().shards[0].merges, 0);
}
