//! Shard worker: drains its bounded queue, coalesces same-plan
//! sessions into `BatchEngine` gangs, lets a late gang catch up with
//! and merge into an older one of the same plan, and round-robins
//! quanta across the active set.

use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::Receiver;
use peert_model::graph::Source;
use peert_model::{Backend, BatchEngine, Diagram, Engine, Value};

use crate::server::Shared;
use crate::session::{
    Admitted, LaneOverride, Lowered, Model, SessionEvent, SessionOutcome, SessionTask,
};

/// What the admission front-end hands a shard.
pub(crate) enum ShardMsg {
    /// An admitted session.
    Session(Box<Admitted>),
    /// A generic job (experiment sweeps).
    Job(Box<dyn FnOnce() + Send>),
    /// Drain everything already admitted, then exit.
    Shutdown,
}

/// One session occupying one lane of a gang (or a solo engine).
struct Lane {
    task: SessionTask,
    recorded: u64,
    flushed: u64,
    chunk: Vec<Value>,
    done: bool,
}

impl Lane {
    fn new(task: SessionTask) -> Self {
        Lane { task, recorded: 0, flushed: 0, chunk: Vec::new(), done: false }
    }

    fn flush(&mut self) {
        if !self.chunk.is_empty() {
            let values = std::mem::take(&mut self.chunk);
            let _ = self
                .task
                .tx
                .send(SessionEvent::Chunk { start_step: self.flushed, values });
            self.flushed = self.recorded;
        }
    }

    fn finish(&mut self, outcome: SessionOutcome, shared: &Shared) {
        self.flush();
        let mut c = shared.counters.lock();
        match &outcome {
            SessionOutcome::Completed => {
                c.completed += 1;
                c.steps_completed += self.recorded;
            }
            SessionOutcome::Cancelled => c.cancelled += 1,
            SessionOutcome::Failed(_) => c.failed += 1,
        }
        drop(c);
        let _ = self.task.tx.send(SessionEvent::Done { outcome, steps: self.recorded });
        self.done = true;
    }
}

/// Same-plan sessions stepping together through one `BatchEngine`.
struct Gang {
    engine: BatchEngine,
    lanes: Vec<Lane>,
    priority: u8,
    seq: u64,
    chase: Chase,
}

impl Gang {
    fn live(&self) -> usize {
        self.lanes.iter().filter(|l| !l.done).count()
    }
}

/// A gang's part in catch-up merging (see `pick_chases`).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Chase {
    /// Stepping on its own.
    Free,
    /// Stepping alone towards `goal`, the frozen step count of the
    /// parked gang whose `seq` is `target`; merges into it there.
    Chasing { target: u64, goal: u64 },
    /// Held at its step count (cancel sweeps only) while a younger
    /// gang catches up.
    Parked,
}

/// An interpreter-fallback session (unlowerable diagram).
struct Solo {
    engine: Engine,
    lane: Lane,
    priority: u8,
    seq: u64,
}

pub(crate) fn run_shard(shard: usize, shared: &Arc<Shared>, rx: &Receiver<ShardMsg>) {
    let mut pending: Vec<Admitted> = Vec::new();
    let mut jobs: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    let mut gangs: Vec<Gang> = Vec::new();
    let mut solos: Vec<Solo> = Vec::new();
    let mut shutting_down = false;

    loop {
        shared.wait_if_paused();

        let idle =
            pending.is_empty() && jobs.is_empty() && gangs.is_empty() && solos.is_empty();
        if idle && !shutting_down {
            // nothing to do: sleep on the queue
            match rx.recv() {
                Ok(m) => absorb(m, &mut pending, &mut jobs, &mut shutting_down),
                Err(_) => break,
            }
            if shared.is_paused() {
                // paused mid-sleep: park again before draining more, so
                // a paused server accumulates queue depth deterministically
                continue;
            }
        }
        while let Ok(m) = rx.try_recv() {
            absorb(m, &mut pending, &mut jobs, &mut shutting_down);
        }

        if !pending.is_empty() {
            let formed = gangs.len();
            form_gangs(shard, shared, &mut pending, &mut gangs, &mut solos);
            pick_chases(&mut gangs, formed, shared.config.max_lanes.max(1));
        }

        // one quantum per active gang/solo, highest priority first
        // (seq is unique per gang and per solo, so the order is total
        // and an unstable sort, which never allocates, gives it)
        gangs.sort_unstable_by(|a, b| b.priority.cmp(&a.priority).then(a.seq.cmp(&b.seq)));
        solos.sort_unstable_by(|a, b| b.priority.cmp(&a.priority).then(a.seq.cmp(&b.seq)));
        for g in &mut gangs {
            match g.chase {
                Chase::Free => gang_quantum(g, u64::MAX, shard, shared),
                Chase::Chasing { goal, .. } => {
                    let gap = goal - g.engine.steps();
                    gang_quantum(g, gap, shard, shared);
                }
                Chase::Parked => cancel_sweep(&mut g.lanes, shared),
            }
        }
        for s in &mut solos {
            solo_quantum(s, shard, shared);
        }
        settle_chases(&mut gangs, shard, shared);
        gangs.retain(|g| g.live() > 0);
        solos.retain(|s| !s.lane.done);
        if shared.config.compact {
            for g in &mut gangs {
                maybe_compact(g, shard, shared);
            }
        }

        for job in jobs.drain(..) {
            job();
        }

        if shutting_down
            && pending.is_empty()
            && gangs.is_empty()
            && solos.is_empty()
            && rx.is_empty()
        {
            break;
        }
    }
}

fn absorb(
    m: ShardMsg,
    pending: &mut Vec<Admitted>,
    jobs: &mut Vec<Box<dyn FnOnce() + Send>>,
    shutting_down: &mut bool,
) {
    match m {
        ShardMsg::Session(t) => pending.push(*t),
        ShardMsg::Job(j) => jobs.push(j),
        ShardMsg::Shutdown => *shutting_down = true,
    }
}

/// Group the drained backlog into gangs: stable-sort by (priority,
/// arrival), bucket by (priority, lowering digest, structural key) in
/// first-seen order, then cut each bucket into `max_lanes`-wide gangs.
/// A bucket keeps its first session's model; the others' models are
/// dropped once compared. Unlowerable sessions become solo interpreter
/// lanes.
fn form_gangs(
    shard: usize,
    shared: &Arc<Shared>,
    pending: &mut Vec<Admitted>,
    gangs: &mut Vec<Gang>,
    solos: &mut Vec<Solo>,
) {
    pending.sort_by(|a, b| {
        let (a, b) = (&a.task, &b.task);
        b.priority.cmp(&a.priority).then(a.seq.cmp(&b.seq))
    });
    let mut buckets: Vec<(Lowered, Vec<SessionTask>)> = Vec::new();
    for Admitted { task, model } in pending.drain(..) {
        let lowered = match model {
            Model::Lowered(l) => l,
            Model::Interpreted(diagram) => {
                start_solo(task, diagram, shard, shared, solos);
                continue;
            }
        };
        if let Some(b) = buckets
            .iter_mut()
            .find(|(l, tasks)| tasks[0].priority == task.priority && l.same_plan(&lowered))
        {
            b.1.push(task);
        } else {
            buckets.push((lowered, vec![task]));
        }
    }
    let max_lanes = shared.config.max_lanes.max(1);
    for (lowered, mut tasks) in buckets {
        while !tasks.is_empty() {
            let take = tasks.len().min(max_lanes);
            let group: Vec<SessionTask> = tasks.drain(..take).collect();
            start_gang(group, &lowered, shard, shared, gangs);
        }
    }
}

/// Start one gang on `lowered`'s plan: look it up under the server's
/// cache lock and, on a miss, build it from the admission lowering
/// with the lock released, then insert it. Sessions of one plan share
/// a digest and so always route to this shard, so a miss is still
/// exactly one compile.
fn start_gang(
    group: Vec<SessionTask>,
    lowered: &Lowered,
    shard: usize,
    shared: &Arc<Shared>,
    gangs: &mut Vec<Gang>,
) {
    let n = group.len();
    let seq = group[0].seq;
    let priority = group[0].priority;
    let mut lanes: Vec<Lane> = group.into_iter().map(Lane::new).collect();

    let digest = lowered.lowering.digest();
    let cached = shared.cache.lock().lookup(digest, &lowered.key);
    let hit = cached.is_some();
    let plan = cached.unwrap_or_else(|| {
        let plan = Arc::new(lowered.lowering.build(&lowered.diagram));
        shared.cache.lock().insert(digest, &lowered.key, plan)
    });
    let mut engine = BatchEngine::from_shared_plan(plan, n);
    {
        let mut st = shared.shard_states[shard].lock();
        if hit {
            st.cache_hits += 1;
        } else {
            st.cache_misses += 1;
        }
        st.sessions += n as u64;
        st.batches += 1;
    }
    {
        let mut c = shared.counters.lock();
        c.batches += 1;
        if n >= 2 {
            c.coalesced_lanes += n as u64;
        }
    }
    for (li, lane) in lanes.iter_mut().enumerate() {
        for o in lane.task.overrides.clone() {
            let ok = match o {
                LaneOverride::Param { block, index, value } => {
                    engine.set_param(li, block, index, value)
                }
                LaneOverride::Const { block, value } => engine.set_const(li, block, value),
            };
            if !ok {
                lane.finish(
                    SessionOutcome::Failed(
                        "override target not on the tape (folded, pruned or out of range)".into(),
                    ),
                    shared,
                );
                break;
            }
        }
    }
    gangs.push(Gang { engine, lanes, priority, seq, chase: Chase::Free });
}

/// Give each gang formed this round (`gangs[formed..]`, none stepped
/// yet) the oldest running gang it can catch up with: same compiled
/// plan and priority, neither side already in a chase, live lanes
/// that fit one gang together, and a target no further along than
/// its widest lane still has to go — so the catch-up never outlasts
/// what the target still has to run. The target is parked at its
/// current step count; the chaser steps alone until it gets there.
fn pick_chases(gangs: &mut [Gang], formed: usize, max_lanes: usize) {
    for j in formed..gangs.len() {
        let chaser = &gangs[j];
        let live = chaser.live();
        if live == 0 {
            continue;
        }
        let target = gangs
            .iter()
            .enumerate()
            .filter(|(_, g)| {
                let steps = g.engine.steps();
                g.chase == Chase::Free
                    && steps > 0
                    && g.priority == chaser.priority
                    && std::ptr::eq(g.engine.plan(), chaser.engine.plan())
                    && g.live() + live <= max_lanes
                    && steps <= max_remaining(&g.lanes)
            })
            .min_by_key(|(_, g)| g.seq)
            .map(|(i, g)| (i, g.seq, g.engine.steps()));
        if let Some((i, target, goal)) = target {
            gangs[i].chase = Chase::Parked;
            gangs[j].chase = Chase::Chasing { target, goal };
        }
    }
}

/// End-of-round chase bookkeeping: a chaser that reached its goal
/// merges into its target; a chase in which either side has no live
/// lane left is dropped, unparking the target.
fn settle_chases(gangs: &mut [Gang], shard: usize, shared: &Shared) {
    for j in 0..gangs.len() {
        let Chase::Chasing { target, goal } = gangs[j].chase else {
            continue;
        };
        let i = gangs
            .iter()
            .position(|g| g.seq == target)
            .expect("a parked target is retained until its chase settles");
        let (t, c) = pair_mut(gangs, i, j);
        if t.live() > 0 && c.live() > 0 {
            if c.engine.steps() < goal {
                continue;
            }
            if repack(t, Some(c)) {
                shared.shard_states[shard].lock().merges += 1;
            }
        }
        t.chase = Chase::Free;
        c.chase = Chase::Free;
    }
}

/// Mutable references to two distinct elements.
fn pair_mut<T>(v: &mut [T], i: usize, j: usize) -> (&mut T, &mut T) {
    assert_ne!(i, j);
    if i < j {
        let (a, b) = v.split_at_mut(j);
        (&mut a[i], &mut b[0])
    } else {
        let (a, b) = v.split_at_mut(i);
        (&mut b[0], &mut a[j])
    }
}

fn start_solo(
    task: SessionTask,
    diagram: Diagram,
    shard: usize,
    shared: &Arc<Shared>,
    solos: &mut Vec<Solo>,
) {
    let priority = task.priority;
    let seq = task.seq;
    let dt = task.dt;
    let mut lane = Lane::new(task);
    {
        let mut st = shared.shard_states[shard].lock();
        st.sessions += 1;
        st.solo_sessions += 1;
    }
    shared.counters.lock().solo_sessions += 1;
    match Engine::with_backend(diagram, dt, Backend::Interpreted) {
        Ok(engine) => solos.push(Solo { engine, lane, priority, seq }),
        Err(e) => lane.finish(SessionOutcome::Failed(format!("engine: {e:?}")), shared),
    }
}

/// Remaining budget of the widest live lane (how far the gang still
/// has to step).
fn max_remaining(lanes: &[Lane]) -> u64 {
    lanes
        .iter()
        .filter(|l| !l.done)
        .map(|l| l.task.budget - l.recorded)
        .max()
        .unwrap_or(0)
}

fn cancel_sweep(lanes: &mut [Lane], shared: &Shared) {
    for lane in lanes.iter_mut() {
        if !lane.done && lane.task.cancel.load(std::sync::atomic::Ordering::Acquire) {
            lane.finish(SessionOutcome::Cancelled, shared);
        }
    }
}

/// Advance a gang one quantum, cut short at `cap` steps (a chaser
/// stops exactly at its target's step count).
fn gang_quantum(gang: &mut Gang, cap: u64, shard: usize, shared: &Arc<Shared>) {
    cancel_sweep(&mut gang.lanes, shared);
    let rem = max_remaining(&gang.lanes);
    if rem == 0 {
        return;
    }
    let q = shared.config.quantum.max(1).min(rem).min(cap);
    let t0 = Instant::now();
    for _ in 0..q {
        gang.engine.step();
        for (li, lane) in gang.lanes.iter_mut().enumerate() {
            if !lane.done && lane.recorded < lane.task.budget {
                record_probes(&mut lane.chunk, &lane.task.probes, |p| gang.engine.probe(li, p));
                lane.recorded += 1;
            }
        }
    }
    let ns_per_step = (t0.elapsed().as_nanos() as u64) / q;
    shared.shard_states[shard].lock().hist.record(ns_per_step);
    for lane in &mut gang.lanes {
        if !lane.done {
            lane.flush();
            if lane.recorded == lane.task.budget {
                lane.finish(SessionOutcome::Completed, shared);
            }
        }
    }
}

fn solo_quantum(solo: &mut Solo, shard: usize, shared: &Arc<Shared>) {
    cancel_sweep(std::slice::from_mut(&mut solo.lane), shared);
    let lane = &mut solo.lane;
    if lane.done {
        return;
    }
    let q = shared.config.quantum.max(1).min(lane.task.budget - lane.recorded);
    let t0 = Instant::now();
    for _ in 0..q {
        if let Err(e) = solo.engine.step() {
            lane.finish(SessionOutcome::Failed(format!("step: {e:?}")), shared);
            return;
        }
        record_probes(&mut lane.chunk, &lane.task.probes, |p| solo.engine.probe(p));
        lane.recorded += 1;
    }
    let ns_per_step = (t0.elapsed().as_nanos() as u64) / q;
    shared.shard_states[shard].lock().hist.record(ns_per_step);
    lane.flush();
    if lane.recorded == lane.task.budget {
        lane.finish(SessionOutcome::Completed, shared);
    }
}

fn record_probes(chunk: &mut Vec<Value>, probes: &[Source], probe: impl Fn(Source) -> Value) {
    for &p in probes {
        chunk.push(probe(p));
    }
}

/// Once at least half a (≥4-lane) gang's lanes have finished, narrow
/// it to its survivors so the dead lanes stop costing SoA bandwidth.
fn maybe_compact(gang: &mut Gang, shard: usize, shared: &Arc<Shared>) {
    let live = gang.live();
    let total = gang.lanes.len();
    if total < 4 || live == 0 || (total - live) < live {
        return;
    }
    if repack(gang, None) {
        shared.shard_states[shard].lock().compactions += 1;
    }
}

/// Transplant the live lanes of `gang`, then those of `joiner` (same
/// plan, same step count), into one fresh engine exactly as wide as
/// they are; finished lanes are dropped and `joiner` is left empty.
/// Checkpoint/restore is bit-exact and carries each lane's overrides,
/// and a lane's stream state travels with its `Lane`, so trajectories
/// are unaffected. Returns false, with nothing moved, if a restore is
/// refused.
fn repack(gang: &mut Gang, joiner: Option<&mut Gang>) -> bool {
    let live = gang.live() + joiner.as_ref().map_or(0, |j| j.live());
    let mut engine = BatchEngine::from_shared_plan(gang.engine.shared_plan(), live);
    engine.seek(gang.engine.steps());
    let mut target = 0;
    for g in std::iter::once(&*gang).chain(joiner.as_deref()) {
        for (li, lane) in g.lanes.iter().enumerate() {
            if !lane.done {
                let ok = engine.restore_lane(target, &g.engine.checkpoint_lane(li));
                debug_assert!(ok, "same plan + seeked clock must restore");
                if !ok {
                    return false; // keep the old engines; correctness first
                }
                target += 1;
            }
        }
    }
    gang.engine = engine;
    gang.lanes.retain(|l| !l.done);
    if let Some(j) = joiner {
        gang.lanes.extend(j.lanes.drain(..).filter(|l| !l.done));
    }
    true
}
