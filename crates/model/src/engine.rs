//! Fixed-step simulation engine.
//!
//! Executes a [`Diagram`] with Simulink's two-phase fixed-step semantics:
//! per major step, all due blocks run their *output* method in
//! feedthrough-compatible order, function-call events fire their triggered
//! subsystems immediately, then all due blocks run their *update* method.
//! This is the "Model in the Loop" vehicle of the development cycle (§2, §6)
//! — the closed-loop single model of plant and controller runs here before
//! any code is generated.
//!
//! [`Engine::new`] compiles the diagram into an [`ExecutionPlan`] once;
//! after warm-up the step loop performs no heap allocation: inputs are
//! gathered through the plan's dense resolution table into a reusable
//! scratch buffer, outputs land in a flat value arena, and discrete sample
//! hits are integer comparisons against precomputed rate buckets.

use crate::block::BlockCtx;
use crate::graph::{BlockId, Diagram, GraphError, Source};
use crate::plan::{ExecutionPlan, Sched, NO_EVENT_TARGET, UNCONNECTED};
use crate::signal::Value;
use peert_trace::{ClockDomain, EventId, Tracer};
use std::collections::VecDeque;

/// Simulation errors.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// The diagram failed to sort (bad wiring / algebraic loop).
    Graph(GraphError),
    /// A single step dispatched more triggered executions than the safety
    /// cap — an event livelock (a triggered subsystem re-triggering itself).
    EventStorm {
        /// The step's time.
        t: f64,
    },
    /// A compiled-backend-only construction (e.g.
    /// [`Engine::compiled_pruned`] or [`crate::kernel::BatchEngine`])
    /// hit a diagram that cannot be lowered. [`Engine::new`] never
    /// returns this — it falls back to the interpreter instead.
    Kernel(crate::kernel::KernelError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Graph(g) => write!(f, "{g}"),
            SimError::EventStorm { t } => write!(f, "event livelock at t={t}"),
            SimError::Kernel(k) => write!(f, "{k}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<GraphError> for SimError {
    fn from(e: GraphError) -> Self {
        SimError::Graph(e)
    }
}

/// Safety cap on triggered dispatches within one major step.
const EVENT_CAP: usize = 10_000;

/// Which step backend an [`Engine`] runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The plan interpreter: per step, walk `plan.order`, gather inputs
    /// through the resolution table, dispatch `Block::output`/`update`.
    Interpreted,
    /// The fused-kernel tape ([`crate::kernel`]): monomorphized kernels
    /// over a flat arena, no per-step dispatch or input walk. Bit-exact
    /// with the interpreter (the `peert-verify` "kernel" phase is the
    /// proof); selected by default when every block lowers.
    Compiled,
}

/// Live state of the compiled backend: the shared tape plus this
/// engine's single-lane runtime (values arena + state/param pools).
struct CompiledState {
    plan: std::sync::Arc<crate::kernel::CompiledPlan>,
    rt: crate::kernel::KernelRuntime,
    cache_hit: bool,
}

/// Error from [`Engine::try_probe`]: the probed source does not exist.
#[derive(Clone, Debug, PartialEq)]
pub enum ProbeError {
    /// The block index is past the end of the diagram.
    BlockOutOfRange {
        /// Offending block index.
        block: usize,
        /// Number of blocks in the diagram.
        len: usize,
    },
    /// The block exists but has no such output port.
    PortOutOfRange {
        /// Name of the probed block.
        block: String,
        /// Number of output ports the block has.
        outputs: usize,
        /// The port index asked for.
        port: usize,
    },
}

impl std::fmt::Display for ProbeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProbeError::BlockOutOfRange { block, len } => {
                write!(f, "probe: block #{block} out of range (diagram has {len} blocks)")
            }
            ProbeError::PortOutOfRange { block, outputs, port } => {
                write!(
                    f,
                    "probe: block '{block}' has {outputs} output port(s), asked for port {port}"
                )
            }
        }
    }
}

impl std::error::Error for ProbeError {}

/// Registered trace event ids for the engine's instrumentation points
/// (present iff [`Engine::enable_trace`] was called).
struct EngineTraceIds {
    step: EventId,
    output: EventId,
    update: EventId,
    /// One instant id per discrete rate bucket, fired on each hit.
    buckets: Vec<EventId>,
    evals: EventId,
    trig: EventId,
}

/// The fixed-step engine.
pub struct Engine {
    diagram: Diagram,
    plan: ExecutionPlan,
    dt: f64,
    t: f64,
    step_index: u64,
    /// Flat output-value arena, indexed by the plan's `out_base` offsets.
    values: Vec<Value>,
    /// Per-bucket due flag, refreshed once per major step.
    bucket_due: Vec<bool>,
    /// Reusable input buffer for the currently executing block.
    scratch_in: Vec<Value>,
    /// Reusable event-port buffer for the currently executing block.
    scratch_events: Vec<usize>,
    /// Persistent function-call dispatch queue.
    event_queue: VecDeque<u32>,
    triggered_execs: u64,
    /// Total block phase executions (output + update + triggered).
    block_evals: u64,
    tracer: Tracer,
    trace_ids: Option<EngineTraceIds>,
    /// Present iff stepping on the compiled backend.
    compiled: Option<CompiledState>,
    /// Why the compiled backend was not (or is no longer) in use.
    fallback_reason: Option<String>,
}

impl Engine {
    /// Build an engine over `diagram` with fundamental step `dt` seconds.
    ///
    /// Tries the compiled kernel backend first (tapes are shared through
    /// the process-wide [`crate::kernel::PlanCache`], keyed by
    /// [`Diagram::structural_key`]); if any block does not lower, the engine
    /// falls back to the plan interpreter automatically and
    /// [`Engine::fallback_reason`] says why. Both backends cache the
    /// blocks' `ports()` and `sample()` metadata at build time, so
    /// structural edits through [`Engine::diagram_mut`] (rewiring, port
    /// or rate changes) require a new engine.
    pub fn new(diagram: Diagram, dt: f64) -> Result<Self, SimError> {
        Self::with_backend(diagram, dt, Backend::Compiled)
    }

    /// [`Engine::new`] with an explicit backend choice.
    /// `Backend::Interpreted` never compiles a tape; `Backend::Compiled`
    /// compiles through the global plan cache, falling back to the
    /// interpreter when the diagram cannot be lowered.
    pub fn with_backend(diagram: Diagram, dt: f64, backend: Backend) -> Result<Self, SimError> {
        assert!(dt > 0.0, "fundamental step must be positive");
        let order = diagram.sorted_order()?;
        let mut e = Self::build_interpreted(diagram, dt, &order);
        if backend == Backend::Compiled {
            let outcome = {
                let mut cache = crate::kernel::global_cache().lock();
                cache.get_or_compile(&e.diagram, order, dt, true)
            };
            e.attach_compiled(outcome);
        }
        Ok(e)
    }

    /// [`Engine::new`] compiling through a caller-owned
    /// [`crate::kernel::PlanCache`] instead of the process-wide one —
    /// differential harnesses use this to assert exact hit/miss counts.
    /// Fallback semantics match [`Engine::new`].
    pub fn with_cache(
        diagram: Diagram,
        dt: f64,
        cache: &mut crate::kernel::PlanCache,
    ) -> Result<Self, SimError> {
        assert!(dt > 0.0, "fundamental step must be positive");
        let order = diagram.sorted_order()?;
        let mut e = Self::build_interpreted(diagram, dt, &order);
        let outcome = cache.get_or_compile(&e.diagram, order, dt, true);
        e.attach_compiled(outcome);
        Ok(e)
    }

    /// Build a compiled-only engine whose tape omits the blocks listed in
    /// `dead` (indices into the diagram) — the hook `peert-lint`'s
    /// dead-block removal proof drives. Bypasses the plan cache (pruned
    /// tapes are diagram-specific) and errors instead of falling back:
    /// a prune request on an un-lowerable diagram is a caller bug.
    pub fn compiled_pruned(diagram: Diagram, dt: f64, dead: &[usize]) -> Result<Self, SimError> {
        assert!(dt > 0.0, "fundamental step must be positive");
        let order = diagram.sorted_order()?;
        let plan = crate::kernel::compile(&diagram, &order, dt, dead, true)
            .map_err(SimError::Kernel)?;
        let mut e = Self::build_interpreted(diagram, dt, &order);
        e.attach_compiled(Ok((std::sync::Arc::new(plan), false)));
        Ok(e)
    }

    fn build_interpreted(diagram: Diagram, dt: f64, order: &[BlockId]) -> Self {
        let plan = ExecutionPlan::compile(&diagram, dt, order);
        let values = vec![Value::default(); plan.arena_len];
        let bucket_due = vec![false; plan.buckets.len()];
        let scratch_in = Vec::with_capacity(plan.max_inputs);
        let scratch_events = Vec::with_capacity(plan.max_events);
        let event_queue = VecDeque::with_capacity(16);
        Engine {
            diagram,
            plan,
            dt,
            t: 0.0,
            step_index: 0,
            values,
            bucket_due,
            scratch_in,
            scratch_events,
            event_queue,
            triggered_execs: 0,
            block_evals: 0,
            tracer: Tracer::disabled(),
            trace_ids: None,
            compiled: None,
            fallback_reason: None,
        }
    }

    /// Install a compile outcome: a tape (with its single-lane runtime)
    /// on success, a recorded fallback reason on failure.
    fn attach_compiled(
        &mut self,
        outcome: Result<
            (std::sync::Arc<crate::kernel::CompiledPlan>, bool),
            crate::kernel::KernelError,
        >,
    ) {
        match outcome {
            Ok((plan, cache_hit)) => {
                let rt = crate::kernel::KernelRuntime::new(&plan, 1);
                self.compiled = Some(CompiledState { plan, rt, cache_hit });
                self.fallback_reason = None;
            }
            Err(err) => {
                self.compiled = None;
                self.fallback_reason = Some(err.to_string());
            }
        }
    }

    /// Enable step-loop tracing with a ring of `capacity` records, stamped
    /// in wall-clock nanoseconds: one `engine.step` span per major step
    /// enclosing `engine.output_phase` / `engine.update_phase` spans, one
    /// instant per discrete-rate-bucket hit, and running
    /// `engine.block_evals` / `engine.triggered_execs` counters. Call with
    /// 0 to disable again.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.tracer = Tracer::new(capacity, ClockDomain::WallNanos);
        self.trace_ids = Some(EngineTraceIds {
            step: self.tracer.register("engine.step"),
            output: self.tracer.register("engine.output_phase"),
            update: self.tracer.register("engine.update_phase"),
            buckets: self
                .plan
                .buckets
                .iter()
                .map(|b| {
                    self.tracer
                        .register(&format!("rate.p{}o{}", b.period_steps, b.offset_steps))
                })
                .collect(),
            evals: self.tracer.register("engine.block_evals"),
            trig: self.tracer.register("engine.triggered_execs"),
        });
        // Construction-time facts, exported once: which backend this
        // engine stepped up with and whether its tape came from the cache.
        let backend = self.tracer.register("engine.backend");
        self.tracer.set(backend, matches!(self.backend(), Backend::Compiled) as u64);
        let hit = self.tracer.register("plancache.hit");
        let miss = self.tracer.register("plancache.miss");
        let was_hit = self.compiled.as_ref().is_some_and(|c| c.cache_hit);
        self.tracer.set(hit, was_hit as u64);
        self.tracer.set(miss, (self.compiled.is_some() && !was_hit) as u64);
    }

    /// The engine's tracer (disabled unless [`Engine::enable_trace`] was
    /// called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Total block phase executions (output + update + triggered) since
    /// construction or [`Engine::reset`].
    pub fn block_evals(&self) -> u64 {
        self.block_evals
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.t
    }

    /// Fundamental step.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Number of major steps taken.
    pub fn steps(&self) -> u64 {
        self.step_index
    }

    /// Total triggered-subsystem executions dispatched.
    pub fn triggered_execs(&self) -> u64 {
        self.triggered_execs
    }

    /// The compiled execution plan.
    pub fn plan(&self) -> &ExecutionPlan {
        &self.plan
    }

    /// Which backend steps this engine.
    pub fn backend(&self) -> Backend {
        if self.compiled.is_some() {
            Backend::Compiled
        } else {
            Backend::Interpreted
        }
    }

    /// Why the engine is on the interpreter despite the compiled backend
    /// being requested (`None` when compiled, or when the interpreter was
    /// asked for explicitly).
    pub fn fallback_reason(&self) -> Option<&str> {
        self.fallback_reason.as_deref()
    }

    /// Whether this engine's compiled tape came out of the plan cache
    /// (false on the interpreter or on a cold compile).
    pub fn plan_cache_hit(&self) -> bool {
        self.compiled.as_ref().is_some_and(|c| c.cache_hit)
    }

    /// The compiled tape, when on the compiled backend.
    pub fn compiled_plan(&self) -> Option<&crate::kernel::CompiledPlan> {
        self.compiled.as_ref().map(|c| &*c.plan)
    }

    /// The diagram (to inspect blocks, e.g. read a Scope).
    pub fn diagram(&self) -> &Diagram {
        &self.diagram
    }

    /// Mutable diagram access between runs (parameter tweaks; see
    /// [`Engine::new`] for what requires recompiling).
    ///
    /// On the compiled backend the blocks are bystanders — parameters and
    /// state live in the tape's pools — so mutating them mid-run could
    /// not take effect. Calling this on a compiled engine therefore
    /// demotes it to the interpreter **and resets it to t = 0** (block
    /// state was never advanced while compiled, so resuming mid-run
    /// would be wrong); [`Engine::fallback_reason`] records the demotion.
    pub fn diagram_mut(&mut self) -> &mut Diagram {
        if self.compiled.take().is_some() {
            self.fallback_reason = Some("diagram_mut: demoted to interpreter".into());
            self.reset();
        }
        &mut self.diagram
    }

    /// Read the last value of output `src`.
    ///
    /// Panics with a descriptive message if the block or port does not
    /// exist — a probe of a mis-built harness should fail loudly, not
    /// index arbitrary memory.
    pub fn probe(&self, src: Source) -> Value {
        self.try_probe(src).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Non-panicking variant of [`Engine::probe`]: returns a
    /// [`ProbeError`] instead of panicking when the block or port does
    /// not exist, so differential harnesses can report bad probes as
    /// ordinary failures.
    pub fn try_probe(&self, src: Source) -> Result<Value, ProbeError> {
        let (id, port) = src;
        let b = id.index();
        if b >= self.plan.out_count.len() {
            return Err(ProbeError::BlockOutOfRange { block: b, len: self.plan.out_count.len() });
        }
        let outputs = self.plan.out_count[b] as usize;
        if port >= outputs {
            return Err(ProbeError::PortOutOfRange {
                block: self.diagram.names[b].clone(),
                outputs,
                port,
            });
        }
        // Same arena layout on both backends (the tape reuses the plan's
        // out_base slots; lanes = 1 makes slot index == value index).
        let arena: &[Value] = match &self.compiled {
            Some(cs) => cs.rt.values(),
            None => &self.values,
        };
        Ok(arena[self.plan.out_base[b] as usize + port])
    }

    /// Inject an external function-call event into a triggered block —
    /// used by co-simulation harnesses that map hardware interrupts onto
    /// model events.
    pub fn fire(&mut self, target: BlockId) -> Result<(), SimError> {
        if let Some(cs) = self.compiled.as_mut() {
            // Compiled tapes carry no event ports (diagrams with them fall
            // back to the interpreter), so a fire cannot cascade: run the
            // target's output + update kernels and count like a dispatch.
            self.triggered_execs += 1;
            self.block_evals += 2;
            crate::kernel::run_block(&cs.plan, &mut cs.rt, target.index(), self.t, self.dt);
            return Ok(());
        }
        self.event_queue.push_back(target.index() as u32);
        self.drain_events()
    }

    #[inline]
    fn due(&self, idx: usize) -> bool {
        match self.plan.sched[idx] {
            Sched::EveryStep => true,
            Sched::Bucket(b) => self.bucket_due[b as usize],
            Sched::Never => false,
        }
    }

    /// Run one block phase. Inputs are gathered into `scratch_in` via the
    /// plan's resolution table; asserted event ports (output phase only)
    /// are left in `scratch_events` for the caller to consume.
    fn exec_phase(&mut self, idx: usize, output_phase: bool) {
        let in_base = self.plan.in_base[idx] as usize;
        let in_count = self.plan.in_count[idx] as usize;
        self.scratch_in.clear();
        for &slot in &self.plan.in_src[in_base..in_base + in_count] {
            self.scratch_in.push(if slot == UNCONNECTED {
                Value::default()
            } else {
                self.values[slot as usize]
            });
        }
        let out_base = self.plan.out_base[idx] as usize;
        let out_count = self.plan.out_count[idx] as usize;
        let outputs = &mut self.values[out_base..out_base + out_count];
        self.scratch_events.clear();
        let mut ctx =
            BlockCtx::new(self.t, self.dt, &self.scratch_in, outputs, &mut self.scratch_events);
        if output_phase {
            self.diagram.blocks[idx].output(&mut ctx);
        } else {
            self.diagram.blocks[idx].update(&mut ctx);
            // update-phase events are not dispatched (same as output-order
            // semantics in Simulink: function calls fire at output time)
            self.scratch_events.clear();
        }
    }

    /// Enqueue the targets of the events `exec_phase` just left in
    /// `scratch_events` (must be consumed before the next `exec_phase`).
    fn enqueue_emitted(&mut self, idx: usize) {
        let ev_base = self.plan.ev_base[idx] as usize;
        for k in 0..self.scratch_events.len() {
            let port = self.scratch_events[k];
            debug_assert!(
                port < self.plan.ev_count[idx] as usize,
                "block '{}' emitted on event port {port} but declares only {} event port(s)",
                self.diagram.names[idx],
                self.plan.ev_count[idx]
            );
            let target = self.plan.ev_target[ev_base + port];
            if target != NO_EVENT_TARGET {
                self.event_queue.push_back(target);
            }
        }
        self.scratch_events.clear();
    }

    fn drain_events(&mut self) -> Result<(), SimError> {
        let mut dispatched = 0usize;
        while let Some(target) = self.event_queue.pop_front() {
            dispatched += 1;
            if dispatched > EVENT_CAP {
                self.event_queue.clear();
                return Err(SimError::EventStorm { t: self.t });
            }
            self.triggered_execs += 1;
            self.block_evals += 2;
            let idx = target as usize;
            self.exec_phase(idx, true);
            self.enqueue_emitted(idx);
            self.exec_phase(idx, false);
        }
        Ok(())
    }

    /// Execute one major step.
    pub fn step(&mut self) -> Result<(), SimError> {
        if self.compiled.is_some() {
            return self.step_compiled();
        }
        // One predictable branch when tracing is off (the <2 % overhead
        // budget of the disabled path rides on this being the only cost).
        let tracing = self.tracer.is_enabled();
        if tracing {
            let ts = self.tracer.now();
            if let Some(ids) = &self.trace_ids {
                self.tracer.begin(ids.step, ts);
            }
        }
        // refresh the due flag of each discrete rate once per step
        for (flag, bucket) in self.bucket_due.iter_mut().zip(&self.plan.buckets) {
            *flag = bucket.due(self.step_index);
        }
        if tracing {
            if let Some(ids) = &self.trace_ids {
                let ts = self.tracer.now();
                for (b, &due) in self.bucket_due.iter().enumerate() {
                    if due {
                        self.tracer.instant(ids.buckets[b], ts);
                    }
                }
                self.tracer.begin(ids.output, ts);
            }
        }
        // output phase + event dispatch
        let mut evals: u64 = 0;
        for k in 0..self.plan.order.len() {
            let idx = self.plan.order[k] as usize;
            if !self.due(idx) {
                continue;
            }
            evals += 1;
            self.exec_phase(idx, true);
            if !self.scratch_events.is_empty() {
                self.enqueue_emitted(idx);
                self.drain_events()?;
            }
        }
        if tracing {
            if let Some(ids) = &self.trace_ids {
                let ts = self.tracer.now();
                self.tracer.end(ids.output, ts);
                self.tracer.begin(ids.update, ts);
            }
        }
        // update phase
        for k in 0..self.plan.order.len() {
            let idx = self.plan.order[k] as usize;
            if !self.due(idx) {
                continue;
            }
            evals += 1;
            self.exec_phase(idx, false);
        }
        self.block_evals += evals;
        self.step_index += 1;
        self.t = self.step_index as f64 * self.dt;
        if tracing {
            if let Some(ids) = &self.trace_ids {
                let ts = self.tracer.now();
                self.tracer.end(ids.update, ts);
                self.tracer.set(ids.evals, self.block_evals);
                self.tracer.set(ids.trig, self.triggered_execs);
                self.tracer.end(ids.step, ts);
            }
        }
        Ok(())
    }

    /// One major step on the fused-kernel tape: refresh the rate flags,
    /// sweep the tape twice (output then update). Trace structure mirrors
    /// the interpreter's so BENCH/trace tooling reads both identically.
    fn step_compiled(&mut self) -> Result<(), SimError> {
        let tracing = self.tracer.is_enabled();
        if tracing {
            let ts = self.tracer.now();
            if let Some(ids) = &self.trace_ids {
                self.tracer.begin(ids.step, ts);
            }
        }
        for (flag, bucket) in self.bucket_due.iter_mut().zip(&self.plan.buckets) {
            *flag = bucket.due(self.step_index);
        }
        if tracing {
            if let Some(ids) = &self.trace_ids {
                let ts = self.tracer.now();
                for (b, &due) in self.bucket_due.iter().enumerate() {
                    if due {
                        self.tracer.instant(ids.buckets[b], ts);
                    }
                }
                self.tracer.begin(ids.output, ts);
            }
        }
        let cs = self.compiled.as_mut().expect("step_compiled without compiled state");
        let mut evals =
            crate::kernel::sweep(&cs.plan, &mut cs.rt, self.t, self.dt, &self.bucket_due, true);
        if tracing {
            if let Some(ids) = &self.trace_ids {
                let ts = self.tracer.now();
                self.tracer.end(ids.output, ts);
                self.tracer.begin(ids.update, ts);
            }
        }
        let cs = self.compiled.as_mut().expect("step_compiled without compiled state");
        evals +=
            crate::kernel::sweep(&cs.plan, &mut cs.rt, self.t, self.dt, &self.bucket_due, false);
        self.block_evals += evals;
        self.step_index += 1;
        self.t = self.step_index as f64 * self.dt;
        if tracing {
            if let Some(ids) = &self.trace_ids {
                let ts = self.tracer.now();
                self.tracer.end(ids.update, ts);
                self.tracer.set(ids.evals, self.block_evals);
                self.tracer.set(ids.trig, self.triggered_execs);
                self.tracer.end(ids.step, ts);
            }
        }
        Ok(())
    }

    /// Run until `t_end` (exclusive of a final partial step).
    pub fn run_until(&mut self, t_end: f64) -> Result<(), SimError> {
        while self.t < t_end - self.dt * 1e-9 {
            self.step()?;
        }
        Ok(())
    }

    /// Reset time, state and logs for a fresh run. The compiled plan (or
    /// tape) is reused as-is — no cache lookup, no recompilation:
    /// scheduling derives from the immutable rate buckets and the tape
    /// reloads its initial state pool, so a rerun reproduces the
    /// identical trajectory.
    pub fn reset(&mut self) {
        self.t = 0.0;
        self.step_index = 0;
        self.triggered_execs = 0;
        self.block_evals = 0;
        self.event_queue.clear();
        for b in &mut self.diagram.blocks {
            b.reset();
        }
        for v in &mut self.values {
            *v = Value::default();
        }
        if let Some(cs) = self.compiled.as_mut() {
            cs.rt.reset(&cs.plan);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, PortCount, SampleTime};

    /// Counts its executions; optionally emits event 0 each output.
    struct Counter {
        period: Option<f64>,
        count: u64,
        emit: bool,
    }
    impl Block for Counter {
        fn type_name(&self) -> &'static str {
            "Counter"
        }
        fn ports(&self) -> PortCount {
            PortCount::with_events(0, 1, 1)
        }
        fn sample(&self) -> SampleTime {
            match self.period {
                Some(p) => SampleTime::every(p),
                None => SampleTime::Continuous,
            }
        }
        fn reset(&mut self) {
            self.count = 0;
        }
        fn output(&mut self, ctx: &mut BlockCtx) {
            self.count += 1;
            ctx.set_output(0, self.count as f64);
            if self.emit {
                ctx.emit_event(0);
            }
        }
    }

    /// Counter with an explicit sample time (offset tests).
    struct Sampled {
        sample: SampleTime,
        count: u64,
    }
    impl Block for Sampled {
        fn type_name(&self) -> &'static str {
            "Sampled"
        }
        fn ports(&self) -> PortCount {
            PortCount::new(0, 1)
        }
        fn sample(&self) -> SampleTime {
            self.sample
        }
        fn reset(&mut self) {
            self.count = 0;
        }
        fn output(&mut self, ctx: &mut BlockCtx) {
            self.count += 1;
            ctx.set_output(0, self.count as f64);
        }
    }

    /// Triggered sink recording how often it ran.
    struct TrigSink {
        runs: u64,
    }
    impl Block for TrigSink {
        fn type_name(&self) -> &'static str {
            "TrigSink"
        }
        fn ports(&self) -> PortCount {
            PortCount::new(1, 1)
        }
        fn sample(&self) -> SampleTime {
            SampleTime::Triggered
        }
        fn reset(&mut self) {
            self.runs = 0;
        }
        fn output(&mut self, ctx: &mut BlockCtx) {
            self.runs += 1;
            let v = ctx.input(0);
            ctx.set_output(0, v);
        }
    }

    #[test]
    fn continuous_blocks_run_every_step() {
        let mut d = Diagram::new();
        let c = d.add("c", Counter { period: None, count: 0, emit: false }).unwrap();
        let mut e = Engine::new(d, 0.001).unwrap();
        e.run_until(0.01).unwrap();
        assert_eq!(e.steps(), 10);
        assert_eq!(e.probe((c, 0)).as_f64(), 10.0);
    }

    #[test]
    fn discrete_blocks_run_at_their_rate() {
        let mut d = Diagram::new();
        let c = d.add("c", Counter { period: Some(0.005), count: 0, emit: false }).unwrap();
        let mut e = Engine::new(d, 0.001).unwrap();
        e.run_until(0.02).unwrap();
        // hits at t = 0, 5, 10, 15 ms
        assert_eq!(e.probe((c, 0)).as_f64(), 4.0);
    }

    #[test]
    fn events_run_triggered_blocks_immediately() {
        let mut d = Diagram::new();
        let src = d.add("src", Counter { period: Some(0.004), count: 0, emit: true }).unwrap();
        let snk = d.add("snk", TrigSink { runs: 0 }).unwrap();
        d.connect((src, 0), (snk, 0)).unwrap();
        d.connect_event(src, 0, snk).unwrap();
        let mut e = Engine::new(d, 0.001).unwrap();
        e.run_until(0.012).unwrap(); // source hits at 0, 4, 8 ms
        assert_eq!(e.probe((snk, 0)).as_f64(), 3.0, "sink saw the value at trigger time");
        assert_eq!(e.triggered_execs(), 3);
    }

    #[test]
    fn triggered_blocks_do_not_run_periodically() {
        let mut d = Diagram::new();
        let snk = d.add("snk", TrigSink { runs: 0 }).unwrap();
        let _ = snk;
        let mut e = Engine::new(d, 0.001).unwrap();
        e.run_until(0.01).unwrap();
        assert_eq!(e.triggered_execs(), 0);
    }

    #[test]
    fn fire_injects_an_external_event() {
        let mut d = Diagram::new();
        let snk = d.add("snk", TrigSink { runs: 0 }).unwrap();
        let mut e = Engine::new(d, 0.001).unwrap();
        e.fire(snk).unwrap();
        e.fire(snk).unwrap();
        assert_eq!(e.triggered_execs(), 2);
    }

    #[test]
    fn reset_restores_initial_conditions() {
        let mut d = Diagram::new();
        let c = d.add("c", Counter { period: None, count: 0, emit: false }).unwrap();
        let mut e = Engine::new(d, 0.001).unwrap();
        e.run_until(0.005).unwrap();
        e.reset();
        assert_eq!(e.time(), 0.0);
        e.run_until(0.003).unwrap();
        assert_eq!(e.probe((c, 0)).as_f64(), 3.0);
    }

    #[test]
    fn self_triggering_loop_is_caught() {
        struct SelfTrig;
        impl Block for SelfTrig {
            fn type_name(&self) -> &'static str {
                "SelfTrig"
            }
            fn ports(&self) -> PortCount {
                PortCount::with_events(0, 0, 1)
            }
            fn sample(&self) -> SampleTime {
                SampleTime::Triggered
            }
            fn output(&mut self, ctx: &mut BlockCtx) {
                ctx.emit_event(0);
            }
        }
        let mut d = Diagram::new();
        let a = d.add("a", SelfTrig).unwrap();
        d.connect_event(a, 0, a).unwrap();
        let mut e = Engine::new(d, 0.001).unwrap();
        assert!(matches!(e.fire(a), Err(SimError::EventStorm { .. })));
    }

    #[test]
    #[should_panic(expected = "probe: block")]
    fn probe_of_a_missing_port_panics_with_context() {
        let mut d = Diagram::new();
        let c = d.add("c", Counter { period: None, count: 0, emit: false }).unwrap();
        let e = Engine::new(d, 0.001).unwrap();
        let _ = e.probe((c, 7));
    }

    #[test]
    fn try_probe_reports_bad_sources_as_errors() {
        let mut d = Diagram::new();
        let c = d.add("c", Counter { period: None, count: 0, emit: false }).unwrap();
        let e = Engine::new(d, 0.001).unwrap();
        assert!(e.try_probe((c, 0)).is_ok());
        match e.try_probe((c, 7)) {
            Err(ProbeError::PortOutOfRange { block, outputs, port }) => {
                assert_eq!(block, "c");
                assert_eq!(outputs, 1);
                assert_eq!(port, 7);
            }
            other => panic!("expected PortOutOfRange, got {other:?}"),
        }
        // the Display text is the contract `probe` panics with
        let msg = e.try_probe((c, 7)).unwrap_err().to_string();
        assert_eq!(msg, "probe: block 'c' has 1 output port(s), asked for port 7");
    }

    #[test]
    fn million_step_multirate_hit_counts_are_exact() {
        // periods 1, 4, 7 ms with non-zero offsets over 10^6 steps of 1 ms:
        // the integer schedule must hit exactly, with no float drift
        let mut d = Diagram::new();
        let a = d
            .add("a", Sampled { sample: SampleTime::every(0.001), count: 0 })
            .unwrap();
        let b = d
            .add("b", Sampled { sample: SampleTime::Discrete { period: 0.004, offset: 0.002 }, count: 0 })
            .unwrap();
        let c = d
            .add("c", Sampled { sample: SampleTime::Discrete { period: 0.007, offset: 0.003 }, count: 0 })
            .unwrap();
        let mut e = Engine::new(d, 0.001).unwrap();
        const N: u64 = 1_000_000;
        for _ in 0..N {
            e.step().unwrap();
        }
        // hits at step s: s >= offset && (s - offset) % period == 0, s < N
        assert_eq!(e.probe((a, 0)).as_f64(), 1_000_000.0);
        assert_eq!(e.probe((b, 0)).as_f64(), 250_000.0, "(10^6 - 2 + 3) / 4 hits");
        assert_eq!(e.probe((c, 0)).as_f64(), 142_857.0, "(10^6 - 3 + 6) / 7 hits");
        assert_eq!(e.plan().rate_count(), 3);
    }

    #[test]
    fn trace_spans_nest_and_counters_track_evals() {
        let mut d = Diagram::new();
        let _a = d.add("a", Counter { period: None, count: 0, emit: false }).unwrap();
        let _b = d.add("b", Counter { period: Some(0.004), count: 0, emit: false }).unwrap();
        let mut e = Engine::new(d, 0.001).unwrap();
        e.enable_trace(1 << 10);
        for _ in 0..8 {
            e.step().unwrap();
        }
        assert!(e.tracer().is_enabled());
        // a: 8 output + 8 update; b: 2 hits (t=0, 4 ms) × 2 phases
        assert_eq!(e.block_evals(), 16 + 4);
        assert_eq!(e.tracer().counter_by_name("engine.block_evals"), Some(20));
        let json = peert_trace::chrome_trace_json(&[("mil", e.tracer())]);
        let doc = peert_trace::JsonValue::parse(&json).unwrap();
        let events = doc.as_array().unwrap();
        let mut depth = 0i64;
        for ev in events {
            match ev.get("ph").and_then(|p| p.as_str()).unwrap() {
                "B" => depth += 1,
                "E" => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0, "balanced spans");
        // the 4 ms rate bucket fired its instant on both hits
        let rate_hits = events
            .iter()
            .filter(|ev| {
                ev.get("ph").and_then(|p| p.as_str()) == Some("i")
                    && ev.get("name").and_then(|n| n.as_str()).is_some_and(|n| n.starts_with("rate."))
            })
            .count();
        assert_eq!(rate_hits, 2);
    }

    #[test]
    fn disabled_trace_leaves_no_records_and_reset_clears_evals() {
        let mut d = Diagram::new();
        let _ = d.add("a", Counter { period: None, count: 0, emit: false }).unwrap();
        let mut e = Engine::new(d, 0.001).unwrap();
        e.step().unwrap();
        assert!(!e.tracer().is_enabled());
        assert!(e.tracer().is_empty());
        assert_eq!(e.block_evals(), 2);
        e.reset();
        assert_eq!(e.block_evals(), 0);
    }

    #[test]
    fn reset_and_rerun_reproduce_the_identical_trajectory() {
        let mut d = Diagram::new();
        let src = d.add("src", Counter { period: Some(0.003), count: 0, emit: true }).unwrap();
        let snk = d.add("snk", TrigSink { runs: 0 }).unwrap();
        let fast = d.add("fast", Counter { period: None, count: 0, emit: false }).unwrap();
        d.connect((src, 0), (snk, 0)).unwrap();
        d.connect_event(src, 0, snk).unwrap();
        let mut e = Engine::new(d, 0.001).unwrap();
        let record = |e: &mut Engine| -> Vec<(f64, f64, f64)> {
            (0..500)
                .map(|_| {
                    e.step().unwrap();
                    (e.probe((src, 0)).as_f64(), e.probe((snk, 0)).as_f64(), e.probe((fast, 0)).as_f64())
                })
                .collect()
        };
        let first = record(&mut e);
        let execs = e.triggered_execs();
        e.reset();
        let second = record(&mut e);
        assert_eq!(first, second, "reused plan reproduces the trajectory exactly");
        assert_eq!(e.triggered_execs(), execs);
    }
}
