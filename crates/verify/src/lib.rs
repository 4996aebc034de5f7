//! # peert-verify — differential & property verification harness
//!
//! The repo has three ways to execute the same control diagram: the
//! naive interpreted walk, the precompiled execution plan inside
//! [`peert_model::Engine`], and the MIL→codegen→PIL lockstep pipeline.
//! They are supposed to agree. This crate generates random diagrams
//! from a seed and checks that they *do* agree:
//!
//! * **MIL differential** ([`diff::run_mil_case`]): engine vs reference
//!   interpreter, bit-exact on every output port of every block at
//!   every step, plus a byte-for-byte `reset()` determinism check.
//! * **Kernel differential** ([`diff::run_kernel_case`]): the compiled
//!   fused-kernel tape and every lane of the batched SoA engine vs the
//!   interpreted engine, bit-exact on every port at every step.
//! * **PIL three-way** ([`diff::run_pil_case`]): the controller through
//!   the full pipeline. Bit-exact against a host-side quantized replica
//!   of the board; within a propagated quantization tolerance of the
//!   exact MIL trajectory.
//! * **Fault replay** ([`diff::run_fault_schedule_case`]): a
//!   deterministic schedule of line corruption, frame drops and
//!   scheduler overruns. Traced error counters must *equal* the
//!   schedule; the drop-aware replica must match bit-for-bit, proving
//!   lockstep recovery on the first clean exchange.
//!
//! A failing case prints its seed and spec, and [`shrink::shrink`]
//! reduces it to a 1-minimal diagram before reporting.

#![forbid(unsafe_code)]

pub mod buschk;
pub mod diff;
pub mod gen;
pub mod interp;
pub mod lintchk;
pub mod numchk;
pub mod rng;
pub mod servechk;
pub mod shrink;
pub mod spec;
pub mod wirechk;

use peert_mcu::{McuCatalog, McuSpec};
use peert_pil::{ArqConfig, FaultSchedule};

/// What [`run_suite`] verified, for reporting.
#[derive(Clone, Debug, Default)]
pub struct SuiteReport {
    /// MIL differential cases that passed (engine ≡ interpreter).
    pub mil_cases: u64,
    /// Kernel differential cases that passed (interpreted ≡ compiled ≡
    /// every batched lane, bit-exact).
    pub kernel_cases: u64,
    /// PIL three-way cases that passed.
    pub pil_cases: u64,
    /// Worst |PIL − MIL| divergence across all PIL cases.
    pub worst_divergence: f64,
    /// The tolerance that bounded the worst divergence.
    pub worst_tolerance: f64,
    /// Fault-schedule cases that passed with exact counter equality.
    pub fault_cases: u64,
    /// ARQ recovery cases proved bit-exact against the clean run.
    pub arq_cases: u64,
    /// Total retransmissions exercised across the ARQ recovery cases.
    pub arq_retries: u64,
    /// Degradation replays that completed flagged-degraded, bit-exact
    /// against the drop-aware replica.
    pub arq_degraded_cases: u64,
    /// Diagrams the lint phase analyzed.
    pub lint_cases: u64,
    /// Diagrams certified overflow-free whose certificate held against
    /// the engine run at the tightest covering Q15 scale.
    pub lint_certified: u64,
    /// Dead blocks whose removal was proved trajectory-preserving.
    pub lint_dead_removed: u64,
    /// Seeded deny-class defects correctly refused.
    pub lint_defects: u64,
    /// Multi-tenant serve schedules replayed through `peert-serve`, each
    /// paused and again as an unpaused late-joiner schedule.
    pub serve_schedules: u64,
    /// Served sessions proved bit-exact against a solo engine run.
    pub serve_sessions: u64,
    /// Plan-cache hits across the serve schedules (coalescing proof:
    /// must exceed the misses).
    pub serve_cache_hits: u64,
    /// Plan-cache misses across the serve schedules.
    pub serve_cache_misses: u64,
    /// Late gangs merged into a running gang across the late-joiner
    /// schedules (each schedule's count exactly as predicted).
    pub serve_merges: u64,
    /// Wire schedules replayed over a loopback socket, each proved
    /// indistinguishable from the same schedule run in-process.
    pub wire_schedules: u64,
    /// Wire sessions whose trajectories matched in-process bit-for-bit.
    pub wire_sessions: u64,
    /// Quota rejections proved to carry identical payloads over the wire.
    pub wire_rejects: u64,
    /// Cancelled-while-paused wire sessions proved to stop at step zero.
    pub wire_cancelled: u64,
    /// Multi-node bus schedules replayed over the simulated CAN bus.
    pub bus_schedules: u64,
    /// Under-budget bus schedules proved bit-exact against the
    /// single-engine MIL replica, with exact counters.
    pub bus_exact: u64,
    /// Partition schedules that completed flagged-degraded with exact
    /// partition-loss counters.
    pub bus_degraded: u64,
    /// Hop retransmissions exercised across the bus schedules.
    pub bus_retries: u64,
    /// Numeric cases whose certified quantization bounds held against
    /// the bit-level quantized differential oracle.
    pub numeric_cases: u64,
    /// Block outputs checked across those cases (finite certified bound).
    pub numeric_ports: u64,
    /// Ports of wire depth ≥ 3 eligible for the affine-vs-interval
    /// strictness comparison.
    pub numeric_eligible: u64,
    /// Eligible ports where the affine bound was strictly tighter than
    /// the interval bound (the cancellation proof).
    pub numeric_strict: u64,
    /// Worst measured-error / certified-bound ratio the oracle observed.
    pub numeric_worst_ratio: f64,
    /// Seeded deny-class numeric defects correctly refused with their
    /// exact stable rule IDs.
    pub numeric_defects: u64,
}

/// A failed case: everything needed to reproduce and diagnose it.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Which phase failed (`"mil"`, `"reset"`, `"kernel"`, `"pil"`,
    /// `"fault"`, `"arq"`, `"arq-degrade"`, `"lint"`, `"serve"`,
    /// `"wire"`, `"bus"`, `"numeric"`).
    pub phase: &'static str,
    /// The generating seed.
    pub seed: u64,
    /// The case index within the seed.
    pub case: u64,
    /// What went wrong.
    pub message: String,
    /// The spec, shrunk to 1-minimal when shrinking was requested.
    pub spec: String,
    /// Blocks in the reported spec.
    pub blocks: usize,
}

/// The board CPU every PIL case runs on.
pub fn default_mcu() -> McuSpec {
    McuCatalog::standard()
        .find("MC56F8367")
        .expect("standard catalog has the MC56F8367")
        .clone()
}

/// The fault schedule exercised once per suite run: disjoint corrupt /
/// drop / overrun steps within the 48-step case horizon.
pub fn suite_fault_schedule() -> FaultSchedule {
    FaultSchedule {
        corrupt_steps: vec![3, 17, 31],
        drop_steps: vec![8, 23],
        overrun_steps: vec![12, 40],
        drop_reply_steps: Vec::new(),
    }
}

/// The ARQ policy the suite's recovery/degradation phases run with.
pub fn suite_arq_config() -> ArqConfig {
    ArqConfig::default()
}

/// A seeded per-case ARQ fault schedule: a handful of distinct steps,
/// each loaded with 1..=`max_retries` faults split randomly across
/// corrupt / drop-request / drop-reply — always within the retry budget,
/// so [`diff::run_arq_recovery_case`] must prove bit-exact recovery.
pub fn gen_arq_schedule(seed: u64, case: u64, steps: u64, max_retries: u32) -> FaultSchedule {
    let mut rng = rng::Rng::derive(seed, 0xA509_0000 ^ case);
    let mut faults = FaultSchedule::default();
    let n_steps = 2 + rng.below(5); // 2..=6 faulted steps
    let mut chosen = std::collections::BTreeSet::new();
    while (chosen.len() as u64) < n_steps.min(steps) {
        chosen.insert(rng.below(steps));
    }
    for step in chosen {
        let multiplicity = 1 + rng.below(max_retries as u64);
        for _ in 0..multiplicity {
            match rng.below(3) {
                0 => faults.corrupt_steps.push(step),
                1 => faults.drop_steps.push(step),
                _ => faults.drop_reply_steps.push(step),
            }
        }
    }
    faults
}

/// Steps each MIL differential case runs for.
pub const MIL_STEPS: u64 = 40;

/// Batch lanes each kernel differential case runs with.
pub const KERNEL_LANES: usize = 4;

/// Run the whole suite: `cases` MIL differential cases (with reset
/// checks), `cases.max(64)` kernel differential cases (interpreted vs
/// compiled vs batched lanes), `cases` PIL three-way cases, one deterministic
/// fault-schedule replay, `cases` ARQ bit-exact recovery proofs under
/// seeded under-budget schedules, and one over-budget degradation
/// replay. On failure the offending spec is shrunk (when `do_shrink`)
/// and returned.
pub fn run_suite(seed: u64, cases: u64, do_shrink: bool) -> Result<SuiteReport, Failure> {
    let mut report = SuiteReport::default();
    let mcu = default_mcu();

    for case in 0..cases {
        let spec = gen::gen_mil_spec(seed, case);
        if let Err(message) = diff::run_mil_case(&spec, MIL_STEPS, None) {
            return Err(fail_mil("mil", seed, case, message, &spec, do_shrink, None));
        }
        if let Err(message) = diff::check_reset_determinism(&spec, MIL_STEPS) {
            return Err(fail_mil("reset", seed, case, message, &spec, do_shrink, None));
        }
        report.mil_cases += 1;
    }

    // kernel phase: the compiled fused-kernel tape and the batched SoA
    // engine versus the interpreter, bit-exact on every port at every
    // step, over at least 64 generated diagrams
    let kernel_cases = cases.max(64);
    for case in 0..kernel_cases {
        let spec = gen::gen_mil_spec(seed, case);
        if let Err(message) = diff::run_kernel_case(&spec, MIL_STEPS, KERNEL_LANES) {
            let reported = if do_shrink {
                let (min, _) = shrink::shrink(&spec, |s| {
                    diff::run_kernel_case(s, MIL_STEPS, KERNEL_LANES).is_err()
                });
                min
            } else {
                spec.clone()
            };
            return Err(Failure {
                phase: "kernel",
                seed,
                case,
                message,
                spec: reported.to_json(),
                blocks: reported.blocks.len(),
            });
        }
        report.kernel_cases += 1;
    }

    for case in 0..cases {
        let ctl = gen::gen_controller_case(seed, case);
        match diff::run_pil_case(&ctl, &mcu) {
            Ok(r) => {
                if r.worst_divergence > report.worst_divergence {
                    report.worst_divergence = r.worst_divergence;
                    report.worst_tolerance = r.tolerance;
                }
                report.pil_cases += 1;
            }
            Err(message) => {
                return Err(Failure {
                    phase: "pil",
                    seed,
                    case,
                    message,
                    spec: ctl.ctl.to_json(),
                    blocks: ctl.ctl.blocks.len(),
                })
            }
        }
    }

    // one deterministic fault replay per run (same schedule every time)
    let ctl = gen::gen_controller_case(seed, 0);
    let faults = suite_fault_schedule();
    match diff::run_fault_schedule_case(&ctl, &mcu, &faults) {
        Ok(_) => report.fault_cases += 1,
        Err(message) => {
            return Err(Failure {
                phase: "fault",
                seed,
                case: 0,
                message,
                spec: ctl.ctl.to_json(),
                blocks: ctl.ctl.blocks.len(),
            })
        }
    }

    // ARQ phase: per-case seeded under-budget schedules, each proved
    // bit-exact against the clean run
    let arq = suite_arq_config();
    for case in 0..cases {
        let ctl = gen::gen_controller_case(seed, case);
        let schedule = gen_arq_schedule(seed, case, ctl.steps, arq.max_retries);
        match diff::run_arq_recovery_case(&ctl, &mcu, &schedule, &arq) {
            Ok(r) => {
                report.arq_cases += 1;
                report.arq_retries += r.retries;
            }
            Err(message) => {
                return Err(Failure {
                    phase: "arq",
                    seed,
                    case,
                    message,
                    spec: ctl.ctl.to_json(),
                    blocks: ctl.ctl.blocks.len(),
                })
            }
        }
    }

    // one over-budget degradation replay: must complete flagged-degraded
    let ctl = gen::gen_controller_case(seed, 0);
    let burst_start = 5 + (seed % 7); // deterministic per seed, tail guaranteed
    match diff::run_arq_degradation_case(&ctl, &mcu, &arq, burst_start) {
        Ok(_) => report.arq_degraded_cases += 1,
        Err(message) => {
            return Err(Failure {
                phase: "arq-degrade",
                seed,
                case: 0,
                message,
                spec: ctl.ctl.to_json(),
                blocks: ctl.ctl.blocks.len(),
            })
        }
    }

    // lint phase: static-analysis soundness over at least 64 generated
    // diagrams — certificates checked against the engine, dead-block
    // removal proved bit-exact, seeded defects refused
    let lint_cases = cases.max(64);
    for case in 0..lint_cases {
        let spec = gen::gen_mil_spec(seed, case);
        match lintchk::run_lint_case(&spec, MIL_STEPS) {
            Ok(r) => {
                report.lint_cases += 1;
                if r.certified {
                    report.lint_certified += 1;
                }
                report.lint_dead_removed += r.dead_removed;
            }
            Err(message) => {
                return Err(Failure {
                    phase: "lint",
                    seed,
                    case,
                    message,
                    spec: spec.to_json(),
                    blocks: spec.blocks.len(),
                })
            }
        }
    }
    match lintchk::run_lint_defect_checks() {
        Ok(n) => report.lint_defects = n,
        Err(message) => {
            return Err(Failure {
                phase: "lint",
                seed,
                case: 0,
                message,
                spec: String::new(),
                blocks: 0,
            })
        }
    }

    // serve phase: seeded multi-tenant schedules through peert-serve
    // (≥64), every batched-lane trajectory bit-exact against a solo
    // engine run, and the plan cache hitting more than it misses; then
    // as many unpaused late-joiner schedules, whose merges must match
    // their prediction exactly
    let serve_schedules = cases.max(64);
    for case in 0..serve_schedules {
        let run = servechk::run_serve_schedule(seed, case).and_then(|r| {
            servechk::run_late_join_schedule(seed, case).map(|late| (r, late))
        });
        match run {
            Ok((r, late)) => {
                report.serve_schedules += 1;
                report.serve_sessions += r.sessions + late.sessions;
                report.serve_cache_hits += r.cache_hits;
                report.serve_cache_misses += r.cache_misses;
                report.serve_merges += late.merges;
            }
            Err(message) => {
                return Err(Failure {
                    phase: "serve",
                    seed,
                    case,
                    message,
                    spec: String::new(),
                    blocks: 0,
                })
            }
        }
    }
    if report.serve_cache_hits <= report.serve_cache_misses {
        return Err(Failure {
            phase: "serve",
            seed,
            case: 0,
            message: format!(
                "coalescing regressed: {} plan-cache hit(s) vs {} miss(es) across {} \
                 schedules (hits must dominate)",
                report.serve_cache_hits, report.serve_cache_misses, report.serve_schedules
            ),
            spec: String::new(),
            blocks: 0,
        });
    }
    if report.serve_merges == 0 {
        return Err(Failure {
            phase: "serve",
            seed,
            case: 0,
            message: format!(
                "none of {} late-joiner schedules merged: the oracle never saw a merged gang",
                report.serve_schedules
            ),
            spec: String::new(),
            blocks: 0,
        });
    }

    // wire phase: the same seeded schedules over a real loopback socket
    // (≥64), each proved indistinguishable — trajectories, rejections
    // and final counters — from an in-process run
    let wire_schedules = cases.max(64);
    for case in 0..wire_schedules {
        match wirechk::run_wire_schedule(seed, case) {
            Ok(r) => {
                report.wire_schedules += 1;
                report.wire_sessions += r.sessions;
                report.wire_rejects += r.rejects;
                report.wire_cancelled += r.cancelled;
            }
            Err(message) => {
                return Err(Failure {
                    phase: "wire",
                    seed,
                    case,
                    message,
                    spec: String::new(),
                    blocks: 0,
                })
            }
        }
    }
    // The schedules are sized to exercise the unhappy paths too; a run
    // that never rejected or never cancelled proved nothing about them.
    if report.wire_rejects == 0 || report.wire_cancelled == 0 {
        return Err(Failure {
            phase: "wire",
            seed,
            case: 0,
            message: format!(
                "wire schedules exercised {} quota rejection(s) and {} cancel(s) across \
                 {} schedules; both must occur at least once",
                report.wire_rejects, report.wire_cancelled, report.wire_schedules
            ),
            spec: String::new(),
            blocks: 0,
        });
    }

    // bus phase: seeded multi-node schedules over the simulated CAN bus
    // (≥64) — under-budget fault schedules bit-exact against the
    // single-engine MIL replica with exact counters, partition
    // schedules completing flagged-degraded
    let bus_schedules = cases.max(64);
    for case in 0..bus_schedules {
        match buschk::run_bus_schedule(seed, case) {
            Ok(r) => {
                report.bus_schedules += 1;
                if r.degraded {
                    report.bus_degraded += 1;
                } else {
                    report.bus_exact += 1;
                }
                report.bus_retries += r.retries;
            }
            Err(message) => {
                return Err(Failure {
                    phase: "bus",
                    seed,
                    case,
                    message,
                    spec: String::new(),
                    blocks: 0,
                })
            }
        }
    }
    // The schedule mix must exercise both recovery and degradation, or
    // the phase proved nothing about them.
    if report.bus_degraded == 0 || report.bus_retries == 0 {
        return Err(Failure {
            phase: "bus",
            seed,
            case: 0,
            message: format!(
                "bus schedules exercised {} retransmission(s) and {} degraded completion(s) \
                 across {} schedules; both must occur at least once",
                report.bus_retries, report.bus_degraded, report.bus_schedules
            ),
            spec: String::new(),
            blocks: 0,
        });
    }

    // numeric phase: the certified quantization bounds (affine error
    // analysis at the covering Q15 scale) held against a bit-level
    // quantized differential oracle over ≥64 seeded diagrams, plus the
    // aggregate cancellation proof — affine strictly tighter than
    // interval on ≥ 80 % of nontrivial-depth ports — and the seeded
    // deny-class defects refused with their exact rule IDs
    let numeric_cases = cases.max(64);
    for case in 0..numeric_cases {
        let spec = gen::gen_numeric_spec(seed, case);
        match numchk::run_numeric_case(&spec, numchk::NUMERIC_STEPS) {
            Ok(r) => {
                report.numeric_cases += 1;
                report.numeric_ports += r.ports;
                report.numeric_eligible += r.eligible;
                report.numeric_strict += r.strict;
                if r.worst_ratio > report.numeric_worst_ratio {
                    report.numeric_worst_ratio = r.worst_ratio;
                }
            }
            Err(message) => {
                let reported = if do_shrink {
                    let (min, _) = shrink::shrink(&spec, |s| {
                        numchk::run_numeric_case(s, numchk::NUMERIC_STEPS).is_err()
                    });
                    min
                } else {
                    spec.clone()
                };
                return Err(Failure {
                    phase: "numeric",
                    seed,
                    case,
                    message,
                    spec: reported.to_json(),
                    blocks: reported.blocks.len(),
                });
            }
        }
    }
    if report.numeric_strict * 5 < report.numeric_eligible * 4 {
        return Err(Failure {
            phase: "numeric",
            seed,
            case: 0,
            message: format!(
                "affine strictly tighter than interval on only {}/{} nontrivial-depth \
                 port(s) across {} cases (≥ 80 % required)",
                report.numeric_strict, report.numeric_eligible, report.numeric_cases
            ),
            spec: String::new(),
            blocks: 0,
        });
    }
    match numchk::run_numeric_defect_checks() {
        Ok(n) => report.numeric_defects = n,
        Err(message) => {
            return Err(Failure {
                phase: "numeric",
                seed,
                case: 0,
                message,
                spec: String::new(),
                blocks: 0,
            })
        }
    }

    Ok(report)
}

/// Build a MIL-phase failure, shrinking the spec first when asked.
fn fail_mil(
    phase: &'static str,
    seed: u64,
    case: u64,
    message: String,
    spec: &spec::DiagramSpec,
    do_shrink: bool,
    bug: Option<spec::InjectedBug>,
) -> Failure {
    let reported = if do_shrink {
        let (min, _) = shrink::shrink(spec, |s| diff::run_mil_case(s, MIL_STEPS, bug).is_err());
        min
    } else {
        spec.clone()
    };
    Failure {
        phase,
        seed,
        case,
        message,
        spec: reported.to_json(),
        blocks: reported.blocks.len(),
    }
}

/// The shrinking demonstration: inject a known bug (every `Gain` in the
/// interpreter path reads `+1e-9` high), let the differential catch it,
/// and shrink the counterexample. Returns the minimal spec's block count
/// (expected: 1, a lone `Gain`).
pub fn demo_shrink(seed: u64) -> Result<(spec::DiagramSpec, usize), String> {
    let bug = Some(spec::InjectedBug::GainOffset);
    let spec = (0..256)
        .map(|c| gen::gen_mil_spec(seed, c))
        .find(|s| diff::run_mil_case(s, MIL_STEPS, bug).is_err())
        .ok_or("no generated case tripped the injected bug")?;
    let (min, _) = shrink::shrink(&spec, |s| diff::run_mil_case(s, MIL_STEPS, bug).is_err());
    let blocks = min.blocks.len();
    Ok((min, blocks))
}
