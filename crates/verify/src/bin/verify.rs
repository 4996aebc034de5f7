//! Verification suite CLI.
//!
//! ```text
//! verify [--seed 0xC0FFEE] [--cases 64] [--shrink]
//! ```
//!
//! Runs the differential suite (MIL bit-exactness + reset determinism,
//! kernel-backend bit-exactness incl. batched lanes, PIL three-way with
//! quantization tolerance, deterministic fault replay, ARQ bit-exact
//! recovery + graceful-degradation proofs) and the shrinking self-test. Exits non-zero on any failure, printing the
//! seed, case index and (shrunk) spec needed to reproduce.

use peert_verify::{demo_shrink, run_suite, suite_arq_config, suite_fault_schedule};

struct Args {
    seed: u64,
    cases: u64,
    shrink: bool,
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    parsed.map_err(|_| format!("not a number: '{s}'"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { seed: 0xC0FFEE, cases: 64, shrink: true };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = parse_u64(&v)?;
            }
            "--cases" => {
                let v = it.next().ok_or("--cases needs a value")?;
                args.cases = parse_u64(&v)?;
            }
            "--shrink" => args.shrink = true,
            "--no-shrink" => args.shrink = false,
            "--help" | "-h" => {
                println!("usage: verify [--seed N|0xN] [--cases N] [--shrink|--no-shrink]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("verify: {e}");
            std::process::exit(2);
        }
    };

    println!(
        "verify: seed 0x{seed:X}, {cases} cases per phase, shrink {on}",
        seed = args.seed,
        cases = args.cases,
        on = if args.shrink { "on" } else { "off" }
    );

    match run_suite(args.seed, args.cases, args.shrink) {
        Ok(report) => {
            let f = suite_fault_schedule();
            println!(
                "  mil:   {} cases bit-exact (engine = interpreter, reset reproducible)",
                report.mil_cases
            );
            let cache = peert_model::global_cache_stats();
            println!(
                "  kernel: {} cases bit-exact (interpreted = compiled = {} batched lanes); \
                 plan cache {} hit(s) / {} miss(es), {} resident",
                report.kernel_cases,
                peert_verify::KERNEL_LANES,
                cache.hits,
                cache.misses,
                cache.entries
            );
            println!(
                "  pil:   {} cases in lockstep; worst |PIL-MIL| {:.3e} within tolerance {:.3e}",
                report.pil_cases, report.worst_divergence, report.worst_tolerance
            );
            println!(
                "  fault: {} replay(s); counters equal the schedule \
                 ({} corrupt, {} drop, {} overrun)",
                report.fault_cases,
                f.corrupt_steps.len(),
                f.drop_steps.len(),
                f.overrun_steps.len()
            );
            let arq = suite_arq_config();
            println!(
                "  arq:   {} recovery case(s) bit-exact with the clean run \
                 ({} retransmissions, budget {}); {} degradation replay(s) \
                 completed flagged-degraded",
                report.arq_cases, report.arq_retries, arq.max_retries, report.arq_degraded_cases
            );
            println!(
                "  lint:  {} diagram(s) analyzed; {} overflow-free certificate(s) held \
                 against the engine; {} dead-block removal(s) bit-exact; \
                 {} seeded defect(s) refused",
                report.lint_cases,
                report.lint_certified,
                report.lint_dead_removed,
                report.lint_defects
            );
            println!(
                "  serve: {n} multi-tenant + {n} late-joiner schedule(s), {} session(s) \
                 bit-exact with a solo engine run; plan cache {} hit(s) > {} miss(es); \
                 {} gang merge(s) as predicted",
                report.serve_sessions,
                report.serve_cache_hits,
                report.serve_cache_misses,
                report.serve_merges,
                n = report.serve_schedules
            );
            println!(
                "  wire:  {} schedule(s) over loopback TCP indistinguishable from \
                 in-process ({} session(s) bit-exact, {} quota rejection(s) and \
                 {} pre-resume cancel(s) identical, final counters equal)",
                report.wire_schedules,
                report.wire_sessions,
                report.wire_rejects,
                report.wire_cancelled
            );
            println!(
                "  bus:   {} multi-node schedule(s) over the simulated CAN bus \
                 ({} under-budget run(s) bit-exact vs the MIL replica with exact \
                 counters, {} partition run(s) flagged-degraded, {} retransmission(s))",
                report.bus_schedules,
                report.bus_exact,
                report.bus_degraded,
                report.bus_retries
            );
            println!(
                "  numeric: {} case(s) within the certified quantization bounds \
                 ({} port(s) checked bit-level, worst measured/bound {:.3}; affine \
                 strictly tighter than interval on {}/{} nontrivial port(s); \
                 {} seeded defect(s) refused by exact rule ID)",
                report.numeric_cases,
                report.numeric_ports,
                report.numeric_worst_ratio,
                report.numeric_strict,
                report.numeric_eligible,
                report.numeric_defects
            );
        }
        Err(fail) => {
            eprintln!(
                "verify: FAILED in phase '{}' (seed 0x{:X}, case {})",
                fail.phase, fail.seed, fail.case
            );
            eprintln!("  {}", fail.message);
            eprintln!("  repro: verify --seed 0x{:X} --cases {}", fail.seed, fail.case + 1);
            eprintln!("  spec ({} block(s)): {}", fail.blocks, fail.spec);
            std::process::exit(1);
        }
    }

    // shrinking self-test: a deliberately injected bug must reduce to a
    // handful of blocks
    match demo_shrink(args.seed) {
        Ok((min, blocks)) => {
            if blocks > 5 {
                eprintln!(
                    "verify: FAILED shrink self-test: minimal repro has {blocks} blocks (> 5)"
                );
                std::process::exit(1);
            }
            println!(
                "  shrink: injected Gain bug reduced to {blocks} block(s): {}",
                min.to_json()
            );
        }
        Err(e) => {
            eprintln!("verify: FAILED shrink self-test: {e}");
            std::process::exit(1);
        }
    }

    println!("verify: all phases passed");
}
