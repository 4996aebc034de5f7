#!/usr/bin/env bash
# Full local CI gate for the PEERT workspace: release build, tests,
# clippy (warnings are errors), and a compile check of every benchmark.
# Usage: scripts/ci.sh [--offline]
#
# Pass --offline (or set CARGO_ARGS) when building inside a container
# that patches crates.io with devtools/stubs (see devtools/stubs/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_ARGS="${CARGO_ARGS:-}"
if [[ "${1:-}" == "--offline" ]]; then
    CARGO_ARGS="$CARGO_ARGS --offline"
fi

run() {
    echo "==> $*"
    "$@"
}

# shellcheck disable=SC2086  # CARGO_ARGS is intentionally word-split
run cargo build --workspace --release $CARGO_ARGS
# shellcheck disable=SC2086
run cargo test -q --workspace $CARGO_ARGS
# shellcheck disable=SC2086
run cargo clippy --workspace --all-targets $CARGO_ARGS -- -D warnings
# shellcheck disable=SC2086
run cargo bench --no-run --workspace $CARGO_ARGS
# the trace-overhead bench must always stay compilable (acceptance gate on
# the disabled-tracer cost), including under the peert-trace `off` feature
# shellcheck disable=SC2086
run cargo bench --no-run --bench trace_overhead -p peert-bench $CARGO_ARGS
# same for the kernel-vs-interpreter bench (acceptance gate on the
# compiled backend's speedup, recorded in BENCH_kernel.json)
# shellcheck disable=SC2086
run cargo bench --no-run --bench kernel_vs_interp -p peert-bench $CARGO_ARGS
# shellcheck disable=SC2086
run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace $CARGO_ARGS

# the benchmark (its own package, see perfbench/README.md) drives the
# workspace through public APIs only; its contract tests keep it building
# against API changes and check that every workload reports exactly the
# metrics BENCHMARK.json names
# shellcheck disable=SC2086
run cargo test --release $CARGO_ARGS --manifest-path perfbench/Cargo.toml

# cheap perf smoke: over 2k steps the compiled kernel backend must not
# be slower than the interpreter (the full numbers are E16)
# shellcheck disable=SC2086
run env KERNEL_SMOKE=1 cargo test --release -q -p peert-bench --test kernel_smoke $CARGO_ARGS

# asserted integration runs: the paper's example walkthroughs carry
# their own assertions (deadline feasibility, MIL/PIL divergence bounds,
# ARQ bit-exact recovery and graceful degradation) and exit non-zero on
# any regression
# shellcheck disable=SC2086
run cargo run --release -q --example development_cycle $CARGO_ARGS
# shellcheck disable=SC2086
run cargo run --release -q --example pil_simulation $CARGO_ARGS
# shellcheck disable=SC2086
run cargo run --release -q --example wire_service $CARGO_ARGS
# shellcheck disable=SC2086
run cargo run --release -q --example distributed_pil $CARGO_ARGS

# long ARQ soak (10^5 faulted steps, exact counter accounting, bit-exact
# trajectory): opt-in because it adds ~1 min in release
if [[ "${PIL_SOAK:-0}" == "1" ]]; then
    # shellcheck disable=SC2086
    run env PIL_SOAK=1 cargo test --release --test pil_soak $CARGO_ARGS -- --nocapture
fi

# serving-layer gate: scheduler/admission property tests, catch-up gang
# merging driven round by round (bit-exact against solo engines), plan-
# cache accounting with both shards compiling off the cache lock, the
# plan cache's exact structural key held against the fingerprint and
# the compiled plans over generated diagrams, plus the coalesced-vs-solo
# throughput bench staying compilable (the recorded numbers are
# BENCH_serve.json / E17)
# shellcheck disable=SC2086
run cargo test --release -q -p peert-serve --test serve_props $CARGO_ARGS
# shellcheck disable=SC2086
run cargo test --release -q -p peert-serve --test serve_merge $CARGO_ARGS
# shellcheck disable=SC2086
run cargo test --release -q -p peert-serve --test serve_cache $CARGO_ARGS
# shellcheck disable=SC2086
run cargo test --release -q -p peert-verify --test plan_key $CARGO_ARGS
# shellcheck disable=SC2086
run cargo bench --no-run --bench serve_throughput -p peert-bench $CARGO_ARGS

# deterministic service soak (10^3 sessions, 8 tenants, quota exhaustion,
# cancellations, queue-overflow flood; final counters must equal the
# schedule-derived expectation exactly): opt-in, mirrors PIL_SOAK
if [[ "${SERVE_SOAK:-0}" == "1" ]]; then
    # shellcheck disable=SC2086
    run env SERVE_SOAK=1 cargo test --release -p peert-serve --test serve_soak $CARGO_ARGS -- --nocapture
fi

# wire-protocol gate: frame-codec fuzz battery (round-trips, re-slicing,
# bit flips, truncation, garbage — corrupted frames dropped with resync,
# never a panic or a wedge) plus the golden-bytes layout pin (any layout
# drift must come with a deliberate PROTOCOL_VERSION bump)
# shellcheck disable=SC2086
run cargo test --release -q -p peert-wire --test wire_props $CARGO_ARGS
# shellcheck disable=SC2086
run cargo test --release -q -p peert-wire --test wire_golden $CARGO_ARGS

# deterministic wire soak (multi-client loopback waves, quota exhaustion
# over the wire, deadline rejections, cancel flood, mid-stream
# disconnects; final counters must equal the schedule-derived
# expectation exactly): opt-in, mirrors SERVE_SOAK
if [[ "${WIRE_SOAK:-0}" == "1" ]]; then
    # shellcheck disable=SC2086
    run env WIRE_SOAK=1 cargo test --release -p peert-wire --test wire_soak $CARGO_ARGS -- --nocapture
fi

# simulated-CAN-bus gate: arbitration/fault property battery (priority
# respected under arbitrary interleavings, no schedule wedges the bus,
# corrupt frames CRC-rejected with resync, drop schedules never perturb
# surviving payloads)
# shellcheck disable=SC2086
run cargo test --release -q -p peert-bus --test bus_props $CARGO_ARGS

# distributed-PIL bus soak (10^5 multi-node steps, one partition window,
# every counter equal to its schedule-derived expectation, post-recovery
# trajectory bit-identical to the clean run): opt-in, mirrors PIL_SOAK
if [[ "${BUS_SOAK:-0}" == "1" ]]; then
    # shellcheck disable=SC2086
    run env BUS_SOAK=1 cargo test --release --test bus_soak $CARGO_ARGS -- --nocapture
fi

# static-analysis gate: the built-in demo model must lint deny-clean,
# and the machine-readable output must be byte-reproducible (two runs
# compared verbatim) so downstream tooling can diff it
# shellcheck disable=SC2086
run cargo run --release -q -p peert-lint $CARGO_ARGS
# shellcheck disable=SC2086
cargo run --release -q -p peert-lint $CARGO_ARGS -- --format json > /tmp/peert-lint-1.json
# shellcheck disable=SC2086
cargo run --release -q -p peert-lint $CARGO_ARGS -- --format json > /tmp/peert-lint-2.json
run cmp /tmp/peert-lint-1.json /tmp/peert-lint-2.json
rm -f /tmp/peert-lint-1.json /tmp/peert-lint-2.json

# rule-ID stability: the catalog is a published contract (configs and
# CI greps reference IDs verbatim), so any rename/removal must show up
# as a deliberate edit both here and in the golden test
# shellcheck disable=SC2086
cargo run --release -q -p peert-lint $CARGO_ARGS -- --explain list | sort > /tmp/peert-lint-rules.txt
sort > /tmp/peert-lint-rules-pinned.txt <<'RULES'
num.overflow
num.saturation
num.div-zero
num.nan
num.q15-error
num.coeff-quantization
num.error-growth
graph.unconnected
graph.dead
graph.const-fold
rate.quantized
rate.transition
sched.util
sched.overrun
sched.bus-delay
cfg.bean
cfg.bean-missing
cfg.adc-width
cfg.timer-period
cfg.pwm-carrier
cfg.event-unwired
RULES
run cmp /tmp/peert-lint-rules.txt /tmp/peert-lint-rules-pinned.txt
rm -f /tmp/peert-lint-rules.txt /tmp/peert-lint-rules-pinned.txt

# differential verification suite: interpreted ≡ plan (bit-exact),
# compiled kernel tape ≡ interpreter ≡ every batched lane (bit-exact),
# PIL within the *certified* quantization tolerance (the lint's
# ErrorCertificate, not a hand-derived bound), fault counters equal to
# the schedule, ARQ recovery proofs under seeded fault schedules,
# multi-tenant serve schedules (paused, and unpaused late joiners that
# merge into running gangs) bit-exact with solo engine runs, wire
# schedules over loopback TCP indistinguishable from in-process,
# multi-node schedules over the simulated CAN bus bit-exact vs the MIL
# replica with exact counters, and the "numeric" phase holding every
# quantization ErrorCertificate against a bit-level exact-vs-Q15 oracle
# at every port of every step (E20).
# VERIFY_SEED/VERIFY_CASES override the defaults; the failing seed and
# case are printed by the tool itself for offline reproduction.
VERIFY_SEED="${VERIFY_SEED:-0xC0FFEE}"
VERIFY_CASES="${VERIFY_CASES:-64}"
# shellcheck disable=SC2086
if ! run cargo run --release -q -p peert-verify --bin verify $CARGO_ARGS -- \
        --seed "$VERIFY_SEED" --cases "$VERIFY_CASES"; then
    echo "==> ci.sh: verify FAILED — reproduce with:" >&2
    echo "    cargo run --release -p peert-verify --bin verify -- --seed $VERIFY_SEED --cases $VERIFY_CASES" >&2
    exit 1
fi

echo "==> ci.sh: all gates passed"
