#!/usr/bin/env bash
# CI gate for the canti workspace — a single-pass pipeline that compiles
# the workspace exactly once per profile and reports per-phase wall time.
#
#   scripts/ci.sh          # release build -> release tests (reusing the
#                          # build) -> the threaded serve tests and the
#                          # worker-pool tests 20 times each -> clippy
#                          # --all-targets -> fmt --check (both over the
#                          # workspace and over perfbench/, a cargo
#                          # workspace of its own)
#                          # -> rustdoc with warnings denied -> perfbench
#                          # unit tests + 1 s untraced serve_saturated and
#                          # serve_cached runs, each gated on its bitwise
#                          # payload oracle + 1 s traced serve_light and
#                          # serve_cached runs, each gated on its payload
#                          # oracle and on "kernel replay: N of N" with
#                          # N > 0
#   scripts/ci.sh smoke    # the above, then:
#                          #   * the example matrix: every example under
#                          #     examples/ with fast arguments, failing on
#                          #     nonzero exit
#                          #   * a 16-job sensor_farm batch + obsctl
#                          #     artifact-health gate
#                          #   * a chaos (fault-injection) batch gated
#                          #     through obsctl summary
#                          #   * a sharded traced serve_demo run whose
#                          #     telemetry artifact is gated through
#                          #     obsctl trace (request-chain health: a
#                          #     closed admission-side request span),
#                          #     and whose scraped /debug/timeline body is
#                          #     archived (serve_timeline.ndjson, previous
#                          #     run kept as .prev) and gated through
#                          #     obsctl timeline (its merged section must
#                          #     carry the slo.breached verdict series the
#                          #     demo's 0 ns deadline feeds) + obsctl
#                          #     anomaly
#                          #   * a cache drill (serve_demo --cache) whose
#                          #     telemetry artifact is gated through
#                          #     obsctl summary: zero trace sequence gaps
#                          #     AND non-zero cache_hit AND non-zero
#                          #     coalesced counts in the cache section,
#                          #     and whose scraped /debug/timeline body
#                          #     (serve_cache_timeline.ndjson; the demo
#                          #     asserts its merged serve.cache_hit count
#                          #     equals the service's hit tally) is gated
#                          #     through obsctl timeline: the merged
#                          #     section must carry serve.cache_hit
#                          #   * the bench loop: farm and experiments
#                          #     benches with archived
#                          #     BENCH_<name>.json artifacts, each gated
#                          #     through obsctl diff against the previous
#                          #     archive when present
#
# Both modes finish by writing the per-phase wall times to
# target/ci_phases.json (previous run kept as .prev) and printing an
# advisory delta against the previous run — timings are never a gate.
#
# Perf gate knobs (smoke only):
#   CANTI_PERF_THRESHOLD_PCT  relative slack for obsctl diff (default: 40
#                             for the farm bench, 100 for the micro-kernel
#                             experiments bench, which is noisier)
#   CANTI_PERF_MIN_NS         absolute noise floor in ns (default 50000,
#                             except the farm bench's 2000000 — see the
#                             bench-loop comments)
#   CANTI_TIMELINE_THRESHOLD_PCT
#                             count-drift tolerance for the timeline
#                             anomaly gate (default 10; the smoke load is
#                             fixed, so counts should be near-exact)
#   CANTI_FARM_JOBS           farm bench batch size (default 64)
#   CANTI_BENCH_MS            experiments bench ms/kernel (default 80 here)
set -euo pipefail
cd "$(dirname "$0")/.."

phase_names=()
phase_secs=()
phase_t0=0
phase_begin() {
    echo "== $1 =="
    phase_names+=("$1")
    phase_t0=$SECONDS
}
phase_end() {
    phase_secs+=($((SECONDS - phase_t0)))
}

phase_begin "build (release)"
cargo build --release --workspace
phase_end

phase_begin "tests (release, reusing the build)"
# --no-fail-fast runs every test binary, so one failing binary cannot
# hide failures in the ones after it; the phase still fails on any
cargo test -q --release --workspace --no-fail-fast
phase_end

phase_begin "threaded serve and worker-pool tests, 20 runs each (release)"
# A race in the threaded driver's locking, or in the WorkerPool's claim
# and retire logic that runs every multi-thread farm batch, shows up one
# run in N, so their tests repeat; the first failing run, or one over
# 60 s, fails the gate.
repeat_20() {
    local run out
    for run in $(seq 1 20); do
        if ! out=$(timeout 60 cargo test -q --release "$@" 2>&1); then
            echo "$out"
            echo "run $run of 20 failed or took over 60 s: cargo test $*"
            exit 1
        fi
    done
    echo "20 of 20 runs passed: cargo test $*"
}
repeat_20 -p canti-serve --lib service::tests
repeat_20 --test serve_failover threaded_sharded_service_answers_every_ticket_under_chaos
repeat_20 --test cache_determinism threaded_
repeat_20 -p canti-farm --lib pool::tests
repeat_20 --test pool_oracle
phase_end

phase_begin "clippy --all-targets (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings
# perfbench/ is its own cargo workspace, so the line above skips it,
# though it consumes the serve and farm APIs
cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings
phase_end

phase_begin "fmt --check"
cargo fmt --all -- --check
cargo fmt --manifest-path perfbench/Cargo.toml -- --check
phase_end

phase_begin "rustdoc (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet
phase_end

phase_begin "perfbench (unit tests + payload oracles + kernel replay)"
# perfbench/ is a cargo workspace of its own, so the workspace build and
# test phases above neither build nor test it. Each short untraced run
# re-solves every answered payload on a 1-worker farm and exits non-zero
# on any bit mismatch or failed answer: serve_saturated keeps many
# distinct specs outstanding with the cache off and fills its batches,
# serve_cached answers repeats from the result cache and coalesces them,
# so a wrong batched or cached answer fails here.
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml
for workload in serve_saturated serve_cached; do
    cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0
done
# A --trace 1 run splits its time into untraced, traced and unobserved
# legs, and its oracle checks every leg's payloads: serve_light's request
# seeds derive from the request id, serve_cached's from job_key, whose
# cache replay also runs here. Each traced run replays the served dose
# points through the collecting kernel (AssayProtocol::run ->
# run_static_assay_precomputed -> peak_signal); every replay must
# reproduce the farm's streamed peak_volts bit for bit, and there must
# be at least one.
traced_perfbench() {
    local out replay replay_agree replay_jobs
    out=$(cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
        --workload "$1" --seed 1 --seconds 1 --trace 1) \
        || { echo "$out"; echo "perfbench $1 --trace 1 failed"; exit 1; }
    echo "$out"
    replay=$(echo "$out" | sed -n 's/^kernel replay: \([0-9]*\) of \([0-9]*\) .*/\1 \2/p')
    read -r replay_agree replay_jobs <<<"${replay:-0 0}"
    if [[ "$replay_jobs" -eq 0 || "$replay_agree" -ne "$replay_jobs" ]]; then
        echo "kernel replay gate ($1): ${replay_agree} of ${replay_jobs} served dose points reproduced"
        exit 1
    fi
}
traced_perfbench serve_light
traced_perfbench serve_cached
phase_end

if [[ "${1:-}" == "smoke" ]]; then
    phase_begin "example matrix"
    # every example must run to success with fast arguments; args chosen
    # so the whole matrix stays in seconds
    run_example() {
        echo "-- example $1 --"
        cargo run --release -q --example "$1" -- "${@:2}" \
            || { echo "example $1 failed"; exit 1; }
    }
    run_example array_screening
    run_example autonomous_operation
    run_example dna_hybridization
    run_example farm_service 6 --batches 2
    run_example immunoassay
    run_example interference_rejection
    run_example process_monte_carlo
    run_example quickstart
    run_example sensor_farm 8
    run_example serve_demo 12 --submitters 2 --batch 4
    run_example serve_demo 12 --submitters 2 --batch 4 --shards 2
    phase_end

    phase_begin "farm smoke (16-job batch, telemetry on)"
    # --telemetry exits non-zero itself if any stage histogram is empty
    cargo run --release --example sensor_farm 16 --telemetry
    artifact=target/farm_telemetry.ndjson
    [[ -s "$artifact" ]] || { echo "missing telemetry artifact $artifact"; exit 1; }
    # each stage's registry histogram line, with a non-zero count
    for stage in queue_wait precompute solve; do
        grep -qE "\"metric\":\"farm\.${stage}_ns\",\"type\":\"histogram\",\"count\":[1-9]" "$artifact" \
            || { echo "no non-empty farm.${stage}_ns histogram line in $artifact"; exit 1; }
    done
    grep -q '"kind":"span_start"'   "$artifact" || { echo "no trace events in $artifact"; exit 1; }
    echo "telemetry artifact: $(wc -l < "$artifact") NDJSON records"
    # fails (exit 1) on an empty span tree or trace sequence gaps
    cargo run --release -q -p canti-obsctl -- summary "$artifact"
    phase_end

    phase_begin "chaos smoke (fault-injection batch)"
    # the example itself asserts the report is bit-identical to a
    # 1-thread oracle before it exits 0
    cargo run --release --example sensor_farm -- --chaos 7341 --telemetry
    chaos_artifact=target/chaos_telemetry.ndjson
    [[ -s "$chaos_artifact" ]] || { echo "missing chaos artifact $chaos_artifact"; exit 1; }
    # gates on span-tree health + zero trace sequence gaps, and must see
    # actual fault/recovery activity in the fault-health section
    chaos_summary=$(cargo run --release -q -p canti-obsctl -- summary "$chaos_artifact")
    echo "$chaos_summary"
    echo "$chaos_summary" | grep -q "fault_injected" \
        || { echo "chaos artifact shows no fault_injected events"; exit 1; }
    phase_end

    phase_begin "serve smoke (sharded traced demo) + request-trace gate"
    # keep the previous timeline artifact as the anomaly baseline before
    # the demo overwrites it (same .prev pattern as the bench artifacts)
    timeline_artifact=target/serve_timeline.ndjson
    timeline_prev=target/serve_timeline.prev.ndjson
    [[ -s "$timeline_artifact" ]] && cp "$timeline_artifact" "$timeline_prev"
    # the demo itself asserts breakdown tiling, non-empty merged
    # slo.good/slo.breached lines in the scraped /debug/timeline body and
    # the JSON /healthz body before it exits 0
    cargo run --release --example serve_demo 16 --shards 2 --telemetry
    serve_artifact=target/serve_telemetry.ndjson
    [[ -s "$serve_artifact" ]] || { echo "missing serve artifact $serve_artifact"; exit 1; }
    # pick a request id actually present in shard 0's stream, then gate:
    # obsctl trace fails (exit 1) unless the artifact holds a closed
    # admission-side request span for it, and on trace sequence gaps
    req=$(grep -o '"request":[0-9]*' "$serve_artifact" | head -1 | cut -d: -f2)
    [[ -n "$req" ]] || { echo "no request spans in $serve_artifact"; exit 1; }
    echo "-- obsctl trace: request $req --"
    cargo run --release -q -p canti-obsctl -- trace "$serve_artifact" "$req"
    # the scraped /debug/timeline body must parse and render (exit 1 on
    # an empty shard selection, exit 2 on a malformed artifact)
    [[ -s "$timeline_artifact" ]] || { echo "missing timeline artifact $timeline_artifact"; exit 1; }
    echo "-- obsctl timeline (merged view) --"
    cargo run --release -q -p canti-obsctl -- timeline "$timeline_artifact" --shard merged
    # SLO verdicts ride the timeline: the demo's 0 ns deadline expires
    # deterministically, so the merged section must carry slo.breached
    # (exit 1 on an empty selection)
    echo "-- obsctl timeline (merged slo.breached verdicts) --"
    cargo run --release -q -p canti-obsctl -- timeline "$timeline_artifact" --shard merged \
        --series slo.breached
    if [[ -s "$timeline_prev" ]]; then
        # gate request-scoped observation counts against the previous
        # run; sums are wall-clock noisy, counts are load-determined
        # (serve.expired included: the demo's hopeless deadline is 0 ns
        # relative, and expiry sweeps run before every batch formation,
        # so exactly one expiry is deterministic)
        echo "-- obsctl anomaly gate: timeline vs previous run --"
        cargo run --release -q -p canti-obsctl -- anomaly "$timeline_artifact" "$timeline_prev" \
            --series serve.admitted --series serve.completed --series serve.expired \
            --threshold-pct "${CANTI_TIMELINE_THRESHOLD_PCT:-10}"
    else
        echo "-- obsctl anomaly gate: no previous timeline artifact, baseline archived --"
    fi
    phase_end

    phase_begin "chaos-serve smoke (shard kill -> failover -> restart)"
    # the demo itself asserts the full self-healing drill — every wave-1
    # ticket answered terminally, at least one failover while the victim
    # is down, a supervised restart, and a clean post-restart wave —
    # before it exits 0. The plan generator never kills shard 0, so the
    # archived artifact (shard 0's ring) carries the failover events.
    cargo run --release --example serve_demo -- --chaos-serve 7341 --shards 2 --batch 4 --telemetry
    chaos_serve_artifact=target/serve_chaos_telemetry.ndjson
    [[ -s "$chaos_serve_artifact" ]] || { echo "missing chaos-serve artifact $chaos_serve_artifact"; exit 1; }
    # gates on span-tree health + zero trace sequence gaps, and must see
    # rerouted traffic in the shard-health section
    chaos_serve_summary=$(cargo run --release -q -p canti-obsctl -- summary "$chaos_serve_artifact")
    echo "$chaos_serve_summary"
    echo "$chaos_serve_summary" | grep -q "failover" \
        || { echo "chaos-serve artifact shows no failover events"; exit 1; }
    grep -q '"metric":"serve.failovers"' "$chaos_serve_artifact" \
        || { echo "chaos-serve artifact carries no serve.failovers counter"; exit 1; }
    phase_end

    phase_begin "cache smoke (result cache + coalescing drill)"
    # the demo itself asserts byte-identical payloads across the burst,
    # >0 coalesced followers, >0 cache hits, cache-aware /healthz +
    # /debug/requests bodies, and a merged serve.cache_hit timeline count
    # equal to the service's hit tally before it exits 0
    cargo run --release --example serve_demo -- --cache --shards 2 --telemetry
    cache_artifact=target/serve_cache_telemetry.ndjson
    [[ -s "$cache_artifact" ]] || { echo "missing cache artifact $cache_artifact"; exit 1; }
    # summary fails (exit 1) on an empty span tree or trace sequence
    # gaps, so a clean exit here IS the zero-gap gate; the cache section
    # must additionally show real hit and coalescing activity
    cache_summary=$(cargo run --release -q -p canti-obsctl -- summary "$cache_artifact")
    echo "$cache_summary"
    cache_json=$(cargo run --release -q -p canti-obsctl -- summary "$cache_artifact" --json)
    for name in cache_hit coalesced; do
        count=$(echo "$cache_json" \
            | sed -n "s/.*\"record\":\"cache\",\"name\":\"$name\",\"count\":\([0-9]*\).*/\1/p" \
            | head -1)
        [[ -n "$count" && "$count" -gt 0 ]] \
            || { echo "cache gate: no $name activity in $cache_artifact"; exit 1; }
        echo "cache gate: $name x$count"
    done
    # the threaded hit path's timeline writes reach the scraped body:
    # the merged section must carry serve.cache_hit (exit 1 on an empty
    # selection)
    cache_timeline=target/serve_cache_timeline.ndjson
    [[ -s "$cache_timeline" ]] || { echo "missing cache timeline artifact $cache_timeline"; exit 1; }
    echo "-- obsctl timeline (merged serve.cache_hit windows) --"
    cargo run --release -q -p canti-obsctl -- timeline "$cache_timeline" --shard merged \
        --series serve.cache_hit
    phase_end

    phase_begin "bench loop (farm, experiments) + perf gates"
    # keep the experiments bench fast in smoke unless the caller says
    # otherwise
    export CANTI_BENCH_MS="${CANTI_BENCH_MS:-80}"
    export CANTI_FARM_JOBS="${CANTI_FARM_JOBS:-64}"
    # run_bench_gate <bench> <artifact-stem> <threshold-pct> <min-ns>
    # archives target/<stem>.json, keeps the previous run as
    # target/<stem>.prev.json, and gates the new artifact against it
    # through obsctl diff when a baseline exists; <min-ns> is the
    # per-bench absolute noise floor (a regression must exceed the
    # percent threshold AND this many ns to fail the gate)
    run_bench_gate() {
        local bench="$1" stem="$2" default_threshold="$3" default_min_ns="$4"
        echo "-- bench $bench (archiving ${stem}.json) --"
        # absolute paths: cargo bench runs with cwd = its package dir
        local bench_json="$PWD/target/${stem}.json"
        local bench_prev="$PWD/target/${stem}.prev.json"
        # keep the previous artifact as the diff baseline before overwriting
        [[ -s "$bench_json" ]] && cp "$bench_json" "$bench_prev"
        CANTI_BENCH_JSON="$bench_json" cargo bench -q -p canti-bench --bench "$bench"
        [[ -s "$bench_json" ]] || { echo "missing bench artifact $bench_json"; exit 1; }
        if [[ -s "$bench_prev" ]]; then
            echo "-- obsctl perf gate: $stem vs previous run --"
            cargo run --release -q -p canti-obsctl -- diff "$bench_prev" "$bench_json" \
                --threshold-pct "${CANTI_PERF_THRESHOLD_PCT:-$default_threshold}" \
                --min-ns "${CANTI_PERF_MIN_NS:-$default_min_ns}"
        else
            echo "-- obsctl perf gate: no previous $stem artifact, baseline archived --"
        fi
    }
    # the persistent worker pool tightened the farm sweep's run-to-run
    # spread, so its regression threshold drops 50 -> 40, with a 2 ms
    # noise floor that keeps the gate on the dominant queue_wait stage
    # (tens of ms) while forgiving bucket-edge flicker on the ~1 ms
    # precompute/solve stages; the micro-kernel experiments bench stays
    # looser, it is noisier on small machines.
    run_bench_gate farm        BENCH_farm         40 2000000
    run_bench_gate experiments BENCH_experiments 100   50000
    phase_end
fi

echo
echo "ci: all green — phase wall times:"
# archive the per-phase wall times (previous run kept as .prev) and
# print an advisory delta; timings are informational, never a gate
phases_json=target/ci_phases.json
phases_prev=target/ci_phases.prev.json
mkdir -p target
[[ -s "$phases_json" ]] && cp "$phases_json" "$phases_prev"
{
    printf '{"record":"ci_phases","phases":['
    for i in "${!phase_names[@]}"; do
        [[ $i -gt 0 ]] && printf ','
        printf '\n  {"name":"%s","secs":%d}' "${phase_names[$i]}" "${phase_secs[$i]}"
    done
    printf '\n]}\n'
} > "$phases_json"
for i in "${!phase_names[@]}"; do
    line=$(printf '  %-48s %4ds' "${phase_names[$i]}" "${phase_secs[$i]}")
    if [[ -s "$phases_prev" ]]; then
        # a phase the previous run did not have has no baseline (grep
        # finds nothing, which must not end the script under pipefail)
        prev_secs=$({ grep -F "\"name\":\"${phase_names[$i]}\"" "$phases_prev" || true; } \
            | head -1 | sed -n 's/.*"secs":\([0-9]*\).*/\1/p')
        if [[ -n "$prev_secs" ]]; then
            line="$line  (prev ${prev_secs}s, $((phase_secs[i] - prev_secs))s delta)"
        fi
    fi
    echo "$line"
done
echo "phase timings archived to $phases_json"
