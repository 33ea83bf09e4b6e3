#!/usr/bin/env python3
"""Throughput-regression gate for bench artifacts.

Compares a freshly produced ``BENCH_<name>.json`` (schema
``manet-bench-artifact/1``) against a committed baseline and fails when any
``ticks_per_sec_*`` series point regressed by more than the threshold
(default 20%). Absolute ticks/sec is machine-dependent, so the committed
baseline is only a tripwire for order-of-magnitude regressions on comparable
hardware — the machine-independent invariants (the incremental speedup and
bit-identity) are enforced by the bench binary itself and by
tests/integration/tick_pipeline_test.

Exit codes: 0 ok, 1 regression or malformed artifact, 2 baseline missing or
malformed (a repo problem, not a perf problem — regenerate the committed
baseline), 77 artifact missing (bench not run; registered with
SKIP_RETURN_CODE 77 so ctest reports a skip).

Usage: check_bench.py ARTIFACT BASELINE [--threshold 0.20]
"""

import argparse
import json
import sys

SKIP = 77
BASELINE_ERROR = 2
SCHEMA = "manet-bench-artifact/1"


def validate(doc):
    """Return an error string when ``doc`` deviates from the artifact shape
    the gates below index into; None when well-formed. Every access pattern
    used later (series -> list of {n, mean} points, numeric scalars) is
    pinned here so a truncated or hand-mangled JSON fails with a one-line
    diagnosis instead of a KeyError/TypeError traceback."""
    if not isinstance(doc, dict):
        return "top level is not an object"
    if doc.get("schema") != SCHEMA:
        return f"unexpected schema {doc.get('schema')!r}"
    series = doc.get("series", {})
    if not isinstance(series, dict):
        return "'series' is not an object"
    for name, points in series.items():
        if not isinstance(points, list):
            return f"series {name!r} is not a list of points"
        for point in points:
            if not isinstance(point, dict):
                return f"series {name!r} has a non-object point"
            for key in ("n", "mean"):
                value = point.get(key)
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    return f"series {name!r} has a point without a numeric {key!r}"
    scalars = doc.get("scalars", {})
    if not isinstance(scalars, dict):
        return "'scalars' is not an object"
    for key, value in scalars.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return f"scalar {key!r} is not a number"
    return None


def load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"check_bench: cannot read {path}: {err}", file=sys.stderr)
        return None
    error = validate(doc)
    if error is not None:
        print(f"check_bench: {path}: {error}", file=sys.stderr)
        return None
    return doc


def series_points(doc, name):
    """Map n -> mean for one series."""
    return {p["n"]: p["mean"] for p in doc.get("series", {}).get(name, [])}


def hardware_concurrency(doc):
    """The producing machine's core count from the artifact manifest; 0 when
    the manifest lacks the field (artifacts older than the field)."""
    manifest = doc.get("manifest", {})
    hw = manifest.get("hardware_concurrency", 0) \
        if isinstance(manifest, dict) else 0
    if not isinstance(hw, (int, float)) or isinstance(hw, bool):
        return 0
    return hw


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("artifact")
    parser.add_argument("baseline")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="allowed fractional ticks/sec drop (default 0.20)")
    args = parser.parse_args()

    try:
        artifact_file = open(args.artifact, encoding="utf-8")
    except FileNotFoundError:
        print(f"check_bench: {args.artifact} not found — run the bench first "
              "(skipping)")
        return SKIP
    artifact_file.close()

    artifact = load(args.artifact)
    if artifact is None:
        return 1
    # A bad *baseline* is a repo problem, not a perf regression: distinct
    # exit code so CI can tell "fix the committed file" from "fix the code".
    baseline = load(args.baseline)
    if baseline is None:
        print(f"check_bench: baseline {args.baseline} is missing or malformed "
              "— regenerate it from a known-good bench run", file=sys.stderr)
        return BASELINE_ERROR

    throughput_series = sorted(
        name for name in baseline.get("series", {})
        if name.startswith("ticks_per_sec_"))
    # Scalar-only baselines are legitimate when they carry recognized gate
    # scalars (bench_query's is gated purely on absolute floors/caps); a
    # baseline with neither throughput series nor gates checks nothing and
    # is flagged as malformed.
    gate_scalar_keys = (
        "min_speedup", "min_capacity_n", "min_speedup_high",
        "max_orchestrator_overhead_frac", "max_allocs_per_tick",
        "max_allocs_per_changed_tick",
        "max_session_interruption_p99", "max_misroute_rate",
        "min_lookups_per_sec", "max_lookup_p99_us", "min_parallel_speedup",
        "min_lookup_scaling")
    baseline_scalars = baseline.get("scalars", {})
    if not throughput_series and not any(
            key in baseline_scalars for key in gate_scalar_keys):
        print("check_bench: baseline has no ticks_per_sec_* series and no "
              "recognized gate scalars", file=sys.stderr)
        return 1

    # Speedup gate (bench_memory): when the baseline carries a `min_speedup`
    # scalar, it was produced by a *pre-optimization* binary on purpose, and
    # every throughput point must beat it by at least that factor (the E27
    # >=1.3x acceptance criterion) instead of merely not regressing.
    min_speedup = baseline.get("scalars", {}).get("min_speedup")

    status = 0
    checked = 0
    for name in throughput_series:
        base_points = series_points(baseline, name)
        new_points = series_points(artifact, name)
        for n, base_mean in sorted(base_points.items()):
            if n not in new_points:
                print(f"check_bench: FAIL {name} lost its n={n:g} point",
                      file=sys.stderr)
                status = 1
                continue
            new_mean = new_points[n]
            checked += 1
            if base_mean <= 0:
                continue
            ratio = new_mean / base_mean
            if min_speedup is not None:
                verdict = "ok" if ratio >= min_speedup else "FAIL"
                if verdict == "FAIL":
                    status = 1
                print(f"check_bench: {verdict} {name} n={n:g} "
                      f"baseline={base_mean:.4g} now={new_mean:.4g} "
                      f"(speedup {ratio:.2f}x, need >={min_speedup:g}x)")
                continue
            drop = 1.0 - ratio
            verdict = "ok"
            if drop > args.threshold:
                verdict = "FAIL"
                status = 1
            print(f"check_bench: {verdict} {name} n={n:g} "
                  f"baseline={base_mean:.4g} now={new_mean:.4g} "
                  f"({-drop:+.1%})")

    violations = artifact.get("scalars", {}).get("identity_violations")
    if violations:
        print(f"check_bench: FAIL artifact reports {violations:g} "
              "identity violations", file=sys.stderr)
        status = 1

    # Capacity gate (bench_capacity): the artifact must demonstrate a
    # measured throughput point at or above the committed node-count floor
    # (the 10^5-node acceptance bar for the sharded tick). Simulated scale,
    # not machine speed, so the floor is absolute.
    floor_n = baseline.get("scalars", {}).get("min_capacity_n")
    if floor_n is not None:
        largest = max(
            (n for name in artifact.get("series", {})
             if name.startswith("ticks_per_sec_")
             for n in series_points(artifact, name)),
            default=0)
        if largest < floor_n:
            print(f"check_bench: FAIL largest measured throughput point "
                  f"n={largest:g} is below the n={floor_n:g} capacity floor",
                  file=sys.stderr)
            status = 1
        else:
            checked += 1
            print(f"check_bench: ok capacity point n={largest:g} "
                  f"(floor n={floor_n:g})")

    # Shards x threads matrix pinning (bench_capacity E30): every
    # ticks_per_sec_s<S>_t<T> cell the baseline recorded must exist in the
    # artifact with a positive throughput. The cells are wall-clock on the
    # producing machine, so they are shape-pinned — a lost cell means the
    # matrix shrank — but never timing-compared (the series gate above and
    # the speedup gate below cover performance).
    matrix_cells = sorted(
        key for key in baseline_scalars
        if key.startswith("ticks_per_sec_s") and "_t" in key)
    matrix_bad = 0
    for key in matrix_cells:
        value = artifact.get("scalars", {}).get(key)
        if value is None:
            print(f"check_bench: FAIL artifact lost the {key} matrix cell",
                  file=sys.stderr)
            matrix_bad += 1
        elif value <= 0:
            print(f"check_bench: FAIL matrix cell {key} is not positive "
                  f"({value:g})", file=sys.stderr)
            matrix_bad += 1
        else:
            checked += 1
    if matrix_bad:
        status = 1
    elif matrix_cells:
        print(f"check_bench: ok shards x threads matrix "
              f"({len(matrix_cells)} cells present and positive)")

    # Parallel-speedup gate (bench_capacity E30): on a multi-core machine the
    # best shards x threads cell must beat its own single-thread cell by at
    # least `min_parallel_speedup`. The ratio compares two runs on the same
    # machine, so the floor is absolute — but it is meaningless on a
    # single-core runner (threads > 1 only add contention), so the gate skips
    # itself, with the reason logged, when the artifact's manifest reports
    # hardware_concurrency < 2.
    min_parallel = baseline.get("scalars", {}).get("min_parallel_speedup")
    if min_parallel is not None:
        hw = hardware_concurrency(artifact)
        if hw < 2:
            print(f"check_bench: min_parallel_speedup gate skipped "
                  f"(hardware_concurrency={hw:g} < 2: single-core runner, "
                  f"parallel speedup is unmeasurable here)")
        else:
            speedup = artifact.get("scalars", {}).get("speedup_max")
            if speedup is None:
                print("check_bench: FAIL artifact is missing the "
                      "speedup_max scalar", file=sys.stderr)
                status = 1
            elif speedup < min_parallel:
                print(f"check_bench: FAIL parallel speedup {speedup:.2f}x is "
                      f"below the {min_parallel:g}x floor", file=sys.stderr)
                status = 1
            else:
                checked += 1
                print(f"check_bench: ok parallel speedup {speedup:.2f}x "
                      f"(floor {min_parallel:g}x)")

    # High-mobility speedup gate (bench_tick_pipeline): the incremental arm
    # must beat the full-rebuild arm by at least `min_speedup_high` at
    # n = `min_speedup_high_n` in the high-mobility regime. Like the overhead
    # gate below, the speedup is a ratio of two runs on the same machine, so
    # the floor is absolute rather than baseline-relative.
    min_high = baseline.get("scalars", {}).get("min_speedup_high")
    if min_high is not None:
        high_n = baseline.get("scalars", {}).get("min_speedup_high_n")
        speedup = series_points(artifact, "speedup_high").get(high_n)
        if speedup is None:
            print(f"check_bench: FAIL artifact has no speedup_high point at "
                  f"n={high_n:g}", file=sys.stderr)
            status = 1
        elif speedup < min_high:
            print(f"check_bench: FAIL high-mobility speedup {speedup:.2f}x at "
                  f"n={high_n:g} is below the {min_high:g}x floor",
                  file=sys.stderr)
            status = 1
        else:
            checked += 1
            print(f"check_bench: ok high-mobility speedup {speedup:.2f}x at "
                  f"n={high_n:g} (floor {min_high:g}x)")

    # Orchestrator-overhead gate (bench_campaign): the measured wall-clock
    # overhead of the checkpointed campaign path over raw run_replications
    # must stay under the cap committed in the baseline. Machine-independent
    # (a ratio of two runs on the same machine), so the cap is absolute.
    cap = baseline.get("scalars", {}).get("max_orchestrator_overhead_frac")
    if cap is not None:
        overhead = artifact.get("scalars", {}).get("orchestrator_overhead_frac")
        if overhead is None:
            print("check_bench: FAIL artifact is missing the "
                  "orchestrator_overhead_frac scalar", file=sys.stderr)
            status = 1
        elif overhead > cap:
            print(f"check_bench: FAIL orchestrator overhead {overhead:+.2%} "
                  f"exceeds the {cap:.0%} cap", file=sys.stderr)
            status = 1
        else:
            checked += 1
            print(f"check_bench: ok orchestrator overhead {overhead:+.2%} "
                  f"(cap {cap:.0%})")

    # Allocations-per-tick gates (bench_memory), one for the gated steady
    # state and one for changed ticks: enforced only when the artifact came
    # from a MANET_PROFILE_ALLOC build (alloc_profile == 1); a default build
    # has nothing interposed, so the artifact legitimately lacks the scalars
    # and each gate reports itself skipped.
    for cap_key, value_key, tick in (
            ("max_allocs_per_tick", "allocs_per_tick", "steady-state tick"),
            ("max_allocs_per_changed_tick", "allocs_per_changed_tick",
             "changed tick")):
        alloc_cap = baseline.get("scalars", {}).get(cap_key)
        if alloc_cap is None:
            continue
        profiled = artifact.get("scalars", {}).get("alloc_profile")
        allocs = artifact.get("scalars", {}).get(value_key)
        if not profiled:
            print(f"check_bench: {cap_key} gate skipped (artifact from a "
                  "build without MANET_PROFILE_ALLOC)")
        elif allocs is None:
            print(f"check_bench: FAIL profiled artifact is missing the "
                  f"{value_key} scalar", file=sys.stderr)
            status = 1
        elif allocs > alloc_cap:
            print(f"check_bench: FAIL {allocs:g} allocations per {tick} "
                  f"exceeds the cap of {alloc_cap:g}", file=sys.stderr)
            status = 1
        else:
            checked += 1
            print(f"check_bench: ok {allocs:g} allocations per {tick} "
                  f"(cap {alloc_cap:g})")

    # Session-continuity gate (bench_sessions): the vehicular-regime p99
    # interruption window and misroute rate must stay under the caps
    # committed in the baseline (the E29 acceptance bars). Both are
    # simulated quantities, so the caps are absolute, not machine-relative.
    for cap_key, value_key, unit in (
            ("max_session_interruption_p99", "interruption_p99_vehicular", "s"),
            ("max_misroute_rate", "misroute_rate_vehicular", "")):
        cap = baseline.get("scalars", {}).get(cap_key)
        if cap is None:
            continue
        value = artifact.get("scalars", {}).get(value_key)
        if value is None:
            print(f"check_bench: FAIL artifact is missing the "
                  f"{value_key} scalar", file=sys.stderr)
            status = 1
        elif value > cap:
            print(f"check_bench: FAIL {value_key} {value:g}{unit} exceeds "
                  f"the cap of {cap:g}{unit}", file=sys.stderr)
            status = 1
        else:
            checked += 1
            print(f"check_bench: ok {value_key} {value:g}{unit} "
                  f"(cap {cap:g}{unit})")

    # Query-serving gates (bench_query E31): the frozen-snapshot
    # single-thread serving rate must meet the committed absolute floor and
    # the p99 per-lookup latency must stay under the cap. The floor is a
    # deliberate lowball (any in-memory epoch-pinned lookup path clears
    # 10^6/s even on the slowest CI hardware) so it trips on structural
    # single-thread regressions — a per-lookup allocation or system call, a
    # scan instead of an index — not on machine variance. One thread cannot
    # see cross-thread contention on the read path; the read-scaling gate
    # below covers that.
    floor_rate = baseline.get("scalars", {}).get("min_lookups_per_sec")
    if floor_rate is not None:
        rate = artifact.get("scalars", {}).get("lookups_per_sec")
        if rate is None:
            print("check_bench: FAIL artifact is missing the "
                  "lookups_per_sec scalar", file=sys.stderr)
            status = 1
        elif rate < floor_rate:
            print(f"check_bench: FAIL {rate:g} lookups/s is below the "
                  f"{floor_rate:g}/s floor", file=sys.stderr)
            status = 1
        else:
            checked += 1
            print(f"check_bench: ok {rate:g} lookups/s "
                  f"(floor {floor_rate:g}/s)")
    p99_cap = baseline.get("scalars", {}).get("max_lookup_p99_us")
    if p99_cap is not None:
        p99 = artifact.get("scalars", {}).get("lookup_p99_us")
        if p99 is None:
            print("check_bench: FAIL artifact is missing the "
                  "lookup_p99_us scalar", file=sys.stderr)
            status = 1
        elif p99 > p99_cap:
            print(f"check_bench: FAIL lookup p99 {p99:g}us exceeds the "
                  f"{p99_cap:g}us cap", file=sys.stderr)
            status = 1
        else:
            checked += 1
            print(f"check_bench: ok lookup p99 {p99:g}us "
                  f"(cap {p99_cap:g}us)")

    # Per-call read-scaling gate (bench_query E31): per-call lookup() at 4
    # reader threads must beat 1 reader by `min_lookup_scaling` (the median
    # of interleaved 1-thread / 4-thread pairs). Every call pins and unpins
    # the snapshot, so a reader count all threads write — one contended
    # cache line — drops the ratio below 1x. A ratio of two runs on the same
    # machine, so the floor is absolute; it needs 4 cores to mean anything,
    # so the gate skips itself, with the reason logged, when the artifact's
    # manifest reports hardware_concurrency < 4.
    min_scaling = baseline_scalars.get("min_lookup_scaling")
    if min_scaling is not None:
        hw = hardware_concurrency(artifact)
        if hw < 4:
            print(f"check_bench: min_lookup_scaling gate skipped "
                  f"(hardware_concurrency={hw:g} < 4: 4 reader threads "
                  f"cannot run in parallel here)")
        else:
            scaling = artifact.get("scalars", {}).get("lookup_scaling_4t")
            if scaling is None:
                print("check_bench: FAIL artifact is missing the "
                      "lookup_scaling_4t scalar", file=sys.stderr)
                status = 1
            elif scaling < min_scaling:
                print(f"check_bench: FAIL per-call lookup scaling "
                      f"{scaling:.2f}x at 4 threads is below the "
                      f"{min_scaling:g}x floor", file=sys.stderr)
                status = 1
            else:
                checked += 1
                print(f"check_bench: ok per-call lookup scaling "
                      f"{scaling:.2f}x at 4 threads (floor {min_scaling:g}x)")

    if status == 0:
        print(f"check_bench: OK ({checked} points within "
              f"{args.threshold:.0%} of baseline)")
    return status


if __name__ == "__main__":
    sys.exit(main())
