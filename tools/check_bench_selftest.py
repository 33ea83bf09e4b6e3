#!/usr/bin/env python3
"""Exit-code contract test for check_bench.py.

Runs the gate as a subprocess against synthetic artifact/baseline pairs and
asserts the documented exit codes: 0 ok, 1 regression or malformed artifact,
2 baseline missing or malformed (the repo-problem code CI keys on), 77
artifact missing (ctest SKIP_RETURN_CODE). Registered as ctest
bench.check_bench_selftest.

Usage: check_bench_selftest.py /path/to/check_bench.py
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

SCHEMA = "manet-bench-artifact/1"


def doc(tps=100.0, n=1000, scalars=None):
    return {
        "schema": SCHEMA,
        "manifest": {"name": "selftest"},
        "series": {"ticks_per_sec_main": [
            {"n": n, "mean": tps, "ci95": 0.0, "count": 1}]},
        "scalars": scalars or {},
    }


def main():
    if len(sys.argv) != 2:
        print("usage: check_bench_selftest.py CHECK_BENCH", file=sys.stderr)
        return 2
    check_bench = sys.argv[1]
    failures = []

    def run(artifact, baseline, expect, label):
        result = subprocess.run(
            [sys.executable, check_bench, str(artifact), str(baseline)],
            capture_output=True, text=True)
        if result.returncode != expect:
            failures.append(
                f"{label}: expected exit {expect}, got {result.returncode}\n"
                f"  stdout: {result.stdout.strip()}\n"
                f"  stderr: {result.stderr.strip()}")
        else:
            print(f"ok: {label} -> exit {expect}")

    def logs(artifact, baseline, needle, label):
        result = subprocess.run(
            [sys.executable, check_bench, str(artifact), str(baseline)],
            capture_output=True, text=True)
        if needle not in result.stdout:
            failures.append(f"{label} did not log its reason:\n"
                            f"  stdout: {result.stdout.strip()}")
        else:
            print(f"ok: {label} logs its reason")

    with tempfile.TemporaryDirectory() as raw:
        tmp = Path(raw)

        def write(name, payload):
            path = tmp / name
            path.write_text(payload if isinstance(payload, str)
                            else json.dumps(payload))
            return path

        good_artifact = write("artifact.json", doc())
        good_baseline = write("baseline.json", doc())

        run(good_artifact, good_baseline, 0, "matching pair passes")
        run(tmp / "nope.json", good_baseline, 77, "missing artifact skips")
        run(good_artifact, tmp / "nope.json", 2, "missing baseline is exit 2")
        run(good_artifact, write("trunc.json", '{"schema": "manet-bench'),
            2, "truncated baseline JSON is exit 2")
        run(good_artifact, write("schema.json", doc() | {"schema": "bogus/9"}),
            2, "wrong baseline schema is exit 2")
        run(good_artifact,
            write("scalar.json", doc(scalars={"min_speedup": "fast"})),
            2, "non-numeric baseline scalar is exit 2")
        run(write("badpoint.json",
                  {"schema": SCHEMA, "series": {"ticks_per_sec_x": [{"n": 1}]},
                   "scalars": {}}),
            good_baseline, 1, "artifact point without mean is exit 1")
        run(write("slow.json", doc(tps=10.0)), good_baseline, 1,
            "5x regression is exit 1")
        run(write("ident.json", doc(scalars={"identity_violations": 2})),
            good_baseline, 1, "identity violations are exit 1")
        run(good_artifact,
            write("floor.json", doc(scalars={"min_capacity_n": 100000})),
            1, "unmet capacity floor is exit 1")
        run(write("big.json", doc(n=100000)),
            write("floor2.json", doc(n=100000,
                                     scalars={"min_capacity_n": 100000})),
            0, "met capacity floor passes")

        # Changed-tick allocation gate (bench_memory E27): binds only on an
        # artifact from a MANET_PROFILE_ALLOC build (alloc_profile == 1).
        alloc_baseline = write("abase.json", doc(
            scalars={"max_allocs_per_changed_tick": 1500}))
        run(write("alean.json", doc(scalars={
                "alloc_profile": 1, "allocs_per_changed_tick": 1222})),
            alloc_baseline, 0, "changed-tick allocations under the cap pass")
        run(write("afat.json", doc(scalars={
                "alloc_profile": 1, "allocs_per_changed_tick": 10569})),
            alloc_baseline, 1, "changed-tick allocations over the cap are exit 1")
        run(write("amissing.json", doc(scalars={"alloc_profile": 1})),
            alloc_baseline, 1,
            "profiled artifact without allocs_per_changed_tick is exit 1")
        unprofiled = write("aoff.json", doc(scalars={"alloc_profile": 0}))
        run(unprofiled, alloc_baseline, 0,
            "unprofiled artifact skips the changed-tick allocation gate")
        logs(unprofiled, alloc_baseline,
             "max_allocs_per_changed_tick gate skipped", "unprofiled skip")

        # Parallel-speedup gate (bench_capacity E30): the floor binds only
        # when the artifact's manifest reports a multi-core producer; a
        # single-core manifest (or a pre-field manifest with no
        # hardware_concurrency at all) skips the gate with a logged reason.
        def pdoc(hw, scalars):
            d = doc(scalars=scalars)
            d["manifest"] = {"name": "selftest", "hardware_concurrency": hw}
            return d

        speedup_baseline = write("pbase.json",
                                 doc(scalars={"min_parallel_speedup": 1.2}))
        run(write("pfast.json", pdoc(8, {"speedup_max": 1.8, "speedup_2t": 1.5})),
            speedup_baseline, 0, "met parallel-speedup floor passes")
        run(write("pslow.json", pdoc(8, {"speedup_max": 0.9, "speedup_2t": 0.8})),
            speedup_baseline, 1, "unmet parallel-speedup floor is exit 1")
        run(write("pmissing.json", pdoc(8, {})),
            speedup_baseline, 1, "missing speedup_max on multi-core is exit 1")
        single_core = write("psingle.json", pdoc(1, {"speedup_max": 0.5}))
        run(single_core, speedup_baseline, 0,
            "single-core runner skips the parallel-speedup gate")
        logs(single_core, speedup_baseline,
             "min_parallel_speedup gate skipped", "single-core skip")
        run(write("pnohw.json", doc(scalars={"speedup_max": 0.5})),
            speedup_baseline, 0,
            "manifest without hardware_concurrency skips the gate")

        # Matrix-cell pinning: baseline ticks_per_sec_s<S>_t<T> scalars must
        # survive into the artifact with positive values.
        matrix_baseline = write("mbase.json", doc(scalars={
            "min_parallel_speedup": 1.2,
            "ticks_per_sec_s16_t1": 8.0, "ticks_per_sec_s16_t2": 9.0}))
        run(write("mok.json", pdoc(1, {
                "ticks_per_sec_s16_t1": 7.5, "ticks_per_sec_s16_t2": 8.5})),
            matrix_baseline, 0, "matrix cells present and positive pass")
        run(write("mlost.json", pdoc(1, {"ticks_per_sec_s16_t1": 7.5})),
            matrix_baseline, 1, "lost matrix cell is exit 1")
        run(write("mzero.json", pdoc(1, {
                "ticks_per_sec_s16_t1": 7.5, "ticks_per_sec_s16_t2": 0.0})),
            matrix_baseline, 1, "non-positive matrix cell is exit 1")

        # Query-serving gates (bench_query E31): scalar-only baselines carry
        # no ticks_per_sec_* series at all — recognized gate scalars must be
        # enough for the baseline to validate.
        def qdoc(scalars):
            return {"schema": SCHEMA, "manifest": {"name": "query"},
                    "series": {}, "scalars": scalars}

        query_baseline = write("qbase.json", qdoc(
            {"min_lookups_per_sec": 1000000.0, "max_lookup_p99_us": 5.0}))
        run(write("qfast.json", qdoc(
                {"lookups_per_sec": 2.5e7, "lookup_p99_us": 0.1,
                 "identity_violations": 0})),
            query_baseline, 0, "query floors met on scalar-only baseline")
        run(write("qslow.json", qdoc(
                {"lookups_per_sec": 5e5, "lookup_p99_us": 0.1})),
            query_baseline, 1, "unmet lookups/sec floor is exit 1")
        run(write("qlag.json", qdoc(
                {"lookups_per_sec": 2.5e7, "lookup_p99_us": 50.0})),
            query_baseline, 1, "exceeded lookup p99 cap is exit 1")
        run(write("qmissing.json", qdoc({})),
            query_baseline, 1, "missing query scalars are exit 1")
        run(good_artifact, write("gateless.json", qdoc({})),
            1, "baseline without series or gate scalars is exit 1")

        # Per-call read-scaling gate (bench_query E31): binds only when the
        # artifact's manifest reports at least 4 cores; below that it skips
        # with a logged reason.
        def sdoc(hw, scalars):
            d = qdoc(scalars)
            d["manifest"] = {"name": "query", "hardware_concurrency": hw}
            return d

        scaling_baseline = write("sbase.json",
                                 qdoc({"min_lookup_scaling": 1.5}))
        run(write("sfast.json", sdoc(4, {"lookup_scaling_4t": 3.3})),
            scaling_baseline, 0, "met lookup-scaling floor passes")
        run(write("sslow.json", sdoc(4, {"lookup_scaling_4t": 0.27})),
            scaling_baseline, 1, "unmet lookup-scaling floor is exit 1")
        run(write("smissing.json", sdoc(8, {})),
            scaling_baseline, 1,
            "missing lookup_scaling_4t on 4+ cores is exit 1")
        two_core = write("stwo.json", sdoc(2, {"lookup_scaling_4t": 0.27}))
        run(two_core, scaling_baseline, 0,
            "runner below 4 cores skips the lookup-scaling gate")
        logs(two_core, scaling_baseline,
             "min_lookup_scaling gate skipped", "below-4-core skip")

    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    print("check_bench_selftest: all exit-code contracts hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
