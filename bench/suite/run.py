#!/usr/bin/env python3
"""Repository benchmark runner (see README.md next to this file).

Modes:
  run.py --workload W --seed S --seconds N --trace 0|1
      One workload. --trace 0 reports the end-to-end metrics, --trace 1 the
      per-layer metrics of the traced replay. The last stdout line is one JSON
      object: {"correct", "attempted", "failed", "metrics"}.
  run.py [--workload W ...] [--seed S] [--seconds N] [--passes P] [--out PATH]
      Full passes: every named workload (all by default) with both metric
      sets; writes a results file (default build/bench-suite/bench-results.json).
  run.py compare PARENT.json CHANGE.json
      Verdict per workload x end-to-end metric from two results files.
  run.py --smoke
      Every workload at n/64 for 3 ticks; checks metric names, units and the
      exit-code contract.

Exit codes: 0 pass, 1 a failed check (or a failed build), 2 a usage error.
The benchmark is a closed-loop batch job: each simulation runs as fast as it
can, with no arrival schedule.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import time

SUITE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(SUITE))
BUILD = os.path.join(REPO, "build", "bench-suite")
BINARY = os.path.join(BUILD, "bench_suite")
SPEC = os.path.join(REPO, "BENCHMARK.json")

DEFAULT_SEED = 20020415
MIN_REPS = 5            # replications per e2e process, at least
PROCESS_BUDGET_S = 170  # one invocation must end within 180 s
RATE = re.compile(r"(_rate$|^f0$|^(phi|gamma|f|g|gprime)_k\.\d+$|^ev\.)")
# Ledgers the traced replay must reproduce exactly, by plane.
LEDGERS_BASE = ["ticks", "phi_rate", "gamma_rate", "f0", "entries_per_node"]
LEDGERS_FAULT = ["crashes", "rejoins", "phi_retx", "gamma_retx", "failed_transfers"]
LEDGERS_SESSION = ["session_packets", "session_delivered", "handover_completed"]
LEDGERS_QUERY = ["query_hits", "query_digest"]


def nproc():
    return len(os.sched_getaffinity(0))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the suite; serialized by a lock file."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", SUITE, "-B", BUILD])
        steps.append(["cmake", "--build", BUILD, "-j", str(min(nproc(), 4))])
        for cmd in steps:
            p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            if p.returncode != 0:
                log(p.stdout[-4000:])
                log("bench suite: build failed: " + " ".join(cmd))
                return False
    return True


class Runner:
    """Runs the bench_suite processes of one workload and records every check."""

    def __init__(self, workload, seed, scale, ticks):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + PROCESS_BUDGET_S
        self.extra = ["--scale", str(scale), "--ticks", str(ticks)]
        self.attempted = 0
        self.failed = 0
        self.checks = []

    def check(self, name, ok, detail=""):
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            log("check failed [%s]: %s %s" % (self.workload, name, detail))
        return ok

    def run(self, mode, check, *args):
        """One bench_suite process plus its output check; None when it crashed,
        timed out or printed no result. A failed check counts the run failed."""
        self.attempted += 1
        cmd = [BINARY, "--workload", self.workload, "--seed", str(self.seed), "--mode", mode]
        cmd += self.extra + list(args)
        try:
            timeout = self.deadline - time.monotonic()
            if timeout <= 0:
                raise subprocess.TimeoutExpired(cmd, 0)
            p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                               text=True, timeout=timeout)
            if p.returncode != 0:
                raise RuntimeError("exit %d: %s" % (p.returncode, p.stderr.strip()[-500:]))
            out = json.loads(p.stdout.strip().splitlines()[-1])
        except (subprocess.TimeoutExpired, RuntimeError, ValueError, IndexError) as e:
            self.failed += 1
            self.check("%s process" % mode, False, str(e))
            return None
        if not check(out):
            self.failed += 1
        return out

    def check_e2e(self, out):
        cfg = out["config"]
        want = math.floor(cfg["duration"] / cfg["tick"] + 1e-9)
        ok = True
        for run in out["runs"]:
            m = run["metrics"]
            ok &= self.check("ticks == floor(duration/tick)", m["ticks"] == want,
                             "seed %s: ticks %s" % (run["seed"], m["ticks"]))
            bad = [k for k, v in m.items()
                   if RATE.search(k) and not (v is not None and math.isfinite(v) and v >= 0)]
            ok &= self.check("rates finite and >= 0", not bad,
                             "seed %s: %s" % (run["seed"], ", ".join(bad)))
            if "query_hit_rate" in m:
                ok &= self.check("query_hit_rate in [0, 1]", 0 <= m["query_hit_rate"] <= 1,
                                 "seed %s: %s" % (run["seed"], m["query_hit_rate"]))
            if not cfg["faulted"]:
                ok &= self.check("unreachable == 0", m["unreachable"] == 0,
                                 "seed %s: %s" % (run["seed"], m["unreachable"]))
        return ok

    def check_setup(self, out):
        return self.check("setup ticks == 0", all(r["metrics"]["ticks"] == 0 for r in out["runs"]))

    def check_replay(self, traced, e2e):
        cfg = e2e["config"]
        names = list(LEDGERS_BASE)
        if cfg["faulted"]:
            names += LEDGERS_FAULT
        if cfg["sessions"]:
            names += LEDGERS_SESSION
        if cfg["query_load"] > 0:
            names += LEDGERS_QUERY
        ref = e2e["runs"][0]["metrics"]
        diff = ["%s traced %r e2e %r" % (k, traced["ledgers"].get(k), ref.get(k))
                for k in names if traced["ledgers"].get(k) != ref.get(k)]
        return self.check("traced ledgers == e2e RunMetrics", not diff, "; ".join(diff))


def digest(metrics):
    """Output digest over RunMetrics (par.* excluded)."""
    h = hashlib.sha256()
    for name, value in metrics.items():
        if not name.startswith("par."):
            h.update(("%s=%r\n" % (name, value)).encode())
    return h.hexdigest()[:16]


def measure(workload, seed, seconds, e2e_metrics, traced, reps=MIN_REPS, scale=1, ticks=0):
    """Run one workload and return its metrics, checks and output digest.

    One e2e process runs replications until at least `reps` ran and `seconds`
    of calls were timed; one setup process then sets up the same
    replications (same seeds). Replication r's tick time is its e2e wall time
    minus its setup wall time, and every end-to-end metric is a median over
    replications. With `traced`, the traced replay of replication 0 runs too
    and is cross-checked against the e2e run of the same seed.
    """
    r = Runner(workload, seed, scale, ticks)
    e2e = r.run("e2e", r.check_e2e, "--reps", str(reps), "--seconds", str(seconds))
    setup = None
    if e2e is not None:
        setup = r.run("setup", r.check_setup, "--reps", str(len(e2e["runs"])))
    result = {"metrics": {}, "host": {}, "digest": None}
    if setup is not None:
        result["digest"] = digest(e2e["runs"][0]["metrics"])
        result["host"] = e2e["host"]
        n_ticks = e2e["runs"][0]["metrics"]["ticks"]
        tick_s = [a["wall_s"] - b["wall_s"] for a, b in zip(e2e["runs"], setup["runs"])]
        if e2e_metrics:
            result["metrics"].update({
                "ticks_per_s": statistics.median(n_ticks / t if t > 0 else math.nan
                                                 for t in tick_s),
                "run_s": statistics.median(x["wall_s"] for x in e2e["runs"]),
                "setup_s": statistics.median(x["wall_s"] for x in setup["runs"]),
                "peak_rss_mb": statistics.median(x["peak_rss_mb"] for x in e2e["runs"]),
            })
        if traced:
            trace_out = os.path.join(BUILD, "trace_%s.json" % workload)
            t = r.run("traced", lambda out: r.check_replay(out, e2e), "--trace-out", trace_out)
            if t is not None:
                layers = dict(t["layers"])
                # Same seed, so the same ticks: traced vs untraced ms/tick.
                e2e_ms = tick_s[0] * 1e3 / n_ticks
                layers["trace.overhead_pct"] = ((layers["tick.mean_ms"] / e2e_ms - 1.0) * 100.0
                                                if e2e_ms > 0 else math.nan)
                result["metrics"].update(layers)
                result["trace"] = os.path.relpath(trace_out, REPO)
    result.update(attempted=r.attempted, failed=r.failed, checks=r.checks,
                  error_rate=r.failed / max(r.attempted, 1))
    return result


def select_metrics(values, entries):
    """The BENCHMARK.json metrics in `entries`, as {name: {value, unit}}."""
    return {e["name"]: {"value": values[e["name"]], "unit": e["unit"]}
            for e in entries if e["name"] in values}


def print_metrics(workload, metrics):
    for name, m in metrics.items():
        print("%-18s %-26s %-14.6g %s" % (workload, name, m["value"], m["unit"]))


def host_info(binary_host):
    sha = "unknown"
    if os.path.isdir(os.path.join(REPO, ".git")):
        p = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True)
        sha = p.stdout.strip() or sha
    info = {"nproc": nproc(), "git_sha": sha}
    info.update(binary_host)
    return info


def cmd_single(args, spec):
    traced = args.trace == 1
    # The traced run needs one e2e and one setup call for its cross-check and
    # its overhead estimate, not a measured window of them.
    res = measure(args.workload[0], args.seed, 0 if traced else args.seconds, not traced, traced,
                  reps=1 if traced else MIN_REPS)
    metrics = select_metrics(res["metrics"], spec["per_layer" if traced else "end_to_end"])
    print_metrics(args.workload[0], metrics)
    ok = res["failed"] == 0
    if ok:
        expected = len(spec["per_layer" if traced else "end_to_end"])
        ok = len(metrics) == expected and all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": ok, "attempted": res["attempted"],
                      "failed": res["failed"] if ok else max(res["failed"], 1),
                      "metrics": metrics}))
    return 0 if ok else 1


def cmd_full(args, spec):
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    entries = spec["end_to_end"] + spec["per_layer"]
    passes, host, failed = [], {}, 0
    for i in range(args.passes):
        one = {}
        for w in workloads:
            log("pass %d/%d: %s" % (i + 1, args.passes, w))
            res = measure(w, args.seed, args.seconds, True, True)
            host = host or res["host"]
            failed += res["failed"]
            one[w] = {"metrics": select_metrics(res["metrics"], entries),
                      "error_rate": res["error_rate"], "attempted": res["attempted"],
                      "failed": res["failed"], "checks": res["checks"],
                      "digest": res["digest"], "trace": res.get("trace")}
            print_metrics(w, one[w]["metrics"])
            print("%-18s %-26s %-14.6g %s" % (w, "error_rate", res["error_rate"], "share"))
        passes.append(one)
    out = args.out or os.path.join(BUILD, "bench-results.json")
    with open(out, "w") as f:
        json.dump({"schema": "manet-bench-suite/1", "host": host_info(host), "seed": args.seed,
                   "seconds": args.seconds, "passes": passes}, f, indent=1)
        f.write("\n")
    print("results: %s" % out)
    return 0 if failed == 0 else 1


def compare(parent, change, spec):
    """Rows of (workload, metric, verdict, detail) and whether any is worse."""
    rows, bad = [], False
    if parent.get("seed") != change.get("seed"):
        rows.append(("*", "seed", "unresolved", "seeds differ: outputs are not comparable"))
    for w in sorted(set(parent["passes"][0]) & set(change["passes"][0])):
        pp = [p[w] for p in parent["passes"] if w in p]
        cp = [p[w] for p in change["passes"] if w in p]
        for e in spec["end_to_end"]:
            name, bound, higher = e["name"], e["bound"], e["better"] == "higher"
            pv = [p["metrics"][name]["value"] for p in pp if name in p["metrics"]]
            cv = [p["metrics"][name]["value"] for p in cp if name in p["metrics"]]
            if not pv or not cv:
                rows.append((w, name, "unresolved", "missing values"))
                continue
            sign = 1.0 if higher else -1.0
            pm, cm = statistics.median(pv), statistics.median(cv)
            pq = statistics.quantiles(pv, n=4) if len(pv) > 1 else [pm, pm, pm]
            cq = statistics.quantiles(cv, n=4) if len(cv) > 1 else [cm, cm, cm]
            pairs = list(zip(pv, cv))
            wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
            iqr = pq[2] - pq[0]
            gain = sign * (cm - pm) / pm
            all_better = min(sign * c for c in cv) > max(sign * p for p in pv)
            if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > 0 and abs(cm - pm) > iqr:
                verdict = "improved"
            elif iqr / pm > bound and not all_better:
                verdict = "unresolved"
            elif gain < -bound:
                verdict = "worse"
            else:
                verdict = "no worse"
            bad |= verdict == "worse"
            rows.append((w, name, verdict,
                         "parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  wins %d/%d"
                         % (pm, pq[0], pq[2], cm, cq[0], cq[2], wins, len(pairs))))
        pe = max(p["error_rate"] for p in pp)
        ce = max(p["error_rate"] for p in cp)
        worse = ce > pe
        bad |= worse
        rows.append((w, "error_rate", "worse" if worse else "no worse",
                     "parent %.3g  change %.3g" % (pe, ce)))
        pd = {p["digest"] for p in pp}
        cd = {p["digest"] for p in cp}
        changed = pd != cd
        bad |= changed
        rows.append((w, "digest", "changed" if changed else "same",
                     "parent %s  change %s" % (sorted(pd), sorted(cd))))
    return rows, bad


def cmd_compare(paths, spec):
    try:
        with open(paths[0]) as f:
            parent = json.load(f)
        with open(paths[1]) as f:
            change = json.load(f)
        rows, bad = compare(parent, change, spec)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
        log("cannot compare %s and %s: %s" % (paths[0], paths[1], e))
        return 2
    for row in rows:
        print("%-18s %-12s %-10s %s" % row)
    return 1 if bad else 0


def cmd_smoke(spec):
    start = time.monotonic()
    failures = []
    entries = spec["end_to_end"] + spec["per_layer"]
    results = {}
    for w in [w["name"] for w in spec["workloads"]]:
        res = measure(w, DEFAULT_SEED, 0, True, True, reps=1, scale=64, ticks=3)
        metrics = select_metrics(res["metrics"], entries)
        print_metrics(w, metrics)
        if res["failed"]:
            failures.append("%s: %d failed runs" % (w, res["failed"]))
        missing = [e["name"] for e in entries
                   if metrics.get(e["name"], {}).get("unit") != e["unit"]
                   or not math.isfinite(metrics[e["name"]]["value"])]
        if missing:
            failures.append("%s: metrics missing: %s" % (w, ", ".join(missing)))
        results[w] = {"metrics": metrics, "error_rate": res["error_rate"], "digest": res["digest"]}

    # Exit-code contract: 2 for a usage error, 1 for a failed check, 0 for a pass.
    with tempfile.TemporaryDirectory(dir=BUILD) as tmp:
        same = os.path.join(tmp, "same.json")
        worse = os.path.join(tmp, "worse.json")
        with open(same, "w") as f:
            json.dump({"seed": DEFAULT_SEED, "passes": [results]}, f)
        slower = json.loads(json.dumps(results))
        for w in slower.values():
            w["metrics"]["run_s"]["value"] *= 2
        with open(worse, "w") as f:
            json.dump({"seed": DEFAULT_SEED, "passes": [slower]}, f)
        script = os.path.abspath(__file__)
        for argv, want in [(["--workload", "no-such-workload", "--trace", "0"], 2),
                           (["compare", same, worse], 1),
                           (["compare", same, same], 0)]:
            p = subprocess.run([sys.executable, script] + argv, stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL)
            if p.returncode != want:
                failures.append("exit code %d, want %d: run.py %s"
                                % (p.returncode, want, " ".join(argv)))
    elapsed = time.monotonic() - start
    for f in failures:
        log("smoke: " + f)
    print("smoke: %s in %.1f s" % ("FAILED" if failures else "ok", elapsed))
    return 1 if failures else 0


def parse_args(argv, spec):
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description="Repository benchmark runner (see README.md).")
    p.add_argument("--workload", action="append", choices=names,
                   help="workload to run (repeatable; default: all in full-pass mode)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"],
                   help="e2e wall time measured per workload at least, s")
    p.add_argument("--trace", type=int, choices=[0, 1],
                   help="single-workload mode: 0 end-to-end metrics, 1 per-layer metrics")
    p.add_argument("--passes", type=int, default=1, help="full passes to run")
    p.add_argument("--out", help="results file of a full pass")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if args.trace is not None and (not args.workload or len(args.workload) != 1):
        p.error("--trace needs exactly one --workload")
    if args.seed < 0 or args.seconds < 0 or args.passes < 1:
        p.error("--seed and --seconds must be >= 0 and --passes >= 1")
    return args


def main(argv):
    with open(SPEC) as f:
        spec = json.load(f)
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            log("usage: run.py compare PARENT.json CHANGE.json")
            return 2
        return cmd_compare(argv[1:], spec)
    args = parse_args(argv, spec)  # exits 2 on a usage error
    if not build():
        return 1
    if args.smoke:
        return cmd_smoke(spec)
    if args.trace is not None:
        return cmd_single(args, spec)
    return cmd_full(args, spec)


if __name__ == "__main__":
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running bench_suite process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    sys.exit(main(sys.argv[1:]))
