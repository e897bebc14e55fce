"""Cold-process benchmark of orbitcalc's unramified, arthur-wf and local-wf.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every invocation of a workload's seeded list
is a fresh `orbitcalc` process (perfbench/child.py, importing ./src),
started one at a time from this process.  A round is a miss pass against an
empty --cache-dir store, then a hit pass over the same list against the
store the miss pass filled.  With --trace 0 the run repeats whole rounds
while the next one still fits in S seconds and prints the end-to-end
metrics; with --trace 1 it runs one plain and one traced round, invocation
by invocation in turn, and prints the per-layer metrics.  Outputs are checked after timing
(perfbench/checks.py).  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

sys.dont_write_bytecode = True  # leave nothing behind in perfbench/

import checks  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
PROGRAM = os.path.join(ROOT, "src", "orbitcalc", "cli.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
RUN_LIMIT_S = 170  # a run must end within 180 s


def clock():
    """CLOCK_MONOTONIC, the clock child.py stamps the end of import with."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    def __init__(self, work, seed, deadline):
        self.work = work
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("ORBITCALC_CACHE", "PYTHONPATH")}
        self.env["PYTHONHASHSEED"] = str(seed % 2**32)
        cores = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cores[seed % len(cores)]})  # children inherit it
        self.last_cal = speed.calibrate()

    def invoke(self, argv, trace=None):
        """One orbitcalc process: wall time, time to import, peak RSS, CPU."""
        report = os.path.join(self.work, "imported")
        out_path = os.path.join(self.work, "stdout")
        err_path = os.path.join(self.work, "stderr")
        if os.path.exists(report):
            os.remove(report)
        cmd = [sys.executable, CHILD, report, trace or "-", "--", *argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = clock()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(0.0, self.deadline - t0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            t1 = clock()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if t1 >= self.deadline:
            raise RuntimeError(f"run exceeded {RUN_LIMIT_S} s at {' '.join(argv)}")
        setup, rss_kb = None, usage.ru_maxrss
        if os.path.exists(report):
            with open(report) as fh:
                rep = json.load(fh)
            setup, rss_kb = rep["imported"] - t0, rep["peak_rss_kb"] or rss_kb
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        before, self.last_cal = self.last_cal, speed.calibrate()
        start_scale, scale = speed.scales(before, self.last_cal)
        setup_ref = None if setup is None else setup * start_scale
        return {"wall": t1 - t0, "setup": setup, "rss_kb": rss_kb,
                "scale": scale, "setup_ref": setup_ref,
                "wall_ref": (t1 - t0 - (setup or 0)) * scale + (setup_ref or 0),
                "cpu": usage.ru_utime + usage.ru_stime, "rc": proc.returncode,
                "stdout": stdout, "stderr": stderr[-2000:]}

    def round(self, specs, lanes=(False,)):
        """Miss pass against a fresh empty store, then the hit pass; one
        store and one result per lane (True = traced).  The lanes run each
        invocation back to back, so drifts in machine speed hit them alike."""
        stores = [tempfile.mkdtemp(prefix="store-", dir=self.work) for _ in lanes]
        results = [{"miss": [], "hit": []} for _ in lanes]
        for name in ("miss", "hit"):
            for spec in specs:
                for traced, store, passes in zip(lanes, stores, results):
                    prefix = os.path.join(self.work, "trace") if traced else None
                    res = self.invoke(spec["argv"] + ["--cache-dir", store], prefix)
                    if traced:
                        res["layers"] = tracer.aggregate(prefix)
                    passes[name].append(res)
        for store in stores:
            shutil.rmtree(store)
        return results


def write_inputs(specs, work):
    for i, spec in enumerate(specs):
        if "data" in spec:
            path = os.path.join(work, f"input-{i}.json")
            with open(path, "w") as fh:
                json.dump(spec["data"], fh)
            spec["argv"] += ["--data", path]


def verify(command, specs, rounds):
    """Returns (attempted, failed, problems).  The first round's miss pass
    is checked; every other pass must print the same bytes."""
    def differs(out, ref):
        return out != ref

    attempted = failed = 0
    problems = []
    reference = [r["stdout"] if r["rc"] == 0 else None for r in rounds[0]["miss"]]
    for passes in rounds:
        for name in ("miss", "hit"):
            for spec, ref, res in zip(specs, reference, passes[name]):
                attempted += 1
                if res["rc"] != 0:
                    failed += 1
                    if spec.get("kind") != "fault":
                        problems.append(f"unexpected failure: {' '.join(spec['argv'])}: "
                                        f"{res['stderr'][-300:]!r}")
                elif ref is not None and differs(res["stdout"], ref):
                    problems.append(f"{name} output differs: {' '.join(spec['argv'])}")
    samples = []
    for spec, ref in zip(specs, reference):
        if ref is None:
            continue
        try:
            out = json.loads(ref)
            checks.run_checks(spec, out)
        except (ValueError, checks.CheckError) as exc:
            problems.append(f"{' '.join(spec['argv'])}: {exc}")
            continue
        samples.append((spec, out))
    missed = checks.self_test(command, samples)
    ref = next((r for r in reference if r is not None), None)
    if ref is not None and not differs(bytes([ref[0] ^ 1]) + ref[1:], ref):
        missed.append("byte identity")
    problems += [f"self-test: {name} accepted a damaged output" for name in missed]
    return attempted, failed, problems


def end_to_end(specs, rounds):
    """Pass totals use each invocation's median over the rounds.  Times are
    at the reference speed (speed.py)."""
    every = [res for r in rounds for name in ("miss", "hit") for res in r[name]]

    def pass_total(name):
        return sum(statistics.median(r[name][i]["wall_ref"] for r in rounds)
                   for i in range(len(specs)))

    raw = {name: sum(res["wall"] for res in rounds[0][name]) for name in ("miss", "hit")}
    print(f"unscaled first round: miss {raw['miss']:.3f} s, hit {raw['hit']:.3f} s; "
          f"median compute speed {statistics.median(res['scale'] for res in every):.4f}",
          file=sys.stderr)
    return {
        "miss_s": (pass_total("miss"), "s"),
        "hit_s": (pass_total("hit"), "s"),
        "setup_s": (statistics.median(res["setup_ref"] for res in every
                                      if res["setup_ref"] is not None), "s"),
        "peak_rss_mb": (max(res["rss_kb"] for res in every) / 1024, "MB"),
    }


LAYER_UNITS = {"_s": "s", "_pct": "%", "_ratio": "ratio", "_bytes": "bytes"}


def per_layer(plain, traced):
    totals = {}
    for name in ("miss", "hit"):
        for res in traced[name]:
            for key, value in res["layers"].items():
                if key.endswith("_s"):
                    value *= res["scale"]
                totals[key] = totals.get(key, 0) + value
    tests = totals["balacarter.equiv_tests"]
    totals["balacarter.equiv_hit_ratio"] = totals["balacarter.equiv_hits"] / tests if tests else 0.0
    totals["cli.stdout_bytes"] = sum(len(res["stdout"]) for name in ("miss", "hit")
                                     for res in traced[name])
    plain_all = plain["miss"] + plain["hit"]
    totals["proc.cpu_s"] = sum(res["cpu"] * res["scale"] for res in plain_all)
    totals["proc.wait_s"] = sum((res["wall"] - res["cpu"]) * res["scale"] for res in plain_all)
    totals["proc.speed_ratio"] = statistics.median(res["scale"] for res in plain_all)
    untraced = sum(res["wall_ref"] for res in plain["miss"])
    traced_s = sum(res["wall_ref"] for res in traced["miss"])
    totals["trace.untraced_miss_s"] = untraced
    totals["trace.traced_miss_s"] = traced_s
    totals["trace.overhead_pct"] = 100 * (traced_s / untraced - 1)
    out = {}
    for key in sorted(totals):
        unit = next((u for suffix, u in LAYER_UNITS.items() if key.endswith(suffix)), "count")
        out[key] = (totals[key], unit)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = clock()
    for path in (PROGRAM, checks.GOLDEN):
        if not os.path.isfile(path):
            print(f"error: {path} not found; run from an orbitcalc checkout",
                  file=sys.stderr)
            return 2
    specs = WORKLOADS[args.workload](random.Random(args.seed))
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        runner = Runner(work, args.seed, start + RUN_LIMIT_S)
        write_inputs(specs, work)
        runner.invoke(["--help"])  # untimed: compile bytecode, warm the file cache
        rounds = []
        if args.trace:
            rounds = runner.round(specs, lanes=(False, True))
            metrics = per_layer(*rounds)
        else:
            begin = clock()
            while True:
                t = clock()
                rounds += runner.round(specs)
                took = clock() - t
                if clock() - begin + took > args.seconds:
                    break
            metrics = end_to_end(specs, rounds)
        attempted, failed, problems = verify(specs[0]["command"], specs, rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    kind = "plain and traced" if args.trace else "plain"
    print(f"{args.workload}: {len(rounds)} {kind} round(s) of {len(specs)} invocations x 2 passes, "
          f"{time.clock_gettime(time.CLOCK_MONOTONIC) - start:.1f} s", file=sys.stderr)
    correct = not any(not p.startswith("unexpected failure") for p in problems)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
