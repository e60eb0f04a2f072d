"""kmslab benchmark.

    python3 bench/run.py --workload {spectrum,evolve,lab,all} --seed N \
        --seconds S --trace {0,1}

Each run starts one fresh workload process (child.py) that calls
``kmslab.cli.main`` in-process, one invocation at a time, with the
BLAS/OpenMP pools pinned before numpy loads.  With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it runs an untraced and then a
traced workload process and reports the per-layer metrics and the tracing
overhead.  Every invocation's output is checked (checks.py).  Human-readable
lines come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record of
a run goes to ``bench/.runs/<workload>-seed<N>-trace<T>/result.json``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import DEFAULT_SEED, check_call, parse_summary
from tracing import layer_metrics
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / ".runs"
REFERENCE = BENCH / "reference.json"
SETUP_CHILDREN = 3     # set-up-only processes per untraced run
DEADLINE_S = 170.0     # per workload; a run must end within 180 s
MAX_THREADS = 2


class BenchError(Exception):
    pass


def unit(name):
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("s_per_call"):
        return "s/call"
    if name.endswith("s_per_step"):
        return "s/step"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "1"
    return "count"


def _child_env(threads):
    env = {k: v for k, v in os.environ.items() if not k.startswith("KMSLAB_")}
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(threads)
    return env


def _spawn(tag, child_args, run_dir, env, deadline):
    """Run child.py to completion; its record, set-up time and rusage."""
    out = run_dir / tag
    out.mkdir()
    cmd = [sys.executable, str(BENCH / "child.py"), "--out", str(out),
           "--src", str(SRC)] + child_args
    with open(out / "child.log", "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, cwd=out, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            while True:
                pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    raise BenchError("%s still running at the deadline" % tag)
                time.sleep(0.02)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError("%s exited with code %d; see %s"
                         % (tag, proc.returncode, out / "child.log"))
    with open(out / "child.json") as fh:
        record = json.load(fh)
    record["setup_s"] = record["t_ready"] - t_spawn
    record["cpu_s_total"] = ru.ru_utime + ru.ru_stime
    record["peak_rss_mb"] = ru.ru_maxrss * 1024 / 1e6
    return record


def _pass_wall(record):
    """One pass's wall time: the sum of each invocation's median over the
    passes, so that a stall in one pass is not counted."""
    return sum(statistics.median(c["end"] - c["start"] for c in calls)
               for calls in zip(*record["passes"]))


def _evaluate(records, reference):
    """Check every invocation, and compare those run at the CLI's default
    seed with ``reference`` ({label: summary}) unless it is None."""
    attempted, failed, problems = 0, 0, []
    for record in records:
        for k, calls in enumerate(record["passes"]):
            for call in calls:
                attempted += 1
                ref = (None if reference is None
                       or call["seed"] != DEFAULT_SEED
                       else parse_summary(reference[call["label"]]))
                found = check_call(call, ref)
                if found:
                    failed += 1
                    problems += ["pass %d %s: %s" % (k, call["label"], p)
                                 for p in found]
    return attempted, failed, problems


def run_workload(workload, seed, seconds, trace, write_reference=False):
    if not (SRC / "kmslab" / "__init__.py").is_file():
        raise BenchError("no kmslab sources under %s" % SRC)
    threads = min(MAX_THREADS, len(os.sched_getaffinity(0)))
    env = _child_env(threads)
    deadline = time.monotonic() + DEADLINE_S
    run_dir = RUNS / ("%s-seed%d-trace%d" % (workload, seed, trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]

    if trace:
        plain = _spawn("untraced", args, run_dir, env, deadline)
        traced = _spawn("traced", args + ["--trace"], run_dir, env, deadline)
        records = [plain, traced]
        metrics = layer_metrics(traced["spans"], len(traced["passes"]))
        metrics["trace.wall_s"] = _pass_wall(traced)
        metrics["trace.overhead_s"] = _pass_wall(traced) - _pass_wall(plain)
    else:
        setups = [_spawn("setup%d" % i, args + ["--setup-only"], run_dir,
                         env, deadline)["setup_s"]
                  for i in range(SETUP_CHILDREN)]
        main = _spawn("workload", args, run_dir, env, deadline)
        records = [main]
        metrics = {
            "wall_s": _pass_wall(main),
            "cpu_s": ((main["cpu_s_total"] - main["cpu_ready"])
                      / len(main["passes"])),
            "peak_rss_mb": main["peak_rss_mb"],
            "setup_s": statistics.median(setups + [main["setup_s"]]),
        }

    reference = None
    if not write_reference:
        with open(REFERENCE) as fh:
            reference = json.load(fh)[workload]
    attempted, failed, problems = _evaluate(records, reference)
    if write_reference:
        if trace or seed != DEFAULT_SEED or failed:
            raise BenchError("reference needs a clean --trace 0 run at seed %d"
                             % DEFAULT_SEED)
        stored = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        stored[workload] = {
            call["label"]: " ".join("%s=%s" % kv
                                    for kv in parse_summary(call["stdout"]))
            for call in records[0]["passes"][0]}
        REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")

    versions = records[0]["versions"]
    result = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "passes": len(records[-1]["passes"]),
        "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": metrics,
        "environment": dict(
            versions, nproc=os.cpu_count(),
            affinity=len(os.sched_getaffinity(0)),
            mem_gb=os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 1e9,
            threads=threads, kmslab_file=records[0]["kmslab_file"]),
        "invocations": [
            {"child": i, "pass": k, "label": c["label"],
             "wall_s": c["end"] - c["start"], "exit_code": c["exit_code"]}
            for i, record in enumerate(records)
            for k, calls in enumerate(record["passes"]) for c in calls],
    }
    with open(run_dir / "result.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def _print(result):
    env = result["environment"]
    print("workload=%s seed=%d trace=%d passes=%d"
          % (result["workload"], result["seed"], result["trace"],
             result["passes"]))
    print("  environment: " + " ".join("%s=%s" % kv for kv in sorted(env.items())))
    rows = dict(result["metrics"])
    if not result["trace"]:
        rows["fail_ratio"] = result["failed"] / result["attempted"]
    for name, val in rows.items():
        print("  %-32s %14.6g %s" % (name, val, unit(name)))
    for problem in result["problems"]:
        print("  FAILED " + problem)


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Run one kmslab benchmark workload (or all of them).")
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="run whole passes until this much time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="record this run's summaries in reference.json")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds,
                                        args.trace, args.write_reference))
            _print(results[-1])
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {"%s.%s" % (r["workload"], k): v
                   for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
