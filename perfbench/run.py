"""The hopfqt benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Runs from the root of a checkout.  One run starts one pass after another
(``jobs.py``: a fresh interpreter that sets up the workload's inputs and runs
its fixed job list once), one at a time, until ``--seconds`` would be
exceeded, and at least ``MIN_PASSES`` of them.  Each end-to-end metric is the
median over the passes.  With ``--trace 1`` one traced pass follows, and the
per-layer metrics come from it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
records the environment, the per-pass figures and any failed job.  The exit
code is 0 when a result was printed, also if some job failed its check; it is
not 0, and nothing is printed on standard output, when a pass could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from jobs import SIZES, WORKLOADS  # noqa: E402

MIN_PASSES = 3
PASS_TIMEOUT_S = 120

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


class PassFailed(RuntimeError):
    pass


def run_pass(workload, seed, trace, size):
    """One pass in a child interpreter; its JSON result line."""
    env = {k: v for k, v in os.environ.items() if k != "HOPFQT_THREADS"}
    env["PYTHONHASHSEED"] = "0"     # the same set and dict orders every pass
    cmd = [sys.executable, str(HERE / "jobs.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--size", size]
    load_before = os.getloadavg()[0]
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    duration = time.monotonic() - spawned_at
    if proc.returncode != 0:
        raise PassFailed(f"pass exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise PassFailed(f"pass printed no result: {exc}\n{proc.stderr}")
    res.update(duration_s=duration, load_before=load_before,
               load_after=os.getloadavg()[0])
    return res


def git_commit():
    """The commit of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment():
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "git_commit": git_commit(),
            # passes run with it unset; this is the caller's value
            "HOPFQT_THREADS": os.environ.get("HOPFQT_THREADS"),
            "src_lines": src_lines}


def main(argv=None):
    ap = argparse.ArgumentParser(description="the hopfqt benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=SIZES, default="full",
                    help="smoke: tiny job lists for the self-test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hopfqt").is_dir():
        print(f"perfbench: no hopfqt sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    env = environment()
    env["load_before"] = os.getloadavg()
    passes = []
    start = time.monotonic()
    try:
        while True:
            passes.append(run_pass(args.workload, args.seed, False, args.size))
            typical = statistics.median(p["duration_s"] for p in passes)
            elapsed = time.monotonic() - start
            if len(passes) >= MIN_PASSES and elapsed + typical > args.seconds:
                break
        traced = (run_pass(args.workload, args.seed, True, args.size)
                  if args.trace else None)
    except (PassFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    env["load_after"] = os.getloadavg()

    every = passes + ([traced] if traced else [])
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    if traced:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in traced["per_layer"].items()}
        untraced = statistics.median(p["wall_s"] for p in passes)
        metrics["trace.overhead_s"] = {"value": traced["wall_s"] - untraced,
                                       "unit": "s"}
    else:
        metrics = {name: {"value": statistics.median(p[name] for p in passes),
                          "unit": unit}
                   for name, unit in END_TO_END.items()}

    keep = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb", "duration_s",
            "load_before", "load_after", "attempted", "failed")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "env": env,
        "fail_ratio": failed / attempted,
        "failures": [f for p in every for f in p["failures"]],
        "passes": [{k: p[k] for k in keep} for p in passes],
        "traced_pass": ({k: traced[k] for k in keep + ("spans_file",)}
                        if traced else None),
    }))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
