"""Workloads of the hopfqt benchmark: inputs, job lists and result checks.

Run as a script, this file is one pass: a fresh interpreter that imports
hopfqt from ``src/``, sets up the inputs of one workload, runs its job list
once through the public API and prints one JSON line with the timings and the
outcome of checking every output against ``pins.json``.  ``run.py`` starts
one pass after another.  A fresh interpreter per pass is deliberate: CLI users
pay for the import and for filling hopfqt's module-level caches on every call.

    python3 perfbench/jobs.py --workload groups --seed 1 --trace 0 \
        --spawned-at <time.monotonic() of the caller>
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import random
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Callable, NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"
TRACE_DIR = ROOT / ".perfbench_out"
PINS = HERE / "pins.json"

WORKLOADS = ("reproduce-73", "twisted-37", "groups", "verify-dumps")
SIZES = ("full", "smoke")


class Job(NamedTuple):
    name: str                  # what ran; may name a seeded mutation site
    pin: str                   # key of the expected result in pins.json
    run: Callable[[], dict]    # runs the job, returns the observed result


def import_hopfqt():
    """The hopfqt modules from this checkout's ``src/``, never an installed
    copy."""
    src = ROOT / "src"
    if not (src / "hopfqt" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hopfqt sources under {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("hopfqt")
    if Path(pkg.__file__).resolve().parent != src / "hopfqt":
        raise SystemExit(f"perfbench: imported hopfqt from {pkg.__file__}")
    mods = {"hopfqt": pkg}
    for name in ("exactfield", "grouptool", "bismash", "hopfcore", "qtlab",
                 "cli"):
        mods[name] = importlib.import_module(f"hopfqt.{name}")
    return mods


# ---------------------------------------------------------------------------
# jobs; every call goes through a module attribute so that tracing sees it


def _strip_elapsed(report):
    return "".join(line for line in report.splitlines(keepends=True)
                   if not line.lstrip().startswith('"elapsed_ms":'))


def _cli(hq, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = hq["cli"].main(argv)
    return rc, out.getvalue()


def reproduce_job(hq, p, q):
    def run():
        rc, text = _cli(hq, ["reproduce", "--p", str(p), "--q", str(q)])
        return {"exit": rc, "report": _strip_elapsed(text)}
    name = f"reproduce --p {p} --q {q}"
    return Job(name, name, run)


def qt_B_job(hq, p, q, m, lam):
    def run():
        res = hq["qtlab"].qt_B_enumerate(p, q, m, lam)
        return {"survivors": len(res),
                "oracle_equivalent": res.oracle_equivalent}
    name = f"qt_B_enumerate({p},{q},{m},{lam})"
    return Job(name, name, run)


def no_qt_B_dual_job(hq, p, q, m, lam):
    def run():
        rep = hq["qtlab"].no_qt_B_dual(p, q, m, lam)
        return {"branch": rep.branch, "nullspace_dim": rep.nullspace_dim,
                "candidates_checked": rep.candidates_checked,
                "no_qt_on_support": rep.no_qt_on_support}
    name = f"no_qt_B_dual({p},{q},{m},{lam})"
    return Job(name, name, run)


def group_job(hq, family, params):
    def run():
        G = hq["grouptool"].build_group(family, **params)
        res = hq["qtlab"].qt_group_algebra_enumerate(G)
        return {"order": G.order, "survivors": len(res),
                "oracle_equivalent": res.oracle_equivalent,
                "trivial_present": any(w.is_trivial() for w, _ in res)}
    args = ",".join(f"{k}={v}" for k, v in params.items())
    name = f"{family}({args})"
    return Job(name, name, run)


def verify_job(hq, path, name, pin, mutant):
    def run():
        rc, text = _cli(hq, ["verify", "--in", str(path)])
        doc = json.loads(text)
        failed = [a["name"] for a in doc["axioms"] if not a["passed"]]
        if mutant:
            return {"exit": rc, "rejected": bool(failed)}
        return {"exit": rc, "failed_axioms": failed, "dim": doc["dim"],
                "conductor": doc["conductor"], "trace_S2": doc["trace_S2"],
                "S2_is_id": doc["S2_is_id"], "semisimple": doc["semisimple"]}
    return Job(name, pin, run)


# ---------------------------------------------------------------------------
# workloads


def _dump_algebras(hq, size):
    """(label, algebra, generic-mutant wanted) of the verify-dumps inputs."""
    bm, gt, hc = hq["bismash"], hq["grouptool"], hq["hopfcore"]
    out = [("A(7,3,l=1)", bm.build_bismash(bm.make_A(7, 3, 2, 1)), True)]
    if size == "full":
        G = gt.build_group("gamma5", p=7, q=3, m=2)
        out.append(("gamma5(7,3)", hc.group_algebra(G, 1), False))
        dual = bm.dualize_trivial_action(bm.make_B(3, 7, 2, 0))
        out.append(("Bdual(3,7,lam=0)", bm.build_bismash(dual), False))
    return out


def _verify_dumps_jobs(hq, size, rng, workdir):
    """Write a clean dump of each algebra and seeded single-constant mutants
    of it: a zeta-scaled constant keeps the dump monomial (the vectorized
    reject path), a doubled one does not (the generic sweep, only on a dim-63
    dump because it is cubic in the dimension)."""
    hc = hq["hopfcore"]
    zeta = hq["exactfield"].zeta
    jobs = []
    for label, H, generic in _dump_algebras(hq, size):
        kinds = ([("zeta-mutant", zeta(H.conductor))]
                 if H.conductor > 1 else [])
        if generic and size == "full":
            kinds.append(("x2-mutant", 2))
        variants = [(f"verify {label}", f"verify {label}", H)]
        for kind, factor in kinds:
            i = rng.randrange(H.dim)
            j = rng.choice(sorted(H.mult[i]))
            k = H.mult[i][j][0][0]
            pin = f"verify {label} {kind}"
            variants.append((f"{pin} MUL {i} {j} {k}", pin,
                             H.with_scaled_mult_entry(i, j, k, factor)))
        for name, pin, alg in variants:
            path = workdir / f"{len(jobs)}.dump"
            path.write_text(hc.dump_structure(alg))
            jobs.append(verify_job(hq, path, name, pin, mutant=alg is not H))
    return jobs


def make_jobs(hq, workload, size, seed, workdir):
    """The job list of one pass.  The seed picks the mutation sites and the
    job order; the expected results do not depend on it."""
    rng = random.Random(seed)
    smoke = size == "smoke"
    if workload == "reproduce-73":
        jobs = [reproduce_job(hq, 3, 5) if smoke else reproduce_job(hq, 7, 3)]
    elif workload == "twisted-37":
        jobs = [no_qt_B_dual_job(hq, 3, 7, 2, 1)]
        if not smoke:
            jobs += [qt_B_job(hq, 3, 7, 2, 1), no_qt_B_dual_job(hq, 3, 7, 2, 0)]
    elif workload == "groups":
        jobs = [group_job(hq, "beta7", {"p": 3, "q": 5})]
        if not smoke:
            jobs += [group_job(hq, "beta6", {"p": 3, "q": 7, "m": 2, "n": 4}),
                     group_job(hq, "gamma4", {"p": 19, "q": 3, "m": 4})]
    elif workload == "verify-dumps":
        jobs = _verify_dumps_jobs(hq, size, rng, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# one pass


def load_pins(path=PINS):
    with open(path) as fh:
        return json.load(fh)


def expected(pins, job):
    """The pinned result of ``job``; a ``<key>_golden`` entry names a file
    whose bytes are the expected value of ``<key>``."""
    out = {}
    for key, val in pins[job.pin].items():
        if key.endswith("_golden"):
            out[key[:-len("_golden")]] = (HERE / val).read_text()
        else:
            out[key] = val
    return out


def run_pass(jobs, pins, tracer=None):
    """Run every job once, timing the whole list, then check each output."""
    observed = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for job in jobs:
        try:
            out = tracer.job_span(job.name, job.run) if tracer else job.run()
        except Exception:  # a crashing job is a failed job, not a dead pass
            out = {"error": traceback.format_exc(limit=3)}
        observed.append(out)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    failures = []
    for job, out in zip(jobs, observed):
        want = expected(pins, job) if job.pin in pins else None
        if out != want:
            diff = sorted(k for k in set(out) | set(want or {})
                          if out.get(k) != (want or {}).get(k))
            failures.append({"job": job.name, "differs_in": diff,
                             "error": out.get("error")})
    return {"wall_s": wall, "cpu_s": cpu, "attempted": len(jobs),
            "failed": len(failures), "failures": failures}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=SIZES, default="full")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() when the caller started this pass")
    args = ap.parse_args(argv)

    hq = import_hopfqt()
    pins = load_pins()
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        jobs = make_jobs(hq, args.workload, args.size, args.seed, workdir)
        setup_s = time.monotonic() - args.spawned_at
        if args.trace:
            from tracer import Tracer
            with Tracer(hq) as tracer:
                result = run_pass(jobs, pins, tracer)
            result["per_layer"] = tracer.layer_metrics()
            TRACE_DIR.mkdir(exist_ok=True)
            spans = TRACE_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.write(spans)
            result["spans_file"] = str(spans.relative_to(ROOT))
        else:
            result = run_pass(jobs, pins)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
