"""Closed-loop benchmark of finlat: one process, one job at a time.

    python3 perfbench/run.py --workload lattice-congruence --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55

Run from the repository root.  The workload's fixed job list runs in
passes until --seconds of pass time has been spent, and each job's time
is its median over the passes.  Set-up (a fresh import of finlat from
src/, input generation and input files) is repeated before each pass, and
at least SETUP_REPS times, and its median reported as setup_s; each pass
runs on the set-up just before it.  Every output of every pass is
checked (outside the timed region); wrong outputs are listed with their
job and make the exit code 1.  With --workload all, each workload's
timed run is a child process of its own, one after the other.

With --trace 1 the run instead makes one traced pass of every workload
and takes each per-layer metric from the jobs of the part (workloads.PARTS)
that exercises that layer; the asked-for workload also gets an untraced pass,
after a warm-up pass, and trace.overhead_ratio is traced over untraced
wall time.  With --workload all, every workload gets its overhead ratio
and each layer metric is printed under its own workload only.  The spans
are written to .perfbench_out/.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (with --workload all, one such object per workload).  Lines
before it print every metric by name with its unit, including error_rate,
which the JSON leaves out because it is 0 on a correct run.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans as tr  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPS = 7
OUT_DIR = ROOT / ".perfbench_out"
MODULES = ("lattice", "ranked", "eqrel", "reps", "congruence", "ramsey", "diversity", "cli", "errors")


class SetupError(Exception):
    """The checkout does not hold what the benchmark needs."""


def load_finlat() -> SimpleNamespace:
    """Import finlat afresh from ROOT/src, dropping any earlier import."""
    src = ROOT / "src"
    if not (src / "finlat" / "__init__.py").is_file() or not (ROOT / "tests" / "data").is_dir():
        raise SetupError(f"run from the repository root: {src / 'finlat'} or tests/data is missing")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "finlat" or m.startswith("finlat.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("finlat")
    if Path(pkg.__file__).resolve().parent != (src / "finlat").resolve():
        raise SetupError(f"finlat imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"finlat.{m}") for m in MODULES})


def setup(workload: str, seed: int, expected: dict, tiny: bool):
    """One set-up: returns (seconds, finlat modules, job list)."""
    workdir = OUT_DIR / f"inputs-{workload}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)  # files a killed run left behind
    t0 = perf_counter()
    fin = load_finlat()
    ctx = wl.Ctx(fin, random.Random(f"{workload}:{seed}"), expected, ROOT / "tests" / "data", workdir, tiny)
    jobs = wl.build(workload, ctx)
    return perf_counter() - t0, fin, jobs


def run_pass(jobs, lib, tracer=None):
    times, outputs = [], []
    start = perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.id
        t0 = perf_counter()
        try:
            out = job.run(lib)
        except Exception as exc:  # a library failure is a wrong output, not a crash
            out = exc
        times.append(perf_counter() - t0)
        outputs.append(out)
    return perf_counter() - start, times, outputs


def check_pass(workload, jobs, outputs) -> list[tuple[str, str]]:
    """(workload/job id, reason) for every wrong output."""
    wrong = []
    for job, out in zip(jobs, outputs):
        if isinstance(out, Exception):
            reason = f"unexpected {type(out).__name__}: {out}"
        else:
            try:
                reason = job.check(out)
            except Exception as exc:  # a malformed output can break its check
                reason = f"output could not be checked: {type(exc).__name__}: {exc}"
        if reason:
            wrong.append((f"{workload}/{job.id}", reason))
    return wrong


def geomean_ms(times) -> float:
    return 1000.0 * math.exp(statistics.fmean(math.log(max(t, 1e-9)) for t in times))


def timed_run(workload, seed, seconds, expected, tiny):
    def timed_setup():
        gc.collect()
        took, fin, jobs = setup(workload, seed, expected, tiny)
        setups.append(took)
        return fin, jobs

    # a set-up before each pass spreads the set-ups over the run, so that a
    # slow moment of a shared machine moves a few of them rather than all;
    # each pass runs on the set-up just before it, the finlat in sys.modules
    setups = []
    passes, wrong = [], []
    while sum(map(sum, passes)) < seconds or not passes:
        fin, jobs = timed_setup()
        gc.collect()
        _, times, outputs = run_pass(jobs, wl.make_lib(fin))
        passes.append(times)
        wrong += check_pass(workload, jobs, outputs)
    while len(setups) < SETUP_REPS:
        timed_setup()
    edge = [i for i, job in enumerate(jobs) if job.edge]
    attempted = len(jobs) * len(passes)
    # each job's median over the passes: a slow moment on a shared machine
    # then moves one sample of each job it hits, not the whole pass
    per_job = [statistics.median(ts) for ts in zip(*passes)]
    metrics = {
        "jobs_per_s": (len(jobs) / sum(per_job), "1/s"),
        "job_geomean_ms": (geomean_ms(per_job), "ms"),
        "budget_edge_s": (sum(per_job[i] for i in edge), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "error_rate": (len(wrong) / attempted, "ratio"),
    }
    info = f"{len(jobs)} jobs ({len(edge)} at a budget edge), {len(passes)} passes"
    return metrics, attempted, wrong, info


def traced_pass(fin, jobs, tracer):
    lib = wl.make_lib(fin, tracer.wrap)
    with tracer.patched(fin):
        return run_pass(jobs, lib, tracer)


def traced_run(workloads, seed, expected, tiny) -> dict:
    """One traced pass of every workload, each layer's metrics taken from
    the jobs of its home part; each of `workloads` also gets an untraced
    reference pass, after a warm-up pass, for trace.overhead_ratio.
    Returns {workload: (layer metrics, attempted, wrong)}."""
    home, spans, out = {}, {}, {}
    for w in wl.WORKLOADS:
        _, fin, jobs = setup(w, seed, expected, tiny)
        wrong, passes = [], 1
        if w in workloads:
            for _ in range(2):  # the first pass warms up, the second is the untraced reference
                gc.collect()
                plain_wall, _, outputs = run_pass(jobs, wl.make_lib(fin))
                wrong += check_pass(w, jobs, outputs)
            passes += 2
        tracer = tr.Tracer()
        gc.collect()
        traced_wall, _, outputs = traced_pass(fin, jobs, tracer)
        wrong += check_pass(w, jobs, outputs)
        for part in wl.WORKLOADS[w]:
            own = [i for i, job in enumerate(jobs) if job.part == part]
            home[part] = tr.LayerSums(tracer.spans, [jobs[i] for i in own], [outputs[i] for i in own])
        spans[w] = tracer.spans
        ratio = {"trace.overhead_ratio": (traced_wall / plain_wall, "ratio")} if w in workloads else {}
        out[w] = (ratio, passes * len(jobs), wrong)
    layers = tr.layer_metrics(home)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{'all' if len(workloads) > 1 else workloads[0]}-{seed}.json"
    path.write_text(json.dumps(spans))
    print(f"# spans of {', '.join(wl.WORKLOADS)} written to {path.relative_to(ROOT)}")
    if len(workloads) == 1:  # every layer metric, with every pass it took
        (w,) = workloads
        return {w: ({**layers, **out[w][0]}, sum(o[1] for o in out.values()),
                    [x for o in out.values() for x in o[2]])}
    return {w: ({**{n: v for n, v in layers.items() if tr.LAYER_HOME[n.split(".")[0]] in wl.WORKLOADS[w]}, **ratio},
                attempted, wrong) for w, (ratio, attempted, wrong) in out.items()}


def timed_children(seed, seconds, tiny) -> dict | int:
    """Each workload's timed run in a child process of its own, one at a
    time, so that peak_rss_mb and setup_s are the workload's own; returns
    the results, or the exit code of a child that could not run."""
    results = {}
    for workload in wl.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0", *(["--tiny"] if tiny else [])]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 2
        print("\n".join(lines[:-1]), flush=True)
        results[workload] = json.loads(lines[-1])
    return results


def report(workload, metrics, attempted, wrong, declared) -> dict:
    for job_id, reason in wrong:
        print(f"WRONG {job_id}: {reason}")
        print(f"WRONG {job_id}: {reason}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} {value:.6g} {unit}")
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(wrong),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in declared if name in metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small job lists, for the self-tests")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    expected = json.loads((HERE / "expected.json").read_text())
    workloads = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if args.trace:
            results = {w: report(w, *out, declared)
                       for w, out in traced_run(workloads, args.seed, expected, args.tiny).items()}
        elif args.workload == "all":
            results = timed_children(args.seed, args.seconds, args.tiny)
            if isinstance(results, int):
                return results
        else:
            metrics, attempted, wrong, info = timed_run(args.workload, args.seed, args.seconds, expected, args.tiny)
            print(f"# {args.workload}: {info}")
            results = {args.workload: report(args.workload, metrics, attempted, wrong, declared)}
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        for path in OUT_DIR.glob("inputs-*"):
            shutil.rmtree(path, ignore_errors=True)
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
