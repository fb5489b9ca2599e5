"""Self-tests of the benchmark.

    python3 -m pytest perfbench

They check that the output checks catch wrong answers, that job lists are
a function of the seed, and that a tiny run finishes quickly.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402

EXPECTED = json.loads((HERE / "expected.json").read_text())


def _wrong(workload: str, mutate=None, seed: int = 1) -> tuple[set, int]:
    """Run one tiny pass, with `mutate(name, fn)` wrapping the library calls;
    returns the ids of the jobs with wrong outputs and the job count."""
    _, fin, jobs = run.setup(workload, seed, EXPECTED, tiny=True)
    _, _, outputs = run.run_pass(jobs, wl.make_lib(fin, mutate))
    return {job_id for job_id, _ in run.check_pass(workload, jobs, outputs)}, len(jobs)


def _mutating(target: str, change):
    def wrap(name, fn):
        if name != target:
            return fn
        return lambda *args, **kwargs: change(fn(*args, **kwargs))
    return wrap


def _caught(workload: str, target: str, change, prefix: str) -> None:
    before, n = _wrong(workload)
    after, _ = _wrong(workload, _mutating(target, change))
    added = {job_id for job_id in after - before if job_id.startswith(f"{workload}/{prefix}")}
    assert added, f"no {prefix} job caught the mutation of {target}"
    assert len(after) / n > len(before) / n  # error_rate rises


def test_flipped_verdict_is_caught():
    _caught("cpp-cli", "reps.is_ncpp", lambda v: dataclasses.replace(v, holds=not v.holds), "ncpp:")


def test_wrong_count_is_caught():
    _caught("lattice-congruence", "congruence.congruence_lattice",
            lambda cg: dataclasses.replace(cg, congruences=cg.congruences[:-1]), "cg:")


def test_invalid_witness_is_caught():
    def reverse_witness(verdict):
        if verdict.witness is None:
            return verdict
        bad = dataclasses.replace(verdict.witness, map=verdict.witness.map[::-1])
        return dataclasses.replace(verdict, witness=bad)

    _caught("lattice-congruence", "lattice.is_distributive", reverse_witness, "classify:")


@pytest.mark.xfail(strict=True, reason="finlat's birkhoff_oracle depends on the element numbering; "
                                       "the workloads number its inputs by linear extensions")
def test_birkhoff_oracle_under_any_numbering():
    fin = run.load_finlat()
    rng = random.Random(1)
    for name, up0, dist in wl.COMPOSITES:
        for _ in range(wl.CLASSIFY_COPIES):
            up, pairs = wl._seeded_lattice(rng, up0)
            L = fin.lattice.build_lattice(len(up), pairs)
            assert fin.lattice.birkhoff_oracle(L).distributive == dist, name


def _fingerprint(workload: str, seed: int) -> str:
    _, fin, jobs = run.setup(workload, seed, EXPECTED, tiny=True)
    _, _, outputs = run.run_pass(jobs, wl.make_lib(fin))
    text = repr([(job.id, out) for job, out in zip(jobs, outputs)])
    workdir = run.OUT_DIR / f"inputs-{workload}-{seed}"
    if workdir.exists():
        text = text.replace(str(workdir), "")
        text += "".join(p.read_text() for p in sorted(workdir.iterdir()))
        shutil.rmtree(workdir)
    return hashlib.sha256(text.encode()).hexdigest()


def test_job_lists_follow_the_seed():
    for workload in wl.WORKLOADS:
        assert _fingerprint(workload, 7) == _fingerprint(workload, 7), workload
        assert _fingerprint(workload, 7) != _fingerprint(workload, 8), workload


def test_tiny_run_finishes_in_seconds():
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "3",
                           "--seconds", "0.5", "--tiny"], capture_output=True, text=True, timeout=120)
    assert time.perf_counter() - start < 60
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(results) == set(wl.WORKLOADS)
    for result in results.values():
        assert result["attempted"] > 0
        assert set(result["metrics"]) == {"jobs_per_s", "job_geomean_ms", "budget_edge_s", "setup_s", "peak_rss_mb"}
    assert proc.returncode == (0 if all(r["correct"] for r in results.values()) else 1)


def test_traced_all_prints_each_layer_once():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "3",
                           "--seconds", "0.5", "--trace", "1", "--tiny"], capture_output=True, text=True,
                          timeout=120)
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    layers = [m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]]
    printed = [name for result in results.values() for name in result["metrics"]]
    assert sorted(printed) == sorted(layers + ["trace.overhead_ratio"] * (len(wl.WORKLOADS) - 1))
    for workload, result in results.items():
        assert "trace.overhead_ratio" in result["metrics"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cpp-cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
