"""Spans around the benchmark's calls into finlat, and the per-layer metrics.

A span is (name, start, end, parent, job id), kept in memory and written
out when the run ends.  Spans nest only where a wrapped function calls
another wrapped one (cli.main around library calls), and a span's self
time is its duration minus its direct children's.
"""
from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

# Library functions cli.main reaches through module attributes, wrapped
# during the traced passes.  Functions the library also calls from
# its own inner loops (is_representation, verify_rank_axioms, is_congruence,
# canonical_form_on, from_class_ids, ...) are left out, so that tracing does
# not add a span per inner-loop step.
CLI_REACHES = {
    "lattice": ("standard_lattice", "lattice_from_json", "is_distributive", "birkhoff_oracle",
                "satisfies_distributive_law", "validate_lattice", "lattice_to_json",
                "lattice_to_dot", "equivalenced_from_json", "equivalenced_to_json"),
    "ranked": ("enumerate_ranks", "rank_report"),
    "reps": ("rep_from_json", "verify_pseudo_rep", "rep_to_json", "is_ncpp",
             "cpp_certificate_json", "check_ranked_rep", "family_closure_check"),
    "congruence": ("algebra_from_json", "congruence_lattice", "search_algebra", "algebra_to_json"),
    "ramsey": ("crt2_survey", "pair_function", "find_canonical_subset"),
    "diversity": ("is_reasonable",),
}


# The part (workloads.PARTS) whose jobs each layer's metrics come from
LAYER_HOME = {"lattice": "lattice-classify", "ranked": "lattice-classify", "eqrel": "cpp-decide",
              "reps": "cpp-decide", "congruence": "congruence-closure", "ramsey": "cli-batch",
              "diversity": "cli-batch", "cli": "cli-batch"}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.job = None

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)

        return traced

    @contextmanager
    def patched(self, fin):
        """Wrap the CLI_REACHES attributes of finlat's modules, restoring them after."""
        saved = []
        try:
            for module, names in CLI_REACHES.items():
                mod = getattr(fin, module)
                for name in names:
                    fn = getattr(mod, name)
                    saved.append((mod, name, fn))
                    setattr(mod, name, self.wrap(f"{module}.{name}", fn))
            yield
        finally:
            for mod, name, fn in saved:
                setattr(mod, name, fn)


def self_times(spans) -> list[float]:
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


class LayerSums:
    """Self time per span name and counts per tally key, over the spans and
    outputs of `jobs` in one traced pass."""

    def __init__(self, spans, jobs, outputs):
        self.time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.job_time: dict[tuple[str, str], float] = {}
        ids = {job.id for job in jobs}
        for (name, _, _, _, job), own in zip(spans, self_times(spans)):
            if job not in ids:
                continue
            self.time[name] = self.time.get(name, 0.0) + own
            self.calls[name] = self.calls.get(name, 0) + 1
            self.job_time[name, job] = self.job_time.get((name, job), 0.0) + own
        self.count: dict[str, float] = {}
        self.per_job: dict[str, dict] = {}
        for job, out in zip(jobs, outputs):
            tally = {} if isinstance(out, Exception) else job.tally(out)
            self.per_job[job.id] = tally
            for key, value in tally.items():
                self.count[key] = self.count.get(key, 0) + value

    def t(self, *names: str) -> float:
        return sum(self.time.get(n, 0.0) for n in names)

    def c(self, key: str) -> float:
        return self.count.get(key, 0)


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(home: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each from the traced pass of its home workload."""
    lc, cpp, cg, cli = (home[w] for w in ("lattice-classify", "cpp-decide", "congruence-closure", "cli-batch"))
    build = lc.t("lattice.build_lattice", "lattice.boolean_lattice")
    ncpp = cpp.t("reps.is_ncpp")
    eq_time = cpp.t("eqrel.meet_eq", "eqrel.join_eq", "eqrel.restrict_eq")
    rich = poor = 0.0
    for (name, job), own in cg.job_time.items():
        if name == "congruence.congruence_lattice":
            if cg.per_job.get(job, {}).get("congruence.rich"):
                rich += own
            else:
                poor += own
    searches = cg.calls.get("congruence.search_algebra", 0)
    survey = cli.t("ramsey.crt2_survey")
    m = {
        "lattice.build_s": (build, "s"),
        "lattice.table_cells_per_s": (_rate(lc.c("lattice.cells"), build), "1/s"),
        "lattice.distributive_s": (lc.t("lattice.is_distributive"), "s"),
        "lattice.birkhoff_s": (lc.t("lattice.birkhoff_oracle"), "s"),
        "lattice.law_s": (lc.t("lattice.satisfies_distributive_law"), "s"),
        "lattice.iso_s": (lc.t("lattice.lattice_isomorphism"), "s"),
        "ranked.enumerate_s": (lc.t("ranked.enumerate_ranks"), "s"),
        "ranked.ranks_found": (lc.c("ranked.ranks"), "count"),
        "ranked.yield": (lc.c("ranked.ranks") / max(lc.c("ranked.space"), 1), "ratio"),
        "eqrel.ops": (cpp.c("eqrel.ops"), "count"),
        "eqrel.ops_per_s": (_rate(cpp.c("eqrel.ops"), eq_time), "1/s"),
        "reps.ncpp_s": (ncpp, "s"),
        "reps.ncpp_theta_per_s": (_rate(cpp.c("reps.thetas"), ncpp), "1/s"),
        "reps.verify_s": (cpp.t("reps.verify_pseudo_rep", "reps.is_representation", "reps.is_0cpp"), "s"),
        "reps.iso_s": (cpp.t("reps.reps_isomorphic"), "s"),
        "congruence.closure_rich_s": (rich, "s"),
        "congruence.closure_poor_s": (poor, "s"),
        "congruence.congruences_per_s": (_rate(cg.c("congruence.count"), rich + poor), "1/s"),
        "congruence.principal_s": (cg.t("congruence.principal_congruence"), "s"),
        "congruence.search_s": (cg.t("congruence.search_algebra"), "s"),
        "congruence.search_candidates": (cg.c("congruence.candidates"), "count"),
        "congruence.search_hit_ratio": (cg.c("congruence.found") / max(searches, 1), "ratio"),
        "ramsey.survey_s": (survey, "s"),
        "ramsey.kernels_per_s": (_rate(cli.c("ramsey.kernels"), survey), "1/s"),
        "ramsey.subset_search_s": (cli.t("ramsey.find_canonical_subset"), "s"),
        "diversity.reasonable_s": (cli.t("diversity.is_reasonable"), "s"),
        "diversity.orders_tried": (cli.c("diversity.orders"), "count"),
        "cli.commands": (cli.calls.get("cli.main", 0), "count"),
        "cli.overhead_s": (cli.t("cli.main"), "s"),
        "cli.report_bytes": (cli.c("cli.report_bytes"), "bytes"),
    }
    return m
