"""Batch command-line front end.

JSON in, JSON out: each command reads input files, runs the requested
analysis, and prints a machine-readable report to stdout (human-readable
rendering behind --pretty).  Reports are deterministic for identical inputs
and budgets; timings are opt-in so the default output stays byte-stable.

Exit codes: 0 when all --expect assertions hold (or none were given),
1 when an assertion fails, 2 on input or budget errors.

Budgets resolve as: --budget name=value flags, then FINLAT_<NAME>
environment variables, then module defaults.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile
import time
from typing import Optional, Sequence

from . import congruence, diversity, eqrel, lattice, ramsey, ranked, reps
from .errors import FinlatError, InvalidParameter, ParseError, SizeLimit

_BUDGET_NAMES = {
    "max_elements": lattice.MAX_ELEMENTS,
    "max_sublattice_host": lattice.MAX_SUBLATTICE_HOST,
    "max_rank_elements": ranked.MAX_RANK_ELEMENTS,
    "max_rank_candidates": ranked.MAX_RANK_CANDIDATES,
    "max_cpp_ground": reps.MAX_CPP_GROUND,
    "max_order_elements": diversity.MAX_ORDER_ELEMENTS,
    "max_survey_kernels": ramsey.MAX_SURVEY_KERNELS,
    "max_subset_candidates": ramsey.MAX_SUBSET_CANDIDATES,
    "max_cg_carrier": congruence.MAX_CG_CARRIER,
    "max_search_candidates": congruence.MAX_SEARCH_CANDIDATES,
}


def _budgets(flags: Optional[Sequence[str]]) -> dict[str, int]:
    """Budget values: --budget flags, then FINLAT_<NAME> variables, then defaults."""
    overrides = {}
    for item in flags or ():
        if "=" not in item:
            raise InvalidParameter(f"budget flag {item!r} is not name=value")
        name, value = item.split("=", 1)
        if name not in _BUDGET_NAMES:
            raise InvalidParameter(f"unknown budget {name!r}")
        overrides[name] = int(value)
    budgets = dict(_BUDGET_NAMES)
    for name in budgets:
        env = os.environ.get("FINLAT_" + name.upper())
        if env is not None:
            budgets[name] = int(env)
    budgets.update(overrides)
    return budgets


def _load(args, budgets: dict[str, int]) -> tuple[list, list[dict]]:
    """The command's inputs, parsed, and their report records.

    Each file is read and hashed once and parsed by the command's loader
    with the element budget.  A SizeLimit passes through with its fields;
    any other parse failure becomes a ParseError naming the file.
    """
    limit = budgets["max_elements"]
    if getattr(args, "std", None):
        return [lattice.standard_lattice(args.std, max_size=limit)], [{"std": args.std}]
    if getattr(args, "survey", False) or args.input is None:
        # crt2 --survey reads no file; its inputs are its parameters
        return [], [{"n": args.n, "k": args.k}]
    values, records = [], []
    for path in args.input if isinstance(args.input, list) else [args.input]:
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ParseError(f"{path}: {exc}") from exc
        try:
            values.append(args.load(json.loads(raw), limit))
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
        except SizeLimit:
            raise
        except FinlatError as exc:
            raise ParseError(f"{path}: {exc}") from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: {type(exc).__name__}: {exc}") from exc
        records.append({"path": path, "sha256": hashlib.sha256(raw).hexdigest()})
    return values, records


# loaders, (parsed JSON, element budget) -> input value; each reaches the
# library through its module attribute at call time


def _lattice(data, limit: int):
    return lattice.lattice_from_json(data, max_size=limit)


def _rep(data, limit: int):
    return reps.rep_from_json(data, max_size=limit)


def _algebra(data, limit: int):
    return congruence.algebra_from_json(data)


def _equivalenced(data, limit: int):
    return lattice.equivalenced_from_json(data, max_size=limit)


def _pair_function(data, limit: int):
    if "n" not in data or "values" not in data:
        raise ParseError("pair function JSON needs 'n' and 'values'")
    return ramsey.pair_function(int(data["n"]), data["values"])


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _lookup(report: dict, dotted: str):
    value = report
    for part in dotted.split("."):
        if isinstance(value, list):
            value = value[int(part)]
        elif isinstance(value, dict):
            if part not in value:
                raise KeyError(dotted)
            value = value[part]
        else:
            raise KeyError(dotted)
    return value


def _check_expectations(report: dict, expects: Sequence[str]) -> list[dict]:
    failures = []
    for item in expects or ():
        if "=" not in item:
            raise InvalidParameter(f"--expect {item!r} is not key=value")
        key, raw = item.split("=", 1)
        try:
            expected = json.loads(raw)
        except json.JSONDecodeError:
            expected = raw
        try:
            actual = _lookup(report, key)
        except (KeyError, IndexError, ValueError):
            failures.append({"key": key, "expected": expected, "actual": None, "missing": True})
            continue
        if actual != expected:
            failures.append({"key": key, "expected": expected, "actual": actual})
    return failures


# ---------------------------------------------------------------------------
# command payloads


def _cmd_analyze(args, budgets, L) -> dict:
    verdict = lattice.is_distributive(L, max_host=budgets["max_sublattice_host"])
    birk = lattice.birkhoff_oracle(L)
    law = lattice.satisfies_distributive_law(L)
    witness = None
    if verdict.witness is not None:
        witness = {"kind": verdict.witness_kind, "map": list(verdict.witness.map)}
    # construction already proves validity; the cubic re-check is only worth
    # running at small sizes
    revalidated = not lattice.validate_lattice(L) if L.size <= 64 else True
    return {
        "size": L.size,
        "valid": revalidated,
        "bottom": L.bottom,
        "top": L.top,
        "distributive": verdict.distributive,
        "forbidden_sublattice": {
            "distributive": verdict.distributive,
            "witness": witness,
        },
        "birkhoff": {
            "distributive": birk.distributive,
            "join_irreducibles": list(birk.join_irreducibles),
            "downset_count": birk.downset_count,
        },
        "distributive_law": law,
        "methods_agree": verdict.distributive == birk.distributive == law,
        "lattice": lattice.lattice_to_json(L),
    }


def _cmd_ranks(args, budgets, L) -> dict:
    require = {"axioms"}
    if args.blass:
        require.add("blass")
    if args.gaifman:
        require.add("gaifman")
    ranks = ranked.enumerate_ranks(
        L,
        require,
        max_elements=budgets["max_rank_elements"],
        max_candidates=budgets["max_rank_candidates"],
    )
    rows = ranked.rank_report(L, ranks)
    ranksets = sorted({tuple(row["rankset"]) for row in rows})
    return {
        "size": L.size,
        "require": sorted(require),
        "count": len(rows),
        "ranksets": [list(r) for r in ranksets],
        "ranks": rows,
    }


def _cmd_rep_verify(args, budgets, R) -> dict:
    pseudo = reps.verify_pseudo_rep(R)
    inj = reps.is_representation(R)
    return {
        "pseudo_valid": pseudo.valid,
        "violations": [
            {"law": law, "witness": list(w) if w else None} for law, w in pseudo.violations
        ],
        "is_representation": inj.injective,
        "injectivity_witness": list(inj.witness) if inj.witness else None,
        "flags": reps.rep_flags(R),
        "representation": reps.rep_to_json(R),
    }


def _cmd_rep_cpp(args, budgets, R) -> dict:
    verdict = reps.is_ncpp(R, args.depth, max_ground=budgets["max_cpp_ground"])
    return {
        "depth": args.depth,
        "holds": verdict.holds,
        "result": reps.cpp_certificate_json(verdict),
        "flags": reps.rep_flags(R),
    }


def _cmd_rep_ranked(args, budgets, R) -> dict:
    rho = tuple(int(v) for v in args.rho.split(","))
    axioms = ranked.verify_rank_axioms(R.lattice, rho)
    ctx = reps.ThresholdRankContext(args.bound)
    result = None
    if axioms.valid:
        verdict = reps.check_ranked_rep(R, rho, ctx)
        result = {
            "holds": verdict.holds,
            "witness": list(verdict.witness) if verdict.witness else None,
            "reason": verdict.reason,
        }
    return {
        "rho": list(rho),
        "bound": args.bound,
        "rank_axioms_valid": axioms.valid,
        "result": result,
    }


def _cmd_rep_family(args, budgets, *family) -> dict:
    report = reps.family_closure_check(family, max_ground=budgets["max_cpp_ground"])
    failure = None
    if report.closure_failure is not None:
        idx, theta = report.closure_failure
        failure = {"member": idx, "theta": eqrel.eq_to_json(theta)}
    return {
        "nonempty": report.nonempty,
        "all_0cpp": report.all_0cpp,
        "not_0cpp_members": list(report.not_0cpp_members),
        "closure_holds": report.closure_holds,
        "closure_failure": failure,
        "correct": report.correct,
        "note": report.note,
    }


def _cmd_crt2(args, budgets, f=None) -> dict:
    if args.survey:
        if args.n is None:
            raise InvalidParameter("--survey needs --n")
        survey = ramsey.crt2_survey(args.n, args.k, max_kernels=budgets["max_survey_kernels"])
        if args.csv:
            _write_atomic(args.csv, ramsey.survey_csv(survey))
        return {
            "survey": True,
            "total": survey.total,
            "admitting": survey.admitting,
            "failing": list(survey.failing),
            "csv": args.csv,
        }
    if f is None:
        raise InvalidParameter("crt2 needs --survey or --fn FILE")
    witness = ramsey.find_canonical_subset(f, args.k, max_candidates=budgets["max_subset_candidates"])
    forms = sorted(ramsey.canonical_form_on(f, witness)) if witness else []
    return {
        "survey": False,
        "k": args.k,
        "witness": list(witness) if witness else None,
        "forms": forms,
        "form": ramsey.summarize_form(frozenset(forms)) if forms else None,
    }


def _cmd_alg_cg(args, budgets, A) -> dict:
    cg = congruence.congruence_lattice(
        A, max_carrier=budgets["max_cg_carrier"], max_elements=budgets["max_elements"]
    )
    return {
        "carrier": A.size,
        "congruence_count": len(cg.congruences),
        "congruences": [eqrel.eq_to_json(t) for t in cg.congruences],
        "lattice": lattice.lattice_to_json(cg.lattice),
    }


def _cmd_alg_check(args, budgets, A) -> dict:
    ids = [int(v) for v in args.theta.split(",")]
    theta = eqrel.from_class_ids(ids)
    verdict = congruence.is_congruence(theta, A)
    witness = None
    if verdict.witness is not None:
        op, a, b = verdict.witness
        witness = {"op": op, "args": list(a), "args_substituted": list(b)}
    return {
        "theta": eqrel.eq_to_json(theta),
        "is_congruence": verdict.holds,
        "witness": witness,
    }


def _cmd_alg_search(args, budgets, L) -> dict:
    result = congruence.search_algebra(
        L,
        max_carrier=args.max_carrier,
        max_unary_ops=args.max_unary,
        max_binary_ops=args.max_binary,
        max_candidates=budgets["max_search_candidates"],
        match_dual=args.dual,
    )
    return {
        "found": result.algebra is not None,
        "algebra": congruence.algebra_to_json(result.algebra) if result.algebra else None,
        "exhausted_budget": result.exhausted_budget,
        "candidates_tried": result.candidates_tried,
        "note": result.note,
    }


def _cmd_reasonable(args, budgets, EL) -> dict:
    verdict = diversity.is_reasonable(EL, max_elements=budgets["max_order_elements"])
    return {
        "reasonable": verdict.reasonable,
        "witness_order": list(verdict.witness_order) if verdict.witness_order else None,
        "obstruction": list(verdict.obstruction) if verdict.obstruction else None,
        "equivalenced": lattice.equivalenced_to_json(EL),
    }


def _cmd_export_dot(args, budgets, L) -> str:
    return lattice.lattice_to_dot(L)


# ---------------------------------------------------------------------------
# rendering and driver


def _pretty(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    skip = {"command", "inputs", "lattice", "representation", "equivalenced", "ranks", "congruences"}
    for key in sorted(report):
        if key in skip:
            continue
        lines.append(f"  {key}: {json.dumps(report[key], sort_keys=True)}")
    return "\n".join(lines) + "\n"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on the first call.

    The handlers it binds reach the library through module attributes at
    call time, so wrapping those attributes later still takes effect.
    """
    parser = argparse.ArgumentParser(prog="finlat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name, run, load, inputs="input", **kwargs):
        """A subcommand that reports as its own name, with its handler and loader.

        inputs is "lattice" (a file or --std), "input" (one file) or None
        (the caller adds the file argument, with dest "input").
        """
        p = subparsers.add_parser(name, **kwargs)
        p.set_defaults(run=run, load=load, report_name=p.prog.split(" ", 1)[1])
        if inputs == "lattice":
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("input", nargs="?", help="lattice JSON file")
            group.add_argument("--std", help="standard lattice, e.g. m(3), pentagon, boolean(2)")
        elif inputs == "input":
            p.add_argument("input")
        p.add_argument("--pretty", action="store_true", help="human-readable output")
        p.add_argument("--expect", action="append", metavar="KEY=VALUE",
                       help="assert a report field; failures set exit code 1")
        p.add_argument("--budget", action="append", metavar="NAME=VALUE",
                       help="override a budget (also via FINLAT_<NAME> env vars)")
        p.add_argument("--timings", action="store_true", help="include elapsed_ms")
        return p

    command(sub, "analyze", _cmd_analyze, _lattice, "lattice",
            help="lattice axioms and distributivity, all methods")

    p = command(sub, "ranks", _cmd_ranks, _lattice, "lattice", help="enumerate rank maps and ranksets")
    p.add_argument("--blass", action="store_true")
    p.add_argument("--gaifman", action="store_true")

    rep_sub = sub.add_parser("rep", help="representation checks").add_subparsers(
        dest="rep_command", required=True)
    command(rep_sub, "verify", _cmd_rep_verify, _rep)
    p = command(rep_sub, "cpp", _cmd_rep_cpp, _rep)
    p.add_argument("--depth", type=int, required=True)
    p = command(rep_sub, "ranked", _cmd_rep_ranked, _rep)
    p.add_argument("--rho", required=True, help="comma-separated rank map")
    p.add_argument("--bound", type=int, required=True)
    p = command(rep_sub, "family-closure", _cmd_rep_family, _rep, inputs=None)
    p.add_argument("input", nargs="+", metavar="inputs")

    p = command(sub, "crt2", _cmd_crt2, _pair_function, inputs=None,
                help="canonical Ramsey search and survey")
    p.add_argument("--survey", action="store_true")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--fn", dest="input", metavar="FN", help="pair function JSON file")
    p.add_argument("--csv", help="write per-kernel CSV here")

    alg_sub = sub.add_parser("alg", help="finite algebra commands").add_subparsers(
        dest="alg_command", required=True)
    command(alg_sub, "cg", _cmd_alg_cg, _algebra)
    p = command(alg_sub, "check", _cmd_alg_check, _algebra)
    p.add_argument("--theta", required=True, help="comma-separated class ids")
    p = command(alg_sub, "search", _cmd_alg_search, _lattice)
    p.add_argument("--max-carrier", type=int, default=congruence.MAX_SEARCH_CARRIER)
    p.add_argument("--max-unary", type=int, default=3)
    p.add_argument("--max-binary", type=int, default=0)
    p.add_argument("--dual", action="store_true")

    command(sub, "reasonable", _cmd_reasonable, _equivalenced, help="equivalenced lattice reasonableness")

    p = command(sub, "export-dot", _cmd_export_dot, _lattice, "lattice", help="Hasse diagram as DOT")
    p.add_argument("-o", "--output", help="write DOT here instead of stdout")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        budgets = _budgets(args.budget)
        start = time.monotonic()
        values, inputs = _load(args, budgets)
        body = args.run(args, budgets, *values)
        if isinstance(body, str):  # export-dot: the DOT text, not a report
            if args.output:
                _write_atomic(args.output, body)
            else:
                sys.stdout.write(body)
            return 0
        report = {"command": args.report_name, "inputs": inputs, **body}
        report["budget_overrides"] = sorted(
            f"{name}={value}" for name, value in budgets.items() if value != _BUDGET_NAMES[name]
        )
        if args.timings:
            report["elapsed_ms"] = round((time.monotonic() - start) * 1000, 3)
        failures = _check_expectations(report, args.expect)
        if failures:
            report["expect_failures"] = failures
        text = _pretty(report) if args.pretty else json.dumps(report, indent=2, sort_keys=True) + "\n"
        sys.stdout.write(text)
        return 1 if failures else 0
    except (FinlatError, ValueError, OSError) as exc:
        # input and budget errors, malformed numeric flags, unwritable output paths
        error = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, SizeLimit):
            error.update(dimension=exc.dimension, actual=exc.actual, limit=exc.limit)
        sys.stderr.write(json.dumps({"error": error}, indent=2, sort_keys=True) + "\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
