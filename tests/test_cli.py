import io
import json
import pathlib
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stdout

import pytest

from finlat import cli
from finlat.congruence import algebra_from_json
from finlat.lattice import lattice_from_json
from finlat.reps import rep_from_json

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def run_json(args, capsys):
    code, out = run(args, capsys)
    return code, json.loads(out)


class TestAnalyze:
    def test_m3(self, capsys):
        code, report = run_json(["analyze", str(DATA / "m3.json")], capsys)
        assert code == 0
        assert report["distributive"] is False
        assert report["forbidden_sublattice"]["witness"]["kind"] == "diamond"
        assert report["forbidden_sublattice"]["witness"]["map"] == [0, 1, 2, 3, 4]
        assert report["methods_agree"] is True

    def test_round_trip_of_emitted_lattice(self, capsys):
        code, report = run_json(["analyze", str(DATA / "n5.json")], capsys)
        assert code == 0
        L = lattice_from_json(report["lattice"])
        assert L == lattice_from_json(json.load(open(DATA / "n5.json")))

    def test_std_flag(self, capsys):
        code, report = run_json(["analyze", "--std", "boolean(2)"], capsys)
        assert code == 0 and report["distributive"] is True

    def test_expect_pass_and_fail(self, capsys):
        code, _ = run_json(
            ["analyze", str(DATA / "h.json"), "--expect", "distributive=false"], capsys
        )
        assert code == 0
        code, report = run_json(
            ["analyze", str(DATA / "h.json"), "--expect", "distributive=true"], capsys
        )
        assert code == 1
        assert report["expect_failures"][0]["key"] == "distributive"

    def test_parse_error_exit_2(self, capsys):
        assert cli.main(["analyze", str(DATA / "missing.json")]) == 2
        err = capsys.readouterr().err
        assert "ParseError" in err

    def test_invalid_lattice_exit_2(self, capsys):
        assert cli.main(["analyze", str(DATA / "not_lattice.json")]) == 2
        assert cli.main(["analyze", str(DATA / "bad_poset.json")]) == 2

    def test_label_count_mismatch_names_file(self, capsys, tmp_path):
        path = tmp_path / "chain.json"
        leq = [[i, i + 1] for i in range(2047)]
        path.write_text(json.dumps({"size": 2048, "leq": leq, "labels": ["x"]}))
        start = time.perf_counter()
        assert cli.main(["analyze", str(path)]) == 2
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert "ParseError" in err and str(path) in err and "labels length" in err

    def test_validates_above_64_elements(self, capsys):
        code, report = run_json(
            ["analyze", "--std", "boolean(7)", "--budget", "max_sublattice_host=128"], capsys
        )
        assert code == 0
        assert report["size"] == 128 and report["valid"] is True

    def test_deterministic_output(self, capsys):
        _, first = run(["analyze", str(DATA / "m3.json")], capsys)
        _, second = run(["analyze", str(DATA / "m3.json")], capsys)
        assert first == second

    def test_pretty_mode(self, capsys):
        code, out = run(["analyze", "--std", "m(3)", "--pretty"], capsys)
        assert code == 0 and out.startswith("command: analyze")


class TestRanks:
    def test_m3_blass_table(self, capsys):
        code, report = run_json(["ranks", str(DATA / "m3.json"), "--blass"], capsys)
        assert code == 0
        assert report["count"] == 1
        assert all(row["rankset"] == [4] for row in report["ranks"])

    def test_pentagon_flags_emitted(self, capsys):
        code, report = run_json(
            ["ranks", str(DATA / "n5.json"), "--blass", "--gaifman"], capsys
        )
        assert code == 0
        flagged = [row for row in report["ranks"] if row["flags"]]
        assert len(flagged) == 1 and flagged[0]["rho"][0] == 2

    def test_budget_flag(self, capsys):
        assert (
            cli.main(["ranks", "--std", "boolean(3)", "--budget", "max_rank_elements=4"])
            == 2
        )
        err = capsys.readouterr().err
        assert "SizeLimit" in err


class TestRep:
    def test_verify(self, capsys):
        code, report = run_json(["rep", "verify", str(DATA / "m3_base_rep.json")], capsys)
        assert code == 0
        assert report["pseudo_valid"] and report["is_representation"]
        again = rep_from_json(report["representation"])
        assert again == rep_from_json(json.load(open(DATA / "m3_base_rep.json")))

    def test_cpp_depth0(self, capsys):
        code, report = run_json(
            ["rep", "cpp", str(DATA / "m3_base_rep.json"), "--depth", "0"], capsys
        )
        assert code == 0
        assert report["holds"] is False
        assert report["result"]["failing_element"] == 1

    def test_cpp_depth1_certificate(self, capsys):
        code, report = run_json(
            ["rep", "cpp", str(DATA / "chain2_rep5.json"), "--depth", "1"], capsys
        )
        assert code == 0 and report["holds"] is True
        assert len(report["result"]["certificate"]) == 52  # Bell(5)

    def test_ranked(self, capsys):
        code, report = run_json(
            [
                "rep", "ranked", str(DATA / "pairs_b2_4.json"),
                "--rho", "3,3,3,3", "--bound", "6",
            ],
            capsys,
        )
        assert code == 0
        assert report["rank_axioms_valid"] and report["result"]["holds"]

    def test_bad_rho_exit_2(self, capsys):
        assert (
            cli.main(
                ["rep", "ranked", str(DATA / "pairs_b2_4.json"), "--rho", "3,x,3,3", "--bound", "2"]
            )
            == 2
        )
        capsys.readouterr()

    def test_family_closure(self, capsys):
        code, report = run_json(
            [
                "rep", "family-closure",
                str(DATA / "chain2_rep5.json"), str(DATA / "chain2_rep4.json"),
            ],
            capsys,
        )
        assert code == 0
        assert report["all_0cpp"] is True
        assert report["closure_holds"] is False
        assert report["closure_failure"]["member"] == 0
        assert len(report["closure_failure"]["theta"]["classes"]) == 2


class TestCrt2:
    def test_survey_with_csv(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, report = run_json(
            ["crt2", "--survey", "--n", "3", "--k", "3", "--csv", str(target)], capsys
        )
        assert code == 0
        assert report["total"] == 5 and report["admitting"] == 4
        lines = target.read_text().strip().splitlines()
        assert lines[0].startswith("kernel_id,")
        assert len(lines) == 6

    def test_function_input(self, capsys):
        code, report = run_json(["crt2", "--fn", str(DATA / "sum5_fn.json"), "--k", "3"], capsys)
        assert code == 0
        assert report["witness"] == [0, 1, 2]
        assert report["form"] == "one_to_one"

    def test_missing_args(self, capsys):
        assert cli.main(["crt2", "--k", "3"]) == 2


class TestAlg:
    def test_cg_z4(self, capsys):
        code, report = run_json(["alg", "cg", str(DATA / "z4.json")], capsys)
        assert code == 0
        assert report["congruence_count"] == 3
        again = algebra_from_json(json.load(open(DATA / "z4.json")))
        assert report["carrier"] == again.size
        # emitted congruence lattice re-parses
        assert lattice_from_json(report["lattice"]).size == 3

    def test_check(self, capsys):
        code, report = run_json(
            ["alg", "check", str(DATA / "z4.json"), "--theta", "0,1,0,1"], capsys
        )
        assert code == 0 and report["is_congruence"] is True
        code, report = run_json(
            ["alg", "check", str(DATA / "z4.json"), "--theta", "0,0,1,1"], capsys
        )
        assert report["is_congruence"] is False and report["witness"] is not None

    def test_search(self, capsys):
        code, report = run_json(
            ["alg", "search", str(DATA / "chain3.json"), "--max-carrier", "4"], capsys
        )
        assert code == 0 and report["found"] is True
        found = algebra_from_json(report["algebra"])
        from finlat.congruence import congruence_lattice
        from finlat.lattice import chain_lattice, lattice_isomorphism

        cg = congruence_lattice(found)
        assert lattice_isomorphism(chain_lattice(3), cg.lattice) is not None

    def test_search_binary_pool_refused_before_listing(self, capsys, tmp_path):
        # carrier 4 has 4^16 binary tables; the pool is charged to the
        # candidate budget before one of them is built
        from finlat.lattice import lattice_to_json, m_lattice

        path = tmp_path / "m4.json"
        path.write_text(json.dumps(lattice_to_json(m_lattice(4))))
        start = time.perf_counter()
        code, report = run_json(["alg", "search", str(path), "--max-binary", "1"], capsys)
        assert time.perf_counter() - start < 1
        assert code == 0 and report["exhausted_budget"] is True and report["found"] is False
        assert report["note"] == "budget exhausted; absence within the budget is not a proof"


class TestReasonable:
    def test_pentagon_bc(self, capsys):
        code, report = run_json(["reasonable", str(DATA / "n5_bc.json")], capsys)
        assert code == 0
        assert report["reasonable"] is False and report["obstruction"] == [2, 3]

    def test_b2_atoms(self, capsys):
        code, report = run_json(["reasonable", str(DATA / "b2_atoms.json")], capsys)
        assert code == 0
        assert report["reasonable"] is True and report["witness_order"] is not None


class TestExportDot:
    def test_stdout_matches_golden(self, capsys):
        code, out = run(["export-dot", str(DATA / "b2.json")], capsys)
        assert code == 0
        assert out == (GOLDEN / "b2.dot").read_text()

    def test_std_constructions_match_golden(self, capsys):
        for std, name in [("m(3)", "m3"), ("pentagon", "n5"), ("hexagon", "h")]:
            code, out = run(["export-dot", "--std", std], capsys)
            assert code == 0
            assert out == (GOLDEN / f"{name}.dot").read_text()

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.dot"
        code, _ = run(["export-dot", str(DATA / "m3.json"), "-o", str(target)], capsys)
        assert code == 0
        assert target.read_text() == (GOLDEN / "m3.dot").read_text()


class TestEnvironmentBudgets:
    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("FINLAT_MAX_RANK_ELEMENTS", "4")
        assert cli.main(["ranks", "--std", "pentagon"]) == 2
        monkeypatch.delenv("FINLAT_MAX_RANK_ELEMENTS")
        assert cli.main(["ranks", "--std", "pentagon"]) == 0
        capsys.readouterr()


class TestElementBudgetReachesLibrary:
    @pytest.mark.parametrize("std", ["chain(3)", "m(3)", "boolean(2)"])
    def test_raised_max_elements_reaches_build_and_birkhoff(self, capsys, monkeypatch, std):
        # a --std lattice above 4096 elements would be built with the raised
        # limit; spies record the limit each library call receives
        seen = []

        def spy(real):
            def call(*args, **kwargs):
                seen.append((real.__name__, kwargs.get("max_size")))
                return real(*args, **kwargs)
            return call

        for name in ("build_lattice", "birkhoff_oracle"):
            monkeypatch.setattr(cli.lattice, name, spy(getattr(cli.lattice, name)))
        code, report = run_json(["analyze", "--std", std, "--budget", "max_elements=5000"], capsys)
        assert code == 0 and report["methods_agree"] is True
        # the first build is the input; later ones are is_distributive's
        # forbidden sublattices
        assert seen[0] == ("build_lattice", 5000)
        assert [call for call in seen if call[0] == "birkhoff_oracle"] == [("birkhoff_oracle", 5000)]


class TestSubprocessEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "finlat", "analyze", "--std", "chain(3)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["distributive"] is True


class TestBadInput:
    """Malformed and over-budget input exits 2 with a typed error on stderr alone."""

    def error(self, capsys, argv):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        return json.loads(captured.err)["error"]

    def test_rep_without_ground(self, capsys, tmp_path):
        data = json.loads((DATA / "m3_base_rep.json").read_text())
        del data["ground"]
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(data))
        err = self.error(capsys, ["rep", "verify", str(path)])
        assert err["type"] == "ParseError" and err["message"].startswith(f"{path}: ")

    def test_algebra_op_without_table(self, capsys, tmp_path):
        path = tmp_path / "alg.json"
        path.write_text(json.dumps({"size": 2, "ops": [{"arity": 1}]}))
        for argv in (["alg", "cg", str(path)], ["alg", "check", str(path), "--theta", "0,1"]):
            err = self.error(capsys, argv)
            assert err["type"] == "ParseError" and err["message"].startswith(f"{path}: ")

    def test_algebra_huge_arity_refused_before_power(self, capsys, tmp_path):
        # 50 bytes; 7**4000000 would take seconds to compute
        path = tmp_path / "alg.json"
        path.write_text(json.dumps({"size": 7, "ops": [{"arity": 4000000, "table": [0]}]}))
        start = time.perf_counter()
        err = self.error(capsys, ["alg", "cg", str(path)])
        assert time.perf_counter() - start < 0.1
        assert err["type"] == "ParseError" and err["message"] == f"{path}: table length 1 != 7^4000000"

    def test_cg_over_element_budget(self, capsys, tmp_path):
        # no operations: all Bell(4) = 15 partitions are congruences
        path = tmp_path / "free4.json"
        path.write_text(json.dumps({"size": 4, "ops": []}))
        err = self.error(capsys, ["alg", "cg", str(path), "--budget", "max_elements=10"])
        assert (err["type"], err["dimension"], err["actual"], err["limit"]) == (
            "SizeLimit", "congruences found", 11, 10)

    def test_cg_carrier10_no_ops_refused_early(self, capsys, tmp_path):
        # Bell(10) = 115975 congruences; refused once 4097 are found
        path = tmp_path / "free10.json"
        path.write_text(json.dumps({"size": 10, "ops": []}))
        start = time.perf_counter()
        err = self.error(capsys, ["alg", "cg", str(path)])
        assert time.perf_counter() - start < 2
        assert (err["type"], err["dimension"], err["actual"], err["limit"]) == (
            "SizeLimit", "congruences found", 4097, 4096)

    def test_std_over_element_budget(self, capsys):
        err = self.error(capsys, ["analyze", "--std", "chain(20)", "--budget", "max_elements=10"])
        assert (err["type"], err["dimension"], err["actual"], err["limit"]) == ("SizeLimit", "lattice size", 20, 10)

    def test_huge_std_refused_before_building(self, capsys):
        for std in ("chain(1000000000)", "boolean(1000000000)"):
            start = time.perf_counter()
            err = self.error(capsys, ["analyze", "--std", std])
            assert time.perf_counter() - start < 0.1
            assert err["type"] == "SizeLimit" and err["limit"] == 4096

    def test_huge_eq_ground_refused_before_allocating(self, capsys, tmp_path):
        # under 200 bytes that claim ten million points in every image
        ground = 10**7
        path = tmp_path / "rep.json"
        path.write_text(json.dumps({
            "lattice": {"size": 2, "leq": [[0, 1]]},
            "ground": ground,
            "alpha": {"0": {"ground": ground, "classes": [[0]]}, "1": {"ground": ground, "classes": [[0]]}},
        }))
        tracemalloc.start()
        start = time.perf_counter()
        try:
            err = self.error(capsys, ["rep", "verify", str(path)])
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err["type"] == "ParseError" and err["message"].startswith(f"{path}: ")
        assert elapsed < 0.1 and peak < 4_000_000

    def test_huge_survey_refused_before_counting(self, capsys):
        start = time.perf_counter()
        err = self.error(capsys, ["crt2", "--survey", "--n", "200", "--k", "3"])
        assert time.perf_counter() - start < 0.1
        assert (err["type"], err["dimension"], err["actual"], err["limit"]) == (
            "SizeLimit", "survey kernels", "B(19900)", 200_000)

    @pytest.mark.parametrize("n", ["-3", "1"])
    def test_survey_below_two_points_refused(self, capsys, n):
        err = self.error(capsys, ["crt2", "--survey", "--n", n, "--k", "3"])
        assert (err["type"], err["message"]) == ("InvalidParameter", "a pair function needs n >= 2")

    @pytest.mark.parametrize("argv", [
        ["rep", "verify", "pairs_b2_4.json"],
        ["rep", "family-closure", "m3_base_rep.json"],
        ["reasonable", "n5_bc.json"],
        ["analyze", "m3.json"],
        ["alg", "search", "chain3.json"],
    ])
    def test_files_over_element_budget(self, capsys, argv):
        argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
        err = self.error(capsys, argv + ["--budget", "max_elements=2"])
        assert (err["type"], err["dimension"], err["limit"]) == ("SizeLimit", "lattice size", 2)


# One run of each command on tests/data; stdout must match tests/golden/cli
# byte for byte, with the data directory written as tests/data.
GOLDEN_RUNS = {
    "analyze": ["analyze", "n5.json"],
    "ranks": ["ranks", "n5.json", "--blass", "--gaifman"],
    "ranks-boolean3": ["ranks", "--std", "boolean(3)"],
    "rep-verify": ["rep", "verify", "m3_base_rep.json"],
    "rep-cpp": ["rep", "cpp", "chain2_rep4.json", "--depth", "1"],
    "rep-ranked": ["rep", "ranked", "pairs_b2_4.json", "--rho", "3,3,3,3", "--bound", "6"],
    "rep-family-closure": ["rep", "family-closure", "chain2_rep5.json", "chain2_rep4.json"],
    "crt2": ["crt2", "--fn", "sum5_fn.json", "--k", "3"],
    "alg-cg": ["alg", "cg", "klein.json"],
    "alg-check": ["alg", "check", "z4.json", "--theta", "0,0,1,1"],
    "alg-search": ["alg", "search", "chain3.json", "--max-carrier", "4"],
    "reasonable": ["reasonable", "n5_bc.json"],
    "export-dot": ["export-dot", "h.json"],
}


def golden_stdout(argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main([str(DATA / a) if a.endswith(".json") else a for a in argv])
    return code, out.getvalue().replace(str(DATA), "tests/data")


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_stdout_matches_golden(name):
    assert golden_stdout(GOLDEN_RUNS[name]) == (0, (GOLDEN / "cli" / f"{name}.out").read_text())


def test_golden_sequence_twice_in_one_process():
    # the parser is built once per process; a second pass must not see
    # anything the first one left behind
    names = sorted(GOLDEN_RUNS)
    first = [golden_stdout(GOLDEN_RUNS[name]) for name in names]
    second = [golden_stdout(GOLDEN_RUNS[name]) for name in names]
    assert first == second
    assert first == [(0, (GOLDEN / "cli" / f"{name}.out").read_text()) for name in names]
    assert cli._build_parser() is cli._build_parser()
