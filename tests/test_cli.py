import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cubefill import (
    Chain,
    FillResult,
    exact_fill,
    linear_fill,
    minimizer_cycle,
    random_cycle,
    read_chain,
    recursive_fill,
    write_chain,
)
from cubefill.cli import (
    CSV_HEADER,
    EXIT_BOUND_VIOLATION,
    EXIT_INVALID,
    EXIT_IO,
    EXIT_OK,
    main,
)

HEXAGON = Chain.from_words("*00", "*11", "0*1", "1*0", "00*", "11*")


def run_json(capsys, argv):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


class TestGenMinimizer:
    def test_writes_hexagon(self, tmp_path, capsys):
        out = tmp_path / "hex.chain"
        code, report = run_json(capsys, ["gen-minimizer", "3", "1", "--out", str(out), "--json"])
        assert code == EXIT_OK
        assert report["status"] == "ok"
        assert report["results"]["norm"] == 6
        assert report["results"]["fill_value"] == 3
        assert out.read_text().startswith("cube 3 1\n")
        assert read_chain(out) == minimizer_cycle(3, 1)

    def test_square(self, tmp_path, capsys):
        out = tmp_path / "sq.chain"
        code, report = run_json(capsys, ["gen-minimizer", "2", "1", "--out", str(out), "--json"])
        assert code == EXIT_OK
        assert read_chain(out).norm == 4

    def test_large_family_member(self, tmp_path, capsys):
        out = tmp_path / "big.chain"
        code, report = run_json(capsys, ["gen-minimizer", "10", "3", "--out", str(out), "--json"])
        assert code == EXIT_OK
        assert report["results"]["norm"] == 240

    def test_rejects_bad_range(self, tmp_path, capsys):
        out = tmp_path / "x.chain"
        code, report = run_json(capsys, ["gen-minimizer", "3", "3", "--out", str(out), "--json"])
        assert code == EXIT_INVALID
        assert report["status"] == "invalid-input"

    def test_text_report_of_a_bad_range(self, tmp_path, capsys):
        out = tmp_path / "x.chain"
        assert main(["gen-minimizer", "3", "3", "--out", str(out)]) == EXIT_INVALID
        assert capsys.readouterr().out.splitlines() == [
            "gen-minimizer: invalid-input",
            "  n: 3",
            "  k: 3",
            f"  out: {out}",
            "  error: need 1 <= k < n <= 20",
        ]
        assert not out.exists()


class TestFill:
    @pytest.fixture
    def hexagon_file(self, tmp_path):
        path = tmp_path / "hex.chain"
        write_chain(HEXAGON, path)
        return path

    def test_exact(self, hexagon_file, capsys):
        code, report = run_json(
            capsys, ["fill", str(hexagon_file), "--strategy", "exact", "--json"]
        )
        assert code == EXIT_OK
        results = report["results"]
        assert results["filling_norm"] == 3
        assert results["optimal"] is True
        filling = read_chain(results["filling_path"])
        assert filling.boundary() == HEXAGON

    def test_linear_certificate_is_exact(self, hexagon_file, capsys):
        code, report = run_json(capsys, ["fill", str(hexagon_file), "--json"])
        assert code == EXIT_OK
        results = report["results"]
        assert results["filling_norm"] == 3
        assert results["certificate"] == "3"
        assert "(n-k)/(2(k+1))" in results["certificate_formula"]

    def test_recursive(self, hexagon_file, capsys):
        code, report = run_json(
            capsys, ["fill", str(hexagon_file), "--strategy", "recursive", "--json"]
        )
        assert code == EXIT_OK
        assert report["results"]["certificate_float"] == pytest.approx(86.9116882, abs=1e-5)

    def test_empty_chain(self, tmp_path, capsys):
        path = tmp_path / "empty.chain"
        write_chain(Chain(4, 1), path)
        code, report = run_json(capsys, ["fill", str(path), "--json"])
        assert code == EXIT_OK
        assert report["results"]["filling_norm"] == 0
        assert read_chain(report["results"]["filling_path"]) == Chain(4, 2)

    def test_empty_top_degree_cycle_round_trips(self, tmp_path, capsys):
        path = tmp_path / "top.chain"
        write_chain(Chain(2, 2), path)
        code, report = run_json(capsys, ["fill", str(path), "--json"])
        assert code == EXIT_OK
        filling = read_chain(report["results"]["filling_path"])
        assert filling.norm == 0
        assert filling.boundary().norm == 0

    def test_non_cycle_lists_boundary(self, tmp_path, capsys):
        path = tmp_path / "edge.chain"
        write_chain(Chain.from_words("*00"), path)
        code, report = run_json(capsys, ["fill", str(path), "--json"])
        assert code == EXIT_INVALID
        assert report["status"] == "invalid-input"
        assert sorted(report["results"]["boundary_faces"]) == ["000", "100"]

    def test_budget_exhaustion_reports_ok_not_optimal(self, tmp_path, capsys):
        # the slicing bound (5) is below the linear seed (6), so proving the
        # seed optimal takes a search that 2 nodes cannot finish
        z = random_cycle(4, 1, 0.3, seed=2)
        path = tmp_path / "r41.chain"
        write_chain(z, path)
        code, report = run_json(
            capsys, ["fill", str(path), "--strategy", "exact", "--budget", "2", "--json"]
        )
        assert code == EXIT_OK
        assert report["status"] == "ok"
        assert report["results"]["optimal"] is False
        filling = read_chain(report["results"]["filling_path"])
        assert filling.boundary() == z

    def test_deep_exact_search_exits_ok(self, tmp_path, capsys):
        # the search path grows past the interpreter's recursion limit
        z = random_cycle(10, 1, 0.08, seed=1)
        path = tmp_path / "deep.chain"
        write_chain(z, path)
        code, report = run_json(
            capsys, ["fill", str(path), "--strategy", "exact", "--budget", "1100", "--json"]
        )
        assert code == EXIT_OK
        assert report["status"] == "ok"
        assert read_chain(report["results"]["filling_path"]).boundary() == z

    def test_parse_error_has_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.chain"
        path.write_text("cube 2 1\n*0\nzz\n")
        code, report = run_json(capsys, ["fill", str(path), "--json"])
        assert code == EXIT_INVALID
        assert "line 3" in report["results"]["error"]


class TestVerify:
    def test_hexagon(self, tmp_path, capsys):
        path = tmp_path / "hex.chain"
        write_chain(HEXAGON, path)
        code, report = run_json(capsys, ["verify", str(path), "--json"])
        assert code == EXIT_OK
        results = report["results"]
        assert results["cycle"] is True
        assert results["norm"] == 6
        assert results["components"] == 1
        assert results["support_active_coordinates"] == 3

    def test_single_edge(self, tmp_path, capsys):
        path = tmp_path / "edge.chain"
        write_chain(Chain.from_words("*00"), path)
        code, report = run_json(capsys, ["verify", str(path), "--json"])
        assert code == EXIT_OK
        results = report["results"]
        assert results["cycle"] is False
        assert sorted(results["boundary_faces"]) == ["000", "100"]

    def test_minimizer_6_2(self, tmp_path, capsys):
        path = tmp_path / "z62.chain"
        write_chain(minimizer_cycle(6, 2), path)
        code, report = run_json(capsys, ["verify", str(path), "--json"])
        assert report["results"]["cycle"] is True
        assert report["results"]["norm"] == 30

    def test_parse_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.chain"
        path.write_text("cube 2 1\n*0\n*0\n")
        code, report = run_json(capsys, ["verify", str(path), "--json"])
        assert code == EXIT_INVALID
        assert "line 3" in report["results"]["error"]


# I/O the CLI cannot do: the input is missing or a directory, the filling's path is a
# directory, --out is under a missing directory.  No report is printed, whatever the format.
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{dir}/absent.chain"],
        ["verify", "{dir}", "--json"],
        ["fill", "{dir}/hex.chain", "--json"],
        ["gen-minimizer", "3", "1", "--out", "{dir}/missing/hex.chain", "--json"],
        ["random", "4", "1", "--out", "{dir}/missing/x.chain"],
    ],
    ids=[
        "verify-a-missing-file",
        "verify-a-directory",
        "fill-onto-a-directory",
        "gen-minimizer-into-a-missing-directory",
        "random-into-a-missing-directory",
    ],
)
def test_io_the_cli_cannot_do_exits_4(tmp_path, capsys, argv):
    write_chain(HEXAGON, tmp_path / "hex.chain")
    (tmp_path / "hex.chain.fill").mkdir()
    code = main([arg.format(dir=tmp_path) for arg in argv])
    out, err = capsys.readouterr()
    assert (code, out) == (EXIT_IO, "")
    assert err.startswith("i/o error: ")


@pytest.mark.parametrize("command", ["fill", "verify"])
def test_header_above_max_coordinates_is_invalid(tmp_path, capsys, command):
    path = tmp_path / "big.chain"
    path.write_text("cube 100 1\n")
    code, report = run_json(capsys, [command, str(path), "--json"])
    assert code == EXIT_INVALID
    assert report["status"] == "invalid-input"
    assert "line 1" in report["results"]["error"]


@pytest.mark.parametrize("command", ["fill", "verify"])
def test_negative_header_dimension_is_invalid(tmp_path, capsys, command):
    path = tmp_path / "neg.chain"
    path.write_text("cube -1 0\n")
    code, report = run_json(capsys, [command, str(path), "--json"])
    assert code == EXIT_INVALID
    assert report["status"] == "invalid-input"
    assert report["results"]["error"] == "line 1: dimension -1 outside [0, 64]"


# The first 20 of the 28 boundary faces, in face order.
NON_CYCLE_BOUNDARY = [
    "*1000001", "*0001001", "*1011001", "*1011101", "0*000001", "1*000001", "0*100001",
    "0*101001", "0*000101", "0*100101", "00*00001", "01*00101", "010*0001", "011*0001",
    "010*1001", "011*0101", "0000*001", "1000*001", "0100*001", "0010*001",
]


@pytest.fixture
def non_cycle_file(tmp_path):
    # three components inside the 6-cell ******01 of Q_8, with 28 boundary faces
    z = random_cycle(6, 2, 0.05, 4)
    y = Chain(6, 2, z.support - set(sorted(z.support)[::5]))
    path = tmp_path / "broken.chain"
    write_chain(y.inject(7, "fixed-0").inject(8, "fixed-1"), path)
    return path


def test_verify_report_on_a_non_cycle(non_cycle_file, capsys):
    code, report = run_json(capsys, ["verify", str(non_cycle_file), "--json"])
    assert code == EXIT_OK
    assert report == {
        "command": "verify",
        "inputs": {"path": str(non_cycle_file)},
        "results": {
            "n": 8,
            "k": 2,
            "norm": 32,
            "cycle": False,
            "components": 3,
            "support_active_coordinates": 6,
            "boundary_norm": 28,
            "boundary_faces": NON_CYCLE_BOUNDARY,
        },
        "status": "ok",
    }


@pytest.mark.parametrize(
    "strategy, budget", [("linear", None), ("recursive", None), ("exact", 0)]
)
def test_fill_report_on_a_non_cycle(non_cycle_file, capsys, strategy, budget):
    options = ["--strategy", strategy] + (["--budget", str(budget)] if budget is not None else [])
    code, report = run_json(capsys, ["fill", str(non_cycle_file), *options, "--json"])
    assert code == EXIT_INVALID
    assert report == {
        "command": "fill",
        "inputs": {
            "path": str(non_cycle_file),
            "strategy": strategy,
            "budget": 1_000_000 if budget is None else budget,
        },
        "results": {
            "error": "input chain is not a cycle",
            "n": 8,
            "k": 2,
            "input_norm": 32,
            "boundary_norm": 28,
            "boundary_faces": NON_CYCLE_BOUNDARY,
        },
        "status": "invalid-input",
    }
    assert not (non_cycle_file.parent / "broken.chain.fill").exists()


def test_verify_text_report_lists_the_boundary_on_one_line(non_cycle_file, capsys):
    assert main(["verify", str(non_cycle_file)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "  boundary_faces: " + " ".join(NON_CYCLE_BOUNDARY) in lines


@pytest.mark.parametrize(
    "z, options, message",
    [
        (HEXAGON, ["--strategy", "exact", "--budget", "0"], "node budget must be positive"),
        (
            Chain.from_words("00", "11"),
            ["--strategy", "recursive"],
            "degree-0 cycles are outside the power-law regime; use linear_fill",
        ),
    ],
)
def test_fill_report_on_a_refused_cycle(tmp_path, capsys, z, options, message):
    path = tmp_path / "z.chain"
    write_chain(z, path)
    code, report = run_json(capsys, ["fill", str(path), *options, "--json"])
    assert code == EXIT_INVALID
    assert report["status"] == "invalid-input"
    assert report["results"] == {"error": message}
    assert not (tmp_path / "z.chain.fill").exists()


@pytest.mark.parametrize("command", ["fill", "verify"])
def test_undecodable_file_is_invalid(tmp_path, capsys, command):
    path = tmp_path / "binary.chain"
    path.write_bytes(b"cube 2 1\n\xff\xfe\n")
    code, report = run_json(capsys, [command, str(path), "--json"])
    assert code == EXIT_INVALID
    assert report["status"] == "invalid-input"
    assert "UTF-8" in report["results"]["error"]


class TestSharpness:
    def test_csv_header_and_rows(self, capsys):
        code = main(["sharpness", "1", "--n-max", "100", "--csv"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        last = lines[-1].split(",")
        assert last[0] == "100"
        assert float(last[3]) == 0.12375
        assert float(last[4]) == 0.125

    def test_csv_literal_output(self, capsys):
        # the header is derived from SharpnessRow's fields, so pin its bytes here
        code = main(["sharpness", "1", "--n-max", "2", "--csv"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == (
            "n,norm,fill,ratio,asymptote,quotient\n2,4,1,0.0625,0.125,0.5\n"
        )

    def test_first_row_for_k2(self, capsys):
        code = main(["sharpness", "2", "--n-max", "4", "--csv"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == EXIT_OK
        assert lines[1].startswith("3,")

    def test_monotone_quotient_column(self, capsys):
        main(["sharpness", "3", "--n-max", "50", "--csv"])
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        quotients = [float(line.split(",")[5]) for line in lines]
        assert all(a < b for a, b in zip(quotients, quotients[1:]))

    def test_json_rows(self, capsys):
        code, report = run_json(capsys, ["sharpness", "1", "--n-max", "4", "--json"])
        assert code == EXIT_OK
        assert [row["n"] for row in report["results"]["rows"]] == [2, 3, 4]

    def test_json_report(self, capsys):
        code, report = run_json(capsys, ["sharpness", "1", "--n-max", "2", "--json"])
        assert code == EXIT_OK
        # --csv is a format, not an input
        assert report == {
            "command": "sharpness",
            "inputs": {"k": 1, "n_max": 2},
            "results": {
                "rows": [
                    {"n": 2, "norm": 4, "fill": 1, "ratio": 0.0625, "asymptote": 0.125,
                     "quotient": 0.5}
                ]
            },
            "status": "ok",
        }

    def test_csv_wins_over_json(self, capsys):
        assert main(["sharpness", "2", "--n-max", "4", "--csv", "--json"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == CSV_HEADER
        assert [line.split(",")[0] for line in lines[1:]] == ["3", "4"]

    def test_text_table(self, capsys):
        code = main(["sharpness", "1", "--n-max", "3"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "quotient" in out.splitlines()[0]

    def test_bad_range(self, capsys):
        code, report = run_json(capsys, ["sharpness", "2", "--n-max", "2", "--json"])
        assert code == EXIT_INVALID

    @pytest.mark.parametrize("n_max", [1 + 65537, 100_000_000])
    def test_more_than_65536_rows_are_refused_before_any_is_built(self, capsys, monkeypatch, n_max):
        def refuse(*args):
            raise AssertionError("sharpness_table called")

        monkeypatch.setattr("cubefill.cli.sharpness_table", refuse)
        code = main(["sharpness", "1", "--n-max", str(n_max)])
        out = capsys.readouterr().out
        assert code == EXIT_INVALID
        assert out.splitlines()[0] == "sharpness: invalid-input"
        assert "quotient" not in out and "65536" in out
        code, report = run_json(capsys, ["sharpness", "1", "--n-max", str(n_max), "--json"])
        assert (code, report["status"]) == (EXIT_INVALID, "invalid-input")
        assert "rows" not in report["results"]

    def test_65536_rows_are_a_table(self, capsys):
        code = main(["sharpness", "1", "--n-max", str(1 + 65536)])
        lines = capsys.readouterr().out.splitlines()
        assert code == EXIT_OK
        assert "quotient" in lines[0] and len(lines) == 1 + 65536
        assert lines[1].split()[0] == "2" and lines[-1].split()[0] == "65537"

    @pytest.mark.parametrize(
        "args, message",
        [
            (["171", "--n-max", "172"], "degree 171 too large: 171! does not fit in a float"),
            (["150", "--n-max", "8000"], "n=6257 too large: its norm and fill do not fit in a float"),
        ],
        ids=["k171", "n8000"],
    )
    def test_values_beyond_a_float_are_invalid(self, capsys, args, message):
        code, report = run_json(capsys, ["sharpness", *args, "--json"])
        assert code == EXIT_INVALID
        assert report["status"] == "invalid-input"
        assert report["results"]["error"] == message


class TestRandom:
    def test_byte_identical_across_processes(self, tmp_path):
        paths = [tmp_path / "a.chain", tmp_path / "b.chain"]
        for path in paths:
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "cubefill",
                    "random",
                    "6",
                    "1",
                    "--density",
                    "0.1",
                    "--seed",
                    "7",
                    "--out",
                    str(path),
                ],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == EXIT_OK, proc.stderr
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_output_verifies_as_cycle(self, tmp_path, capsys):
        path = tmp_path / "r.chain"
        code, _ = run_json(
            capsys,
            ["random", "5", "2", "--density", "0.2", "--seed", "3", "--out", str(path), "--json"],
        )
        assert code == EXIT_OK
        code, report = run_json(capsys, ["verify", str(path), "--json"])
        assert report["results"]["cycle"] is True

    def test_json_report(self, tmp_path, capsys):
        path = tmp_path / "r.chain"
        code, report = run_json(
            capsys,
            ["random", "5", "2", "--density", "0.2", "--seed", "3", "--out", str(path), "--json"],
        )
        assert code == EXIT_OK
        assert report == {
            "command": "random",
            "inputs": {"n": 5, "k": 2, "density": 0.2, "seed": 3, "out": str(path)},
            "results": {"norm": read_chain(path).norm, "cycle": True},
            "status": "ok",
        }
        assert list(report["inputs"]) == ["n", "k", "density", "seed", "out"]

    def test_zero_density_writes_header_only(self, tmp_path, capsys):
        path = tmp_path / "empty.chain"
        code, report = run_json(
            capsys,
            ["random", "5", "1", "--density", "0", "--seed", "1", "--out", str(path), "--json"],
        )
        assert code == EXIT_OK
        assert report["results"]["norm"] == 0
        assert path.read_text() == "cube 5 1\n"

    def test_invalid_density(self, tmp_path, capsys):
        code, report = run_json(
            capsys,
            ["random", "5", "1", "--density", "2", "--seed", "1",
             "--out", str(tmp_path / "x.chain"), "--json"],
        )
        assert code == EXIT_INVALID

    # the CLI's own cap, then the refusals of face_count and random_cycle
    @pytest.mark.parametrize(
        "args, message",
        [
            (["40", "1"], "need n <= 64 and at most 2**20 cells of dimension k+1"),
            (["65", "1"], "need n <= 64 and at most 2**20 cells of dimension k+1"),
            (["5", "-3"], "degree -2 outside [0, 5]"),
            (["3", "5"], "degree 6 outside [0, 3]"),
            (["5", "-1"], "need 1 <= k+1 <= n, got k=-1, n=5"),
            (["5", "1", "--density", "2"], "density 2.0 outside [0, 1]"),
        ],
        ids=["40", "65", "k-3", "k5-n3", "k-1", "density2"],
    )
    def test_too_many_cells_is_invalid(self, tmp_path, capsys, args, message):
        path = tmp_path / "x.chain"
        code, report = run_json(capsys, ["random", *args, "--out", str(path), "--json"])
        assert code == EXIT_INVALID
        assert report["status"] == "invalid-input"
        assert report["results"]["error"] == message
        assert not path.exists()


class TestHumanOutput:
    def test_fill_text_mentions_certificate(self, tmp_path, capsys):
        path = tmp_path / "hex.chain"
        write_chain(HEXAGON, path)
        code = main(["fill", str(path)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.startswith("fill: ok")
        assert "certificate" in out

    def test_json_report_round_trips(self, tmp_path, capsys):
        path = tmp_path / "hex.chain"
        write_chain(HEXAGON, path)
        _, report = run_json(capsys, ["fill", str(path), "--json"])
        assert json.loads(json.dumps(report)) == report
        assert set(report) == {"command", "inputs", "results", "status"}


# A 14-edge cycle in Q_4: its linear certificate (4-1)/(2*2)*14 = 21/2 is not
# an integer, its slicing bound 4 is below its minimum filling 5, and a 3-node
# budget stops the exact search before it proves 5 optimal.
CYCLE_Q4 = random_cycle(4, 1, 0.2, seed=2)

FILL_REPORTS = {
    ("linear", None): (False, 0, None, "21/2", 10.5, "(n-k)/(2(k+1))*norm = (4-1)/(2*(1+1))*14"),
    ("recursive", None): (
        False, 0, None, 473.18585822512654, 473.18585822512654,
        "c_k*norm^((k+1)/k) with k=1, c_k=2.4142135623730945, norm=14",
    ),
    ("exact", None): (True, 11, 4, 5, 5.0, "minimum filling weight (search completed)"),
    ("exact", 3): (False, 4, 4, 5, 5.0, "best filling weight found within the node budget"),
}


def fill_report(path, strategy, budget):
    optimal, nodes, lower_bound, certificate, certificate_float, formula = FILL_REPORTS[
        strategy, budget
    ]
    return {
        "command": "fill",
        "inputs": {
            "path": str(path),
            "strategy": strategy,
            "budget": 1_000_000 if budget is None else budget,
        },
        "results": {
            "n": 4,
            "k": 1,
            "input_norm": 14,
            "filling_path": f"{path}.fill",
            "filling_norm": 5,
            "optimal": optimal,
            "nodes_explored": nodes,
            "lower_bound": lower_bound,
            "certificate": certificate,
            "certificate_float": certificate_float,
            "certificate_formula": formula,
        },
        "status": "ok",
    }


@pytest.fixture
def cycle_q4_file(tmp_path):
    path = tmp_path / "r41.chain"
    write_chain(CYCLE_Q4, path)
    return path


def fill_argv(path, strategy, budget):
    return ["fill", str(path), "--strategy", strategy] + (
        ["--budget", str(budget)] if budget is not None else []
    )


@pytest.mark.parametrize("strategy, budget", list(FILL_REPORTS))
def test_fill_json_report_on_a_cycle(cycle_q4_file, capsys, strategy, budget):
    code, report = run_json(capsys, [*fill_argv(cycle_q4_file, strategy, budget), "--json"])
    assert code == EXIT_OK
    assert report == fill_report(cycle_q4_file, strategy, budget)
    assert read_chain(f"{cycle_q4_file}.fill").boundary() == CYCLE_Q4


@pytest.mark.parametrize("strategy, budget", list(FILL_REPORTS))
def test_fill_text_report_on_a_cycle(cycle_q4_file, capsys, strategy, budget):
    code = main(fill_argv(cycle_q4_file, strategy, budget))
    assert code == EXIT_OK
    report = fill_report(cycle_q4_file, strategy, budget)
    lines = ["fill: ok"] + [
        f"  {key}: {'null' if value is None else value}"
        for section in ("inputs", "results")
        for key, value in report[section].items()
    ]
    assert capsys.readouterr().out == "\n".join(lines) + "\n"


def test_gen_minimizer_json_report(tmp_path, capsys):
    out = tmp_path / "z52.chain"
    code, report = run_json(capsys, ["gen-minimizer", "5", "2", "--out", str(out), "--json"])
    assert code == EXIT_OK
    assert report == {
        "command": "gen-minimizer",
        "inputs": {"n": 5, "k": 2, "out": str(out)},
        "results": {
            "norm": 20,
            "norm_formula": "2*C(5,2) = 20",
            "fill_value": 10,
            "fill_formula": "C(5,3) = 10",
        },
        "status": "ok",
    }


class TestBoundViolationTripwire:
    """The CLI re-checks every engine result; a broken one exits 3."""

    @pytest.fixture
    def hexagon_file(self, tmp_path):
        path = tmp_path / "hex.chain"
        write_chain(HEXAGON, path)
        return path

    def run_with(self, monkeypatch, capsys, path, result):
        # each strategy's engine is named <strategy>_fill
        monkeypatch.setattr(f"cubefill.cli.{result.strategy}_fill", lambda *args: result)
        return run_json(capsys, ["fill", str(path), "--strategy", result.strategy, "--json"])

    def test_linear_certificate_below_the_norm(self, hexagon_file, monkeypatch, capsys):
        filling = linear_fill(HEXAGON).filling
        result = FillResult(filling, "linear", Fraction(2 * filling.norm - 1, 2))
        code, report = self.run_with(monkeypatch, capsys, hexagon_file, result)
        assert code == EXIT_BOUND_VIOLATION
        assert report["status"] == "bound-violation"
        assert report["results"]["certificate"] == "5/2"

    @pytest.mark.parametrize(
        "shortfall, code, status",
        [(1e-8, EXIT_BOUND_VIOLATION, "bound-violation"), (5e-10, EXIT_OK, "ok")],
    )
    def test_recursive_certificate_below_the_norm(
        self, hexagon_file, monkeypatch, capsys, shortfall, code, status
    ):
        filling = recursive_fill(HEXAGON).filling
        result = FillResult(filling, "recursive", filling.norm * (1.0 - shortfall))
        got, report = self.run_with(monkeypatch, capsys, hexagon_file, result)
        assert (got, report["status"]) == (code, status)

    def test_exact_filling_of_another_cycle(self, hexagon_file, monkeypatch, capsys):
        filling = exact_fill(minimizer_cycle(3, 1)).filling + Chain.from_words("**0")
        assert filling.boundary() != HEXAGON
        result = FillResult(filling, "exact", filling.norm, optimal=True, nodes_explored=1)
        code, report = self.run_with(monkeypatch, capsys, hexagon_file, result)
        assert code == EXIT_BOUND_VIOLATION
        assert report["status"] == "bound-violation"

    @pytest.mark.parametrize("strategy", ["linear", "recursive", "exact"])
    @pytest.mark.parametrize(
        "fault", [ValueError("list.remove(x): x not in list"), KeyError(17)],
        ids=["ValueError", "KeyError"],
    )
    def test_engine_fault(self, hexagon_file, monkeypatch, capsys, strategy, fault):
        # only the engines' own refusals are invalid input; anything else an
        # engine raises is a fault in it, reported without a traceback
        def broken(*args):
            raise fault

        monkeypatch.setattr(f"cubefill.cli.{strategy}_fill", broken)
        code = main(["fill", str(hexagon_file), "--strategy", strategy, "--json"])
        out, err = capsys.readouterr()
        assert (code, err) == (EXIT_BOUND_VIOLATION, "")
        report = json.loads(out)
        assert report["status"] == "engine-error"
        assert report["results"] == {"error": f"{type(fault).__name__}: {fault}"}
        assert not (hexagon_file.parent / "hex.chain.fill").exists()

    def test_exact_lower_bound_above_the_norm(self, hexagon_file, monkeypatch, capsys):
        filling = exact_fill(HEXAGON).filling
        result = FillResult(filling, "exact", filling.norm, True, 0, filling.norm + 1)
        code, report = self.run_with(monkeypatch, capsys, hexagon_file, result)
        assert code == EXIT_BOUND_VIOLATION
        assert report["status"] == "bound-violation"
        assert report["results"]["lower_bound"] == 4


# CLI reports pinned end to end, one row each: the input file is made by a CLI command
# (given --out) or written from text, and one command run on it exits 0 with status ok
# and the row's results.  A row may name the chain the input holds or the filling's sha256.
Q12_K2 = ["random", "12", "2", "--density", "0.01", "--seed", "1"]
Q12_K1 = ["random", "12", "1", "--density", "0.01", "--seed", "1"]
CELL_Q5 = "cube 5 2\n**001\n**011\n*00*1\n*10*1\n0*0*1\n1*0*1\n"  # the boundary of **0*1
LINEAR, RECURSIVE, EXACT = (["fill", "--strategy", s] for s in ("linear", "recursive", "exact"))
ONE_CELL = {"filling_norm": 1}


def square(n):
    # free at coordinates 2 and n: words on both sides of every field boundary of the bulk
    # reader and the slice counts (n digits or 2n bits in 8, 16, 32 or 64 bits, or two numerals)
    mid = ("01" * 32)[: n - 3]
    return f"cube {n} 1\n1*{mid}0\n1*{mid}1\n10{mid}*\n11{mid}*\n"


def pin(make, argv, results, id, holds=None, fill_sha256=None):
    return pytest.param(make, argv, results, holds, fill_sha256, id=id)


CLI_PINS = [
    pin(["random", "5", "1", "--density", "0.12", "--seed", "3"], ["verify"], {"cycle": True},
        "random-q5", holds=random_cycle(5, 1, 0.12, 3)),
    pin(["random", "6", "1", "--density", "0.25", "--seed", "1"], ["verify"], {"cycle": True},
        "random-q6", holds=random_cycle(6, 1, 0.25, 1)),
    # the residual kept as one int over Q_7's 672 ranked 2-faces
    pin(["random", "7", "2", "--density", "0.1", "--seed", "2"], [*EXACT, "--budget", "20000"],
        {"filling_norm": 103, "optimal": False, "nodes_explored": 20001, "lower_bound": 41},
        "q7-exact"),
    # packed count columns and XOR side moves; 12 lone 3-cube boundaries and one large part
    pin(Q12_K2, LINEAR, {"filling_norm": 6242}, "q12-linear"),
    pin(Q12_K2, RECURSIVE, {"filling_norm": 6242}, "q12-recursive"),
    pin(Q12_K2, ["verify"], {"cycle": True, "components": 13}, "q12-verify"),
    # the recursive engine fills each of the 98 components in its own support cell
    pin(Q12_K1, RECURSIVE, {"filling_norm": 2525}, "q12k1-recursive",
        fill_sha256="57b56d6dfeef95ab3f9badd3d65894fa70cd54a1f48610cd9811546bcf34e8b9"),
    pin(Q12_K1, LINEAR, {"filling_norm": 3233}, "q12k1-linear"),
    # the support cell read off the slice counts
    pin("cube 6 1\n1*0011\n1*0111\n100*11\n110*11\n", ["verify"],
        {"cycle": True, "components": 1, "support_active_coordinates": 2}, "square-q6"),
    *(pin(square(n), argv, results, f"square-q{n}-{argv[-1]}")
      for n in (64, 33, 32, 17, 16, 9, 5, 4)
      for argv, results in [(["verify"], {"cycle": True, "norm": 4, "support_active_coordinates": 2}),
                            (LINEAR, ONE_CELL), (RECURSIVE, ONE_CELL)]),
    # the paper's extremal family proved at the root: the slicing bound meets the
    # linear seed's C(16, 9) = 11,440 cells before any node
    pin(["gen-minimizer", "16", "8"], EXACT,
        {"optimal": True, "nodes_explored": 0, "lower_bound": 11440, "filling_norm": 11440},
        "minimizer-16-8-exact"),
    pin(CELL_Q5, LINEAR, ONE_CELL, "cell-linear"),
    pin(CELL_Q5, RECURSIVE, ONE_CELL, "cell-recursive"),
    pin(CELL_Q5, EXACT, {**ONE_CELL, "optimal": True, "nodes_explored": 0}, "cell-exact"),
]


@pytest.mark.parametrize("make, argv, results, holds, fill_sha256", CLI_PINS)
def test_cli_report(tmp_path, capsys, make, argv, results, holds, fill_sha256):
    path = tmp_path / "in.chain"
    if isinstance(make, str):
        path.write_text(make)
    else:
        assert run_json(capsys, [*make, "--out", str(path), "--json"])[0] == EXIT_OK
    code, report = run_json(capsys, [argv[0], str(path), *argv[1:], "--json"])
    assert (code, report["status"]) == (EXIT_OK, "ok")
    assert {key: report["results"][key] for key in results} == results
    assert holds is None or read_chain(path) == holds
    if fill_sha256 is not None:
        assert hashlib.sha256(Path(f"{path}.fill").read_bytes()).hexdigest() == fill_sha256
