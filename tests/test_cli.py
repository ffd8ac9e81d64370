from __future__ import annotations

import json
import os
import pickle
import re

import pytest
from click.testing import CliRunner

import hfg.cli as cli
import hfg.verify
from hfg.budget import DEFAULT_BUDGET
from hfg.errors import BudgetExceededError, ParseError
from hfg.fatgrid import abstract_grid, grid_from_json
from hfg.polycore import ideal_from_json, ideal_to_json, irrelevant_power
from hfg.projective import Point, point_ideal
from hfg.report import CheckInstance


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(cli.main, list(args), catch_exceptions=False)


def test_version(runner):
    result = invoke(runner, "--version")
    assert result.exit_code == 0
    assert "hfg" in result.output


def test_grid_json_output(runner):
    result = invoke(runner, "grid", "--m", "2,3,3", "--n", "2,3,4,4")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["shape"] == [3, 4]
    assert data["mult"] == [[3, 4, 5, 5], [4, 5, 6, 6], [4, 5, 6, 6]]
    assert len(data["h_lines"]) == 3
    assert len(data["v_lines"]) == 4


def test_grid_accepts_explicit_point_file(runner, tmp_path):
    payload = {
        "P": [["1", "1", "2"], ["1", "1", "3"]],
        "M": [1, 2],
        "Q": [["1", "2", "1"], ["1", "3", "1"]],
        "N": [1, 1],
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(payload))
    result = invoke(runner, "grid", "--grid", str(path))
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["M"] == [1, 2]
    assert data["row_points"][0] == ["1", "1", "2"]


def test_grid_option_conflict_rejected(runner, tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"M": [1], "N": [1]}))
    result = runner.invoke(
        cli.main, ["grid", "--grid", str(path), "--m", "1", "--n", "1"]
    )
    assert result.exit_code == 2
    assert "conflicts" in result.output


def test_grid_requires_some_input(runner):
    result = runner.invoke(cli.main, ["grid"])
    assert result.exit_code == 2
    result = runner.invoke(cli.main, ["grid", "--m", "1"])
    assert result.exit_code == 2


def test_malformed_grid_file_is_an_input_error(runner, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    result = runner.invoke(cli.main, ["grid", "--grid", str(path)])
    assert result.exit_code == 2
    assert "input parse error" in result.output
    missing = runner.invoke(cli.main, ["grid", "--grid", str(tmp_path / "no.json")])
    assert missing.exit_code == 2


def test_invalid_multiplicities_are_an_input_error(runner):
    result = runner.invoke(cli.main, ["grid", "--m", "0", "--n", "1"])
    assert result.exit_code == 2
    result = runner.invoke(cli.main, ["grid", "--m", "one", "--n", "1"])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "data",
    [{"M": [1.7, 2], "N": [1]}, {"M": "23", "N": [1]}, {"M": [True, 2], "N": [1]}],
    ids=["float", "string", "bool"],
)
def test_grid_json_multiplicities_must_be_integers(runner, tmp_path, data):
    with pytest.raises(ParseError, match="multiplicity lists must hold integers"):
        grid_from_json(data)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(data))
    result = runner.invoke(cli.main, ["grid", "--grid", str(path)])
    assert result.exit_code == 2
    assert result.output.startswith("input parse error: ")


def test_resolution_command(runner):
    result = invoke(runner, "resolution", "--m", "2,3,3", "--n", "2,3,4,4")
    data = json.loads(result.output)
    assert data["generator_twists"] == [16, 16, 17, 17, 18, 19, 21]
    assert data["syzygy_twists"] == [19, 19, 20, 21, 22, 23]


def test_generators_command(runner):
    result = invoke(runner, "generators", "--m", "1", "--n", "1")
    data = json.loads(result.output)
    assert len(data) == 2
    assert all(g["degree"] == 1 for g in data)
    assert all("polynomial" in g for g in data)


def test_invariants_command_reproduces_example(runner):
    result = invoke(runner, "invariants", "--m", "2,3,3", "--n", "2,3,4,4")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["alpha"] == 16
    assert data["beta"] == 21
    assert data["waldschmidt"] == "16/1"
    assert data["resurgence"] == 1
    assert data["alpha_tuple"][:3] == [21, 21, 17]


def test_invariants_table_format(runner):
    result = invoke(
        runner, "invariants", "--m", "2,3,3", "--n", "2,3,4,4", "--format", "table"
    )
    assert result.exit_code == 0
    assert "alpha_tuple" in result.output
    assert "16/1" in result.output


def test_budget_flag_controls_grid_cap(runner):
    over = runner.invoke(
        cli.main, ["verify", "--m", "2,3,3", "--n", "2,3,4,4", "--t-max", "1"]
    )
    assert over.exit_code == 2
    assert "budget exceeded" in over.output
    bad = runner.invoke(cli.main, ["verify", "--m", "1", "--n", "1", "--budget-degree", "-3"])
    assert bad.exit_code == 2


def test_verify_small_grid_passes(runner):
    result = invoke(runner, "verify", "--m", "1", "--n", "1,2")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["passed"] is True
    assert data["checks"] >= 5
    assert all(inst["passed"] for inst in data["instances"])


_SWAPPED_GRID = {
    "P": [["1", "1", "2"], ["1", "1", "3"], ["1", "1", "5"]],
    "M": [1, 2, 1],
    "Q": [["1", "2", "1"], ["1", "3", "1"]],
    "N": [1, 2],
}


def test_verify_output_is_identical_across_job_counts(runner, tmp_path):
    # the row set of the grid file is the larger one, so the workers get a
    # grid with ``swapped`` set
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(_SWAPPED_GRID))
    assert grid_from_json(_SWAPPED_GRID).swapped
    for grid_args in (["--m", "1,2", "--n", "1,2"], ["--grid", str(path)]):
        sequential = invoke(runner, "verify", *grid_args, "--jobs", "1")
        parallel = invoke(runner, "verify", *grid_args, "--jobs", "3")
        assert sequential.exit_code == parallel.exit_code == 0
        assert sequential.output == parallel.output


def test_verify_starts_no_more_workers_than_jobs(runner, monkeypatch):
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    serial = invoke(runner, "verify", "--m", "1,2", "--n", "1,2", "--jobs", "1")
    assert serial.exit_code == 0
    # the plan has three units, and this process runs the first
    for jobs, children in (("64", 2), ("2", 1), ("1", 0)):
        forks.clear()
        result = invoke(runner, "verify", "--m", "1,2", "--n", "1,2", "--jobs", jobs)
        assert len(forks) == children
        assert result.exit_code == 0
        assert result.output == serial.output


def test_verify_raises_the_first_error_in_plan_order_at_every_job_count(
    runner, monkeypatch
):
    def over_budget(grid):
        raise BudgetExceededError("structure unit refused")

    monkeypatch.setattr(hfg.verify, "grid_structure_unit", over_budget)
    for jobs in ("1", "2", "3"):
        result = runner.invoke(
            cli.main, ["verify", "--m", "1,2", "--n", "1,2", "--jobs", jobs]
        )
        assert result.exit_code == 2
        assert result.output == "budget exceeded: structure unit refused\n"


@pytest.mark.parametrize(
    "jobs, units",
    [("2", "elimination_exits, grid_structure_unit"), ("3", "elimination_exits")],
)
def test_verify_fails_when_a_child_ends_without_results(
    runner, monkeypatch, jobs, units
):
    # the elimination unit never runs in this process at --jobs 2 or more
    def elimination_exits(grid, t_max, budget):
        os._exit(3)

    monkeypatch.setattr(hfg.verify, "grid_elimination_unit", elimination_exits)
    result = runner.invoke(
        cli.main, ["verify", "--m", "1,2", "--n", "1,2", "--jobs", jobs]
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, RuntimeError)
    assert str(result.exception) == (
        "verify worker for %s ended with status 3 and sent no results" % units
    )
    assert result.output == ""


def test_verify_returns_results_larger_than_a_pipe_buffer(runner, monkeypatch):
    def wide(grid):
        return [
            CheckInstance("wide instance %d " % k + "x" * 100, "a", "a", True)
            for k in range(1000)
        ]

    # at --jobs 2 a forked child runs the structure unit and pickles it back
    assert len(pickle.dumps(wide(None))) > 65536
    monkeypatch.setattr(hfg.verify, "grid_structure_unit", wide)
    args = ["verify", "--m", "1", "--n", "1"]
    serial = invoke(runner, *args, "--jobs", "1")
    forked = invoke(runner, *args, "--jobs", "2")
    assert len(forked.output) > 65536
    assert forked.exit_code == serial.exit_code == 0
    assert forked.output == serial.output


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_stops_the_powers_at_the_first_depth_over_the_cap(runner, jobs):
    args = ["verify", "--m", "1", "--n", "1", "--t-max", "20000", "--jobs", jobs]
    result = invoke(runner, *args)
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert (report["checks"], report["pass"], report["skipped"]) == (20, 19, 1)
    powers = [inst for inst in report["instances"] if inst["label"].startswith("t=")]
    assert [inst["label"].split(":")[0] for inst in powers] == [
        *("t=%d" % t for t in range(2, 13)),
        "t=13..20000",
    ]
    assert powers[-1]["status"] == "skipped"
    assert powers[-1]["flag"] == (
        "skipped: Groebner input of total degree 13 exceeds budget 12"
    )


def test_verify_runs_serially_without_fork(runner, monkeypatch):
    serial = invoke(runner, "verify", "--m", "1,2", "--n", "1,2", "--jobs", "1")
    monkeypatch.delattr(os, "fork")
    result = invoke(runner, "verify", "--m", "1,2", "--n", "1,2", "--jobs", "2")
    assert result.exit_code == serial.exit_code == 0
    assert result.output == serial.output


def test_verify_failure_sets_exit_code_one(runner, monkeypatch):
    def broken(grid):
        return [CheckInstance("forced failure", "pass", "fail", False)]

    monkeypatch.setattr(hfg.verify, "grid_structure_unit", broken)
    result = runner.invoke(cli.main, ["verify", "--m", "1", "--n", "1"])
    assert result.exit_code == 1
    assert "verification failed" in result.output


def test_verify_prints_a_failing_vanishing_order(runner, monkeypatch):
    monkeypatch.setattr(
        hfg.verify, "_vanishing_orders", lambda f, points: [0] * len(points)
    )
    result = runner.invoke(cli.main, ["verify", "--m", "1", "--n", "1"])
    assert result.exit_code == 1
    # (1|1) has the patterns k=0 and k=1; both fail and the first is named
    assert (
        '"computed": "2 of 2 (pattern, point) pairs fail; first pattern k=0 at'
        ' point (0,0): order 0 < 1"' in result.output
    )


def test_library_and_cli_run_the_same_grid_plan(runner):
    report = hfg.verify.check_grid_end_to_end(
        abstract_grid((1, 2), (1, 2)), DEFAULT_BUDGET, t_max=2
    )
    expected = report.to_dict()["instances"]
    for jobs in ("1", "2"):
        result = invoke(runner, "verify", "--m", "1,2", "--n", "1,2", "--jobs", jobs)
        assert result.exit_code == 0
        assert json.loads(result.output)["instances"] == expected


def test_invariants_has_no_budget_flag(runner):
    result = runner.invoke(
        cli.main,
        ["invariants", "--m", "1,2", "--n", "1,2", "--budget-degree", "64"],
    )
    assert result.exit_code == 2
    assert "No such option" in result.output
    assert "--budget-degree" in result.output


def test_invariants_has_no_t_max_flag(runner):
    """The certificate holds for every t, so ``hfg invariants`` has no
    depth to set; ``hfg verify --t-max`` sets the elimination oracle's."""
    args = ["invariants", "--m", "1,2", "--n", "1"]
    result = runner.invoke(cli.main, args + ["--t-max", "2"])
    assert result.exit_code == 2
    assert "No such option" in result.output
    assert "--t-max" in result.output
    table = invoke(runner, *args, "--format", "table")
    assert table.exit_code == 0
    assert table.output == (
        "alpha_tuple       3 1\n"
        "C                 0 3 1 1 2 0\n"
        "V                 1 3 2 1\n"
        "generator_twists  2 2 3\n"
        "syzygy_twists     3 4\n"
        "alpha             2\n"
        "beta              3\n"
        "waldschmidt       2/1\n"
        "resurgence        1\n"
    )
    expected = {
        "alpha_tuple": [3, 1],
        "C": [[0, 3], [1, 1], [2, 0]],
        "V": [[1, 3], [2, 1]],
        "generator_twists": [2, 2, 3],
        "syzygy_twists": [3, 4],
        "alpha": 2,
        "beta": 3,
        "waldschmidt": "2/1",
        "resurgence": 1,
    }
    assert invoke(runner, *args).output == json.dumps(expected, indent=2) + "\n"


def test_hadamard_and_join_commands(runner, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(ideal_to_json(irrelevant_power(2))))
    b.write_text(json.dumps(ideal_to_json(irrelevant_power(2))))
    joined = invoke(runner, "join", "--ideal-a", str(a), "--ideal-b", str(b))
    assert joined.exit_code == 0
    out = ideal_from_json(json.loads(joined.output))
    from hfg.polycore import ideal_equal

    assert ideal_equal(out, irrelevant_power(3))

    p = tmp_path / "p.json"
    q = tmp_path / "q.json"
    p.write_text(json.dumps(ideal_to_json(point_ideal(Point((1, 2, 3))))))
    q.write_text(json.dumps(ideal_to_json(point_ideal(Point((2, 1, 1))))))
    product = invoke(runner, "hadamard", "--ideal-a", str(p), "--ideal-b", str(q))
    assert product.exit_code == 0
    from hfg.projective import hadamard_point

    expected = point_ideal(hadamard_point(Point((1, 2, 3)), Point((2, 1, 1))))
    assert ideal_equal(ideal_from_json(json.loads(product.output)), expected)


def test_hadamard_rejects_missing_file(runner, tmp_path):
    result = runner.invoke(
        cli.main,
        ["hadamard", "--ideal-a", str(tmp_path / "x.json"), "--ideal-b", str(tmp_path / "y.json")],
    )
    assert result.exit_code == 2


_GOOD_IDEAL = {"vars": ["x0", "x1", "x2"], "gens": [[["1", [1, 0, 0]]]]}
_BAD_IDEALS = {
    "zero-denominator-term": {"vars": ["x0", "x1", "x2"], "gens": [[["1/0", [1, 0, 0]]]]},
    "zero-denominator-text": {"vars": ["x0", "x1", "x2"], "gens": ["x0 + 1/0*x1"]},
    "negative-exponent": {"vars": ["x0", "x1", "x2"], "gens": [[["1", [-1, 0, 0]]]]},
    "fractional-exponent": {"vars": ["x0", "x1", "x2"], "gens": [[["1", [1.5, 0, 0]]]]},
    "bool-exponent": {"vars": ["x0", "x1", "x2"], "gens": [[["1", [True, 0, 0]]]]},
    "float-coefficient": {"vars": ["x0", "x1", "x2"], "gens": [[[0.1, [1, 0, 0]]]]},
    "bool-coefficient": {"vars": ["x0", "x1", "x2"], "gens": [[[True, [1, 0, 0]]]]},
    "repeated-variable": {"vars": ["x0", "x0", "x2"], "gens": []},
    "gens-not-a-list": {"vars": ["x0", "x1", "x2"], "gens": 5},
}


@pytest.mark.parametrize("command", ["hadamard", "join"])
@pytest.mark.parametrize("bad", list(_BAD_IDEALS.values()), ids=list(_BAD_IDEALS))
def test_malformed_ideal_file_is_an_input_error(runner, tmp_path, command, bad):
    good, broken = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(_GOOD_IDEAL))
    broken.write_text(json.dumps(bad))
    result = runner.invoke(
        cli.main, [command, "--ideal-a", str(good), "--ideal-b", str(broken)]
    )
    assert result.exit_code == 2
    assert result.stderr.startswith("input parse error: ")
    assert "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("command", ["hadamard", "join"])
def test_ideals_on_different_blocks_are_a_named_error(runner, tmp_path, command):
    good, other = tmp_path / "good.json", tmp_path / "other.json"
    good.write_text(json.dumps(_GOOD_IDEAL))
    other.write_text(json.dumps({"vars": ["y0", "y1"], "gens": []}))
    result = runner.invoke(
        cli.main, [command, "--ideal-a", str(good), "--ideal-b", str(other)]
    )
    assert result.exit_code == 2
    assert result.stderr.startswith("variable block mismatch: ")
    assert isinstance(result.exception, SystemExit)


def test_power_check_command(runner):
    result = invoke(runner, "power-check", "--p", "1:2:3", "--q", "2:1:1", "-m", "2", "-n", "2")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["passed"] is True


def test_power_check_rejects_undefined_product(runner):
    result = runner.invoke(cli.main, ["power-check", "--p", "1:0:0", "--q", "0:1:0"])
    assert result.exit_code == 2
    assert "domain error" in result.output


def test_power_check_rejects_the_zero_point(runner):
    result = runner.invoke(cli.main, ["power-check", "--p", "0:0:0", "--q", "1:1:1"])
    assert result.exit_code == 2
    assert result.output == (
        "domain error: the coordinates of a point must not all vanish\n"
    )


def test_power_check_rejects_bad_point_text(runner):
    result = runner.invoke(cli.main, ["power-check", "--p", "1:2", "--q", "1:1:1"])
    assert result.exit_code == 2
    assert "input parse error" in result.output


def test_power_check_has_no_budget_flag(runner):
    result = runner.invoke(
        cli.main,
        ["power-check", "--p", "1:2:3", "--q", "2:1:1", "--budget-degree", "64"],
    )
    assert result.exit_code == 2
    assert "No such option" in result.output
    assert "--budget-degree" in result.output


_LIBRARY_ERRORS = [
    ([command, "--m", "0", "--n", "1"], "invalid grid: ")
    for command in ("grid", "resolution", "generators", "invariants", "verify")
] + [
    ([command, "--ideal-a", "missing.json", "--ideal-b", "missing.json"],
     "input parse error: ")
    for command in ("hadamard", "join")
] + [(["power-check", "--p", "1:0:0", "--q", "0:1:0"], "domain error: ")]


@pytest.mark.parametrize(
    "argv, prefix", _LIBRARY_ERRORS, ids=[argv[0] for argv, _ in _LIBRARY_ERRORS]
)
def test_every_command_exits_2_on_a_library_error(runner, argv, prefix):
    with runner.isolated_filesystem():
        result = runner.invoke(cli.main, argv)
    assert result.exit_code == 2
    assert result.output.startswith(prefix)
    assert "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit)


def test_table_and_json_carry_the_same_data(runner):
    as_json = invoke(runner, "resolution", "--m", "1,2", "--n", "1,2")
    as_table = invoke(runner, "resolution", "--m", "1,2", "--n", "1,2", "--format", "table")
    data = json.loads(as_json.output)
    for key, value in data.items():
        assert key in as_table.output
        for item in value:
            assert str(item) in as_table.output


def test_verify_builds_each_grid_oracle_once(runner, monkeypatch):
    calls = []
    build = hfg.verify.grid_ideal_intersection

    def counted(g, budget):
        calls.append(g.total_multiplicity)
        return build(g, budget)

    monkeypatch.setattr(hfg.verify, "grid_ideal_intersection", counted)
    result = invoke(
        runner, "verify", "--m", "1,2", "--n", "1,2", "--t-max", "2", "--jobs", "1"
    )
    assert result.exit_code == 0
    # the base grid only: t=2 reads the leading terms of the oracle's square
    assert calls == [8]


def test_verify_rejects_certificate_depth_before_any_oracle(runner, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("oracle work before the depth check")

    monkeypatch.setattr(hfg.verify, "grid_ideal_intersection", forbidden)
    monkeypatch.setattr(hfg.verify, "hilbert_series_oracle", forbidden)
    result = runner.invoke(
        cli.main,
        [
            "verify", "--m", "2,3,3", "--n", "2,3,4,4",
            "--t-max", "0", "--budget-degree", "64",
        ],
    )
    assert result.exit_code == 2
    assert result.output == (
        "domain error: the elimination oracle's last power t_max (--t-max)"
        " must be a positive integer\n"
    )


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_rejects_jobs_below_one_before_the_grid(runner, monkeypatch, jobs):
    def forbidden(*args, **kwargs):
        raise AssertionError("grid built before the --jobs check")

    monkeypatch.setattr(cli, "abstract_grid", forbidden)
    result = runner.invoke(
        cli.main, ["verify", "--m", "1,2", "--n", "1,1", "--jobs", jobs]
    )
    assert result.exit_code == 2
    assert result.output == "input parse error: --jobs must be a positive integer\n"


def _table_rows(text):
    """The cells of an aligned table: columns but the last are padded, they
    are joined by two spaces, and no cell holds two spaces in a row."""
    lines = text.splitlines()
    assert [line for line in lines if line != line.rstrip()] == []
    return [re.split(r" {2,}", line) for line in lines]


def test_verify_table_has_one_row_per_json_instance(runner):
    args = ["verify", "--m", "1,2", "--n", "1,1", "--t-max", "2"]
    data = json.loads(invoke(runner, *args).output)
    table = invoke(runner, *args, "--format", "table").output
    head, rows = table.split("\n\n")
    assert head.splitlines() == [
        "subject: %s" % data["subject"],
        "passed: yes",
        "checks: %d" % data["checks"],
        "pass: %d" % data["checks"],
        "fail: 0",
        "skipped: 0",
    ]
    header, *cells = _table_rows(rows)
    assert header == ["label", "expected", "computed", "status", "passed", "flag"]
    assert [row[:3] for row in cells] == [
        [inst["label"], inst["expected"], inst["computed"]]
        for inst in data["instances"]
    ]
    assert len(cells) == data["checks"]


def test_generators_table_has_one_row_per_pattern(runner):
    args = ["generators", "--m", "1,2", "--n", "1"]
    data = json.loads(invoke(runner, *args).output)
    header, *cells = _table_rows(invoke(runner, *args, "--format", "table").output)
    assert header == list(data[0])
    assert cells == [
        [
            " ".join(map(str, v)) if isinstance(v, list) else str(v)
            for v in pattern.values()
        ]
        for pattern in data
    ]


def test_grid_table_joins_coordinates_with_colons(runner):
    args = ["grid", "--m", "1,2", "--n", "1"]
    data = json.loads(invoke(runner, *args).output)
    table = dict(
        line.split(None, 1)
        for line in invoke(runner, *args, "--format", "table").output.splitlines()
    )
    points = [":".join(p) for p in data["col_points"]]
    assert table["col_points"] == " ".join(points) == "1:1:2 1:1:3"
    assert table["row_points"] == ":".join(data["row_points"][0])
    assert table["row_line"] == ":".join(data["row_line"]) == "1:0:-1"
    assert table["grid_points"] == " | ".join(
        ":".join(p) for p in data["grid_points"][0]
    )
    assert table["v_lines"] == " ".join(":".join(c) for c in data["v_lines"])
    assert table["mult"] == "1 2"


@pytest.mark.parametrize(
    "argv",
    [
        # the skip flags make the last column wide, and most rows have "-"
        ["verify", "--m", "1,2", "--n", "1,2", "--t-max", "3", "--budget-degree", "12"],
        ["power-check", "--p", "1:2:3", "--q", "2:1:1", "-m", "2", "-n", "1"],
    ],
)
def test_table_rows_end_without_spaces(runner, argv):
    result = runner.invoke(cli.main, argv + ["--format", "table"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert len(lines) > 2
    assert [line for line in lines if line.endswith(" ")] == []


def test_verify_help_names_both_uses_of_t_max(runner):
    """The help names the one use of ``--t-max``, the elimination oracle's
    depth, and says the certificate does not depend on it."""
    text = " ".join(invoke(runner, "verify", "--help").output.split())
    assert "elimination oracle's" in text
    assert "t = 2..t-max; 1 runs none" in text
    assert "resurgence certificate is checked once for every t" in text
