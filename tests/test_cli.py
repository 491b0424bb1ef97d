import csv
import json
import subprocess
import sys

import numpy as np
import pytest

import devrating.cli
import devrating.improve
from devrating.cli import main
from devrating.rating import RatingError
from devrating.games import save_game
from devrating.gamify import ScoreTable, save_score_table
from devrating.examples import biased_shapley

TABLE_RATING = -2720.0 / 964.0


@pytest.fixture
def shapley_json(tmp_path):
    path = tmp_path / "shapley.json"
    save_game(biased_shapley(), path)
    return str(path)


@pytest.fixture
def table_csv(tmp_path):
    rng = np.random.default_rng(12)
    table = ScoreTable(
        ("m1", "m2", "m3", "m4"),
        ("t1", "t2", "t3"),
        np.round(rng.uniform(0, 1, (4, 3)), 3),
    )
    path = tmp_path / "table.csv"
    save_score_table(table, path)
    return str(path)


def test_rate_deviation_game_json(tmp_path, shapley_json):
    out = str(tmp_path / "ratings.json")
    assert main(["rate", "--input", shapley_json, "--output", out]) == 0
    payload = json.loads(open(out).read())
    values = [v for player in payload["ratings"].values() for v in player.values()]
    assert len(values) == 8
    assert all(abs(v - TABLE_RATING) < 1e-6 for v in values)
    assert payload["certificate"]["stage_count"] <= 8
    manifest = json.loads(open(out + ".manifest.json").read())
    assert manifest["command"] == "rate"
    assert shapley_json in manifest["inputs"]
    assert out in manifest["outputs"]


def test_rate_rerun_is_byte_identical(tmp_path, shapley_json):
    out1 = str(tmp_path / "r1.json")
    out2 = str(tmp_path / "r2.json")
    assert main(["rate", "--input", shapley_json, "--output", out1]) == 0
    assert main(["rate", "--input", shapley_json, "--output", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_rate_uniform_3p_model_symmetry(tmp_path, table_csv):
    out = str(tmp_path / "u.json")
    code = main(
        ["rate", "--input", table_csv, "--gamify", "3p", "--method", "uniform",
         "--output", out]
    )
    assert code == 0
    payload = json.loads(open(out).read())
    a, b = payload["ratings"]["model_a"], payload["ratings"]["model_b"]
    assert all(abs(a[m] - b[m]) < 1e-12 for m in a)


def test_rate_elo_and_nash_avg(tmp_path, table_csv):
    out = str(tmp_path / "elo.json")
    assert main(["rate", "--input", table_csv, "--method", "elo", "--output", out]) == 0
    payload = json.loads(open(out).read())
    assert payload["method"] == "elo" and payload["converged"]
    out2 = str(tmp_path / "na.json")
    code = main(
        ["rate", "--input", table_csv, "--gamify", "2pzs", "--method", "nash-avg",
         "--output", out2]
    )
    assert code == 0
    assert json.loads(open(out2).read())["method"] == "nash-avg"


def test_rate_elo_converges_when_one_model_beats_every_other(tmp_path):
    # m1 has the table's largest margin over both other models; a margin
    # bound equal to it would map that margin to a win probability of 1,
    # for which no finite Elo fit exists
    path = tmp_path / "scores.csv"
    path.write_text("model,t1,t2\nm1,0.1,0.9\nm2,0.5,0.4\nm3,0.7,0.2\n", encoding="utf-8")
    out = tmp_path / "elo.json"
    assert main(["rate", "--input", str(path), "--method", "elo", "--output", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["converged"] and payload["iterations"] < 20000
    ratings = payload["ratings"]
    assert sorted(ratings) == ["m1", "m2", "m3"] and abs(sum(ratings.values())) < 1e-9
    assert all(np.isfinite(list(ratings.values())))


def test_rate_incompatible_combinations_exit_2(tmp_path, shapley_json, table_csv):
    assert main(["rate", "--input", table_csv, "--gamify", "3p",
                 "--method", "nash-avg", "--output", str(tmp_path / "x.json")]) == 2
    assert main(["rate", "--input", shapley_json, "--gamify", "3p",
                 "--output", str(tmp_path / "y.json")]) == 2
    assert main(["rate", "--input", shapley_json, "--method", "elo",
                 "--output", str(tmp_path / "z.json")]) == 2
    assert main(["rate", "--input", str(tmp_path / "missing.json")]) == 2


def test_rate_bad_tol_exit_2(tmp_path, capsys):
    # a negative tie band is bad input, not a solver failure
    assert main(["rate", "--input", "shapley", "--tol", "-1",
                 "--output", str(tmp_path / "x.json")]) == 2
    assert "active_tol" in capsys.readouterr().err


def test_rate_malformed_json_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["rate", "--input", str(bad)]) == 2
    # valid JSON but not a game: strategies as a number, players as a
    # string, payoffs as booleans
    for players, strategies, payoffs in (
        (["p1", "p2"], 5, [[0.0], [1.0]]),
        ("ab", [["x"], ["y"]], [[0.0], [1.0]]),
        (["p1", "p2"], [["x"], ["y"]], [[True], [False]]),
    ):
        bad.write_text(json.dumps({"players": players, "strategies": strategies, "payoffs": payoffs}))
        assert main(["rate", "--input", str(bad), "--output", str(tmp_path / "out.json")]) == 2
    assert not (tmp_path / "out.json").exists()


def test_solver_failure_exit_3(tmp_path, monkeypatch, capsys):
    def failing(game, config=None):
        raise RatingError("stage LP failed", "kInfeasible")

    monkeypatch.setattr(devrating.cli, "deviation_rating", failing)
    monkeypatch.setattr(devrating.improve, "deviation_rating", failing)
    assert main(["rate", "--input", "shapley", "--output", str(tmp_path / "r.json")]) == 3
    assert capsys.readouterr().err.startswith("error: solver failure: stage LP failed")
    assert main(["simulate", "--input", "random:3x3", "--iters", "3", "--output", str(tmp_path / "sim")]) == 3
    assert capsys.readouterr().err.startswith("error: solver failure: iteration 0: stage LP failed")
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "sim" / "manifest.json").exists()


def test_manifests_echo_the_configuration(tmp_path, table_csv):
    out = str(tmp_path / "c.csv")
    assert main(["contributions", "--input", table_csv, "--output", out, "--tol", "1e-7", "--seed", "3"]) == 0
    manifest = json.loads(open(out + ".manifest.json").read())
    assert manifest["config"] == {"format": "auto", "gamify": "none", "model_player": "model_a",
                                  "tol": 1e-7, "input": table_csv}
    assert (manifest["command"], manifest["seed"]) == ("contributions", 3)
    out = str(tmp_path / "u.json")
    assert main(["rate", "--input", table_csv, "--gamify", "3p", "--method", "uniform", "--output", out]) == 0
    manifest = json.loads(open(out + ".manifest.json").read())
    assert manifest["config"] == {"format": "auto", "gamify": "3p", "method": "uniform", "tol": None, "input": table_csv}
    assert (manifest["command"], manifest["seed"]) == ("rate", 0)


def test_contributions_row_sums(tmp_path, table_csv):
    out = str(tmp_path / "c.csv")
    assert main(["contributions", "--input", table_csv, "--output", out]) == 0
    rows = list(csv.reader(open(out)))
    assert rows[0][-1] == "rating"
    for row in rows[1:]:
        parts = [float(x) for x in row[1:]]
        assert abs(sum(parts[:-1]) - parts[-1]) < 1e-8
    assert main(["contributions", "--input", table_csv, "--output", out,
                 "--model-player", "model_b"]) == 0


def test_contributions_rejects_game_json(tmp_path, shapley_json):
    assert main(["contributions", "--input", shapley_json,
                 "--output", str(tmp_path / "c.csv")]) == 2


def test_contributions_rejects_gamify_2pzs(tmp_path, table_csv, capsys):
    out = tmp_path / "c.csv"
    assert main(["contributions", "--input", table_csv, "--gamify", "2pzs", "--output", str(out)]) == 2
    assert "--gamify 3p or none" in capsys.readouterr().err
    assert not out.exists()
    assert main(["contributions", "--input", table_csv, "--gamify", "3p", "--output", str(out)]) == 0


def test_dump_json_leaves_no_partial_file(tmp_path):
    path = tmp_path / "x.json"
    devrating.cli._dump_json({"a": 1}, str(path))
    with pytest.raises(TypeError):
        devrating.cli._dump_json({"a": object()}, str(path))
    assert path.read_text() == '{\n  "a": 1\n}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["x.json"]


def test_outputs_create_missing_parent_dirs(tmp_path, shapley_json, table_csv):
    rate_out = str(tmp_path / "new" / "dir" / "ratings.json")
    assert main(["rate", "--input", shapley_json, "--output", rate_out]) == 0
    assert json.loads(open(rate_out).read())["method"] == "deviation"
    contrib_out = str(tmp_path / "other" / "c.csv")
    assert main(["contributions", "--input", table_csv, "--output", contrib_out]) == 0
    assert list(csv.reader(open(contrib_out)))


def test_simulate_writes_trajectories_and_aggregate(tmp_path):
    out = str(tmp_path / "sim")
    code = main(
        ["simulate", "--input", "random:2x2", "--method", "uniform", "--iters", "3",
         "--trials", "2", "--seed", "4", "--output", out]
    )
    assert code == 0
    names = sorted(p.name for p in (tmp_path / "sim").iterdir())
    assert names == [
        "aggregate.csv",
        "manifest.json",
        "trajectory_seed4.csv",
        "trajectory_seed5.csv",
    ]
    agg = [l for l in open(f"{out}/aggregate.csv").read().splitlines() if l]
    assert agg[0] == "iteration,median_cce_gap"
    assert len(agg) == 4
    assert all(float(l.split(",")[1]) >= 0.0 for l in agg[1:])
    manifest = json.loads(open(f"{out}/manifest.json").read())
    assert manifest["config"] == {"method": "uniform", "iters": 3, "trials": 2, "pop_size": 8,
                                  "cull_fraction": 0.25, "format": "auto", "gamify": "none",
                                  "tol": None, "input": "random:2x2"}
    assert sorted(manifest["outputs"]) == [f"{out}/{name}" for name in names if name != "manifest.json"]


def test_simulate_deterministic(tmp_path):
    args = ["simulate", "--input", "random:2x2", "--method", "deviation",
            "--iters", "2", "--trials", "1", "--seed", "9"]
    assert main(args + ["--output", str(tmp_path / "a")]) == 0
    assert main(args + ["--output", str(tmp_path / "b")]) == 0
    a = open(tmp_path / "a" / "trajectory_seed9.csv", "rb").read()
    b = open(tmp_path / "b" / "trajectory_seed9.csv", "rb").read()
    assert a == b


def test_check_clone_deviation_passes(capsys):
    assert main(["check", "--input", "random", "--property", "clone",
                 "--method", "deviation", "--trials", "6", "--seed", "0"]) == 0
    assert "PASS clone" in capsys.readouterr().out


def test_check_clone_uniform_fails_with_witness(tmp_path, capsys):
    code = main(["check", "--input", "random", "--property", "clone",
                 "--method", "uniform", "--trials", "20", "--seed", "0",
                 "--output", str(tmp_path)])
    assert code == 4
    witnesses = list(tmp_path.glob("witness_clone_*.json"))
    assert len(witnesses) == 1
    payload = json.loads(witnesses[0].read_text())
    assert payload["property"] == "clone"
    assert {"game", "transformed"} <= set(payload)


def test_check_bounds_deviation_passes():
    assert main(["check", "--input", "random", "--property", "bounds",
                 "--method", "deviation", "--trials", "6", "--seed", "3"]) == 0


def test_check_fixed_input_game(shapley_json):
    assert main(["check", "--input", shapley_json, "--property", "clone",
                 "--method", "deviation", "--trials", "2", "--seed", "1"]) == 0


def test_generator_specs_reject_gamify_and_format(capsys):
    # check reads --gamify and --format on generator specs as rate does
    for flags, message in ((["--gamify", "3p"], "--gamify applies to score tables"),
                           (["--gamify", "2pzs"], "--gamify applies to score tables"),
                           (["--format", "game-json"], "--format applies to input files")):
        for spec in ("random:2x2", "random", "shapley"):
            for command in (["rate"], ["check", "--property", "clone", "--trials", "1"]):
                assert main([*command, "--input", spec, *flags]) == 2
                assert message in capsys.readouterr().err


def test_check_rejects_bad_tol_and_trials(tmp_path, capsys):
    for tol in ("nan", "-1"):
        assert main(["check", "--input", "shapley", "--property", "clone",
                     "--trials", "2", "--tol", tol, "--output", str(tmp_path)]) == 2
        assert "tolerance" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())  # no witness for a bad tolerance
    for argv in (["check", "--input", "random:2x2", "--property", "clone", "--trials", "0"],
                 ["simulate", "--input", "random:2x2", "--trials", "0", "--iters", "1",
                  "--output", str(tmp_path / "sim")]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--trials: must be at least 1" in capsys.readouterr().err


def test_console_entry_point(shapley_json):
    proc = subprocess.run(
        [sys.executable, "-m", "devrating.cli", "rate", "--input", shapley_json],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["method"] == "deviation"
