"""Command-line interface: rate, contributions, simulate, check.

Inputs are game JSON files, score-table CSVs, or generator specs
("shapley", "random", "random:3x3x2").  Every file-producing run writes
a manifest next to its outputs with input/output hashes, the seed, and
the full configuration, so runs can be reproduced byte-for-byte.

Exit codes: 0 success, 2 input/format/compatibility error, 3 solver
failure, 4 property-check failure (witness dumped to a JSON file).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys

import numpy as np

from . import __version__
from .analysis import PROPERTY_NAMES, check_property, task_contributions, save_contributions
from .baselines import (
    EloConfig,
    elo_fit,
    nash_averaging_2pzs,
    payoff_to_winprob,
    uniform_rating,
)
from .cce import DistributionError
from .examples import biased_shapley
from .games import GameError, NormalFormGame, load_game, random_game
from .gamify import (
    game_from_table_2pzs,
    game_from_table_3p,
    load_score_table,
    pairwise_margins,
)
from .improve import RATERS, ImprovementLoopError, LoopConfig, run_improvement_loop, save_trajectory
from .rating import (
    RatingError,
    SolverConfig,
    deviation_rating,
    rating_certificate,
    result_to_dict,
)

EXIT_OK = 0
EXIT_FORMAT = 2
EXIT_SOLVER = 3
EXIT_PROPERTY = 4

FORMATS = ("auto", "game-json", "scoretable-csv")
GAMIFY_MODES = ("none", "3p", "2pzs")
METHODS = ("deviation", "uniform", "elo", "nash-avg")

_RANDOM_SPEC = re.compile(r"^random(?::(\d+(?:x\d+)+))?$")


class InputFormatError(ValueError):
    """Unreadable/invalid input or an incompatible flag combination."""


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _ensure_parent(path) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)


def _dump_json(obj, path) -> None:
    """Write ``obj`` as sorted, indented JSON atomically (temp file +
    rename), so a crash never leaves a half-written file."""
    _ensure_parent(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_manifest(manifest_path, args, inputs, outputs) -> None:
    """Hash inputs/outputs and echo every parsed argument but the
    command, seed and output as the configuration."""
    config = {key: value for key, value in vars(args).items()
              if key not in ("command", "func", "seed", "output")}
    _dump_json({
        "command": args.command,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "config": config,
        "seed": args.seed,
        "tool_version": __version__,
        "outputs": {str(p): _sha256(p) for p in outputs},
    }, manifest_path)


def _parse_random_spec(spec: str, rng: np.random.Generator) -> NormalFormGame:
    match = _RANDOM_SPEC.match(spec)
    if match is None:
        raise InputFormatError(f"bad generator spec {spec!r}")
    if match.group(1):
        sizes = tuple(int(n) for n in match.group(1).split("x"))
    else:
        players = int(rng.integers(2, 4))
        sizes = tuple(int(rng.integers(2, 5)) for _ in range(players))
    return random_game(rng, sizes)


def _load_input(args, rng: np.random.Generator):
    """Resolve --input/--format into ('game'|'table', object, file paths)."""
    spec = args.input
    if args.format != "auto" and (spec == "shapley" or _RANDOM_SPEC.match(spec)):
        raise InputFormatError(f"--format applies to input files, not the generator spec {spec!r}")
    if spec == "shapley":
        return "game", biased_shapley(), []
    if _RANDOM_SPEC.match(spec):
        return "game", _parse_random_spec(spec, rng), []
    if not os.path.exists(spec):
        raise InputFormatError(f"input {spec!r} is not a file or generator spec")
    fmt = args.format
    if fmt == "auto":
        ext = os.path.splitext(spec)[1].lower()
        if ext == ".json":
            fmt = "game-json"
        elif ext == ".csv":
            fmt = "scoretable-csv"
        else:
            raise InputFormatError(
                f"cannot infer format of {spec!r}; pass --format explicitly"
            )
    if fmt == "game-json":
        return "game", load_game(spec), [spec]
    return "table", load_score_table(spec), [spec]


def _gamified_game(kind, obj, gamify):
    if kind == "game":
        if gamify != "none":
            raise InputFormatError("--gamify applies to score tables, not games")
        return obj
    if gamify == "3p":
        return game_from_table_3p(obj)
    if gamify == "2pzs":
        return game_from_table_2pzs(obj)
    raise InputFormatError(
        "score tables need --gamify 3p or 2pzs for game-based methods"
    )


def _solver_config(args) -> SolverConfig:
    if getattr(args, "tol", None) is None:
        return SolverConfig()
    return SolverConfig(active_tol=float(args.tol))


def _rating_table(game, ratings) -> dict:
    """``{player: {strategy: rating}}`` for per-player rating vectors."""
    return {player: {s: float(r) for s, r in zip(names, row)}
            for player, names, row in zip(game.players, game.strategies, ratings)}


def _rate_payload(args, kind, obj) -> dict:
    method = args.method
    if method == "elo":
        if kind != "table":
            raise InputFormatError("elo requires a score-table CSV input")
        if args.gamify != "none":
            raise InputFormatError("elo fits the table directly; use --gamify none")
        labels, margins = pairwise_margins(obj)
        bound = float(np.max(np.abs(margins)))
        matrix = payoff_to_winprob(labels, margins, margin=bound if bound > 0 else 1.0)
        fit = elo_fit(matrix, EloConfig())
        return {
            "method": "elo",
            "labels": list(fit.labels),
            "ratings": fit.by_label(),
            "converged": bool(fit.converged),
            "iterations": int(fit.iterations),
            "loss": float(fit.loss),
        }

    game = _gamified_game(kind, obj, args.gamify)
    if method == "nash-avg":
        try:
            res = nash_averaging_2pzs(game)
        except GameError as exc:
            raise InputFormatError(f"nash-avg requires two-player zero-sum: {exc}") from exc
        return {
            "method": "nash-avg",
            "players": list(game.players),
            "ratings": _rating_table(game, res.ratings),
            "value": float(res.value),
            "unique": bool(res.unique),
        }
    if method == "uniform":
        return {"method": "uniform", "players": list(game.players), "ratings": _rating_table(game, uniform_rating(game))}
    result = deviation_rating(game, _solver_config(args))
    certificate = rating_certificate(game, result)
    payload = result_to_dict(result, certificate)
    payload["method"] = "deviation"
    return payload


def cmd_rate(args) -> int:
    rng = np.random.default_rng(args.seed)
    kind, obj, inputs = _load_input(args, rng)
    payload = _rate_payload(args, kind, obj)
    if args.output is None:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return EXIT_OK
    _dump_json(payload, args.output)
    _write_manifest(f"{args.output}.manifest.json", args, inputs, [args.output])
    print(f"wrote {args.output}")
    return EXIT_OK


def cmd_contributions(args) -> int:
    rng = np.random.default_rng(args.seed)
    kind, obj, inputs = _load_input(args, rng)
    if kind != "table":
        raise InputFormatError("contributions requires a score-table CSV input")
    if args.gamify == "2pzs":
        raise InputFormatError("contributions rates the three-player game; use --gamify 3p or none")
    game = game_from_table_3p(obj)
    result = deviation_rating(game, _solver_config(args))
    matrix = task_contributions(game, result, args.model_player)
    _ensure_parent(args.output)
    save_contributions(matrix, args.output)
    _write_manifest(f"{args.output}.manifest.json", args, inputs, [args.output])
    print(f"wrote {args.output}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    rng = np.random.default_rng(args.seed)
    kind, obj, inputs = _load_input(args, rng)
    game = _gamified_game(kind, obj, args.gamify)
    os.makedirs(args.output, exist_ok=True)
    outputs = []
    gap_rows = []
    for i in range(args.trials):
        config = LoopConfig(
            iterations=args.iters,
            population_size=args.pop_size,
            cull_fraction=args.cull_fraction,
            seed=args.seed + i,
            solver=_solver_config(args),
        )
        trajectory = run_improvement_loop(game, args.method, config)
        path = os.path.join(args.output, f"trajectory_seed{config.seed}.csv")
        save_trajectory(trajectory, path, players=game.players)
        outputs.append(path)
        gap_rows.append(trajectory.gaps())
    gaps = np.array(gap_rows)
    aggregate = os.path.join(args.output, "aggregate.csv")
    with open(aggregate, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iteration,median_cce_gap\n")
        for k in range(gaps.shape[1]):
            fh.write(f"{k},{float(np.median(gaps[:, k]))!r}\n")
    outputs.append(aggregate)
    _write_manifest(os.path.join(args.output, "manifest.json"), args, inputs, outputs)
    print(f"wrote {len(outputs)} files to {args.output}")
    return EXIT_OK


def cmd_check(args) -> int:
    rater = deviation_rating if args.method == "deviation" else uniform_rating
    rng = np.random.default_rng(args.seed)

    def load() -> NormalFormGame:
        kind, obj, _ = _load_input(args, rng)
        return _gamified_game(kind, obj, args.gamify)

    # a random spec draws a game per trial; any other input is one game
    fixed = None if _RANDOM_SPEC.match(args.input) else load()
    worst = None
    for trial in range(args.trials):
        game = fixed if fixed is not None else load()
        report = check_property(
            game, args.property, rater, seed=args.seed + trial, tolerance=args.tol
        )
        if worst is None or report.deviation > worst.deviation:
            worst = report
        if not report.passed:
            os.makedirs(args.output or ".", exist_ok=True)
            witness_path = os.path.join(
                args.output or ".", f"witness_{args.property}_seed{report.seed}.json"
            )
            _dump_json(
                {
                    "property": report.property,
                    "seed": report.seed,
                    "deviation": report.deviation,
                    "tolerance": report.tolerance,
                    "detail": report.detail,
                    **(report.witness or {}),
                },
                witness_path,
            )
            print(
                f"FAIL {args.property} trial {trial} seed {report.seed}: "
                f"deviation {report.deviation:.3e} > tol {report.tolerance:.1e}; "
                f"witness at {witness_path}",
                file=sys.stderr,
            )
            return EXIT_PROPERTY
    print(
        f"PASS {args.property} ({args.trials} trials, "
        f"worst deviation {worst.deviation:.3e} <= tol {worst.tolerance:.1e})"
    )
    return EXIT_OK


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="devrating",
        description="Clone-invariant deviation ratings for normal-form games.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, output_default=None,
               tol_help="active-constraint tolerance for the rating solver"):
        p.add_argument("--input", required=True,
                       help="game JSON / score-table CSV path, 'shapley', or 'random[:AxB[xC]]'")
        p.add_argument("--format", choices=FORMATS, default="auto")
        p.add_argument("--gamify", choices=GAMIFY_MODES, default="none")
        p.add_argument("--tol", type=float, default=None, help=tol_help)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", default=output_default)

    rate = sub.add_parser("rate", help="rate strategies and write rating JSON")
    common(rate)
    rate.add_argument("--method", choices=METHODS, default="deviation")
    rate.set_defaults(func=cmd_rate)

    contrib = sub.add_parser(
        "contributions", help="per-task rating contributions for a score table"
    )
    common(contrib, output_default="contributions.csv")
    contrib.add_argument("--model-player", default="model_a")
    contrib.set_defaults(func=cmd_contributions)

    sim = sub.add_parser("simulate", help="run the population improvement loop")
    common(sim, output_default="simulate_out")
    sim.add_argument("--method", choices=RATERS, default="deviation")
    sim.add_argument("--iters", type=int, default=200)
    sim.add_argument("--trials", type=positive_int, default=1, help="number of seeds to run")
    sim.add_argument("--pop-size", type=int, default=8)
    sim.add_argument("--cull-fraction", type=float, default=0.25)
    sim.set_defaults(func=cmd_simulate)

    check = sub.add_parser("check", help="randomized rating property checks")
    common(check, tol_help="largest deviation a property check passes with "
                           "(default: the property's own); the ratings use the default solver tolerance")
    check.add_argument("--property", choices=PROPERTY_NAMES, required=True)
    check.add_argument("--method", choices=RATERS, default="deviation")
    check.add_argument("--trials", type=positive_int, default=100)
    check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (GameError, DistributionError, json.JSONDecodeError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (RatingError, ImprovementLoopError) as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
