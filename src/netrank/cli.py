"""Command-line front end: load networks, rank them, compare score files."""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from typing import Optional

from . import experiments, graph_core, rank_stats
from .eigenrank import (
    MultiplicityError,
    NonConvergenceError,
    DegenerateVectorError,
    PowerIterConfig,
    ScoreVector,
    markovrank,
    pagerank,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MULTIPLICITY = 2


def _load_network(args) -> graph_core.AdjacencyMatrix:
    if args.format == "dense":
        for option, value in (("--roster", args.roster), ("--edge-cols", args.edge_cols)):
            if value is not None:
                raise ValueError(f"{option} applies to --format edgelist only")
        return graph_core.read_dense_csv(args.input)
    edge_cols = "following,followed" if args.edge_cols is None else args.edge_cols
    follower_col, _, followed_col = (c.strip() for c in edge_cols.partition(","))
    if not (follower_col and followed_col):
        raise ValueError(
            "--edge-cols expects two comma-separated column names "
            f"(FOLLOWER,FOLLOWED), got {edge_cols!r}"
        )
    ends = graph_core._read_ends(args.input, follower_col, followed_col)
    roster = graph_core.read_roster_csv(args.roster) if args.roster else None
    return graph_core._from_ends(ends, roster)


def _emit(text: str, output: Optional[str]):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _format_scores(scores: ScoreVector, ranks, out_format: str) -> str:
    if out_format == "json":
        records = [
            {"label": label, "score": float(f"{s:.10g}"), "rank": float(r)}
            for label, s, r in zip(scores.labels, scores.values, ranks)
        ]
        return json.dumps(records, indent=2) + "\n"
    values, rank_values = scores.values.tolist(), ranks.tolist()
    joined = "".join(scores.labels)
    # ranks are half-integers, which {:g} rounds from 100000 on
    if not any(c in joined for c in ',"\r\n\0'):  # no label that csv.writer would quote
        return "label,score,rank\n" + "".join(
            map("{},{:.10g},{:.15g}\n".format, scores.labels, values, rank_values))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["label", "score", "rank"])
    writer.writerows(zip(scores.labels, map("{:.10g}".format, values),
                         map("{:.15g}".format, rank_values)))
    return out.getvalue()


def _run_ranking(args) -> int:
    for option, value in (("--tol", args.tol), ("--max-iter", args.max_iter)):
        if value is not None and args.method != "power":
            raise ValueError(f"{option} applies to --method power only")
    given = {"tolerance": args.tol, "max_iterations": args.max_iter}
    cfg = PowerIterConfig(**{field: v for field, v in given.items() if v is not None})
    adj = _load_network(args)
    scores = args.rank(adj, args.param, args.method, cfg)
    if scores.degenerate:
        print(
            "WARN: degenerate scores (some value <= 1e-12 or negative); "
            "the parameter sits in an unstable regime",
            file=sys.stderr,
        )
    ranks = rank_stats.rank_statistic(scores, args.tie_tol).ranks
    _emit(_format_scores(scores, ranks, args.out), args.output)
    return EXIT_OK


def _read_score_csv(path) -> tuple[list[str], list[float]]:
    """The labels and scores of a `compare` file, read by graph_core._read_columns."""
    _, fields, line = graph_core._read_columns(path, ("label", "score"))
    if fields is None:
        raise ValueError(f"{path}: score file needs 'label' and 'score' columns")

    def fail(k: int, problem: str):
        raise ValueError(f"{path}, line {line(k)}: {problem}")

    first: dict[str, int] = {}  # label -> its data row, in file order
    scores = []
    for k, (label, score) in enumerate(zip(fields[0::2], fields[1::2])):
        if label is None:
            fail(k, "row has no label")
        if not label:
            fail(k, "row has an empty 'label' field")
        try:
            scores.append(float(score))
        except (TypeError, ValueError):
            fail(k, f"missing or non-numeric score {score!r}")
        if not math.isfinite(scores[-1]):
            fail(k, f"non-finite score {score!r}")
        if label in first:
            fail(k, f"repeats label {label!r} (first on line {line(first[label])})")
        first[label] = k
    if not first:
        raise ValueError(f"{path}: score file has no rows")
    return list(first), scores


def cmd_compare(args) -> int:
    labels_a, scores_a = _read_score_csv(args.file_a)
    labels_b, scores_b = _read_score_csv(args.file_b)
    if set(labels_a) != set(labels_b):
        raise ValueError("score files cover different label sets")
    by_label = dict(zip(labels_b, scores_b))
    scores_b = [by_label[l] for l in labels_a]
    relations = rank_stats.compare(scores_a, scores_b, args.tie_tol)
    for name, value in zip(("agreement_count", "identical", "a_finer_b", "b_finer_a"), relations):
        print(f"{name}: {str(value).lower()}")
    return EXIT_OK


def parse_block_spec(text: str, zero_diagonal: bool, seed: int) -> experiments.BlockSpec:
    """Parse grid syntax 'RxC@p,RxC@p;RxC@p,RxC@p' (rows ';', cells ',')."""
    grid = []
    for row_text in text.split(";"):
        row = []
        for cell_text in row_text.split(","):
            cell = cell_text.strip()
            try:
                dims, density = cell.split("@")
                rows, cols = dims.lower().split("x")
                row.append((int(rows), int(cols), float(density)))
            except ValueError:
                raise ValueError(f"bad block cell {cell!r}, expected 'RxC@p'") from None
        grid.append(tuple(row))
    return experiments.BlockSpec(tuple(grid), zero_diagonal=zero_diagonal, seed=seed)


def cmd_gen(args) -> int:
    for option, given, model in (
        ("--n", args.n is not None, "er"),
        ("--p", args.p is not None, "er"),
        ("--blocks", args.blocks is not None, "block"),
        ("--no-zero-diagonal", not args.zero_diagonal, "block"),
    ):
        if given and model != args.model:
            raise ValueError(f"{option} applies to --model {model} only")
    if args.model == "er":
        if args.n is None or args.p is None:
            raise ValueError("--model er requires --n and --p")
        adj = experiments.gen_er(args.n, args.p, args.seed)
    else:
        if not args.blocks:
            raise ValueError("--model block requires --blocks")
        adj = experiments.gen_block(
            parse_block_spec(args.blocks, args.zero_diagonal, args.seed)
        )
    with open(args.out, "wb") as fh:
        fh.write(graph_core._digit_grid_bytes(adj.entries))
    return EXIT_OK


def _parse_grid(
    text: Optional[str], option: str, default: tuple[float, ...]
) -> tuple[float, ...]:
    """The comma-separated values of a grid option; `default` when it is not given."""
    if text is None:
        return default
    values = []
    for token in filter(None, (t.strip() for t in text.split(","))):
        try:
            values.append(float(token))
        except ValueError:
            raise ValueError(f"{option}: non-numeric value {token!r}") from None
    if not values:
        raise ValueError(f"{option}: no values in {text!r}")
    return tuple(values)


def cmd_sweep(args) -> int:
    alphas = _parse_grid(args.alphas, "--alphas", experiments.DEFAULT_ALPHAS)
    epsilons = _parse_grid(args.epsilons, "--epsilons", experiments.DEFAULT_EPSILONS)
    adj = _load_network(args)
    report = experiments.invariance_sweep(adj, alphas, epsilons, tie_tol=args.tie_tol)
    text = report.to_json() + "\n" if args.out == "json" else report.to_csv()
    _emit(text, args.output)
    return EXIT_OK


def _add_network_options(p: argparse.ArgumentParser):
    p.add_argument("input", help="network file (dense CSV or edge-list CSV)")
    p.add_argument("--format", choices=("dense", "edgelist"), default="dense")
    p.add_argument("--roster", help="roster CSV with a screen_name column (edgelist only)")
    p.add_argument(
        "--edge-cols",
        metavar="FOLLOWER,FOLLOWED",
        help="edge-list column names (edgelist only; default: following,followed)",
    )


def _tie_tol(text: str) -> float:
    """--tie-tol: NaN and negative values, which would tie no two scores, are refused."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative number, got {text!r}")
    return value


def _add_ranking_options(p: argparse.ArgumentParser):
    _add_network_options(p)
    p.add_argument("--method", choices=("exact", "power"), default="exact")
    p.add_argument("--tol", type=float, help="power-iteration tolerance "
                   f"(--method power only; default: {PowerIterConfig.tolerance:g})")
    p.add_argument("--max-iter", type=int, help="power-iteration step limit "
                   f"(--method power only; default: {PowerIterConfig.max_iterations})")
    p.add_argument("--tie-tol", type=_tie_tol, default=rank_stats.DEFAULT_TIE_TOL)
    p.add_argument("--out", choices=("csv", "json"), default="csv")
    p.add_argument("--output", help="write to this path instead of stdout")


@functools.cache  # built once per process: parse_args leaves a parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netrank", description="Rank directed networks and compare rankings."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, rank, flag, default in (
        ("pagerank", "damped ranking", pagerank, "--alpha", 0.85),
        ("markovrank", "augmented-chain ranking", markovrank, "--epsilon", 1.0),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_ranking_options(p)
        p.add_argument(flag, dest="param", metavar=flag[2:].upper(), type=float, default=default)
        p.set_defaults(run=_run_ranking, rank=rank)

    p = sub.add_parser("compare", help="compare two score CSV files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--tie-tol", type=_tie_tol, default=rank_stats.DEFAULT_TIE_TOL)
    p.set_defaults(run=cmd_compare)

    p = sub.add_parser("gen", help="generate a random adjacency CSV")
    p.add_argument("--model", choices=("er", "block"), required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--blocks", help="block grid, e.g. '80x80@0.1,80x20@0;20x80@0.1,20x20@0.1'")
    p.add_argument(
        "--zero-diagonal",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="force a zero diagonal on the assembled matrix",
    )
    p.add_argument("--out", required=True, help="output path for the dense CSV")
    p.set_defaults(run=cmd_gen)

    p = sub.add_parser("sweep", help="rank-invariance sweep over alpha/epsilon grids")
    _add_network_options(p)
    p.add_argument("--alphas", help="comma-separated alpha grid")
    p.add_argument("--epsilons", help="comma-separated epsilon grid")
    p.add_argument("--tie-tol", type=_tie_tol, default=rank_stats.DEFAULT_TIE_TOL)
    p.add_argument("--out", choices=("json", "csv"), default="json")
    p.add_argument("--output", help="write to this path instead of stdout")
    p.set_defaults(run=cmd_sweep)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error; 2 means multiplicity here
        if exc.code == 2:
            return EXIT_INPUT
        raise
    try:
        return args.run(args)
    except MultiplicityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MULTIPLICITY
    except (ValueError, OSError, MemoryError, NonConvergenceError, DegenerateVectorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
