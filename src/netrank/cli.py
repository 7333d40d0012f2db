"""Command-line front end: load networks, rank them, compare score files."""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Optional

import numpy as np

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
        return graph_core.read_dense_csv(args.input)
    follower_col, _, followed_col = (c.strip() for c in args.edge_cols.partition(","))
    if not (follower_col and followed_col):
        raise ValueError(
            "--edge-cols expects two comma-separated column names "
            f"(FOLLOWER,FOLLOWED), got {args.edge_cols!r}"
        )
    edges = graph_core.read_edge_list_csv(args.input, follower_col, followed_col)
    roster = graph_core.read_roster_csv(args.roster) if args.roster else None
    return graph_core.load_edge_list(edges, roster)


def _emit(text: str, output: Optional[str]):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _format_scores(scores: ScoreVector, ranks, out_format: str) -> str:
    rows = zip(scores.labels, scores.values, ranks)
    if out_format == "json":
        records = [
            {"label": label, "score": float(f"{s:.10g}"), "rank": float(r)}
            for label, s, r in rows
        ]
        return json.dumps(records, indent=2) + "\n"
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["label", "score", "rank"])
    for label, s, r in rows:
        writer.writerow([label, f"{s:.10g}", f"{r:g}"])
    return out.getvalue()


def _run_ranking(args, solve) -> int:
    adj = _load_network(args)
    cfg = PowerIterConfig(tolerance=args.tol, max_iterations=args.max_iter)
    scores = solve(adj, cfg)
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
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"label", "score"} <= set(reader.fieldnames):
            raise ValueError(f"{path}: score file needs 'label' and 'score' columns")
        first_line: dict[str, int] = {}  # label -> line, in file order
        scores = []
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            label = row["label"]
            if label is None:
                raise ValueError(f"{where}: row has no label")
            try:
                scores.append(float(row["score"]))
            except (TypeError, ValueError):
                raise ValueError(
                    f"{where}: missing or non-numeric score {row['score']!r}"
                ) from None
            if label in first_line:
                raise ValueError(
                    f"{where}: repeats label {label!r} (first on line {first_line[label]})"
                )
            first_line[label] = reader.line_num
    if not first_line:
        raise ValueError(f"{path}: score file has no rows")
    return list(first_line), scores


def cmd_compare(args) -> int:
    labels_a, scores_a = _read_score_csv(args.file_a)
    labels_b, scores_b = _read_score_csv(args.file_b)
    if set(labels_a) != set(labels_b):
        raise ValueError("score files cover different label sets")
    by_label = dict(zip(labels_b, scores_b))
    scores_b = [by_label[l] for l in labels_a]
    tol = args.tie_tol
    a_finer_b = rank_stats.is_finer(scores_a, scores_b, tol)
    b_finer_a = rank_stats.is_finer(scores_b, scores_a, tol)
    print(f"agreement_count: {rank_stats.agreement_count(scores_a, scores_b, tol)}")
    print(f"identical: {str(a_finer_b and b_finer_a).lower()}")
    print(f"a_finer_b: {str(a_finer_b).lower()}")
    print(f"b_finer_a: {str(b_finer_a).lower()}")
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
    with open(args.out, "w", encoding="utf-8") as fh:
        np.savetxt(fh, adj.entries, fmt="%g", delimiter=",")
    return EXIT_OK


def _parse_grid(text: str) -> tuple[float, ...]:
    return tuple(float(t) for t in text.split(",") if t.strip())


def cmd_sweep(args) -> int:
    adj = _load_network(args)
    alphas = _parse_grid(args.alphas) if args.alphas else experiments.DEFAULT_ALPHAS
    epsilons = _parse_grid(args.epsilons) if args.epsilons else experiments.DEFAULT_EPSILONS
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
        default="following,followed",
        metavar="FOLLOWER,FOLLOWED",
        help="edge-list column names (default: following,followed)",
    )


def _add_ranking_options(p: argparse.ArgumentParser):
    _add_network_options(p)
    p.add_argument("--method", choices=("exact", "power"), default="exact")
    p.add_argument("--tol", type=float, default=1e-6, help="power-iteration tolerance")
    p.add_argument("--max-iter", type=int, default=10**6)
    p.add_argument("--tie-tol", type=float, default=rank_stats.DEFAULT_TIE_TOL)
    p.add_argument("--out", choices=("csv", "json"), default="csv")
    p.add_argument("--output", help="write to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netrank", description="Rank directed networks and compare rankings."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pagerank", help="damped ranking")
    _add_ranking_options(p)
    p.add_argument("--alpha", type=float, default=0.85)
    p.set_defaults(
        run=lambda args: _run_ranking(
            args,
            lambda adj, cfg: pagerank(adj, args.alpha, method=args.method, cfg=cfg),
        )
    )

    p = sub.add_parser("markovrank", help="augmented-chain ranking")
    _add_ranking_options(p)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.set_defaults(
        run=lambda args: _run_ranking(
            args,
            lambda adj, cfg: markovrank(adj, args.epsilon, method=args.method, cfg=cfg),
        )
    )

    p = sub.add_parser("compare", help="compare two score CSV files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--tie-tol", type=float, default=rank_stats.DEFAULT_TIE_TOL)
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
    p.add_argument("--tie-tol", type=float, default=rank_stats.DEFAULT_TIE_TOL)
    p.add_argument("--out", choices=("json", "csv"), default="json")
    p.add_argument("--output", help="write to this path instead of stdout")
    p.set_defaults(run=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
