"""Batch front door: corpus runs, named verification suites, counting,
analysis reports.

Exit codes: 0 all checks passed, 1 assertion failure (a potential
counterexample; a reproduction bundle is part of the report), 2 operational
error (an ``OperationalError``: a search or generator gave up on its
budget), 64 usage error, 65 malformed input data.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import itertools
import json
import os
import sys
import time

from .corpus import double_wheel, read_planar_code
from .errors import HamforgeError, OperationalError, TooSmall
from .ham_enum import count_ham_cycles, search_budget
from .indset import IndSetCert, special_set
from .plane_graph import edge_key, is_k_connected
from .structures import (
    find_diamonds,
    max_common_neighborhood_pair,
    separating_cycles,
)
from .verification import N_MAX_LIMITS, SUITE_RUNNERS, SUITES, graph_id

EX_USAGE = 64
EX_DATA = 65

# verify flag (argparse dest) -> the suite keyword argument it sets
VERIFY_KEYWORDS = {"n_max": "n_max", "min_degree": "min_degree",
                   "budget_nodes": "budget", "seed": "seed"}


def _open_out(path):
    return open(path, "w") if path else sys.stdout


def _emit(reports, out, fmt):
    fail = False
    if fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(["suite", "graph_id", "operation", "ok", "seconds",
                         "payload"])
    for r in reports:
        fail |= not r.ok
        if fmt == "csv":
            writer.writerow([r.suite, r.graph_id, r.operation, int(r.ok),
                             f"{r.seconds:.4f}", json.dumps(r.payload,
                                                            sort_keys=True)])
        else:
            out.write(json.dumps(r.to_json(), sort_keys=True) + "\n")
    return fail


def _load_graphs(args):
    """The input graphs, decoded one at a time as they are iterated, and a
    list holding the first (empty for an empty input).  The first is
    decoded before this returns, so a bad first record exits before any
    output; a bad later record exits 65 where the iteration meets it, after
    the output of the graphs before it."""
    graphs = _decode_graphs(args)
    head = list(itertools.islice(graphs, 1))
    return head, itertools.chain(head, graphs)


def _decode_graphs(args):
    if args.double_wheel:
        try:
            yield double_wheel(args.double_wheel)
        except TooSmall as exc:
            print(f"error: {exc}", file=sys.stderr)
            raise SystemExit(EX_DATA)
        return
    if args.file:
        try:
            with open(args.file, "rb") as fh:
                yield from read_planar_code(fh)
        except (OSError, HamforgeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            raise SystemExit(EX_DATA)
        return
    print("error: need --file or --double-wheel", file=sys.stderr)
    raise SystemExit(EX_USAGE)


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        print(f"error: unknown suite {args.suite!r}; choose from {', '.join(SUITES)}",
              file=sys.stderr)
        return EX_USAGE
    runner = SUITE_RUNNERS[args.suite]
    named = {p.name for p in inspect.signature(runner).parameters.values()
             if p.kind is not p.VAR_KEYWORD}
    given = {dest: kw for dest, kw in VERIFY_KEYWORDS.items()
             if getattr(args, dest) is not None}
    refused = ["--" + dest.replace("_", "-") for dest, kw in given.items()
               if kw not in named]
    if refused:
        print(f"error: suite {args.suite!r} does not take {', '.join(refused)}",
              file=sys.stderr)
        return EX_USAGE
    limit = N_MAX_LIMITS.get(args.suite)
    if args.n_max is not None and limit is not None and args.n_max > limit:
        print(f"error: suite {args.suite!r} supports --n-max up to {limit}, "
              f"got {args.n_max}", file=sys.stderr)
        return EX_USAGE
    kwargs = {kw: getattr(args, dest) for dest, kw in given.items()}
    out = _open_out(args.out)
    try:
        failed = _emit(runner(**kwargs), out, args.format)
    except OperationalError as exc:
        print(f"operational error: {exc}", file=sys.stderr)
        return 2
    finally:
        if out is not sys.stdout:
            out.close()
    return 1 if failed else 0


def _lacks_required_edge(g, required) -> bool:
    """Whether g misses one of the ``required`` edges, reported on stderr."""
    missing = [e for e in required if e not in g.edge_set]
    if missing:
        print(f"error: required edge {missing[0]} is not an edge of graph "
              f"{graph_id(g)}", file=sys.stderr)
    return bool(missing)


def cmd_count(args) -> int:
    head, graphs = _load_graphs(args)
    required = []
    for spec in args.required_edge or []:
        try:
            u, v = (int(z) for z in spec.split(","))
        except ValueError:
            print(f"error: bad edge {spec!r}, expected u,v", file=sys.stderr)
            return EX_USAGE
        required.append(edge_key(u, v))
    if any(_lacks_required_edge(g, required) for g in head):
        return EX_USAGE
    out = _open_out(args.out)
    writer = csv.writer(out)
    writer.writerow(["graph_id", "n", "count", "seconds"])
    code = 0
    try:
        for g in graphs:
            if _lacks_required_edge(g, required):
                return EX_USAGE
            t0 = time.perf_counter()
            try:
                count = count_ham_cycles(g, required_edges=required,
                                         budget=args.budget_nodes)
            except OperationalError as exc:
                print(f"operational error: {exc}", file=sys.stderr)
                code = 2
                continue
            writer.writerow([graph_id(g), g.n, count,
                             f"{time.perf_counter() - t0:.4f}"])
    finally:
        if out is not sys.stdout:
            out.close()
    return code


def _analysis_row(g) -> dict:
    t0 = time.perf_counter()
    connectivity = max((k for k in range(1, 6) if is_k_connected(g, k)),
                       default=0)
    pair = max_common_neighborhood_pair(g)
    row = {
        "graph_id": graph_id(g),
        "n": g.n,
        "min_degree": g.min_degree(),
        "connectivity": connectivity,
        "separating_3cycles": len(separating_cycles(g, 3)),
        "separating_4cycles": len(separating_cycles(g, 4)),
        "diamond4": len(find_diamonds(g, "diamond4")),
        "diamond6": len(find_diamonds(g, "diamond6")),
        "max_common_neighborhood": pair.size() if pair else 0,
    }
    if g.is_triangulation and connectivity >= 4:
        branch = special_set(g)
        row["special_set_branch"] = (
            "independent_set" if isinstance(branch, IndSetCert)
            else "common_pair")
        if isinstance(branch, IndSetCert):
            row["special_set"] = branch.to_json()
    row["seconds"] = round(time.perf_counter() - t0, 4)
    return row


def cmd_analyze(args) -> int:
    _head, graphs = _load_graphs(args)
    out = _open_out(args.out)
    code = 0
    try:
        for g in graphs:
            try:
                row = _analysis_row(g)
            except OperationalError as exc:
                print(f"operational error: {exc}", file=sys.stderr)
                code = 2
                continue
            out.write(json.dumps(row, sort_keys=True) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return code


def _positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """Command-line errors exit 64 (usage): 2 means an operational error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hamforge",
        description="Hamiltonian-cycle structure toolkit for planar triangulations")
    sub = parser.add_subparsers(dest="command")

    p_verify = sub.add_parser("verify", help="run a named invariant suite")
    p_verify.add_argument("suite")
    p_verify.add_argument("--n-max", type=int)
    p_verify.add_argument("--min-degree", type=int)
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--format", choices=("csv", "jsonl"), default="jsonl")

    p_count = sub.add_parser("count", help="exact Hamiltonian cycle counts")
    p_count.add_argument("--file", help="planar_code input")
    p_count.add_argument("--double-wheel", type=int, metavar="N")
    p_count.add_argument("--required-edge", action="append", metavar="U,V")

    p_an = sub.add_parser("analyze", help="structural report per graph")
    p_an.add_argument("--file")
    p_an.add_argument("--double-wheel", type=int, metavar="N")
    for p in (p_verify, p_count, p_an):
        p.add_argument("--out", help="write the report here instead of stdout")
    for p in (p_verify, p_count):   # analyze runs no node-budgeted search
        p.add_argument("--budget-nodes", type=_positive_int,
                       help=f"search node budget (default {search_budget()})")
    return parser


def main(argv=None) -> int:
    try:
        search_budget()             # a malformed HAMFORGE_BUDGET is a usage error
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    parser = make_parser()
    args = parser.parse_args(argv)
    commands = {"verify": cmd_verify, "count": cmd_count, "analyze": cmd_analyze}
    if args.command not in commands:
        parser.print_help()
        return EX_USAGE
    try:
        code = commands[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (``hamforge verify euler | head -1``): an
        # operational error, not a counterexample
        _detach_stdout()
        print("error: standard output was closed before the report ended",
              file=sys.stderr)
        return 2
    return code


def _detach_stdout():
    """Point the stdout file descriptor at the null device, so the flush at
    interpreter exit does not raise the broken pipe again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


if __name__ == "__main__":
    sys.exit(main())
