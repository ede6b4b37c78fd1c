"""Command-line front end.

Subcommands: validate, solve, solve-all, solve-best, count, emit, graph,
merge, diff, bench. Exit codes: 0 success or feasible, 1 infeasible (the run
was valid but no solution exists), 2 usage, parse, or I/O errors.

Output is deterministic for fixed inputs; only bench timing fields vary
between runs. --format json emits one structured document on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .board import Board, board_stats, parse_board
from .codegen import (
    DEFAULT_FACT_CAP,
    EmitterCapError,
    emit_alloy_best_assertions,
    emit_alloy_feasibility_assertion,
    emit_alloy_spec,
    emit_graph_dot,
    emit_prolog,
)
from .configops import diff_assignments, merge_requests
from .counting import config_space, config_space_board
from .oracle import brute_force_solve
from .request import Request, parse_request, quick_reject
from .solver import (
    Assignment,
    EnumerationLimitError,
    Infeasible,
    RULES_BY_NAME,
    Semantics,
    SolveOptions,
    enumerate_all,
    find_best,
    find_feasible,
    iter_assignments,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinassign",
        description="Pin-assignment engine for hardware/software interface boards",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, board=False, request=False, rules=False, fmt=True):
        if board:
            p.add_argument("--board", required=True, metavar="FILE", help="board file")
        if request:
            p.add_argument(
                "--request", required=True, metavar="LIST", help="comma-separated kinds"
            )
        if rules:
            p.add_argument(
                "--rule",
                action="append",
                default=[],
                choices=sorted(RULES_BY_NAME),
                help="enable an eligibility rule (repeatable)",
            )
        if fmt:
            p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("validate", help="check a board file (and optionally a request)")
    add_common(p, board=True)
    p.add_argument("--request", metavar="LIST", help="request to validate against the board")

    p = sub.add_parser("solve", help="find one feasible assignment")
    add_common(p, board=True, request=True, rules=True)

    p = sub.add_parser("solve-all", help="enumerate all assignments")
    add_common(p, board=True, request=True, rules=True)
    p.add_argument("--semantics", choices=["pinsets", "labeled"], default="pinsets")
    p.add_argument("--cap", type=int, default=1_000_000, help="enumeration limit")
    p.add_argument("--oracle", action="store_true", help=argparse.SUPPRESS)

    p = sub.add_parser("solve-best", help="find a minimum-cost assignment")
    add_common(p, board=True, request=True, rules=True)

    p = sub.add_parser("count", help="size of the configuration space")
    add_common(p)
    p.add_argument("--pins", type=int, metavar="N", help="pin count (formula mode)")
    p.add_argument(
        "--functions", type=int, metavar="M", help="configurations per pin (formula mode)"
    )
    p.add_argument("--max-len", type=int, metavar="L", help="longest assignment counted")
    p.add_argument("--board", metavar="FILE", help="count a concrete board instead")

    p = sub.add_parser("emit", help="emit a model-checking document")
    p.add_argument(
        "--target",
        required=True,
        choices=["prolog", "alloy-spec", "alloy-assert", "alloy-best"],
    )
    p.add_argument("--board", metavar="FILE")
    p.add_argument("--request", metavar="LIST")
    p.add_argument("--max-len", type=int, metavar="N", help="prolog fact length bound")
    p.add_argument("--cap", type=int, default=DEFAULT_FACT_CAP, help="fact-count cap")
    p.add_argument("--out", metavar="FILE", help="write to a file instead of stdout")

    p = sub.add_parser("graph", help="emit the domain graph in DOT form")
    p.add_argument("--board", required=True, metavar="FILE")
    p.add_argument("--out", metavar="FILE")

    p = sub.add_parser("merge", help="merge requests into one")
    p.add_argument(
        "--request",
        action="append",
        required=True,
        metavar="LIST",
        help="request to merge (repeatable)",
    )
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("diff", help="compare the best assignments of two requests")
    add_common(p, board=True, rules=True)
    p.add_argument(
        "--request",
        action="append",
        required=True,
        metavar="LIST",
        help="exactly two requests to compare",
    )

    p = sub.add_parser("bench", help="timing table over request prefixes")
    add_common(p, board=True, request=True, rules=True)
    p.add_argument("--max-len", type=int, metavar="N", help="longest prefix to run")

    return parser


def _read_board(path: str) -> Board:
    return parse_board(Path(path).read_text(encoding="utf-8"))


def _options(args) -> SolveOptions:
    return SolveOptions(rules=tuple(RULES_BY_NAME[name]() for name in args.rule))


def _assignment_doc(assignment: Assignment) -> dict:
    return {
        "status": "feasible",
        "assignment": [
            {"slot": b.slot, "kind": b.kind, "pin": b.pin, "detail": b.detail}
            for b in assignment.bindings
        ],
        "cost": assignment.total_cost,
    }


def _infeasible_doc(outcome: Infeasible) -> dict:
    doc = {"status": "infeasible", "reason": outcome.reason}
    if outcome.witness is not None:
        doc["witness"] = {
            "kinds": list(outcome.witness.kinds),
            "pins": list(outcome.witness.pins),
            "demanded": outcome.witness.demanded,
        }
    return doc


def _print_assignment_text(assignment: Assignment) -> None:
    print(f"feasible, cost {assignment.total_cost}")
    for b in assignment.bindings:
        print(f"  slot {b.slot}: {b.kind} -> {b.pin} ({b.detail})")


def _print_infeasible_text(outcome: Infeasible) -> None:
    print(f"infeasible: {outcome.message}")
    if outcome.witness is not None:
        w = outcome.witness
        print(
            f"  witness: {w.demanded} x {{{', '.join(w.kinds)}}} "
            f"vs pins {{{', '.join(w.pins)}}}"
        )


def _cmd_validate(args) -> int:
    board = _read_board(args.board)
    pin_count, max_cost, kinds = board_stats(board)
    doc = {
        "board": board.name,
        "pins": pin_count,
        "max_entries_per_pin": max_cost,
        "kinds": sorted(kinds),
    }
    rejected = None
    if args.request is not None:
        request = parse_request(args.request)
        rejected = quick_reject(board, request)
        doc["request"] = {
            "length": request.length,
            "canonical": list(request.canonical),
            "quick_reject": rejected.reason if rejected else None,
        }
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        print(f"board: {board.name or '(unnamed)'}")
        print(f"pins: {pin_count}, max entries per pin: {max_cost}")
        print(f"kinds: {', '.join(sorted(kinds)) or '(none)'}")
        if args.request is not None:
            print(f"request: length {doc['request']['length']}, "
                  f"canonical {','.join(doc['request']['canonical']) or '(empty)'}")
            if rejected:
                print(f"quick check: rejected: {rejected.reason}")
            else:
                print("quick check: no obstruction found")
    return EXIT_INFEASIBLE if rejected else EXIT_OK


def _cmd_solve(args) -> int:
    solve = find_best if args.command == "solve-best" else find_feasible
    board = _read_board(args.board)
    request = parse_request(args.request)
    outcome = solve(board, request, _options(args))
    if isinstance(outcome, Infeasible):
        if args.format == "json":
            print(json.dumps(_infeasible_doc(outcome), indent=2))
        else:
            _print_infeasible_text(outcome)
        return EXIT_INFEASIBLE
    if args.format == "json":
        print(json.dumps(_assignment_doc(outcome), indent=2))
    else:
        _print_assignment_text(outcome)
    return EXIT_OK


def _cmd_solve_all(args) -> int:
    board = _read_board(args.board)
    request = parse_request(args.request)
    options = SolveOptions(Semantics(args.semantics), _options(args).rules, args.cap)
    assignments = enumerate_all(board, request, options)
    if args.oracle:
        result = brute_force_solve(board, request, options.rules)
        expected = (
            result.labeled_count
            if options.semantics is Semantics.LABELED
            else result.pin_set_count
        )
        if expected != len(assignments):
            print(
                f"error: oracle mismatch: solver {len(assignments)}, "
                f"brute force {expected}",
                file=sys.stderr,
            )
            return EXIT_ERROR
    if args.format == "json":
        doc = {
            "status": "feasible" if assignments else "infeasible",
            "semantics": args.semantics,
            "count": len(assignments),
            "assignments": [_assignment_doc(a)["assignment"] for a in assignments],
            "costs": [a.total_cost for a in assignments],
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"{len(assignments)} solutions ({args.semantics})")
        for n, a in enumerate(assignments, start=1):
            pins = ", ".join(f"{b.pin}:{b.kind}/{b.detail}" for b in a.bindings)
            print(f"  [{n}] cost {a.total_cost}: {pins}")
        if args.oracle:
            print("oracle check: ok")
    return EXIT_OK if assignments else EXIT_INFEASIBLE


def _cmd_count(args) -> int:
    if args.board is not None:
        board = _read_board(args.board)
        value = config_space_board(board)
        doc = {"mode": "board", "pins": len(board), "count": value}
    else:
        if args.pins is None or args.functions is None:
            print(
                "error: count needs either --board or both --pins and --functions",
                file=sys.stderr,
            )
            return EXIT_ERROR
        max_len = args.max_len if args.max_len is not None else args.pins
        value = config_space(args.pins, args.functions, max_len)
        doc = {
            "mode": "formula",
            "pins": args.pins,
            "functions": args.functions,
            "max_len": max_len,
            "count": value,
        }
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        print(value)
    return EXIT_OK


def _cmd_emit(args) -> int:
    def require(flag, value):
        if value is None:
            print(f"error: --target {args.target} requires {flag}", file=sys.stderr)
            return False
        return True

    if args.target == "prolog":
        if not require("--board", args.board):
            return EXIT_ERROR
        board = _read_board(args.board)
        max_len = args.max_len if args.max_len is not None else max(len(board), 1)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as sink:
                output = emit_prolog(board, max_len, sink=sink, cap=args.cap)
            print(f"wrote {output.items} facts ({output.nbytes} bytes) to {args.out}")
        else:
            output = emit_prolog(board, max_len, sink=sys.stdout, cap=args.cap)
        return EXIT_OK

    if args.target == "alloy-spec":
        if not require("--board", args.board):
            return EXIT_ERROR
        output = emit_alloy_spec(_read_board(args.board))
    elif args.target == "alloy-assert":
        if not require("--request", args.request):
            return EXIT_ERROR
        output = emit_alloy_feasibility_assertion(parse_request(args.request))
    else:  # alloy-best
        if not require("--board", args.board) or not require("--request", args.request):
            return EXIT_ERROR
        board = _read_board(args.board)
        if not board.pins:
            print("error: alloy-best needs a nonempty board", file=sys.stderr)
            return EXIT_ERROR
        costs = [p.cost for p in board.pins]
        output = emit_alloy_best_assertions(
            parse_request(args.request), min(costs), max(costs)
        )
    return _write_document(args, output)


def _cmd_graph(args) -> int:
    return _write_document(args, emit_graph_dot(_read_board(args.board)))


def _write_document(args, output) -> int:
    """Write an emitted document to --out (reporting its size) or to stdout."""
    if args.out:
        Path(args.out).write_text(output.text, encoding="utf-8")
        print(f"wrote {output.items} items ({output.nbytes} bytes) to {args.out}")
    else:
        sys.stdout.write(output.text)
    return EXIT_OK


def _cmd_merge(args) -> int:
    requests = [parse_request(text) for text in args.request]
    merged = Request(())
    for request in requests:
        merged = merge_requests(merged, request)
    if args.format == "json":
        print(json.dumps({"request": list(merged.canonical), "length": merged.length}, indent=2))
    else:
        print(",".join(merged.canonical))
    return EXIT_OK


def _cmd_diff(args) -> int:
    if len(args.request) != 2:
        print("error: diff needs exactly two --request values", file=sys.stderr)
        return EXIT_ERROR
    board = _read_board(args.board)
    options = _options(args)
    outcomes = [find_best(board, parse_request(text), options) for text in args.request]
    for text, outcome in zip(args.request, outcomes):
        if isinstance(outcome, Infeasible):
            if args.format == "json":
                doc = _infeasible_doc(outcome)
                doc["request"] = text
                print(json.dumps(doc, indent=2))
            else:
                print(f"request {text!r}: ", end="")
                _print_infeasible_text(outcome)
            return EXIT_INFEASIBLE
    diff = diff_assignments(outcomes[0], outcomes[1])
    if args.format == "json":
        doc = {
            "status": "ok",
            "added_kinds": list(diff.added_kinds),
            "removed_kinds": list(diff.removed_kinds),
            "changes": [
                {
                    "pin": c.pin,
                    "old": None if c.old is None else {"kind": c.old[0], "detail": c.old[1]},
                    "new": None if c.new is None else {"kind": c.new[0], "detail": c.new[1]},
                }
                for c in diff.pin_changes
            ],
            "cost_delta": diff.cost_delta,
        }
        print(json.dumps(doc, indent=2))
    else:
        if diff.is_empty:
            print("no differences")
        if diff.added_kinds:
            print(f"added kinds: {','.join(diff.added_kinds)}")
        if diff.removed_kinds:
            print(f"removed kinds: {','.join(diff.removed_kinds)}")
        for c in diff.pin_changes:
            old = f"{c.old[0]}/{c.old[1]}" if c.old else "(unused)"
            new = f"{c.new[0]}/{c.new[1]}" if c.new else "(unused)"
            print(f"  {c.pin}: {old} -> {new}")
        print(f"cost delta: {diff.cost_delta:+d}")
    return EXIT_OK


def bench(
    board: Board,
    request: Request,
    max_len: int,
    options: SolveOptions | None = None,
) -> list[dict]:
    """Run the three use cases on every request prefix of length 1..max_len.

    Returns one row per length with solution counts under both semantics,
    first-feasible and best costs, and wall-clock times (monotonic, seconds).
    Per-length errors are recorded in the row instead of aborting the run.
    """
    if not 1 <= max_len <= request.length:
        raise ValueError(
            f"max_len must be between 1 and the request length {request.length}, got {max_len}"
        )
    options = options or SolveOptions()
    rows: list[dict] = []
    for length in range(1, max_len + 1):
        prefix = Request(request.slots[:length])
        row: dict = {"length": length}
        try:
            t0 = time.monotonic()
            first = find_feasible(board, prefix, options)
            row["t_feasible"] = time.monotonic() - t0
            row["first_cost"] = first.total_cost if isinstance(first, Assignment) else None

            t0 = time.monotonic()
            pinsets = sum(
                1
                for _ in iter_assignments(
                    board,
                    prefix,
                    SolveOptions(Semantics.UNIQUE_PIN_SETS, options.rules),
                )
            )
            labeled = sum(
                1
                for _ in iter_assignments(
                    board, prefix, SolveOptions(Semantics.LABELED, options.rules)
                )
            )
            row["t_all"] = time.monotonic() - t0
            row["count_pinsets"] = pinsets
            row["count_labeled"] = labeled

            t0 = time.monotonic()
            best = find_best(board, prefix, options)
            row["t_best"] = time.monotonic() - t0
            row["best_cost"] = best.total_cost if isinstance(best, Assignment) else None
        except Exception as exc:  # keep remaining lengths running
            row["error"] = str(exc)
        rows.append(row)
    return rows


def format_bench_table(rows: list[dict]) -> str:
    """bench rows as a fixed-width text table, one line per prefix length."""
    lines = [
        f"{'length':>6} {'pinsets':>8} {'labeled':>8} {'first':>6} {'best':>6} "
        f"{'t_feasible':>11} {'t_all':>8} {'t_best':>8}"
    ]
    for row in rows:
        if "error" in row:
            lines.append(f"{row['length']:>6} error: {row['error']}")
            continue
        first = "-" if row["first_cost"] is None else str(row["first_cost"])
        best = "-" if row["best_cost"] is None else str(row["best_cost"])
        lines.append(
            f"{row['length']:>6} {row['count_pinsets']:>8} {row['count_labeled']:>8} "
            f"{first:>6} {best:>6} "
            f"{row['t_feasible']:>11.3f} {row['t_all']:>8.3f} {row['t_best']:>8.3f}"
        )
    return "\n".join(lines)


def _cmd_bench(args) -> int:
    board = _read_board(args.board)
    request = parse_request(args.request)
    max_len = args.max_len if args.max_len is not None else request.length
    rows = bench(board, request, max_len, _options(args))
    if args.format == "json":
        print(json.dumps({"rows": rows}, indent=2))
        return EXIT_OK
    print(format_bench_table(rows))
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "solve": _cmd_solve,
    "solve-all": _cmd_solve_all,
    "solve-best": _cmd_solve,
    "count": _cmd_count,
    "emit": _cmd_emit,
    "graph": _cmd_graph,
    "merge": _cmd_merge,
    "diff": _cmd_diff,
    "bench": _cmd_bench,
}


def run(argv: list[str] | None = None) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        return _COMMANDS[args.command](args)
    except (
        EnumerationLimitError,
        EmitterCapError,
        OSError,
        ValueError,
        KeyError,
        RecursionError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
