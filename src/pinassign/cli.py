"""Command-line front end.

Subcommands: validate, solve, solve-all, solve-best, count, emit, graph,
merge, diff, bench. Exit codes: 0 success or feasible, 1 infeasible (the run
was valid but no solution exists), 2 usage, parse, or I/O errors.

Every subcommand but emit and graph takes --format text|json and prints
either a text report or one structured JSON document on stdout; only the
chosen form is built. solve-all, whose report grows with the number of
solutions, asks one prepared solve for their count and then for one stream
of them, and writes the report piece by piece, so its memory grows with
that number only by the JSON report's costs, 8 bytes a solution for at
most --cap of them. bench asks one plain prepared solve for each prefix's
first solution and both streams, and find_best for its cheapest. emit and
graph write their document to stdout or to --out. emit refuses a flag its
target does not read, and count a flag its mode does not read. Output is
deterministic for fixed inputs; only bench timing fields vary between runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from array import array
from dataclasses import asdict
from functools import cache
from pathlib import Path

from .board import Board, board_stats, parse_board
from .codegen import (
    emit_alloy_best_assertions,
    emit_alloy_feasibility_assertion,
    emit_alloy_spec,
    emit_graph_dot,
    emit_prolog,
)
from .configops import ConfigDiff, diff_assignments, merge_requests
from .counting import config_space, config_space_board
from .request import Request, parse_request
from .solver import (
    AllPinsUsedWarning,
    Assignment,
    EnumerationLimitError,
    Infeasible,
    RULES_BY_NAME,
    Semantics,
    SolveOptions,
    SolveOutcome,
    count_solutions,
    find_best,
    find_feasible,
    quick_reject,
    _Solve,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_ERROR = 2

# The flags each emit target reads, all required but max_len; emit declares
# them optional because the targets differ, and refuses the ones its target
# does not read.
_EMIT_READS = {
    "prolog": ("board", "max_len"),
    "alloy-spec": ("board",),
    "alloy-assert": ("request",),
    "alloy-best": ("board", "request"),
}


def _flag(*names: str, **spec) -> argparse.ArgumentParser:
    """A parent parser holding one flag, declared once for every subcommand using it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **spec)
    return parent


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first run and kept for
    the process: parse_args does not change a parser, and every handler only
    reads its namespace, the shared --rule default list included. It is not
    built at import, which stays as cheap as the library's."""
    parser = argparse.ArgumentParser(
        prog="pinassign",
        description="Pin-assignment engine for hardware/software interface boards",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    board = _flag("--board", required=True, metavar="FILE", help="board file")
    request = _flag("--request", required=True, metavar="LIST", help="comma-separated kinds")
    rule = _flag(
        "--rule",
        action="append",
        default=[],
        choices=sorted(RULES_BY_NAME),
        help="enable an eligibility rule (repeatable)",
    )
    fmt = _flag("--format", choices=["text", "json"], default="text")
    solving = [board, request, rule, fmt]

    p = sub.add_parser(
        "validate", parents=[board, fmt], help="check a board file (and optionally a request)"
    )
    p.set_defaults(run=_cmd_validate)
    p.add_argument("--request", metavar="LIST", help="request to validate against the board")

    p = sub.add_parser("solve", parents=solving, help="find one feasible assignment")
    p.set_defaults(run=_cmd_solve, solve=find_feasible)

    p = sub.add_parser("solve-all", parents=solving, help="enumerate all assignments")
    p.set_defaults(run=_cmd_solve_all)
    p.add_argument(
        "--semantics", choices=[s.value for s in Semantics], default=SolveOptions.semantics.value
    )
    p.add_argument(
        "--cap", type=int, default=SolveOptions.enumeration_cap, help="enumeration limit"
    )

    p = sub.add_parser("solve-best", parents=solving, help="find a minimum-cost assignment")
    p.set_defaults(run=_cmd_solve, solve=find_best)

    p = sub.add_parser(
        "count", parents=[rule, fmt], help="configuration-space size, or a request's solution count"
    )
    p.set_defaults(run=_cmd_count)
    p.add_argument("--pins", type=int, metavar="N", help="pin count (formula mode)")
    p.add_argument(
        "--functions", type=int, metavar="M", help="configurations per pin (formula mode)"
    )
    p.add_argument("--max-len", type=int, metavar="L", help="longest assignment counted")
    p.add_argument("--board", metavar="FILE", help="count a concrete board instead")
    p.add_argument("--request", metavar="LIST", help="count this request's solutions on --board")
    p.add_argument(
        "--semantics", choices=[s.value for s in Semantics], help="request mode; default pinsets"
    )
    p.add_argument(
        "--cap", type=int, metavar="N", help="request mode: most solutions a streamed count counts"
    )

    p = sub.add_parser("emit", help="emit a model-checking document")
    p.set_defaults(run=_cmd_emit)
    p.add_argument("--target", required=True, choices=list(_EMIT_READS))
    p.add_argument("--board", metavar="FILE")
    p.add_argument("--request", metavar="LIST")
    p.add_argument("--max-len", type=int, metavar="N", help="prolog fact length bound")
    p.add_argument("--out", metavar="FILE", help="write to a file instead of stdout")

    p = sub.add_parser("graph", parents=[board], help="emit the domain graph in DOT form")
    p.set_defaults(run=_cmd_graph)
    p.add_argument("--out", metavar="FILE")

    requests = _flag(
        "--request",
        action="append",
        required=True,
        metavar="LIST",
        help="request to merge (repeatable)",
    )
    p = sub.add_parser("merge", parents=[requests, fmt], help="merge requests into one")
    p.set_defaults(run=_cmd_merge)

    p = sub.add_parser(
        "diff", parents=[board, rule, fmt], help="compare the best assignments of two requests"
    )
    p.set_defaults(run=_cmd_diff)
    p.add_argument(
        "--request",
        action="append",
        required=True,
        metavar="LIST",
        help="exactly two requests to compare",
    )

    p = sub.add_parser("bench", parents=solving, help="timing table over request prefixes")
    p.set_defaults(run=_cmd_bench)
    p.add_argument("--max-len", type=int, metavar="N", help="longest prefix to run")

    return parser


def _read_board(path: str) -> Board:
    # Bytes are decoded without newline translation, so parse_board alone
    # decides what ends a line, as it does for any other caller.
    return parse_board(Path(path).read_bytes().decode("utf-8"))


def _refuse(args, flags, user: str) -> None:
    """Raise ValueError naming the first of flags given on the command line,
    since user does not read it."""
    for flag in flags:
        if getattr(args, flag) not in (None, []):  # [] is an unused --rule
            raise ValueError(f"{user} does not take --{flag.replace('_', '-')}")


def _show(args, value, doc, text) -> None:
    """Report value in the --format asked for: print the JSON document
    doc(value), or let text(value) print the text report. Only the chosen
    form is built, and it is built whole, so solve-all does not come here."""
    if args.format == "json":
        print(json.dumps(doc(value), indent=2))
    else:
        text(value)


def _outcome_doc(outcome: SolveOutcome) -> dict:
    """The JSON document of a solve outcome, feasible or not."""
    if isinstance(outcome, Infeasible):
        witness = asdict(outcome.witness)
        return {"status": "infeasible", "reason": outcome.reason, "witness": witness}
    return {
        "status": "feasible",
        "assignment": [asdict(b) for b in outcome.bindings],
        "cost": outcome.total_cost,
    }


def _outcome_text(outcome: SolveOutcome) -> None:
    """Print the text report of a solve outcome, feasible or not."""
    if isinstance(outcome, Infeasible):
        w = outcome.witness
        print(f"infeasible: {outcome.message}")
        print(f"  witness: {w.demanded} x {{{', '.join(w.kinds)}}} vs pins {{{', '.join(w.pins)}}}")
    else:
        print(f"feasible, cost {outcome.total_cost}")
        for b in outcome.bindings:
            print(f"  slot {b.slot}: {b.kind} -> {b.pin} ({b.detail})")


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
    _show(args, doc, lambda doc: doc, _validate_text)
    return EXIT_INFEASIBLE if rejected else EXIT_OK


def _validate_text(doc: dict) -> None:
    print(f"board: {doc['board'] or '(unnamed)'}")
    print(f"pins: {doc['pins']}, max entries per pin: {doc['max_entries_per_pin']}")
    print(f"kinds: {', '.join(doc['kinds']) or '(none)'}")
    if "request" in doc:
        request = doc["request"]
        print(f"request: length {request['length']}, "
              f"canonical {','.join(request['canonical']) or '(empty)'}")
        if request["quick_reject"] is not None:
            print(f"quick check: rejected: {request['quick_reject']}")
        else:
            print("quick check: no obstruction found")


def _cmd_solve(args) -> int:
    board = _read_board(args.board)
    request = parse_request(args.request)
    outcome = args.solve(board, request, SolveOptions(rules=tuple(args.rule)))
    _show(args, outcome, _outcome_doc, _outcome_text)
    return EXIT_INFEASIBLE if isinstance(outcome, Infeasible) else EXIT_OK


def _cmd_solve_all(args) -> int:
    """Write every solution's report to stdout piece by piece.

    The report is the document of enumerate_all's list, but no list is kept:
    one prepared solve gives the count that heads it, as count_solutions
    does, so a run over --cap writes nothing, and then streams the
    solutions once to write them. A count that has to stream stops past
    --cap. For JSON the stream also keeps their costs, at most --cap of
    them in 8 bytes each, which close the report. A text piece is cheaper
    to format than to look up, so only JSON pieces are cached: each
    Binding's is rendered once and reused in every solution holding it. A solve shares
    one Binding per (slot, pin), which lives as long as its stream, so the
    cache stays that small and is keyed by the Binding's id, for that one
    stream. Each solution goes out in its own write, so memory
    stays that of one stream, plus the costs for JSON.
    """
    board = _read_board(args.board)
    request = parse_request(args.request)
    options = SolveOptions(Semantics(args.semantics), tuple(args.rule), args.cap)
    cap = options.enumeration_cap
    over = f"more than {cap} solutions; raise --cap to list them all"
    solve = _Solve(board, request, options)
    try:
        count = solve.count(options.semantics)
    except EnumerationLimitError:  # counted by streaming, and past the cap
        raise ValueError(over) from None
    if count > cap:
        raise ValueError(over)
    solutions = solve.stream(options.semantics)
    write = sys.stdout.write
    if args.format == "text":
        write(f"{count} solutions ({args.semantics})\n")
        for n, a in enumerate(solutions, start=1):
            pins = ", ".join([f"{b.pin}:{b.kind}/{b.detail}" for b in a.bindings])
            write(f"  [{n}] cost {a.total_cost}: {pins}\n")
        return EXIT_OK if count else EXIT_INFEASIBLE

    # json.dumps(document, indent=2), one item at a time.
    write(
        f'{{\n  "status": "{"feasible" if count else "infeasible"}",\n'
        f'  "semantics": {json.dumps(args.semantics)},\n  "count": {count},\n'
    )
    if not count:
        write('  "assignments": [],\n  "costs": []\n}\n')
        return EXIT_INFEASIBLE
    fragments: dict[int, str] = {}  # by id(b), valid while the stream lives

    def fragment(b) -> str:
        text = fragments.get(id(b))
        if text is None:
            text = "      " + json.dumps(asdict(b), indent=2).replace("\n", "\n      ")
            fragments[id(b)] = text
        return text

    costs = array("q")

    def assignment(a: Assignment) -> str:
        costs.append(a.total_cost)
        if not a.bindings:
            return "    []"
        return "    [\n" + ",\n".join(map(fragment, a.bindings)) + "\n    ]"

    write('  "assignments": [\n')
    _write_items(write, map(assignment, solutions))
    write('\n  ],\n  "costs": [\n')
    _write_items(write, (f"    {cost}" for cost in costs))
    write("\n  ]\n}\n")
    return EXIT_OK


def _write_items(write, items) -> None:
    """Write the items separated by a comma and a line break, one per write."""
    separator = ""
    for item in items:
        write(separator + item)
        separator = ",\n"


def _cmd_count(args) -> int:
    """Print a request's solution count (--board and --request), a board's
    configuration space (--board) or the formula's (--pins, --functions)."""
    if args.request is not None:
        if args.board is None:
            raise ValueError("count --request needs --board")
        _refuse(args, ("pins", "functions", "max_len"), "count --request")
        semantics = args.semantics or SolveOptions.semantics.value
        cap = SolveOptions.enumeration_cap if args.cap is None else args.cap
        options = SolveOptions(Semantics(semantics), tuple(args.rule), cap)
        try:
            count = count_solutions(_read_board(args.board), parse_request(args.request), options)
        except EnumerationLimitError:
            raise ValueError(
                f"more than {cap} solutions to count by streaming; raise --cap to count them all"
            ) from None
        doc = {"mode": "request", "semantics": semantics, "count": count}
    elif args.board is not None:
        _refuse(args, ("pins", "functions", "max_len", "semantics", "rule", "cap"), "count --board")
        board = _read_board(args.board)
        doc = {"mode": "board", "pins": len(board), "count": config_space_board(board)}
    elif args.pins is None or args.functions is None:
        raise ValueError("count needs either --board or both --pins and --functions")
    else:
        _refuse(args, ("semantics", "rule", "cap"), "count --pins")
        max_len = args.max_len if args.max_len is not None else args.pins
        doc = {
            "mode": "formula",
            "pins": args.pins,
            "functions": args.functions,
            "max_len": max_len,
            "count": config_space(args.pins, args.functions, max_len),
        }
    # A count is exact at any size, so it is printed whole, past the limit
    # Python 3.10.7 and later put on int-to-str conversion; the limit is
    # lifted for this print alone.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        _show(args, doc, lambda doc: doc, lambda doc: print(doc["count"]))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    # A request with no solution is infeasible, as for solve-all.
    return EXIT_INFEASIBLE if doc["mode"] == "request" and not doc["count"] else EXIT_OK


def _cmd_emit(args) -> int:
    reads = _EMIT_READS[args.target]
    for flag in reads:
        if flag != "max_len" and getattr(args, flag) is None:
            raise ValueError(f"--target {args.target} requires --{flag}")
    unread = [flag for flag in ("board", "request", "max_len") if flag not in reads]
    _refuse(args, unread, f"--target {args.target}")
    if args.target == "alloy-assert":
        return _write_document(args, emit_alloy_feasibility_assertion(parse_request(args.request)))
    board = _read_board(args.board)
    if args.target == "alloy-spec":
        return _write_document(args, emit_alloy_spec(board))
    if args.target == "alloy-best":
        if not board.pins:
            raise ValueError("alloy-best needs a nonempty board")
        costs = [p.cost for p in board.pins]
        output = emit_alloy_best_assertions(parse_request(args.request), min(costs), max(costs))
        return _write_document(args, output)

    max_len = args.max_len if args.max_len is not None else max(len(board), 1)
    if max_len < 1:  # emit_prolog checks too, but only after --out is opened and emptied
        raise ValueError("max_len must be positive")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as sink:
            output = emit_prolog(board, max_len, sink=sink)
        print(f"wrote {output.items} facts ({output.nbytes} bytes) to {args.out}")
    else:
        emit_prolog(board, max_len, sink=sys.stdout)
    return EXIT_OK


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
    merged = Request(())
    for text in args.request:
        merged = merge_requests(merged, parse_request(text))
    _show(args, merged, lambda m: {"request": list(m.canonical), "length": m.length},
          lambda m: print(",".join(m.canonical)))
    return EXIT_OK


def _cmd_diff(args) -> int:
    if len(args.request) != 2:
        raise ValueError("diff needs exactly two --request values")
    board = _read_board(args.board)
    options = SolveOptions(rules=tuple(args.rule))
    outcomes = [find_best(board, parse_request(text), options) for text in args.request]
    for text, outcome in zip(args.request, outcomes):
        if isinstance(outcome, Infeasible):

            def report(outcome) -> None:
                print(f"request {text!r}: ", end="")
                _outcome_text(outcome)

            _show(args, outcome, lambda outcome: {**_outcome_doc(outcome), "request": text}, report)
            return EXIT_INFEASIBLE
    _show(args, diff_assignments(outcomes[0], outcomes[1]), _diff_doc, _diff_text)
    return EXIT_OK


def _diff_doc(diff: ConfigDiff) -> dict:
    return {
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


def _diff_text(diff: ConfigDiff) -> None:
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


def bench(
    board: Board,
    request: Request,
    max_len: int,
    options: SolveOptions = SolveOptions(),
) -> list[dict]:
    """Run the three use cases on every request prefix of length 1..max_len.

    Returns one row per length with solution counts under both semantics,
    first-feasible and best costs, and wall-clock times (monotonic, seconds).
    One plain prepared solve per length answers the first cost and both
    counts, so t_all times its two streams alone.
    Per-length errors are recorded in the row instead of aborting the run.
    """
    if not 1 <= max_len <= request.length:
        raise ValueError(
            f"max_len must be between 1 and the request length {request.length}, got {max_len}"
        )
    rows: list[dict] = []
    for length in range(1, max_len + 1):
        prefix = Request(request.slots[:length])
        row: dict = {"length": length}
        try:
            t0 = time.monotonic()
            solve = _Solve(board, prefix, options)
            first = solve.first()
            row["t_feasible"] = time.monotonic() - t0
            row["first_cost"] = first.total_cost if isinstance(first, Assignment) else None

            t0 = time.monotonic()
            pinsets, labeled = (
                sum(1 for _ in solve.stream(s))
                for s in (Semantics.UNIQUE_PIN_SETS, Semantics.LABELED)
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
    if not request.length:
        raise ValueError("bench needs a nonempty request")
    max_len = args.max_len if args.max_len is not None else request.length
    rows = bench(board, request, max_len, SolveOptions(rules=tuple(args.rule)))
    _show(args, rows, lambda rows: {"rows": rows}, lambda rows: print(format_bench_table(rows)))
    return EXIT_ERROR if any("error" in row for row in rows) else EXIT_OK


def run(argv: list[str] | None = None) -> int:
    """Parse argv and dispatch; returns the process exit code.

    A warning is printed as one "warning: <message>" line on stderr, once
    per distinct message, and AllPinsUsedWarning is always shown this way,
    whatever the interpreter's warning filters say.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    shown: set[str] = set()

    def show(message, *_) -> None:
        if str(message) not in shown:
            shown.add(str(message))
            print(f"warning: {message}", file=sys.stderr)

    with warnings.catch_warnings():
        warnings.simplefilter("always", AllPinsUsedWarning)
        warnings.showwarning = show
        try:
            return args.run(args)
        except (OSError, ValueError, KeyError, RecursionError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR


def main() -> None:
    sys.exit(run())
