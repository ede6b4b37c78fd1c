#!/usr/bin/env python3
"""Timing experiment on the demo board.

Solves every prefix of a 10-slot mixed request (one feasible / all / best)
and then repeats the run with an over-demanding request family to time the
infeasibility verdicts. Mirrors `pinassign bench` but prints both tables in
one go.
"""

import argparse
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pinassign import AllPinsUsedWarning, parse_board, parse_request  # noqa: E402
from pinassign.cli import bench, format_bench_table  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
FEASIBLE_REQUEST = "analog,analog,analog,icu,analog,analog,serial-tx,serial-rx,can-tx,i2c-sda"
# every prefix of length >= 4 over-demands CAN_TX (the demo board has 3 such pins)
IMPOSSIBLE_REQUEST = "can-tx,can-tx,can-tx,can-tx,can-tx,can-tx,can-tx,can-tx,can-tx,can-tx"


def print_table(title, rows):
    print(title)
    print(format_bench_table(rows))
    print()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--board", default=str(REPO / "boards" / "stm32f4_demo.pins"), metavar="FILE"
    )
    parser.add_argument("--max-len", type=int, default=10)
    args = parser.parse_args()

    board = parse_board(Path(args.board).read_text(encoding="utf-8"))
    warnings.simplefilter("ignore", AllPinsUsedWarning)

    rows = bench(board, parse_request(FEASIBLE_REQUEST), args.max_len)
    print_table(f"feasible request prefixes on {board.name} ({len(board)} pins):", rows)

    rows = bench(board, parse_request(IMPOSSIBLE_REQUEST), args.max_len)
    print_table("over-demanding request prefixes (infeasible from length 4):", rows)


if __name__ == "__main__":
    main()
