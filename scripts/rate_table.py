#!/usr/bin/env python3
"""Reproduce the reference rate table and chart convergence toward (s+1)/(2s).

Everything is exact rational arithmetic; decimals are rendered only for
display.  Example:

    python scripts/rate_table.py --max-t 13 --convergence-t 25 100 400
"""

from __future__ import annotations

import argparse

from pirarray import integer_s_rate, render_decimal, table1_text, upper_g_s
from pirarray.cli import _int_flag


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-s", type=_int_flag, default=6)
    parser.add_argument("--max-t", type=_int_flag, default=13)
    parser.add_argument(
        "--convergence-t", type=_int_flag, nargs="*", default=[25, 100, 400],
        help="extra t values at which to print the gap to the ceiling",
    )
    args = parser.parse_args()

    print(table1_text(args.max_s, args.max_t))
    print("gap to the (s+1)/(2s) ceiling:")
    for s in range(2, args.max_s + 1):
        ceiling = upper_g_s(s)
        gaps = []
        for t in args.convergence_t:
            gap = ceiling - integer_s_rate(s, t)
            gaps.append(f"t={t}: {render_decimal(gap, 8)}")
        print(f"  s={s} (ceiling {ceiling}): " + "  ".join(gaps))


if __name__ == "__main__":
    main()
