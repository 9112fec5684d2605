#!/usr/bin/env python3
"""Fault-injection experiment: how many recovery sets survive f failed servers.

Builds a family code, verifies it in pair mode, then sweeps seeded random
failure subsets of growing size.  Disjointness guarantees a floor of k - f
surviving sets per part; the sweep shows how much slack typical draws leave.

    python scripts/availability_experiment.py --family c1 --t 2 --d 2 --max-failures 4
"""

from __future__ import annotations

import argparse

from pirarray import ConstructionParams, Fleet, ParameterError, availability_sweep, k_pir_pairs
from pirarray.cli import _int_flag, parse_s
from pirarray.constructions import FAMILIES


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--family", default="c1", choices=FAMILIES)
    parser.add_argument("--t", type=_int_flag, default=2)
    parser.add_argument("--d", type=_int_flag, default=2)
    parser.add_argument("--s", type=str, default=None, help="exact rational like 5/2")
    parser.add_argument("--seed", type=_int_flag, default=42)
    parser.add_argument("--trials", type=_int_flag, default=200)
    parser.add_argument("--max-failures", type=_int_flag, default=3)
    args = parser.parse_args()

    try:
        s = parse_s(args.s) if args.s is not None else None
        code = ConstructionParams(family=args.family, t=args.t, d=args.d, s=s).build()
    except ParameterError as exc:
        parser.error(str(exc))
    report = k_pir_pairs(code)
    fleet = Fleet(code=code, seed=args.seed)
    print(f"{args.family}: p={code.p} t={code.t} m={code.m} k={report.k} rate={report.rate}")
    print(f"{'f':>3} {'floor k-f':>9} {'observed min':>12} {'mean surviving':>14}")
    for failures in range(0, args.max_failures + 1):
        summary = availability_sweep(fleet, report.plan, trials=args.trials, failures_per_trial=failures)
        mean = min(summary.per_part_mean)
        print(f"{failures:>3} {report.k - failures:>9} {summary.overall_min:>12} {float(mean):>14.3f}")
        assert summary.overall_min >= report.k - failures


if __name__ == "__main__":
    main()
