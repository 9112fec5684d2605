"""Command-line front end: construct | verify | rate | bounds | table | simulate.

Every flag is checked on argparse's namespace before any work starts, the
family's parameters included, so a bad flag fails fast with exit 2.  Exit
codes: 0 success, 2 parameter/format errors, 3 when --expect-k does not match
the verified k.  Output depends only on flags and seed, so runs are
scriptable and diff-stable.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import bounds as bounds_mod
from .constructions import _REGISTRY, DEFAULT_MAX_COLUMNS, FAMILIES, ConstructionParams
from .errors import ParameterError
from .model import parse_code, parse_plan, serialize_code, serialize_plan
from .simulate import Fleet, availability_sweep, check_session, retrieve
from .verify import EXHAUSTIVE_CAP, k_pir_exhaustive, k_pir_pairs

__all__ = ["main", "parse_s"]

EXIT_OK = 0
EXIT_PARAMS = 2
EXIT_MISMATCH = 3
# Decimal digits `--precision` may ask for.  Python 3.11 and later refuse by
# default to turn an int of more than 4300 digits into text, and
# `render_decimal` prints the rate scaled by 10**precision as one int.
MAX_PRECISION = 1000


def _integer(text: str) -> int:
    """int(text) for ASCII digits after an optional "-", as PIRCODE and
    PIRPLAN text writes numbers; int() also reads other Unicode digits, "_",
    a leading "+" and surrounding whitespace, which raise ValueError here."""
    value = int(text)
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"{text!r} is not written in ASCII digits")
    return value


def _int_flag(text: str) -> int:
    try:
        return _integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def parse_s(text: str) -> Fraction:
    """Exact 'num/den' or integer; decimal notation is rejected to keep s exact."""
    if "." in text:
        raise ParameterError(f"s must be an exact fraction like 5/2, not a decimal: {text!r}")
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            value = Fraction(_integer(num), _integer(den))
        else:
            value = Fraction(_integer(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"cannot parse s from {text!r}: {exc}") from None
    if value <= 1:
        raise ParameterError(f"s must be > 1, got {value}")
    return value


def _flag(name: str, value: int, low: int, high: int | None = None) -> None:
    """ParameterError naming the flag unless low <= value (<= high)."""
    if value < low or (high is not None and value > high):
        wanted = f">= {low}" if high is None else f"between {low} and {high}"
        raise ParameterError(f"{name} must be {wanted}, got {value}")


def _checked(args: argparse.Namespace) -> argparse.Namespace:
    """args with its flags checked and --s parsed to a Fraction; for construct
    and rate, `args.params` holds the family's checked ConstructionParams."""
    command = args.subcommand
    if command in ("construct", "rate"):
        if args.t is None:
            raise ParameterError("--t is required")
        args.s = parse_s(args.s) if args.s is not None else None
        # a family takes --d (c1), --s (integer, general) or neither, and drops the other
        for name in ("d", "s"):
            if getattr(args, name) is not None and name != _REGISTRY[args.family].extra:
                raise ParameterError(f"--{name} does not apply to --family {args.family}")
    if command in ("rate", "bounds", "table"):
        _flag("--precision", args.precision, 1, MAX_PRECISION)
    if command in ("construct", "rate"):
        # family preconditions are checked, and the counts evaluated, before any work
        max_columns = getattr(args, "max_columns", DEFAULT_MAX_COLUMNS)
        args.params = ConstructionParams(args.family, args.t, args.d, args.s, max_columns)
    if command == "bounds":
        if args.corollary_ell is not None:
            _flag("--corollary-ell", args.corollary_ell, 1)
        args.s = parse_s(args.s)
    if command == "table":
        _flag("--max-s", args.max_s, 2)
        _flag("--max-t", args.max_t, 1)
    if command == "verify" and args.cap is not None:
        # pair mode has no cap, so there --cap would be dropped without a word
        if args.mode != "exhaustive":
            raise ParameterError("--cap needs --mode exhaustive")
        _flag("--cap", args.cap, 1)
    if command == "simulate":
        # a sweep needs both of its flags and prints no session, so the
        # session flags would be dropped without a word
        if args.sweep_trials is None:
            if args.sweep_failures is not None:
                raise ParameterError("--sweep-failures needs --sweep-trials")
        elif args.sweep_failures is None:
            raise ParameterError("--sweep-trials needs --sweep-failures")
        else:
            for name, value in (("--part", args.part), ("--fail-server", args.fail_server)):
                if value is not None:
                    raise ParameterError(f"{name} does not apply to --sweep-trials")
    return args


def _fraction_text(value: Fraction, precision: int) -> str:
    return f"{value.numerator}/{value.denominator} ({bounds_mod.render_decimal(value, precision)})"


def _cmd_construct(args: argparse.Namespace) -> int:
    code = args.params.build()
    args.out.write_text(serialize_code(code), encoding="utf-8")
    print(f"wrote {args.out} (p={code.p} t={code.t} m={code.m} s={code.s})")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    code = parse_code(args.infile.read_text(encoding="utf-8"))
    if args.mode == "exhaustive":
        report = k_pir_exhaustive(code, cap=EXHAUSTIVE_CAP if args.cap is None else args.cap)
    else:
        report = k_pir_pairs(code)
    rate = report.rate
    print(f"k={report.k} m={report.m} rate={rate.numerator}/{rate.denominator}")
    bound = report.singleton_bound
    floor = bound.numerator // bound.denominator
    print(f"mode={report.mode} exact={'yes' if report.exact else 'no'} singleton_bound={bound} (k <= {floor})")
    print(f"scope: {report.scope}")
    if args.plan_out is not None:
        args.plan_out.write_text(serialize_plan(report.plan), encoding="utf-8")
        print(f"wrote plan {args.plan_out}")
    if args.expect_k is not None and report.k != args.expect_k:
        print(f"expected k={args.expect_k} but verified k={report.k}", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def _decimal_digits(n: int) -> int:
    """Number of decimal digits of n >= 1, found without converting n to text."""
    # log10(2) > 0.30102, so this starts at or below the count
    digits = (n.bit_length() - 1) * 30102 // 100000 + 1
    while 10**digits <= n:
        digits += 1
    return digits


def _cmd_rate(args: argparse.Namespace) -> int:
    params = args.params
    m, k = params.predicted_counts()
    # k < m, and the rate's terms divide k and m, so m is the longest number
    # printed; Pythons before 3.10.7 have no limit (0 reads as none)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = _decimal_digits(m)
    if limit and digits > limit:
        raise ParameterError(
            f"m has {digits} decimal digits, beyond the limit of {limit} digits "
            "this Python converts to text"
        )
    rate = Fraction(k, m)
    pieces = [f"family={params.family}", f"t={params.t}"]
    if params.d is not None:
        pieces.append(f"d={params.d}")
    pieces += [f"s={params.s}", f"m={m}", f"k={k}", f"rate={_fraction_text(rate, args.precision)}"]
    print(" ".join(pieces))
    return EXIT_OK


def _cmd_bounds(args: argparse.Namespace) -> int:
    sheet = bounds_mod.reference_rates(args.s, args.t)
    print(f"s={args.s} t={args.t}")
    for name, value in sheet.items():
        print(f"{name}={_fraction_text(value, args.precision)}")
    if args.corollary_ell is not None:
        delta, tau = (args.s - 1).numerator, (args.s - 1).denominator
        value = bounds_mod.corollary_bound(delta, tau, args.corollary_ell)
        print(
            f"corollary_bound(delta={delta},tau={tau},ell={args.corollary_ell})"
            f"={_fraction_text(value, args.precision)}"
        )
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    if args.format == "csv":
        sys.stdout.write(bounds_mod.table1_csv(args.max_s, args.max_t, args.precision))
    else:
        sys.stdout.write(bounds_mod.table1_text(args.max_s, args.max_t))
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    code = parse_code(args.infile.read_text(encoding="utf-8"))
    # The fleet checks its knobs (chunk width, latency, jitter, drop
    # probability), and --part and --fail-server are checked against the
    # code, before the pair plan, which is the costly step, is computed.
    fleet = Fleet(
        code=code,
        seed=args.seed,
        chunk_width=args.chunk_width,
        base_latency_us=args.base_latency,
        jitter_us=args.jitter,
        drop_probability=args.drop_prob,
    )
    check_session(code, args.part, args.fail_server or ())
    if args.plan is not None:
        plan = parse_plan(args.plan.read_text(encoding="utf-8"))
    else:
        plan = k_pir_pairs(code).plan
    if args.sweep_trials is not None:
        summary = availability_sweep(fleet, plan, args.sweep_trials, args.sweep_failures)
        print(summary.to_json())
        return EXIT_OK
    parts = [args.part] if args.part is not None else list(plan.parts())
    for part in parts:
        sys.stdout.write(retrieve(fleet, plan, part, failed=args.fail_server or ()).jsonl())
        # each part is replayed once: its timeline goes once it is written
        fleet._record.timelines.clear()
    return EXIT_OK


_HANDLERS = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "rate": _cmd_rate,
    "bounds": _cmd_bounds,
    "table": _cmd_table,
    "simulate": _cmd_simulate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pirarray",
        description="Workbench for PIR array codes: construct, verify, bound, and simulate.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    construct = sub.add_parser("construct", help="generate a code family and write PIRCODE text")
    construct.add_argument("--family", required=True, choices=FAMILIES)
    construct.add_argument("--t", type=_int_flag)
    construct.add_argument("--d", type=_int_flag)
    construct.add_argument("--s", type=str, help="exact rational like 5/2 or 3")
    construct.add_argument("--max-columns", type=_int_flag, default=DEFAULT_MAX_COLUMNS)
    construct.add_argument("--out", type=Path, required=True)

    verify = sub.add_parser("verify", help="verify the k-PIR parameter of a PIRCODE file")
    verify.add_argument("--in", dest="infile", type=Path, required=True)
    verify.add_argument("--mode", choices=("pairs", "exhaustive"), default="pairs")
    verify.add_argument("--cap", type=_int_flag, help=f"exhaustive column cap (default {EXHAUSTIVE_CAP})")
    verify.add_argument("--plan-out", type=Path)
    verify.add_argument("--expect-k", type=_int_flag)

    rate = sub.add_parser("rate", help="symbolic m, k and rate for a family, nothing materialized")
    rate.add_argument("--family", required=True, choices=FAMILIES)
    rate.add_argument("--t", type=_int_flag)
    rate.add_argument("--d", type=_int_flag)
    rate.add_argument("--s", type=str)
    rate.add_argument("--precision", type=_int_flag, default=6)

    bounds_p = sub.add_parser("bounds", help="every bound and reference rate applicable at (s, t)")
    bounds_p.add_argument("--s", type=str, required=True)
    bounds_p.add_argument("--t", type=_int_flag, required=True)
    bounds_p.add_argument("--corollary-ell", type=_int_flag, help="also evaluate the reparametrized bound at this ell")
    bounds_p.add_argument("--precision", type=_int_flag, default=6)

    table = sub.add_parser("table", help="reference rate table for s in 2..max-s, t in 1..max-t")
    table.add_argument("--max-s", type=_int_flag, default=6)
    table.add_argument("--max-t", type=_int_flag, default=13)
    table.add_argument("--format", choices=("text", "csv"), default="text")
    table.add_argument("--precision", type=_int_flag, default=6)

    simulate = sub.add_parser("simulate", help="replay recovery sessions or an availability sweep")
    simulate.add_argument("--in", dest="infile", type=Path, required=True)
    simulate.add_argument("--plan", type=Path, help="PIRPLAN file; default recomputes pair-mode plan")
    simulate.add_argument("--seed", type=_int_flag, required=True)
    simulate.add_argument("--part", type=_int_flag, help="single part; default replays every planned part")
    simulate.add_argument("--fail-server", type=_int_flag, action="append", help="mark a server down (repeatable)")
    simulate.add_argument("--sweep-trials", type=_int_flag)
    simulate.add_argument("--sweep-failures", type=_int_flag)
    simulate.add_argument("--chunk-width", type=_int_flag, default=64)
    simulate.add_argument("--base-latency", type=_int_flag, default=1000)
    simulate.add_argument("--jitter", type=_int_flag, default=250)
    simulate.add_argument("--drop-prob", type=float, default=0.0)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARAMS if exc.code not in (0, None) else EXIT_OK
    try:
        return _HANDLERS[args.subcommand](_checked(args))
    except (ValueError, OSError) as exc:  # ParameterError (CapExceeded too), FormatError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS


if __name__ == "__main__":
    sys.exit(main())
