"""Command-line front end: construct | verify | rate | bounds | table | simulate.

Flags are parsed into a validated `CliConfig` before any work starts, so a
bad family parameter fails fast with exit 2.  Exit codes: 0 success, 2
parameter/format errors, 3 when --expect-k does not match the verified k.
Output depends only on flags and seed, so runs are scriptable and
diff-stable.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import bounds as bounds_mod
from .constructions import DEFAULT_MAX_COLUMNS, FAMILIES, ConstructionParams
from .errors import ParameterError
from .model import parse_code, parse_plan, serialize_code, serialize_plan
from .simulate import Fleet, availability_sweep, retrieve
from .verify import EXHAUSTIVE_CAP, k_pir_exhaustive, k_pir_pairs

__all__ = ["main", "CliConfig", "parse_s"]

EXIT_OK = 0
EXIT_PARAMS = 2
EXIT_MISMATCH = 3
# Decimal digits `--precision` may ask for.  Python 3.11 and later refuse by
# default to turn an int of more than 4300 digits into text, and
# `render_decimal` prints the rate scaled by 10**precision as one int.
MAX_PRECISION = 1000


def parse_s(text: str) -> Fraction:
    """Exact 'num/den' or integer; decimal notation is rejected to keep s exact."""
    if "." in text:
        raise ParameterError(f"s must be an exact fraction like 5/2, not a decimal: {text!r}")
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            value = Fraction(int(num), int(den))
        else:
            value = Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"cannot parse s from {text!r}: {exc}") from None
    if value <= 1:
        raise ParameterError(f"s must be > 1, got {value}")
    return value


def _flag(name: str, value: int, low: int, high: int | None = None) -> int:
    """value, or ParameterError naming the flag unless low <= value (<= high)."""
    if value < low or (high is not None and value > high):
        wanted = f">= {low}" if high is None else f"between {low} and {high}"
        raise ParameterError(f"{name} must be {wanted}, got {value}")
    return value


@dataclass(frozen=True)
class CliConfig:
    """One validated invocation; family preconditions hold before any work runs."""

    subcommand: str
    s: Fraction | None = None
    t: int | None = None
    params: ConstructionParams | None = None  # construct and rate only
    mode: str = "pairs"
    cap: int = EXHAUSTIVE_CAP
    expect_k: int | None = None
    seed: int = 0
    input_path: Path | None = None
    output_path: Path | None = None
    plan_path: Path | None = None
    precision: int = 6
    table_max_s: int = 6
    table_max_t: int = 13
    table_format: str = "text"
    corollary_ell: int | None = None
    part: int | None = None
    fail_servers: tuple[int, ...] = ()
    sweep_trials: int | None = None
    sweep_failures: int | None = None
    chunk_width: int = 64
    base_latency_us: int = 1000
    jitter_us: int = 250
    drop_probability: float = 0.0

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> CliConfig:
        fields: dict = {"subcommand": args.subcommand}
        if args.subcommand in ("construct", "rate"):
            if args.t is None:
                raise ParameterError("--t is required")
            fields.update(t=args.t, s=parse_s(args.s) if args.s is not None else None)
        if args.subcommand == "construct":
            fields["output_path"] = args.out
        if args.subcommand in ("rate", "bounds", "table"):
            fields["precision"] = _flag("--precision", args.precision, 1, MAX_PRECISION)
        if args.subcommand == "verify":
            fields.update(
                input_path=args.infile,
                mode=args.mode,
                cap=args.cap,
                plan_path=args.plan_out,
                expect_k=args.expect_k,
            )
        if args.subcommand == "bounds":
            if args.t is None:
                raise ParameterError("--t is required")
            if args.corollary_ell is not None:
                fields["corollary_ell"] = _flag("--corollary-ell", args.corollary_ell, 1)
            fields.update(s=parse_s(args.s), t=args.t)
        if args.subcommand == "table":
            fields.update(
                table_max_s=_flag("--max-s", args.max_s, 2),
                table_max_t=_flag("--max-t", args.max_t, 1),
                table_format=args.format,
            )
        if args.subcommand == "simulate":
            fields.update(
                input_path=args.infile,
                plan_path=args.plan,
                seed=args.seed,
                part=args.part,
                fail_servers=tuple(args.fail_server or ()),
                sweep_trials=args.sweep_trials,
                sweep_failures=args.sweep_failures,
                chunk_width=args.chunk_width,
                base_latency_us=args.base_latency,
                jitter_us=args.jitter,
                drop_probability=args.drop_prob,
            )
            if args.sweep_trials is not None and args.sweep_failures is None:
                raise ParameterError("--sweep-trials needs --sweep-failures")
        if args.subcommand in ("construct", "rate"):
            # family preconditions are checked, and the counts evaluated, before any work
            max_columns = args.max_columns if args.subcommand == "construct" else DEFAULT_MAX_COLUMNS
            fields["params"] = ConstructionParams(args.family, args.t, args.d, fields["s"], max_columns)
        return cls(**fields)


def _fraction_text(value: Fraction, precision: int) -> str:
    return f"{value.numerator}/{value.denominator} ({bounds_mod.render_decimal(value, precision)})"


def _cmd_construct(config: CliConfig) -> int:
    assert config.params is not None and config.output_path is not None
    code = config.params.build()
    config.output_path.write_text(serialize_code(code), encoding="utf-8")
    print(f"wrote {config.output_path} (p={code.p} t={code.t} m={code.m} s={code.s})")
    return EXIT_OK


def _cmd_verify(config: CliConfig) -> int:
    assert config.input_path is not None
    code = parse_code(config.input_path.read_text(encoding="utf-8"))
    if config.mode == "exhaustive":
        report = k_pir_exhaustive(code, cap=config.cap)
    else:
        report = k_pir_pairs(code)
    rate = report.rate
    print(f"k={report.k} m={report.m} rate={rate.numerator}/{rate.denominator}")
    bound = report.singleton_bound
    floor = bound.numerator // bound.denominator
    print(f"mode={report.mode} exact={'yes' if report.exact else 'no'} singleton_bound={bound} (k <= {floor})")
    print(f"scope: {report.scope}")
    if config.plan_path is not None:
        config.plan_path.write_text(serialize_plan(report.plan), encoding="utf-8")
        print(f"wrote plan {config.plan_path}")
    if config.expect_k is not None and report.k != config.expect_k:
        print(f"expected k={config.expect_k} but verified k={report.k}", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def _decimal_digits(n: int) -> int:
    """Number of decimal digits of n >= 1, found without converting n to text."""
    # log10(2) > 0.30102, so this starts at or below the count
    digits = (n.bit_length() - 1) * 30102 // 100000 + 1
    while 10**digits <= n:
        digits += 1
    return digits


def _cmd_rate(config: CliConfig) -> int:
    params = config.params
    assert params is not None
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
    pieces += [f"s={params.s}", f"m={m}", f"k={k}", f"rate={_fraction_text(rate, config.precision)}"]
    print(" ".join(pieces))
    return EXIT_OK


def _cmd_bounds(config: CliConfig) -> int:
    assert config.s is not None and config.t is not None
    sheet = bounds_mod.reference_rates(config.s, config.t)
    print(f"s={config.s} t={config.t}")
    for name, value in sheet.entries().items():
        print(f"{name}={_fraction_text(value, config.precision)}")
    if config.corollary_ell is not None:
        delta, tau = (config.s - 1).numerator, (config.s - 1).denominator
        value = bounds_mod.corollary_bound(delta, tau, config.corollary_ell)
        print(
            f"corollary_bound(delta={delta},tau={tau},ell={config.corollary_ell})"
            f"={_fraction_text(value, config.precision)}"
        )
    return EXIT_OK


def _cmd_table(config: CliConfig) -> int:
    if config.table_format == "csv":
        sys.stdout.write(bounds_mod.table1_csv(config.table_max_s, config.table_max_t, config.precision))
    else:
        sys.stdout.write(bounds_mod.table1_text(config.table_max_s, config.table_max_t))
    return EXIT_OK


def _cmd_simulate(config: CliConfig) -> int:
    assert config.input_path is not None
    code = parse_code(config.input_path.read_text(encoding="utf-8"))
    # The fleet checks its knobs (chunk width, jitter, drop probability)
    # before the pair plan, which is the costly step, is computed.
    fleet = Fleet(
        code=code,
        seed=config.seed,
        chunk_width=config.chunk_width,
        base_latency_us=config.base_latency_us,
        jitter_us=config.jitter_us,
        drop_probability=config.drop_probability,
    )
    if config.plan_path is not None:
        plan = parse_plan(config.plan_path.read_text(encoding="utf-8"))
    else:
        plan = k_pir_pairs(code).plan
    if config.sweep_trials is not None:
        assert config.sweep_failures is not None
        summary = availability_sweep(fleet, plan, config.sweep_trials, config.sweep_failures)
        print(summary.to_json())
        return EXIT_OK
    parts = [config.part] if config.part is not None else list(plan.parts())
    for part in parts:
        transcript = retrieve(fleet, plan, part, failed=config.fail_servers)
        sys.stdout.write(transcript.jsonl())
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
    construct.add_argument("--t", type=int)
    construct.add_argument("--d", type=int)
    construct.add_argument("--s", type=str, help="exact rational like 5/2 or 3")
    construct.add_argument("--max-columns", type=int, default=DEFAULT_MAX_COLUMNS)
    construct.add_argument("--out", type=Path, required=True)

    verify = sub.add_parser("verify", help="verify the k-PIR parameter of a PIRCODE file")
    verify.add_argument("--in", dest="infile", type=Path, required=True)
    verify.add_argument("--mode", choices=("pairs", "exhaustive"), default="pairs")
    verify.add_argument("--cap", type=int, default=EXHAUSTIVE_CAP, help="exhaustive column cap")
    verify.add_argument("--plan-out", type=Path)
    verify.add_argument("--expect-k", type=int)

    rate = sub.add_parser("rate", help="symbolic m, k and rate for a family, nothing materialized")
    rate.add_argument("--family", required=True, choices=FAMILIES)
    rate.add_argument("--t", type=int)
    rate.add_argument("--d", type=int)
    rate.add_argument("--s", type=str)
    rate.add_argument("--precision", type=int, default=6)

    bounds_p = sub.add_parser("bounds", help="every bound and reference rate applicable at (s, t)")
    bounds_p.add_argument("--s", type=str, required=True)
    bounds_p.add_argument("--t", type=int, required=True)
    bounds_p.add_argument("--corollary-ell", type=int, help="also evaluate the reparametrized bound at this ell")
    bounds_p.add_argument("--precision", type=int, default=6)

    table = sub.add_parser("table", help="reference rate table for s in 2..max-s, t in 1..max-t")
    table.add_argument("--max-s", type=int, default=6)
    table.add_argument("--max-t", type=int, default=13)
    table.add_argument("--format", choices=("text", "csv"), default="text")
    table.add_argument("--precision", type=int, default=6)

    simulate = sub.add_parser("simulate", help="replay recovery sessions or an availability sweep")
    simulate.add_argument("--in", dest="infile", type=Path, required=True)
    simulate.add_argument("--plan", type=Path, help="PIRPLAN file; default recomputes pair-mode plan")
    simulate.add_argument("--seed", type=int, required=True)
    simulate.add_argument("--part", type=int, help="single part; default replays every planned part")
    simulate.add_argument("--fail-server", type=int, action="append", help="mark a server down (repeatable)")
    simulate.add_argument("--sweep-trials", type=int)
    simulate.add_argument("--sweep-failures", type=int)
    simulate.add_argument("--chunk-width", type=int, default=64)
    simulate.add_argument("--base-latency", type=int, default=1000)
    simulate.add_argument("--jitter", type=int, default=250)
    simulate.add_argument("--drop-prob", type=float, default=0.0)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARAMS if exc.code not in (0, None) else EXIT_OK
    try:
        config = CliConfig.from_args(args)
        return _HANDLERS[config.subcommand](config)
    except (ValueError, OSError) as exc:  # ParameterError (CapExceeded too), FormatError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS


if __name__ == "__main__":
    sys.exit(main())
