import hashlib
import json
import sys
import time

import pytest

from pirarray import cli, constructions
from pirarray.cli import MAX_PRECISION, _decimal_digits, main
from pirarray import k_pir_exhaustive, parse_code, parse_plan
from pirarray.model import MAX_PARTS
from pirarray.verify import EXHAUSTIVE_CAP

from conftest import INTRO_TEXT


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_then_verify_pairs(tmp_path, capsys):
    out = tmp_path / "c.pir"
    code, stdout, _ = run(capsys, "construct", "--family", "c1", "--t", "2", "--d", "2", "--out", str(out))
    assert code == 0 and "m=10" in stdout
    parsed = parse_code(out.read_text())
    assert parsed.m == 10

    code, stdout, _ = run(capsys, "verify", "--in", str(out), "--mode", "pairs")
    assert code == 0
    assert stdout.splitlines()[0] == "k=7 m=10 rate=7/10"


def test_verify_exhaustive_with_plan_output(tmp_path, capsys):
    src = tmp_path / "intro.pir"
    src.write_text(INTRO_TEXT)
    plan_path = tmp_path / "intro.plan"
    code, stdout, _ = run(
        capsys, "verify", "--in", str(src), "--mode", "exhaustive", "--plan-out", str(plan_path)
    )
    assert code == 0
    assert stdout.splitlines()[0] == "k=3 m=4 rate=3/4"
    plan = parse_plan(plan_path.read_text())
    assert plan.plan_k == 3


def test_verify_expect_k_mismatch_exits_three(tmp_path, capsys):
    src = tmp_path / "intro.pir"
    src.write_text(INTRO_TEXT)
    code, _, err = run(capsys, "verify", "--in", str(src), "--mode", "exhaustive", "--expect-k", "4")
    assert code == 3 and "expected k=4" in err
    code, _, _ = run(capsys, "verify", "--in", str(src), "--mode", "exhaustive", "--expect-k", "3")
    assert code == 0


def test_rate_subcommand(capsys):
    code, stdout, _ = run(capsys, "rate", "--family", "integer", "--s", "3", "--t", "2")
    assert code == 0
    assert "m=129" in stdout and "k=79" in stdout and "79/129" in stdout


def test_rate_symbolic_beyond_cap(capsys):
    # far beyond any sensible materialization cap, still answers instantly
    code, stdout, _ = run(capsys, "rate", "--family", "integer", "--s", "4", "--t", "6")
    assert code == 0 and "rate=" in stdout


def test_bounds_subcommand(capsys):
    code, stdout, _ = run(capsys, "bounds", "--s", "5/2", "--t", "2")
    assert code == 0
    assert "upper_g_s=7/10" in stdout
    assert "general_s_rate=29/45" in stdout


# `bounds` stdout, byte for byte, where the c1_rate and t1_rate entries
# apply; no golden above reaches them.
BOUNDS_STDOUT = {
    ("3/2", "2"): (
        "s=3/2 t=2\n"
        "upper_g_s=5/6 (0.833333)\n"
        "upper_g_st=7/9 (0.777778)\n"
        "c1_rate=7/9 (0.777778)\n"
    ),
    ("6", "1"): (
        "s=6 t=1\n"
        "upper_g_s=7/12 (0.583333)\n"
        "t1_rate=32/63 (0.507937)\n"
        "integer_s_rate=32/63 (0.507937)\n"
    ),
    ("4/3", "3"): (
        "s=4/3 t=3\n"
        "upper_g_s=7/8 (0.875000)\n"
        "upper_g_st=5/6 (0.833333)\n"
        "c1_rate=5/6 (0.833333)\n"
    ),
}


@pytest.mark.parametrize("s, t", list(BOUNDS_STDOUT))
def test_bounds_stdout_where_c1_and_t1_rates_apply(capsys, s, t):
    assert run(capsys, "bounds", "--s", s, "--t", t) == (0, BOUNDS_STDOUT[s, t], "")


def test_bounds_corollary_on_request(capsys):
    code, stdout, _ = run(capsys, "bounds", "--s", "3/2", "--t", "2", "--corollary-ell", "1")
    assert code == 0 and "corollary_bound(delta=1,tau=2,ell=1)=7/9" in stdout


def test_table_text_and_csv(capsys):
    code, stdout, _ = run(capsys, "table", "--max-t", "13")
    assert code == 0
    row5 = next(line for line in stdout.splitlines() if line.split()[0] == "5")
    assert "8/11" in row5.split()
    code, stdout, _ = run(capsys, "table", "--format", "csv", "--max-t", "2")
    assert code == 0 and stdout.splitlines()[0] == "s,t,numerator,denominator,decimal"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("rate", "--family", "integer", "--s", "3", "--t", "2", "--precision", "5000"), "--precision"),
        (("bounds", "--s", "3", "--t", "2", "--precision", "5000"), "--precision"),
        (("bounds", "--s", "3", "--t", "2", "--precision", "0"), "--precision"),
        (("table", "--format", "csv", "--precision", "5000"), "--precision"),
        (("bounds", "--s", "3", "--t", "2", "--corollary-ell", "0"), "--corollary-ell"),
        (("table", "--max-s", "1"), "--max-s"),
        (("table", "--max-t", "0"), "--max-t"),
    ],
)
def test_out_of_range_flags_exit_two_before_printing(capsys, argv, flag):
    code, stdout, err = run(capsys, *argv)
    assert code == 2 and stdout == "" and err.startswith(f"error: {flag} must be ")


def test_precision_up_to_the_limit(capsys):
    code, stdout, _ = run(capsys, "rate", "--family", "c1", "--t", "2", "--d", "2", "--precision", str(MAX_PRECISION))
    assert code == 0 and stdout.endswith("rate=7/10 (0.7" + "0" * (MAX_PRECISION - 1) + ")\n")


# SHA-256 of the concatenated stdout of FORMULA_RUNS as printed when the
# integer-s and non-integer-s counts, rates and beta/gamma were separate
# formulas; `rate` reads the family counts, `bounds` and `table` the rates.
FORMULA_RUNS = (
    [("rate", "--family", "integer", "--s", str(s), "--t", str(t)) for s in range(2, 6) for t in (1, 2, 3, 5)]
    + [
        ("rate", "--family", "general", "--s", s, "--t", str(t))
        for s, ts in (("5/2", (2, 4, 6)), ("7/3", (3, 6, 9)), ("8/3", (3, 6)))
        for t in ts
    ]
    + [("bounds", "--s", s, "--t", t) for s, t in (("3", "2"), ("5/2", "2"), ("7/3", "3"))]
    + [("table", "--format", "csv")]
)
GOLDEN_FORMULAS_SHA256 = "550011733ddad773d662c102ea9850544b2a48c9ab6fe331739be483aef9d53a"


def test_formula_stdout_is_unchanged(capsys):
    out = []
    for argv in FORMULA_RUNS:
        code, stdout, _ = run(capsys, *argv)
        assert code == 0, argv
        out.append(stdout)
    assert hashlib.sha256("".join(out).encode()).hexdigest() == GOLDEN_FORMULAS_SHA256


def test_simulate_deterministic_stdout(tmp_path, capsys):
    out = tmp_path / "c.pir"
    run(capsys, "construct", "--family", "c1", "--t", "2", "--d", "2", "--out", str(out))
    code, first, _ = run(capsys, "simulate", "--in", str(out), "--seed", "42", "--part", "1")
    assert code == 0
    code, second, _ = run(capsys, "simulate", "--in", str(out), "--seed", "42", "--part", "1")
    assert first == second
    last = json.loads(first.splitlines()[-1])
    assert last["event"] == "verdict" and last["status"] == "ok"


# SHA-256 of the concatenated `simulate` stdout for c1(5,5) over every
# planned part (seed 5), then for the intro code with --drop-prob 0.3 and
# server 2 down (seed 3), as json.dumps rendered each event.
GOLDEN_TRANSCRIPTS_SHA256 = "baed616fe0dae063282b58f4dc5352a7ba5cd108068311a32d7a4ffc3c7ae176"


def test_simulate_transcript_bytes_are_unchanged(tmp_path, capsys):
    c1_path, intro_path = tmp_path / "c.pir", tmp_path / "intro.pir"
    run(capsys, "construct", "--family", "c1", "--t", "5", "--d", "5", "--out", str(c1_path))
    intro_path.write_text(INTRO_TEXT)
    code, c1_out, _ = run(capsys, "simulate", "--in", str(c1_path), "--seed", "5")
    assert code == 0
    code, intro_out, _ = run(
        capsys, "simulate", "--in", str(intro_path), "--seed", "3", "--drop-prob", "0.3", "--fail-server", "2"
    )
    assert code == 0
    assert hashlib.sha256((c1_out + intro_out).encode()).hexdigest() == GOLDEN_TRANSCRIPTS_SHA256


def test_simulate_refuses_a_huge_chunk_width(tmp_path, capsys):
    src = tmp_path / "intro.pir"
    src.write_text(INTRO_TEXT)
    start = time.perf_counter()
    code, stdout, err = run(capsys, "simulate", "--in", str(src), "--seed", "1", "--chunk-width", str(1 << 20))
    assert time.perf_counter() - start < 0.1
    assert code == 2 and stdout == "" and "beyond the limit" in err


def test_simulate_refuses_a_negative_base_latency(tmp_path, capsys):
    src = tmp_path / "intro.pir"
    src.write_text(INTRO_TEXT)
    code, stdout, err = run(
        capsys, "simulate", "--in", str(src), "--seed", "1", "--part", "1", "--base-latency", "-2000"
    )
    assert (code, stdout, err) == (2, "", "error: base_latency_us must be >= 0\n")


def test_simulate_keeps_a_zero_base_latency(tmp_path, capsys):
    src = tmp_path / "intro.pir"
    src.write_text(INTRO_TEXT)
    code, stdout, _ = run(
        capsys, "simulate", "--in", str(src), "--seed", "1", "--part", "1", "--base-latency", "0", "--jitter", "0"
    )
    assert code == 0
    events = [json.loads(line) for line in stdout.splitlines()]
    responses = [e["time"] for e in events if e["event"] == "response"]
    assert responses and set(responses) == {0}


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--sweep-failures", "1"), "--sweep-failures needs --sweep-trials"),
        (("--sweep-trials", "3", "--sweep-failures", "1", "--part", "1"), "--part does not apply to --sweep-trials"),
        (
            ("--sweep-trials", "3", "--sweep-failures", "1", "--fail-server", "2"),
            "--fail-server does not apply to --sweep-trials",
        ),
        (
            ("--fail-server", "2", "--part", "1", "--sweep-failures", "1", "--sweep-trials", "3"),
            "--part does not apply to --sweep-trials",
        ),
    ],
)
def test_simulate_refuses_flags_it_would_drop(tmp_path, capsys, flags, message):
    # without --sweep-trials, --sweep-failures would print sessions, and a
    # sweep prints no session, so --part and --fail-server would do nothing
    src = tmp_path / "intro.pir"
    src.write_text(INTRO_TEXT)
    code, stdout, err = run(capsys, "simulate", "--in", str(src), "--seed", "1", *flags)
    assert (code, stdout, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--part", "0"), "part 0 out of range 1..10"),
        (("--part", "11", "--fail-server", "0"), "part 11 out of range 1..10"),
        (("--part", "1", "--fail-server", "0"), "failed server index out of range 1..462"),
        (("--fail-server", "3", "--fail-server", "463"), "failed server index out of range 1..462"),
    ],
)
def test_simulate_refuses_a_bad_part_or_server_before_the_pair_plan(tmp_path, capsys, monkeypatch, flags, message):
    # the pair plan is the costly step, so --part and --fail-server are
    # checked against the code before it, part first, as retrieve checks them
    src = tmp_path / "c.pir"
    run(capsys, "construct", "--family", "c1", "--t", "5", "--d", "5", "--out", str(src))

    def refused(code):
        raise AssertionError("k_pir_pairs ran")

    monkeypatch.setattr(cli, "k_pir_pairs", refused)
    code, stdout, err = run(capsys, "simulate", "--in", str(src), "--seed", "1", *flags)
    assert (code, stdout, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["construct", "rate"])
@pytest.mark.parametrize(
    "flags, message",
    [
        (("--family", "c1", "--t", "2", "--d", "2", "--s", "3"), "--s does not apply to --family c1"),
        (("--family", "c2", "--t", "3", "--s", "7"), "--s does not apply to --family c2"),
        (("--family", "c3", "--t", "2", "--s", "3/2"), "--s does not apply to --family c3"),
        (("--family", "c2", "--t", "3", "--d", "1"), "--d does not apply to --family c2"),
        (("--family", "c3", "--t", "2", "--d", "1"), "--d does not apply to --family c3"),
        (
            ("--family", "integer", "--s", "3", "--t", "2", "--d", "5"),
            "--d does not apply to --family integer",
        ),
        (
            ("--family", "general", "--s", "5/2", "--t", "2", "--d", "2"),
            "--d does not apply to --family general",
        ),
        # --d is named first when both are foreign to the family
        (("--family", "c2", "--t", "3", "--s", "7", "--d", "1"), "--d does not apply to --family c2"),
        # a missing --t and a bad --s are still named before the family's parameters
        (("--family", "c1", "--d", "2", "--s", "3"), "--t is required"),
        (
            ("--family", "c2", "--t", "3", "--s", "0.5"),
            "s must be an exact fraction like 5/2, not a decimal: '0.5'",
        ),
    ],
)
def test_construct_and_rate_refuse_a_parameter_the_family_does_not_take(
    tmp_path, capsys, monkeypatch, command, flags, message
):
    def refused(*args, **kwargs):
        raise AssertionError("the family's parameters were evaluated")

    monkeypatch.setattr(cli, "ConstructionParams", refused)
    out = tmp_path / "x.pir"
    argv = (command, *flags) + (("--out", str(out)) if command == "construct" else ())
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout, err) == (2, "", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ("--family", "c1", "--t", "2", "--d", "2"),
        ("--family", "c2", "--t", "3"),
        ("--family", "c3", "--t", "2"),
        ("--family", "integer", "--s", "3", "--t", "2"),
        ("--family", "general", "--s", "5/2", "--t", "2"),
    ],
)
def test_construct_and_rate_accept_each_family_own_parameters(tmp_path, capsys, flags):
    code, stdout, _ = run(capsys, "rate", *flags)
    assert code == 0 and stdout.startswith(f"family={flags[1]} ")
    code, stdout, _ = run(capsys, "construct", *flags, "--out", str(tmp_path / "x.pir"))
    assert code == 0 and stdout.startswith("wrote ")


def test_rate_at_large_s_is_fast(capsys):
    # the balance chain is stepped in lowest terms, not formed from products
    # of every binomial, so s = t = 60 (q = 60 types) takes a fraction of 1 s
    start = time.perf_counter()
    code, stdout, _ = run(capsys, "rate", "--family", "integer", "--s", "60", "--t", "60")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and stdout


def test_rate_evaluates_the_ladder_once(capsys, monkeypatch):
    calls = []
    solve_xi = constructions.solve_xi

    def counted(*args):
        calls.append(args)
        return solve_xi(*args)

    monkeypatch.setattr(constructions, "solve_xi", counted)
    code, stdout, _ = run(capsys, "rate", "--family", "integer", "--s", "60", "--t", "60")
    assert code == 0 and stdout
    assert len(calls) == 1


def test_rate_refuses_an_m_too_long_to_print(capsys):
    # at s = t = 100, m has 4678 digits; Python converts at most
    # sys.get_int_max_str_digits() (4300 by default) to text
    limit = sys.get_int_max_str_digits()
    code, stdout, err = run(capsys, "rate", "--family", "integer", "--s", "100", "--t", "100")
    assert code == 2 and stdout == ""
    assert err == (
        f"error: m has 4678 decimal digits, beyond the limit of {limit} digits "
        "this Python converts to text\n"
    )


def test_decimal_digits_counts_without_text():
    # 10**k - 1 has k digits and 10**k has k + 1, past the text limit too
    for k in (*range(1, 60), 1000, 4299, 4300, 4301, 4677, 4678, 9000):
        assert _decimal_digits(10**k - 1) == k
        assert _decimal_digits(10**k) == k + 1
    assert [_decimal_digits(2**b) for b in range(1, 40)] == [len(str(2**b)) for b in range(1, 40)]


def test_simulate_sweep_json(tmp_path, capsys):
    out = tmp_path / "c.pir"
    run(capsys, "construct", "--family", "c1", "--t", "2", "--d", "2", "--out", str(out))
    code, stdout, _ = run(
        capsys, "simulate", "--in", str(out), "--seed", "42",
        "--sweep-trials", "10", "--sweep-failures", "1",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["overall_min"] >= 6 and payload["status"] == "ok"


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "--family", "c2", "--t", "4", "--out", "x.pir"),
        ("construct", "--family", "c1", "--t", "2", "--out", "x.pir"),
        ("construct", "--family", "integer", "--s", "2.5", "--t", "2", "--out", "x.pir"),
        ("construct", "--family", "general", "--s", "5/2", "--t", "3", "--out", "x.pir"),
        ("bounds", "--s", "1", "--t", "2"),
        ("rate", "--family", "c1", "--t", "2", "--d", "9"),
    ],
)
def test_parameter_errors_exit_two(tmp_path, capsys, argv, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, *argv)
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize(
    "argv, missing",
    [
        (("construct", "--family", "c1", "--t", "2", "--out", "x.pir"), "c1 needs d"),
        (("construct", "--family", "general", "--t", "2", "--out", "x.pir"), "general needs s"),
        (("rate", "--family", "integer", "--t", "2"), "integer needs s"),
    ],
)
def test_missing_family_parameter_is_named(tmp_path, capsys, argv, missing, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, *argv)
    assert code == 2 and err == f"error: {missing}\n"
    assert not (tmp_path / "x.pir").exists()


def test_unknown_flags_exit_two(capsys):
    assert main(["table", "--bogus"]) == 2
    assert main(["frobnicate"]) == 2
    # rate materializes nothing, so it takes no --max-columns
    assert main(["rate", "--family", "c1", "--t", "2", "--d", "2", "--max-columns", "5"]) == 2


def test_cap_exceeded_exit_two(tmp_path, capsys):
    code, _, err = run(
        capsys, "construct", "--family", "integer", "--s", "3", "--t", "2",
        "--max-columns", "100", "--out", str(tmp_path / "x.pir"),
    )
    assert code == 2 and "m=129" in err


@pytest.mark.parametrize("family, t", [("c2", "9"), ("c3", "8")])
def test_small_server_families_honour_the_column_cap(tmp_path, capsys, family, t):
    out = tmp_path / "x.pir"
    code, _, err = run(
        capsys, "construct", "--family", family, "--t", t, "--max-columns", "5", "--out", str(out)
    )
    assert code == 2 and "beyond the cap of 5" in err
    assert not out.exists()


@pytest.mark.parametrize("p", [MAX_PARTS + 1, 10**9])
def test_verify_refuses_a_header_p_beyond_max_parts(tmp_path, capsys, p):
    src = tmp_path / "huge.pir"
    src.write_text(f"PIRCODE v1\np={p} t=1 m=2\n1\n1\n")
    start = time.perf_counter()
    code, stdout, err = run(capsys, "verify", "--in", str(src))
    assert time.perf_counter() - start < 0.1
    assert code == 2 and stdout == "" and f"beyond the limit of {MAX_PARTS} parts" in err


def test_verify_cap_directs_to_pairs(tmp_path, capsys):
    out = tmp_path / "c3.pir"
    run(capsys, "construct", "--family", "c3", "--t", "4", "--out", str(out))
    code, _, err = run(capsys, "verify", "--in", str(out), "--mode", "exhaustive")
    assert code == 2 and "k_pir_pairs" in err
    code, stdout, _ = run(capsys, "verify", "--in", str(out), "--mode", "pairs")
    assert code == 0 and stdout.splitlines()[0] == "k=13 m=15 rate=13/15"


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--cap", "20"), "--cap needs --mode exhaustive"),
        (("--mode", "pairs", "--cap", "20"), "--cap needs --mode exhaustive"),
        (("--mode", "pairs", "--cap", "-1"), "--cap needs --mode exhaustive"),
        (("--mode", "exhaustive", "--cap", "-1"), "--cap must be >= 1, got -1"),
        (("--mode", "exhaustive", "--cap", "0"), "--cap must be >= 1, got 0"),
    ],
)
def test_verify_refuses_a_cap_it_would_drop_or_cannot_meet(tmp_path, capsys, monkeypatch, flags, message):
    # pair mode has no cap, and no code fits under a cap below 1; both are
    # refused before the code is read
    src = tmp_path / "intro.pir"
    src.write_text(INTRO_TEXT)
    monkeypatch.setattr(cli, "parse_code", None)
    code, stdout, err = run(capsys, "verify", "--in", str(src), *flags)
    assert (code, stdout, err) == (2, "", f"error: {message}\n")


def test_verify_cap_defaults_to_the_exhaustive_cap(tmp_path, capsys, monkeypatch):
    caps = []

    def recording(code, cap):
        caps.append(cap)
        return k_pir_exhaustive(code, cap)

    monkeypatch.setattr(cli, "k_pir_exhaustive", recording)
    src = tmp_path / "intro.pir"
    src.write_text(INTRO_TEXT)
    assert run(capsys, "verify", "--in", str(src), "--mode", "exhaustive")[0] == 0
    assert run(capsys, "verify", "--in", str(src), "--mode", "exhaustive", "--cap", "7")[0] == 0
    assert caps == [EXHAUSTIVE_CAP, 7]


def test_flags_are_checked_before_any_work(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(capsys, "construct", "--family", "c2", "--t", "4", "--out", "c2.pir")
    assert code == 2 and stdout == "" and err.startswith("error: ")
    assert not (tmp_path / "c2.pir").exists()
    code, stdout, _ = run(capsys, "construct", "--family", "c2", "--t", "3", "--out", "c2.pir")
    assert code == 0 and stdout.startswith("wrote c2.pir ") and (tmp_path / "c2.pir").exists()
    code, stdout, _ = run(capsys, "bounds", "--s", "5/2", "--t", "2")
    assert code == 0 and stdout.splitlines()[0] == "s=5/2 t=2"


def test_simulate_respects_plan_file(tmp_path, capsys):
    src = tmp_path / "intro.pir"
    src.write_text(INTRO_TEXT)
    plan_path = tmp_path / "intro.plan"
    run(capsys, "verify", "--in", str(src), "--mode", "exhaustive", "--plan-out", str(plan_path))
    code, stdout, _ = run(
        capsys, "simulate", "--in", str(src), "--plan", str(plan_path), "--seed", "9", "--part", "5"
    )
    assert code == 0
    verdict = json.loads(stdout.splitlines()[-1])
    assert verdict["sets_total"] == 3 and verdict["agreement"] is True


def test_simulate_a_part_with_no_sets_prints_only_its_verdict(tmp_path, capsys):
    src = tmp_path / "intro.pir"
    src.write_text(INTRO_TEXT)
    plan_path = tmp_path / "intro.plan"
    plan_path.write_text("PIRPLAN v1\npart 1:\npart 5: {1};{2};{3,4}\n")
    # part 1 has an empty set list and part 2 is not in the plan
    for part in (1, 2):
        code, stdout, _ = run(
            capsys, "simulate", "--in", str(src), "--plan", str(plan_path), "--seed", "9", "--part", str(part)
        )
        assert code == 0
        assert stdout == (
            f'{{"agreement":false,"event":"verdict","part":{part},"sets_ok":0,"sets_total":0,'
            '"status":"retrieval-failed","time":0}\n'
        )


# Error and flag-reading paths of every subcommand, run in a scratch cwd with
# relative paths; pairs of bad flags pin which check runs first.
CLI_RUNS = (
    ("construct", "--family", "c1", "--d", "2", "--out", "x.pir"),
    ("construct", "--family", "c1", "--d", "2", "--s", "2.5", "--out", "x.pir"),
    ("construct", "--family", "integer", "--s", "2.5", "--t", "2", "--out", "x.pir"),
    ("construct", "--family", "integer", "--s", "x", "--t", "2", "--out", "x.pir"),
    ("construct", "--family", "integer", "--s", "1/0", "--t", "2", "--out", "x.pir"),
    ("construct", "--family", "integer", "--s", "1", "--t", "2", "--out", "x.pir"),
    ("construct", "--family", "c2", "--t", "4", "--out", "x.pir"),
    ("construct", "--family", "c2", "--t", "4", "--s", "0.5", "--out", "x.pir"),
    ("construct", "--family", "c1", "--t", "2", "--out", "x.pir"),
    ("construct", "--family", "general", "--t", "2", "--out", "x.pir"),
    ("construct", "--family", "general", "--s", "5/2", "--t", "3", "--out", "x.pir"),
    ("construct", "--family", "integer", "--s", "3", "--t", "2", "--max-columns", "100", "--out", "x.pir"),
    ("construct", "--family", "c1", "--t", "2", "--d", "2", "--out", "nodir/x.pir"),
    ("construct", "--family", "c1", "--t", "2", "--d", "2", "--out", "c.pir"),
    ("rate", "--family", "c1", "--d", "2"),
    ("rate", "--family", "c1", "--d", "2", "--precision", "0"),
    ("rate", "--family", "integer", "--s", "2.5", "--t", "2", "--precision", "0"),
    ("rate", "--family", "integer", "--s", "3", "--t", "2", "--precision", "0"),
    ("rate", "--family", "integer", "--s", "3", "--t", "2", "--precision", "5000"),
    ("rate", "--family", "c1", "--t", "2", "--d", "9"),
    ("rate", "--family", "c1", "--t", "2", "--precision", "0"),
    ("rate", "--family", "integer", "--t", "2"),
    ("rate", "--family", "integer", "--s", "100", "--t", "100"),
    ("rate", "--family", "general", "--s", "5/2", "--t", "2", "--precision", "3"),
    ("bounds", "--s", "3", "--t", "2", "--precision", "0"),
    ("bounds", "--s", "3", "--t", "2", "--precision", "5000"),
    ("bounds", "--s", "3", "--t", "2", "--corollary-ell", "0"),
    ("bounds", "--s", "1", "--t", "2"),
    ("bounds", "--s", "2.5", "--t", "2"),
    ("bounds", "--s", "1", "--t", "2", "--precision", "0"),
    ("bounds", "--s", "1", "--t", "2", "--corollary-ell", "0"),
    ("bounds", "--s", "3"),
    ("bounds", "--s", "5/2", "--t", "2", "--corollary-ell", "1", "--precision", "4"),
    ("table", "--max-s", "1"),
    ("table", "--max-t", "0"),
    ("table", "--precision", "0"),
    ("table", "--max-s", "1", "--precision", "0"),
    ("table", "--max-s", "1", "--max-t", "0"),
    ("table", "--max-s", "3", "--max-t", "2", "--format", "csv", "--precision", "3"),
    ("verify", "--in", "missing.pir"),
    ("verify", "--in", "bad.pir"),
    ("verify", "--in", "intro.pir", "--mode", "exhaustive", "--expect-k", "4"),
    ("verify", "--in", "intro.pir", "--mode", "exhaustive", "--cap", "2"),
    ("verify", "--in", "c.pir", "--plan-out", "c.plan", "--expect-k", "7"),
    ("simulate", "--in", "intro.pir", "--seed", "1", "--sweep-trials", "3"),
    ("simulate", "--in", "missing.pir", "--seed", "1", "--sweep-trials", "3"),
    ("simulate", "--in", "missing.pir", "--seed", "1"),
    ("simulate", "--in", "intro.pir", "--seed", "1", "--chunk-width", "0"),
    ("simulate", "--in", "intro.pir", "--seed", "1", "--jitter", "-1"),
    ("simulate", "--in", "intro.pir", "--seed", "1", "--drop-prob", "2"),
    ("simulate", "--in", "intro.pir", "--seed", "1", "--plan", "missing.plan"),
    ("simulate", "--in", "intro.pir", "--seed", "1", "--part", "99"),
    (
        "simulate", "--in", "c.pir", "--plan", "c.plan", "--seed", "1", "--part", "1", "--fail-server", "2",
        "--fail-server", "5", "--chunk-width", "8", "--base-latency", "10", "--jitter", "5", "--drop-prob", "0.1",
    ),
    ("simulate", "--in", "c.pir", "--seed", "2", "--sweep-trials", "4", "--sweep-failures", "2"),
    ("table", "--bogus"),
    ("frobnicate",),
    (),
    ("rate", "--family", "c1", "--t", "2", "--d", "2", "--max-columns", "5"),
    ("verify", "--in", "intro.pir", "--mode", "bogus"),
)
# SHA-256 of the JSON list of [argv, exit code, stdout, stderr] over CLI_RUNS,
# under Python's default limit of 4300 digits for int-to-text.
GOLDEN_CLI_RUNS_SHA256 = "e3b425ac4f5643f901df2a94bb9921234ec84c41448fea403ed014d8f332d058"


def test_cli_exit_codes_and_messages_are_unchanged(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "intro.pir").write_text(INTRO_TEXT)
    (tmp_path / "bad.pir").write_text("PIRCODE v1\np=2 t=1 m=1\n3\n")
    results = []
    for argv in CLI_RUNS:
        code, stdout, err = run(capsys, *argv)
        if err.startswith("usage:"):
            # argparse wraps its usage text to the terminal's width; its last
            # line names the subcommand and the error
            err = err.splitlines()[-1]
        results.append([list(argv), code, stdout, err])
    assert hashlib.sha256(json.dumps(results).encode()).hexdigest() == GOLDEN_CLI_RUNS_SHA256


@pytest.mark.parametrize(
    "name, text",
    [
        ("cell.pir", "PIRCODE v1\np=3 t=1 m=1\n١\n"),
        ("header.pir", "PIRCODE v1\np=٣ t=1 m=1\n1\n"),
    ],
)
def test_non_ascii_digits_in_a_code_file_exit_two(tmp_path, capsys, name, text):
    src = tmp_path / name
    src.write_text(text, encoding="utf-8")
    for command in ("verify", "simulate"):
        argv = [command, "--in", str(src)] + (["--seed", "1"] if command == "simulate" else [])
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (2, "") and err.startswith("error: malformed "), (command, err)


def test_non_ascii_digits_in_a_plan_file_exit_two(tmp_path, capsys):
    src = tmp_path / "c.pir"
    src.write_text(INTRO_TEXT, encoding="utf-8")
    plan = tmp_path / "p.plan"
    plan.write_text("PIRPLAN v1\npart ١: {١,٢}\n", encoding="utf-8")
    code, stdout, err = run(capsys, "simulate", "--in", str(src), "--plan", str(plan), "--seed", "1")
    assert (code, stdout) == (2, "") and err.startswith("error: malformed plan line ")


def test_simulate_refuses_a_plan_with_one_bad_part_before_writing(tmp_path, capsys):
    # the plan is checked whole before the first session, so parts 1 and 2
    # are not written before part 3 is found bad
    code_path, plan_path, bad_path = tmp_path / "c.pir", tmp_path / "c.plan", tmp_path / "bad.plan"
    run(capsys, "construct", "--family", "c1", "--t", "2", "--d", "2", "--out", str(code_path))
    run(capsys, "verify", "--in", str(code_path), "--plan-out", str(plan_path))
    text = plan_path.read_text()
    assert "\npart 3: {1,10};" in text
    bad_path.write_text(text.replace("\npart 3: {1,10};", "\npart 3: {1};"))
    for extra in ((), ("--part", "1"), ("--sweep-trials", "2", "--sweep-failures", "1")):
        code, stdout, err = run(
            capsys, "simulate", "--in", str(code_path), "--plan", str(bad_path), "--seed", "1", *extra
        )
        assert (code, stdout, err) == (2, "", "error: invalid plan: part 3: columns {1} do not span it\n"), extra
    code, stdout, _ = run(capsys, "simulate", "--in", str(code_path), "--plan", str(plan_path), "--seed", "1")
    assert code == 0 and stdout.count('"event":"verdict"') == 4


@pytest.mark.parametrize(
    "argv",
    [
        ("rate", "--family", "c1", "--t", "٢", "--d", "2"),
        ("rate", "--family", "c1", "--t", "2", "--d", "２"),
        ("rate", "--family", "c1", "--t", "1_0", "--d", "2"),
        ("rate", "--family", "c1", "--t", " 2", "--d", "2"),
        ("rate", "--family", "c1", "--t", "+2", "--d", "2"),
        ("rate", "--family", "c1", "--t", "2", "--d", "2", "--precision", "1_0"),
        ("rate", "--family", "integer", "--s", "٣", "--t", "2"),
        ("construct", "--family", "integer", "--s", "3", "--t", "2", "--max-columns", "٩٩", "--out", "x.pir"),
        ("bounds", "--s", "5_0/2", "--t", "2"),
        ("bounds", "--s", "5/٢", "--t", "2"),
        ("bounds", "--s", "+3", "--t", "2"),
        ("bounds", "--s", "3", "--t", "2", "--corollary-ell", "١"),
        ("table", "--max-s", "٣"),
        ("verify", "--in", "intro.pir", "--expect-k", "٣"),
        ("simulate", "--in", "intro.pir", "--seed", "١"),
        ("simulate", "--in", "intro.pir", "--seed", "1", "--part", "1_0"),
        ("simulate", "--in", "intro.pir", "--seed", "1", "--fail-server", "\t2"),
    ],
)
def test_number_flags_take_ascii_digits_only(tmp_path, capsys, monkeypatch, argv):
    # int() reads each of these values; a flag, like PIRCODE and PIRPLAN
    # text, takes ASCII digits after an optional "-" only
    monkeypatch.chdir(tmp_path)
    (tmp_path / "intro.pir").write_text(INTRO_TEXT)
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (2, "") and err
    assert not (tmp_path / "x.pir").exists()


def test_no_flag_reads_its_number_with_int():
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    flags = [action for parser in subparsers.values() for action in parser._actions if action.type is not None]
    assert not [action.dest for action in flags if action.type is int]
    assert sum(action.type is cli._int_flag for action in flags) == 22
