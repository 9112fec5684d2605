"""pirarray benchmark: four closed-loop workloads over construct -> verify -> simulate.

Usage, from the repository root:

    python3 perfbench/run.py --workload family-verify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --baselines

One client runs one workload in one process and sends its next op only
after the previous one returns.  The op sequence is a fixed cycle drawn
from `--seed`, replayed whole until `--seconds` have passed and the
workload's minimum cycle count is reached.  Every op's output is checked
against a known answer, and every replay of the cycle must reproduce the
first one's bytes.

Times are reference-scaled seconds: each measured time is multiplied by
REFERENCE_SECONDS over the time a fixed pure-Python job (`reference_job`)
takes next to it.  The host this benchmark was written on changes speed by
up to half for seconds to minutes at a time; the job slows with it, so the
ratio holds still while raw seconds do not.  Raw seconds are kept in the
results file.

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
and traced cycles and prints the per-layer metrics of the traced ones.  The
last line of stdout is one JSON object; the full results, with run
metadata, go to `perfbench/results/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
WORKLOAD_NAMES = ("family-verify", "exact-small", "fleet-replay", "materialize")
SETUP_RUNS = 5
TAIL_BEYOND = 10
# About what `reference_job` takes on the 2-vCPU Xeon VM (Python 3.11) the
# benchmark was written on, so that scaled times read close to raw ones there.
REFERENCE_SECONDS = 0.00125

# Per-layer times: metric -> span name.  Each value is the span's total self
# time over the traced ops divided by their number, so the layers of one
# workload add up to its mean traced op time.
LAYER_TIMES = {
    "constructions.build_s": "constructions.build",
    "model.from_columns_s": "model.from_columns",
    "model.serialize_s": "model.serialize",
    "model.parse_s": "model.parse",
    "model.plan_io_s": "model.plan_io",
    "verify.pairs_s": "verify.pairs",
    "verify.plan_check_s": "verify.plan_check",
    "verify.exhaustive_s": "verify.exhaustive",
    "matching.s": "matching",
    "simulate.retrieve_s": "simulate.retrieve",
    "simulate.jsonl_s": "simulate.jsonl",
    "simulate.sweep_s": "simulate.sweep",
}

UNTRACED_LAYERS = {
    "gf2": "pivot kernels run per cell inside verify, simulate and model; a wrapper would "
    "cost more than the work, so their time is those callers' self time",
    "bounds": "table1(6,40) takes milliseconds, so no workload could show a change in it",
    "cli": "covered by the untimed CLI parity check in set-up",
}


def import_pirarray() -> None:
    src = ROOT / "src"
    if not (src / "pirarray" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: pirarray sources not found under {src}")
    sys.path.insert(0, str(src))


def reference_job() -> float:
    """Seconds a fixed pure-Python job takes right now.

    The job does what pirarray spends its time on (pivot-table GF(2)
    elimination on ints in a dict, list building, text join and split) and
    never changes, so an op's time over the job's time next to it moves with
    the program, not with the host.
    """
    rng = random.Random(1607)
    began = time.perf_counter()
    rows = [rng.getrandbits(24) | 1 for _ in range(600)]
    pivots: dict[int, int] = {}
    for bits in rows:
        while bits:
            row = pivots.get(bits.bit_length() - 1)
            if row is None:
                pivots[bits.bit_length() - 1] = bits
                break
            bits ^= row
    text = ";".join(str(bits) for bits in rows)
    if sum(int(token) for token in text.split(";")) != sum(rows):
        raise RuntimeError("reference job miscomputed")
    return time.perf_counter() - began


def reference_time() -> float:
    """The reference job's time now: the median of three back-to-back runs,
    so that an interrupt inside one run does not set the scale."""
    return statistics.median(reference_job() for _ in range(3))


def reference_scale(samples: list[float]) -> float:
    return REFERENCE_SECONDS / statistics.median(samples)


def probe_setup(name: str, seed: int) -> tuple[float, float]:
    """Raw and scaled seconds from starting a fresh benchmark process to the
    point where its first timed op would begin: interpreter start, pirarray
    import, seeded inputs and any plan the workload needs.  The probe runs
    the reference job before and after that work and reports its times,
    which are taken out of the raw time and set the scale."""
    command = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
               "--workload", name, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        status = proc.wait(timeout=120)
    word, *jobs = line.split() or [""]
    if status != 0 or word != "ready":
        raise SystemExit(f"perfbench: set-up probe for {name} failed with status {status}")
    jobs = [float(job) for job in jobs]
    raw = elapsed - sum(jobs)
    return raw, raw * reference_scale(jobs)


def run_probe(name: str, seed: int) -> None:
    jobs = [reference_job() for _ in range(3)]
    import_pirarray()
    import workloads

    workloads.WORKLOADS[name](seed)
    jobs += [reference_job() for _ in range(3)]
    print("ready", *jobs, flush=True)


def tail_percentile(min_ops: int) -> int:
    """Highest whole percentile that leaves TAIL_BEYOND samples beyond it in
    the shortest run a workload may make; longer runs leave more."""
    return math.floor(100 * (1 - TAIL_BEYOND / min_ops))


def latency_summary(records: list[tuple[int, float]], cycle_length: int, percentile: int) -> dict:
    """Summarize (cycle position, seconds) records of whole cycles.

    Each position's median over the cycles forms the median cycle, whose
    median is `p50_s` and whose throughput is `ops_per_s`.  The tail has to
    come from single ops, so it is a nearest-rank percentile of all of them.
    """
    by_position: list[list[float]] = [[] for _ in range(cycle_length)]
    for position, seconds in records:
        by_position[position].append(seconds)
    median_cycle = [statistics.median(samples) for samples in by_position]
    ordered = sorted(seconds for _, seconds in records)
    rank = math.ceil(percentile * len(ordered) / 100)
    return {
        "ops": len(ordered),
        "p50_s": statistics.median(median_cycle),
        "ops_per_s": cycle_length / sum(median_cycle),
        "tail_s": ordered[rank - 1],
        "tail_percentile": percentile,
        "tail_beyond": len(ordered) - rank,
    }


def measure(workload, seconds: float, tracer) -> dict:
    """Replay whole cycles; with a tracer, every second cycle is traced.

    Records are (cycle position, raw seconds, traced, scale), where scale
    comes from the reference times taken just before and just after the op.
    """
    from workloads import CheckFailed

    cycle = workload.cycle
    first_digests: list[bytes | None] = [None] * len(cycle)
    work: list[dict] = []
    digest = hashlib.sha256()
    ops: list[tuple[int, float, bool]] = []
    jobs: list[float] = []
    failures: list[str] = []
    cycles = 0
    start = time.perf_counter()
    while cycles < workload.min_cycles or time.perf_counter() - start < seconds:
        traced = tracer is not None and cycles % 2 == 1
        for position, item in enumerate(cycle):
            jobs.append(reference_time())
            if traced:
                tracer.op_id = len(ops)
                tracer.install()
            error = None
            began = time.perf_counter()
            try:
                out = workload.op(item)
            except Exception as exc:  # an op that raises counts as failed
                error = exc
            elapsed = time.perf_counter() - began
            if traced:
                tracer.uninstall()
                tracer.op_id = None
            ops.append((position, elapsed, traced))
            try:
                if error is not None:
                    raise error
                blob = workload.check(item, out)
                if cycles == 0:
                    first_digests[position] = hashlib.sha256(blob).digest()
                    digest.update(blob)
                    work.append(workload.work(item, out))
                elif hashlib.sha256(blob).digest() != first_digests[position]:
                    raise CheckFailed(f"{item[0]}: output differs from the first cycle")
            except Exception:
                failures.append(traceback.format_exc(limit=3))
            # Each op starts from the same heap: no garbage from earlier ops,
            # and the collector's counters reset, as in a fresh CLI process.
            out = error = None
            gc.collect()
        cycles += 1
    jobs.append(reference_time())
    totals: dict[str, int] = {}
    for counts in work:
        for key, value in counts.items():
            totals[key] = totals.get(key, 0) + value
    return {
        "cycles": cycles,
        "records": [
            (position, elapsed, traced, reference_scale(jobs[index:index + 2]))
            for index, (position, elapsed, traced) in enumerate(ops)
        ],
        "failures": failures,
        "digest": digest.hexdigest(),
        "work_per_cycle": totals,
    }


def summaries(workload, records: list, traced: bool) -> tuple[dict, dict]:
    """Scaled and raw latency summaries of the traced or the untraced ops."""
    percentile = tail_percentile(workload.min_cycles * len(workload.cycle))
    chosen = [record for record in records if record[2] == traced]
    scaled = [(position, elapsed * scale) for position, elapsed, _, scale in chosen]
    raw = [(position, elapsed) for position, elapsed, _, _ in chosen]
    length = len(workload.cycle)
    return latency_summary(scaled, length, percentile), latency_summary(raw, length, percentile)


def end_to_end(workload, result: dict, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    scaled, raw = summaries(workload, result["records"], traced=False)
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup), "s"),
        "ops_per_s": (scaled["ops_per_s"], "1/s"),
        "op_s.p50": (scaled["p50_s"], "s"),
        "op_s.tail": (scaled["tail_s"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "fail_ratio": (len(result["failures"]) / len(result["records"]), "ratio"),
    }
    detail = {
        "scaled": scaled,
        "raw": raw,
        "setup_raw_s": [r for r, _ in setup],
        "setup_scaled_s": [s for _, s in setup],
    }
    return metrics, detail


def per_layer(workload, result: dict, tracer, setup_scale: float) -> tuple[dict, dict]:
    records = result["records"]
    traced_p50 = summaries(workload, records, traced=True)[0]["p50_s"]
    untraced_p50 = summaries(workload, records, traced=False)[0]["p50_s"]
    self_times = tracer.self_times([scale for *_, scale in records])
    traced = [elapsed * scale for _, elapsed, was_traced, scale in records if was_traced]
    ops = len(traced)
    per_cycle = result["work_per_cycle"]
    work = {key: value * (ops // len(workload.cycle)) for key, value in per_cycle.items()}

    def busy(span: str) -> float:
        return self_times.get(span, 0.0)

    def rate(count: str, span: str, scale: float = 1.0) -> float:
        return work.get(count, 0) * scale / busy(span) if busy(span) else 0.0

    def cost(span: str, count: str, scale: float) -> float:
        return busy(span) * scale / work[count] if work.get(count) else 0.0

    fleet = tracer.durations("simulate.fleet")
    metrics = {name: (busy(span) / ops, "s") for name, span in LAYER_TIMES.items()}
    metrics.update({
        "constructions.cols_per_s": (rate("columns_built", "constructions.build"), "1/s"),
        "model.parse_mb_per_s": (rate("pircode_bytes_parsed", "model.parse", 1e-6), "MB/s"),
        "verify.pairs_ns_per_cand": (cost("verify.pairs", "candidate_pairs", 1e9), "ns"),
        "verify.exhaustive_ns_per_subset": (cost("verify.exhaustive", "subsets", 1e9), "ns"),
        "verify.pairs_below_exact": (per_cycle.get("pairs_below_exact", 0), "count"),
        "matching.pairs": (per_cycle.get("matched_pairs", 0), "count"),
        "simulate.fleet_s": (fleet[0] * setup_scale if fleet else 0.0, "s"),
        "simulate.events": (per_cycle.get("events", 0), "count"),
        "simulate.transcript_bytes": (per_cycle.get("transcript_bytes", 0), "B"),
        "trace.overhead_s": (traced_p50 - untraced_p50, "s"),
    })
    detail = {
        "traced_ops": ops,
        "traced_op_s.p50": traced_p50,
        "untraced_op_s.p50": untraced_p50,
        "share_of_traced_op_time": {span: busy(span) / sum(traced) for span in sorted(self_times)},
        "work_traced_ops": work,
        "work_note": "counts are computed from the library's inputs and outputs, outside it",
        "untraced_layers": UNTRACED_LAYERS,
    }
    return metrics, detail


def run_parity(workload) -> str:
    from workloads import CheckFailed

    if not hasattr(workload, "parity"):
        return "not applicable"
    with tempfile.TemporaryDirectory(dir=RESULTS_DIR) as workdir:
        try:
            workload.parity(Path(workdir))
        except CheckFailed as exc:
            return f"failed: {exc}"
    return "ok"


def metadata(name: str, seed: int, seconds: float, trace: int) -> dict:
    try:
        found = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        ).stdout.split()
    except OSError:
        found = []
    # Only this checkout's own commit counts, not that of a repository around it.
    sha = found[1] if len(found) == 2 and Path(found[0]).resolve() == ROOT else None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pirarray").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "client": "one closed-loop client in one single-threaded process",
        "reference_seconds": REFERENCE_SECONDS,
    }


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    import_pirarray()
    RESULTS_DIR.mkdir(exist_ok=True)
    setup = [] if trace else [probe_setup(name, seed) for _ in range(SETUP_RUNS)]
    import tracing
    import workloads

    tracer = tracing.Tracer(tracing.pirarray_targets()) if trace else None
    setup_scale = reference_scale([reference_time()])
    workload = workloads.WORKLOADS[name](seed, span=tracer.span if tracer else None)
    parity = run_parity(workload)
    result = measure(workload, seconds, tracer)
    failed = len(result["failures"])
    by_input: dict[str, list[float]] = {}
    for position, elapsed, traced, scale in result["records"]:
        if not traced:
            by_input.setdefault(workload.cycle[position][0], []).append(elapsed * scale)
    report = {
        "metadata": metadata(name, seed, seconds, trace),
        "cycles": result["cycles"],
        "ops_per_cycle": len(workload.cycle),
        "attempted": len(result["records"]),
        "failed": failed,
        "failures": result["failures"][:5],
        "cli_parity": parity,
        "output_sha256": result["digest"],
        "work_per_cycle": result["work_per_cycle"],
        "per_input_p50_s": {label: statistics.median(v) for label, v in sorted(by_input.items())},
    }
    if trace:
        metrics, report["trace"] = per_layer(workload, result, tracer, setup_scale)
        tracer.write(RESULTS_DIR / f"{name}-seed{seed}.spans.jsonl")
    else:
        metrics, report["latency"] = end_to_end(workload, result, setup)
    report["metrics"] = {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()}
    report["correct"] = failed == 0 and parity in ("ok", "not applicable")
    path = RESULTS_DIR / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return report


def measure_baselines() -> dict:
    """Time, once each and in raw seconds, the costs the workloads were
    sized from."""
    import_pirarray()
    from fractions import Fraction

    import workloads
    from pirarray import bounds, model, simulate, verify

    def timed(fn, *args):
        began = time.perf_counter()
        fn(*args)
        return time.perf_counter() - began

    out: dict = {"note": "one raw wall-clock sample each, not a benchmark metric",
                 "reference_job_s": statistics.median(reference_job() for _ in range(5))}
    for family, t, d, s in (("integer", 2, None, "3"), ("c1", 5, 5, None),
                            ("general", 3, None, "8/3"), ("integer", 3, None, "3")):
        label, params = workloads.family(family, t, d, s)
        code = params.build()
        out[f"k_pir_pairs {label} m={code.m}"] = timed(verify.k_pir_pairs, code)
    rng = random.Random(0)
    for p, t in ((5, 2), (8, 3), (12, 4)):
        code = model.parse_code(workloads.random_code_text(rng, 14, p, t))
        out[f"k_pir_exhaustive random(m=14,p={p},t={t})"] = timed(verify.k_pir_exhaustive, code)
    _, params = workloads.family("c1", 5, 5)
    code = params.build()
    fleet = simulate.Fleet(code=code, seed=0)
    plan = verify.k_pir_pairs(code).plan
    out["retrieve+jsonl c1(5,5) part 1"] = timed(lambda: simulate.retrieve(fleet, plan, 1).jsonl())
    out["table1(6,40)"] = timed(bounds.table1, 6, 40)
    out["fvy_rate(3..40)"] = timed(lambda: [bounds.fvy_rate(s) for s in range(3, 41)])
    out["reference_rates(5/2,2)"] = timed(bounds.reference_rates, Fraction(5, 2), 2)
    return out


def print_report(report: dict) -> None:
    name = report["metadata"]["workload"]
    for key, metric in report["metrics"].items():
        print(f"{name:14} {key:32} {metric['value']:.6g} {metric['unit']}")
    latency = report.get("latency")
    if latency:
        scaled, raw = latency["scaled"], latency["raw"]
        print(f"{name:14} op_s.tail is p{scaled['tail_percentile']} of {scaled['ops']} ops, "
              f"{scaled['tail_beyond']} beyond it")
        print(f"{name:14} raw seconds: ops_per_s {raw['ops_per_s']:.6g} op_s.p50 {raw['p50_s']:.6g} "
              f"op_s.tail {raw['tail_s']:.6g} setup_s {statistics.median(latency['setup_raw_s']):.6g}")
    trace = report.get("trace")
    if trace:
        for span, share in trace["share_of_traced_op_time"].items():
            print(f"{name:14} self time of {span:22} {100 * share:5.1f}% of traced op time")
    work = ", ".join(f"{key}={value}" for key, value in report["work_per_cycle"].items())
    print(f"{name:14} work per cycle, computed outside the library: {work}")
    print(f"{name:14} cycles={report['cycles']} ops={report['attempted']} failed={report['failed']} "
          f"cli_parity={report['cli_parity']} output_sha256={report['output_sha256'][:16]}")
    for failure in report["failures"]:
        print(failure, file=sys.stderr)


def contract_line(report: dict) -> str:
    # fail_ratio travels as `failed` / `attempted`: it is 0 on a correct run.
    metrics = {key: value for key, value in report["metrics"].items() if key != "fail_ratio"}
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    })


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, one after another."""
    lines = {}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        output = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in output[:-1]))
        if proc.returncode != 0 or not output:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        lines[name] = json.loads(output[-1])
    print(json.dumps(lines))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--baselines", action="store_true",
                        help="time the costs the workloads were sized from, once each")
    args = parser.parse_args(argv)
    if args.baselines:
        baselines = measure_baselines()
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "baselines.json").write_text(json.dumps(baselines, indent=1) + "\n")
        for key, value in baselines.items():
            print(f"{key}: {value}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.probe_setup:
        run_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    report = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_report(report)
    print(contract_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
