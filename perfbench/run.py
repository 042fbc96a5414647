"""onebit benchmark: closed-loop workloads driven through the CLI and the
public library entry points.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5

Run from the root of a checkout; the program is imported from ``src/``.
Each workload run is this one fresh process with one client: the next
operation starts when the previous one has finished.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` spends half the time
untraced and half with span recorders installed, and reports the
per-layer metrics.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a JSON record of the machine, the parameters and the results
digest.  ``--workload all`` runs every workload, traced and untraced, each
in its own process, and prints every metric with its unit.

Times are reported at a fixed reference speed.  The CPU speed of a shared
machine drifts by tens of percent over minutes, and every timing drifts
with it.  The run therefore times a fixed kernel owned by the benchmark
(``reference.py``; the workload names which) between rounds and divides
each time by (kernel time around it / the kernel's nominal time);
throughputs are multiplied by the same factor.  The raw wall-clock values
and the factor are kept in the record.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracing import SCAN_BLOCK_MAPS, SCAN_BYTES_PER_CELL, SCAN_FLOPS_PER_CELL, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("scan", "search", "positivity_n64", "positivity_small")
SETUP_REPEATS = 9
BLAS_THREADS = "1"
# Often enough to sample before every n=64 positivity round (about 70 ms),
# which halved the spread of its op_p90_ms against sampling every other
# round; rarely enough to leave the 8 ms positivity_small rounds mostly
# undisturbed (sampling before each of them slowed them by 7%).
REFERENCE_INTERVAL_S = 0.05

# One thread for BLAS keeps the process within nproc threads and keeps a
# 2-core shared machine from adding thread-scheduling noise.  Set before
# numpy is first imported, here and in the set-up children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

# The child times the reference kernel itself, after the timed imports:
# the slowdown of that very process rescales its set-up time.
_SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import onebit, onebit.cli
onebit.cli.build_parser()
t2 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import reference
kernel = reference.Reference("bulk")
for _ in range(6):
    kernel.measure()
print(t1 - t0, t2 - t1, kernel.scale(1))
"""


def measure_setup() -> dict:
    """Median import and parser-construction times over fresh processes,
    each rescaled by that process's own reference slowdown."""
    numpy_s, onebit_s, raw = [], [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), str(HERE)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        a, b, scale = (float(v) for v in done.stdout.split())
        numpy_s.append(a / scale)
        onebit_s.append(b / scale)
        raw.append(a + b)
    return {
        "setup_s": statistics.median(a + b for a, b in zip(numpy_s, onebit_s)),
        "import_numpy_s": statistics.median(numpy_s),
        "import_onebit_s": statistics.median(onebit_s),
        "raw_setup_s": statistics.median(raw),
        "samples": SETUP_REPEATS,
    }


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def _size_bytes(text: str) -> int | None:
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    if text and text[-1] in units and text[:-1].isdigit():
        return int(text[:-1]) * units[text[-1]]
    return int(text) if text.isdigit() else None


def machine_record(seed: int) -> dict:
    import numpy as np

    model = "unknown"
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches.append({
            "level": _read(index / "level"),
            "type": _read(index / "type"),
            "size": _read(index / "size"),
        })
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "seed": seed,
    }


def scan_working_set(record: dict) -> dict:
    """Bytes one 64-map scan block materialises, beside the LLC size."""
    from workloads import SCAN_PROBES, SCAN_STATES

    states = SCAN_STATES + SCAN_PROBES
    block = SCAN_BLOCK_MAPS * states * SCAN_BYTES_PER_CELL
    levels = [c for c in record["caches"] if c["type"] in ("Unified", "Data")]
    llc = max(levels, key=lambda c: c["level"])["size"] if levels else ""
    return {"scan_block_bytes_computed": block, "llc_bytes": _size_bytes(llc)}


def run_rounds(workload, seconds: float, reference, tracer=None) -> dict:
    """Closed loop over the workload's rounds, cycling through its pass.

    Runs at least one whole pass, so the results digest covers the same
    work in every run.  With a tracer, stops only at pass boundaries, so
    per-pass call counts are exact.  Between rounds, at most every
    ``REFERENCE_INTERVAL_S``, times the reference kernel; each round is
    rescaled afterwards by the slowdown over the samples taken just before
    and just after it.
    """
    from workloads import OpResult

    rounds = workload.rounds
    period = len(rounds)
    # compact storage: a faster program completes more operations, and
    # the bookkeeping must not show up as its peak memory
    raw_latencies, raw_rates = array.array("d"), array.array("d")
    op_sample, round_sample = array.array("l"), array.array("l")
    first_pass, errors = [], []
    attempted = failed = total_items = 0
    first_sample = len(reference.samples)
    last_reference = float("-inf")
    deadline = perf_counter() + seconds
    r = 0
    while r < period or perf_counter() < deadline or (tracer and r % period):
        if perf_counter() - last_reference >= REFERENCE_INTERVAL_S:
            reference.measure()
            last_reference = perf_counter()
        sample = len(reference.samples) - 1
        items = 0
        round_start = perf_counter()
        for op in rounds[r % period]:
            if tracer is not None:
                tracer.op_id += 1
            start = perf_counter()
            try:
                result = op()
            except Exception:  # noqa: BLE001 - one failed operation must not end the run
                result = OpResult(0, False, None, traceback.format_exc(limit=3))
            raw_latencies.append(perf_counter() - start)
            op_sample.append(sample)
            items += result.items
            attempted += 1
            if not result.ok:
                failed += 1
                if len(errors) < 5:
                    errors.append(result.error)
            if r < period:
                first_pass.append(result.payload)
        total_items += items
        raw_rates.append(items / (perf_counter() - round_start))
        round_sample.append(sample)
        r += 1
    reference.measure()  # closes the last round's bracket
    scales = {i: reference.scale_between(i) for i in set(round_sample)}
    digest = hashlib.sha256(
        json.dumps(first_pass, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return {
        "rounds": r,
        "passes": r // period,
        "items": total_items,
        "latencies": array.array(
            "d", (t / scales[i] for t, i in zip(raw_latencies, op_sample))),
        "items_per_s": statistics.median(
            rate * scales[i] for rate, i in zip(raw_rates, round_sample)),
        "raw_latencies": raw_latencies,
        "raw_items_per_s": statistics.median(raw_rates),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "digest": digest,
        "scale": reference.scale(first_sample),
    }


def _per_layer(
    tracer, passes: int, setup: dict, untraced: dict, traced: dict
) -> tuple[dict, list[str]]:
    metrics = {}
    inexact = []

    def per_pass(name, total):
        if total % passes:
            inexact.append(name)
            return total / passes
        return total // passes

    scale = passes * traced["scale"]
    for name, calls in tracer.calls.items():
        metrics[f"{name}.calls"] = (per_pass(name, calls), "count")
        metrics[f"{name}.self_s"] = (tracer.self_s[name] / scale, "s")
    c = {name: per_pass(name, value) for name, value in tracer.counters.items()}
    cells = c["transforms.scan.cells"]
    starts = c["transforms.search.starts"]
    checks = tracer.calls["highdim.info_positivity_check"] / passes
    sweep_s = tracer.self_s["highdim.info_positivity_check"] / scale
    metrics.update({
        "transforms.scan.cells": (cells, "count"),
        "transforms.scan.flops_computed": (cells * SCAN_FLOPS_PER_CELL, "flop"),
        "transforms.scan.bytes_computed": (cells * SCAN_BYTES_PER_CELL, "B"),
        "transforms.search.starts": (starts, "count"),
        "transforms.search.starts_converged": (
            c["transforms.search.starts_converged"], "count"),
        "transforms.search.evals": (c["transforms.search.evals"], "count"),
        "transforms.search.candidates": (c["transforms.search.candidates"], "count"),
        "transforms.search.candidate_ratio": (
            c["transforms.search.candidates"] / starts if starts else 0.0, "ratio"),
        "highdim.pairs_checked": (c["highdim.pairs_checked"], "count"),
        "highdim.pairs_per_s": (
            c["highdim.pairs_checked"] / sweep_s if sweep_s else 0.0, "1/s"),
        "highdim.witness_ratio": (
            c["highdim.negative_verdicts"] / checks if checks else 0.0, "ratio"),
        "setup.import_numpy_s": (setup["import_numpy_s"], "s"),
        "setup.import_onebit_s": (setup["import_onebit_s"], "s"),
        "trace.items_per_s": (traced["items_per_s"], "1/s"),
        "trace.overhead_ratio": (
            1.0 - traced["items_per_s"] / untraced["items_per_s"], "ratio"),
    })
    return metrics, inexact


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    import onebit

    if Path(onebit.__file__).resolve().parent != SRC / "onebit":
        print(f"error: imported onebit from {onebit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    from reference import Reference

    setup = measure_setup()
    scratch = OUT / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.build(name, seed, scratch)
        reference = Reference(workload.reference)
        reference.measure()  # first call pays numpy's lazy set-up
        # one pass: imports, caches, lazy set-up
        warm = run_rounds(workload, 0.0, reference)
        if trace:
            untraced = run_rounds(workload, seconds / 2.0, reference)
            tracer = Tracer()
            tracer.install()
            measured = run_rounds(workload, seconds / 2.0, reference, tracer)
        else:
            measured = run_rounds(workload, seconds, reference)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    phases = [warm, untraced, measured] if trace else [warm, measured]
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    if trace and name == "search" and "transforms._coordinate_descent" not in tracer.missing:
        # items are credited from the budgets; the evaluations the descent
        # reports must add up to them, or the search stopped early
        evals = tracer.counters["transforms.search.evals"]
        attempted += 1
        if evals != measured["items"]:
            failed += 1
            measured["errors"].append(
                f"search spent {evals} evaluations, budgets credit {measured['items']}"
            )
    record = {
        "workload": name,
        "item": workload.item,
        "params": workload.params,
        "machine": machine_record(seed),
        "seconds": seconds,
        "trace": int(trace),
        "load": "closed loop, 1 client",
        "setup": setup,
        "reference": {
            "kernel": workload.reference,
            "nominal_s": reference.nominal_s,
            "samples": len(reference.samples),
            "run_scale": measured["scale"],
        },
        "rounds": measured["rounds"],
        "passes": measured["passes"],
        "operations": len(measured["latencies"]),
        "digest": measured["digest"],
        # warm-up, untraced and traced phases all start with the same pass
        "digests_agree": len({p["digest"] for p in phases}) == 1,
        "failed_ratio": failed / attempted,
        "peak_rss_mb": peak_rss_mb,
        "errors": [e for p in phases for e in p["errors"]][:5],
    }
    record.update(scan_working_set(record["machine"]))
    if trace:
        metrics, inexact = _per_layer(
            tracer, measured["passes"], setup, untraced, measured
        )
        spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
        record.update({
            "missing": tracer.missing,
            "inexact_counts": inexact,
            "spans_file": str(spans_path.relative_to(ROOT)),
            "spans_written": tracer.write_spans(spans_path),
        })
    else:
        def p50_p90_ms(latencies):
            ms = [1000.0 * t for t in latencies]
            return statistics.median(ms), statistics.quantiles(ms, n=10)[8]

        p50, p90 = p50_p90_ms(measured["latencies"])
        raw_p50, raw_p90 = p50_p90_ms(measured["raw_latencies"])
        record["raw"] = {
            "setup_s": setup["raw_setup_s"],
            "items_per_s": measured["raw_items_per_s"],
            "op_p50_ms": raw_p50,
            "op_p90_ms": raw_p90,
        }
        metrics = {
            "setup_s": (setup["setup_s"], "s"),
            "items_per_s": (measured["items_per_s"], "1/s"),
            "op_p50_ms": (p50, "ms"),
            "op_p90_ms": (p90, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
    correct = failed == 0 and record["digests_agree"]

    for key, (value, unit) in metrics.items():
        print(f"{name:>16} {key:<44} {value:.6g} {unit}", file=sys.stderr)
    print(f"{name:>16} {'failed_ratio':<44} {failed / attempted:.6g} ratio", file=sys.stderr)
    for error in record["errors"]:
        print(f"{name:>16} failure: {error}", file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    summary = {}
    attempted = failed = 0
    correct = True
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=seconds + 170,
            )
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                print(done.stderr, file=sys.stderr)
                return done.returncode or 1
            result = json.loads(lines[-1])
            record = json.loads(lines[-2])["record"]
            attempted += result["attempted"]
            failed += result["failed"]
            correct = correct and result["correct"]
            for key, metric in result["metrics"].items():
                summary[f"{name}.{key}"] = metric
                if trace == 0:
                    print(f"{name:<17} {key:<14} {metric['value']:.6g} {metric['unit']}")
            if trace == 0:
                print(f"{name:<17} {'failed_ratio':<14} {record['failed_ratio']:.6g} ratio")
                untraced_rate = result["metrics"]["items_per_s"]["value"]
            else:
                traced_rate = result["metrics"]["trace.items_per_s"]["value"]
                print(f"{name:<17} tracing overhead on items_per_s: "
                      f"{1.0 - traced_rate / untraced_rate:.3%} "
                      f"(untraced run vs traced phase); missing: {record['missing']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": summary}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "onebit" / "cli.py").is_file():
        print(f"error: no onebit sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
