"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 10 --trace 0

Runs from the root of a checkout and imports the package from its ``src/``.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs every round twice, untraced then traced, and reports the per-layer
metrics and the tracing overhead.  Every equation's output is checked; the
oracles run after the timed region.  Human-readable lines come first, the
last line of stdout is one JSON object, and a record with the run's
metadata is written under ``perfbench/out/``.  Exit code 0 only when every
check passed; 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import reference
from setup_probe import REFERENCE

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("catalog", "scan-f2", "dense", "extension")
PACKAGE_MODULES = ("_linalg", "cartier", "catalog", "cli", "delsarte", "lifts", "polyring", "scan")
SETUP_PROBES = 11      # fresh-interpreter set-ups per run; setup_s is their median
REFERENCE_IMPORT_S = 0.2  # setup_s is in seconds of a machine whose reference import takes this
P90_MIN_SAMPLES = 100  # p90 is reported only with at least ten samples beyond it


def import_package() -> None:
    """Import qfsplit from this checkout's ``src/``, or exit with code 2."""
    pkg = ROOT / "src" / "qfsplit"
    if not (pkg / "__init__.py").is_file():
        print(f"error: no qfsplit package at {pkg}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(pkg.parent))
    for name in PACKAGE_MODULES:
        module = importlib.import_module(f"qfsplit.{name}")
        if Path(module.__file__).resolve().parent != pkg.resolve():
            print(f"error: qfsplit imported from {module.__file__}", file=sys.stderr)
            raise SystemExit(2)


@dataclass
class Done:
    eq_id: int
    round: int
    equation: object
    output: object       # kept only for the oracle, which runs after timing
    failure: "str | None"
    start: float         # perf_counter at the call and after it
    end: float
    seconds: float = 0.0  # wall time of the call, sampling excluded
    ref_s: float = 0.0    # the same time at reference speed (see reference.py)


def run_one(eq, r: int, eq_id: int) -> Done:
    """Time one call; check its output right after, outside the timing.

    The output is dropped unless an oracle still needs it.
    """
    start = time.perf_counter()
    try:
        output = eq.run()
    except Exception as exc:  # a failing equation is counted, not fatal
        end = time.perf_counter()
        output, failure = None, f"{type(exc).__name__}: {exc}"
    else:
        end = time.perf_counter()
        failure = eq.check(output)
    if failure or eq.oracle is None:
        output = None
    return Done(eq_id, r, eq, output, failure, start, end)


def settle(done: list, speed) -> None:
    """Fill in wall and reference seconds once the speed samples are in."""
    for d in done:
        d.seconds = speed.net(d.start, d.end)
        d.ref_s = d.seconds * speed.factor(d.start, d.end)


def check_all(done: list) -> dict:
    """Failure message per equation id: errors and checks, then oracles."""
    failures = {}
    for d in done:
        msg = d.failure
        if msg is None and d.equation.oracle is not None:
            msg = d.equation.oracle(d.output)
        if msg:
            failures[d.eq_id] = f"{d.equation.label}: {msg}"
    return failures


def probe(arg: str) -> float:
    """Wall seconds that ``setup_probe.py arg`` measures in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), arg],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["wall_s"]


def setup_seconds(workload: str) -> tuple:
    """Median cold set-up at reference speed, and the median wall time.

    Set-ups alternate with reference imports; each set-up is scaled by the
    mean of the two reference imports right before and after it.
    """
    refs = [probe(REFERENCE)]
    walls, scaled = [], []
    for _ in range(SETUP_PROBES):
        walls.append(probe(workload))
        refs.append(probe(REFERENCE))
        scaled.append(walls[-1] * REFERENCE_IMPORT_S / ((refs[-2] + refs[-1]) / 2))
    return statistics.median(scaled), statistics.median(walls)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha() -> "str | None":
    """HEAD of the checkout, or None when the checkout has no ``.git``."""
    if not (ROOT / ".git").exists():  # else git would report an enclosing repository
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def rounds_for(wl, seconds: float) -> int:
    """Whole rounds that fill ``seconds`` at reference speed, at least one.

    The count depends on the workload and ``seconds`` only, so every run of
    a seed times the same equations whatever the machine's speed.
    """
    return max(1, round(seconds / wl.round_seconds))


def measure(wl, rounds: int) -> tuple:
    """``rounds`` whole rounds, tracing off."""
    done = []
    with reference.SpeedSampler() as speed:
        for r in range(rounds):
            done += [run_one(eq, r, len(done) + k) for k, eq in enumerate(wl.round(r))]
    rss = peak_rss_mb()
    settle(done, speed)
    return done, rss


def measure_traced(wl, rounds: int, tracer, layers) -> tuple:
    """``rounds`` whole rounds, each equation untraced and then traced.

    Running the two copies back to back keeps the machine's speed nearly
    the same for both, so their wall times give the tracing overhead.
    """
    plain, traced = [], []
    with reference.SpeedSampler() as speed:
        for r in range(rounds):
            tracer.capture = set(layers.CAPTURED) if r == 0 else set()
            for eq, copy in zip(wl.round(r), wl.round(r)):
                copy.oracle = None  # the untraced run already carries the oracle
                plain.append(run_one(eq, r, len(plain) + len(traced)))
                tracer.equation = len(plain) + len(traced)
                tracer.install(layers.targets())
                try:
                    traced.append(run_one(copy, r, tracer.equation))
                finally:
                    tracer.uninstall()
    settle(plain + traced, speed)
    return plain, traced, speed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    start = time.perf_counter()
    import_package()
    import layers
    import workloads
    from spans import Tracer

    wl = workloads.WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.equation = layers.SETUP_EQUATION
        tracer.install(layers.targets())
    try:
        wl.setup()
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_in_process = time.perf_counter() - start

    extra = {"setup_in_process_s": setup_in_process}
    rounds = rounds_for(wl, args.seconds)
    if tracer is None:
        setup_s, wall_setup_s = setup_seconds(args.workload)
        done, rss = measure(wl, rounds)
        latencies = [d.ref_s for d in done]
        wall = [d.seconds for d in done]
        metrics = {
            "setup_s": (setup_s, "s"),
            "equations_per_s": (len(done) / sum(latencies), "1/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "peak_rss_mb": (rss, "MB"),
        }
        if len(latencies) >= P90_MIN_SAMPLES:
            extra["latency_p90_ms"] = statistics.quantiles(latencies, n=10)[8] * 1e3
        extra["wall.setup_s"] = wall_setup_s
        extra["wall.equations_per_s"] = len(done) / sum(wall)
        extra["wall.latency_p50_ms"] = statistics.median(wall) * 1e3
    else:
        done, traced, speed = measure_traced(wl, rounds, tracer, layers)
        count_ids = {d.eq_id for d in traced if d.round == 0}
        metrics = layers.per_layer_metrics(
            tracer, speed, traced, count_ids, sum(d.seconds for d in done)
        )
        done = done + traced

    failures = check_all(done)
    extra["error_rate"] = len(failures) / len(done)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<10} {name:<40} {value!r:>24} {unit}")
    for name, value in extra.items():
        print(f"{args.workload:<10} {name:<40} {value!r:>24}")
    print(f"{args.workload:<10} {'equations':<40} {len(done):>24} ({rounds} rounds)")
    for msg in list(failures.values())[:20]:
        print(f"FAIL {msg}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.import_module("numpy").__version__,
        "rounds": rounds,
        "equations_per_round": [sum(1 for d in done if d.round == r) for r in range(rounds)],
        "equations": len(done),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": extra,
        "failures": list(failures.values()),
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.dump(OUT_DIR / f"{stem}-spans.json")

    print(json.dumps({
        "correct": not failures,
        "attempted": len(done),
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
