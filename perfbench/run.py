#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout; there is nothing
to build.  ``--trace 0`` prints the end-to-end metrics (set-up repeated
and timed, then a closed loop of ops for ``--seconds``); ``--trace 1``
prints the per-layer metrics of a separate traced run and writes its
spans as Chrome trace-event JSON under ``perfbench/out/``.  Either way
the second-to-last line is the payload header (host, sizes, config,
latency percentiles, gate results) and the last line is the result
object.  Every op's output and the workload's correctness gate are
checked outside the timed region; a failure counts in ``failed`` and
turns ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path, or exit non-zero."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))


_import_program()

from layers import LAYER_METRICS, derive_layers, self_time_by_layer  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import SIZES, WORKLOADS, Observation, Workload  # noqa: E402


@dataclass
class Loop:
    """Outcome of a closed loop of ops."""

    latencies: list[float] = field(default_factory=list)
    observations: list[Observation] = field(default_factory=list)
    errors: int = 0
    #: Seconds of the set-ups timed between ops.
    setups: list[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.errors


def run_op(
    workload: Workload, i: int, loop: Loop, tracer: Tracer | None = None
) -> None:
    """Run, time and check op ``i``; an op that raises is counted."""
    span = tracer.span(f"op.{workload.name}") if tracer else nullcontext()
    try:
        with span:
            started = time.perf_counter()
            raw = workload.op(i)
            elapsed = time.perf_counter() - started
        loop.observations.append(workload.observe(i, raw))
        loop.latencies.append(elapsed)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        loop.errors += 1


def side_setup(workload: Workload) -> float:
    """Time one set-up, then put the workload's live state back."""
    live = dict(vars(workload))
    started = time.perf_counter()
    workload.setup()
    elapsed = time.perf_counter() - started
    vars(workload).clear()
    vars(workload).update(live)
    return elapsed


def closed_loop(
    workload: Workload,
    seconds: float | None = None,
    count: int | None = None,
    min_count: int = 0,
    setups: int = 0,
) -> Loop:
    """Run ops back to back from op 0, for ``seconds`` or ``count`` ops.

    One client: the next op starts when the previous one and its
    untimed check have finished.  With ``seconds``, the loop also runs
    at least ``min_count`` ops and times ``setups`` set-ups spread
    evenly between its ops.
    """
    loop = Loop()
    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else None
    marks = [
        start + seconds * (j + 1) / (setups + 1)
        for j in range(setups if seconds is not None else 0)
    ]
    i = 0
    while count is None or loop.attempted < count:
        run_op(workload, i, loop)
        i += 1
        while marks and time.perf_counter() >= marks[0]:
            marks.pop(0)
            loop.setups.append(side_setup(workload))
        if (
            deadline is not None
            and time.perf_counter() >= deadline
            and loop.attempted >= min_count
        ):
            break
    return loop


def mismatches(
    observations: list[Observation], expected: dict | None = None
) -> tuple[int, dict]:
    """Ops whose checksum differs from the first one with the same key."""
    expected = dict(expected or {})
    bad = 0
    for obs in observations:
        if obs.checksum is not None:
            bad += obs.checksum != expected.setdefault(obs.key, obs.checksum)
    return bad, expected


def latency_summary(latencies: list[float]) -> dict:
    """Median plus every percentile with at least ten samples beyond it."""
    summary: dict = {"samples": len(latencies)}
    ordered = sorted(latencies)
    for pct in (50, 90, 95, 99):
        beyond = len(ordered) * (100 - pct) / 100
        if ordered and (pct == 50 or beyond >= 10):
            rank = min(len(ordered) - 1, int(len(ordered) * pct / 100))
            summary[f"p{pct}_ms"] = ordered[rank] * 1e3
    return summary


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_gate(workload: Workload, observations: list[Observation]) -> list:
    """The workload's correctness checks; a gate that raises fails."""
    try:
        return workload.gate(observations)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return [("gate", False)]


def warm_up(workload: Workload) -> Loop:
    """One op before timing, so one-time lazy set-up is not measured."""
    return closed_loop(workload, count=1)


def timed_setups(workload: Workload) -> list[float]:
    """Set the workload up ``setup_repeats`` times; seconds of each."""
    seconds = []
    for _ in range(workload.setup_repeats):
        started = time.perf_counter()
        workload.setup()
        seconds.append(time.perf_counter() - started)
    return seconds


def timed_run(workload: Workload, seconds: float) -> tuple[dict, dict]:
    # A shared machine's speed shifts within seconds, so half the
    # set-ups are timed between ops, spread over the loop, for a
    # steadier median.
    setups = timed_setups(workload)
    warm = warm_up(workload)
    loop = closed_loop(
        workload,
        seconds=seconds,
        min_count=workload.min_ops,
        setups=workload.setup_repeats,
    )
    setups += loop.setups
    rss = peak_rss_mb()

    observations = warm.observations + loop.observations
    bad, checksums = mismatches(observations)
    checks = run_gate(workload, observations)
    attempted = warm.attempted + loop.attempted + len(checks)
    failed = warm.errors + loop.errors + bad + sum(not ok for _, ok in checks)
    latencies = loop.latencies
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3 if latencies else 0.0, "ms"),
        "ops_per_s": (len(latencies) / sum(latencies) if latencies else 0.0, "1/s"),
        "pair_f1": (workload.pair_f1, "ratio"),
        "peak_rss_mb": (rss, "MB"),
        "ok_ratio": (1 - failed / attempted, "ratio"),
    }
    header = {
        "setup_samples_s": setups,
        "latency": latency_summary(loop.latencies),
        "checksums": {
            "partition" if key is None else str(key): value
            for key, value in checksums.items()
        },
        "gate": checks,
    }
    return header, _result(attempted, failed, metrics)


def traced_run(workload: Workload, seconds: float) -> tuple[dict, dict]:
    """Set up and run ops under the tracer; derive the per-layer metrics.

    Each op runs twice in a row, untraced and then traced, so both sides
    see the same machine conditions: their time ratio is the tracing
    overhead, and the traced op must reproduce the untraced checksum.
    """
    tracer = Tracer()
    with tracer.installed():
        with tracer.span(f"setup.{workload.name}"):
            workload.setup()
    tracer.phase = "op"
    warm = warm_up(workload)
    plain, traced = Loop(), Loop()
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        run_op(workload, i, plain)
        with tracer.installed():
            run_op(workload, i, traced, tracer)
        i += 1

    bad, checksums = mismatches(warm.observations + plain.observations)
    bad_traced, _ = mismatches(traced.observations, checksums)
    observations = warm.observations + plain.observations + traced.observations
    checks = run_gate(workload, observations)
    attempted = warm.attempted + plain.attempted + traced.attempted + len(checks)
    failed = (
        warm.errors + plain.errors + traced.errors + bad + bad_traced
        + sum(not ok for _, ok in checks)
    )
    overhead = (
        sum(traced.latencies) / sum(plain.latencies) - 1 if plain.latencies else 0.0
    )
    layers = derive_layers(workload, tracer.spans, traced.observations, overhead)
    trace_path = tracer.write_chrome(
        OUT / f"trace-{workload.name}-seed{workload.seed}.json"
    )
    units = dict(LAYER_METRICS)
    metrics = {name: (value, units[name]) for name, value in layers.items()}
    n_traced = len(traced.latencies)
    header = {
        "traced_ops": n_traced,
        "op_wall_s": sum(traced.latencies) / max(1, n_traced),
        "self_s_by_layer": self_time_by_layer(tracer.spans, n_traced),
        "trace_file": str(trace_path.relative_to(ROOT)),
        "spans": len(tracer.spans),
        "gate": checks,
    }
    return header, _result(attempted, failed, metrics)


def host() -> dict:
    """Host facts every payload carries, so runs compare like with like."""
    try:
        import numpy
    except ImportError:
        numpy = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__ if numpy is not None else None,
        "platform": platform.platform(),
    }


def _result(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=sorted(SIZES),
        default="full",
        help="input sizes (smoke: the self-test)",
    )
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, SIZES[args.size])
    run = traced_run if args.trace else timed_run
    header, result = run(workload, args.seconds)
    header = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        **host(),
        **workload.header(),
        **header,
    }
    print(json.dumps(header))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
