"""Per-layer metrics, derived from a traced run's spans and counters.

Conventions, so that every workload reports every metric:

- ``*_s`` metrics are seconds per op: the span time an average op spent
  in the layer, plus the layer's time in one set-up (``retune`` builds
  its index and runs Phase 1 there).  Spans on pool worker threads add
  up per thread (GIL waits included), so on ``sharded`` they can exceed
  the op's wall.
- counts are per op, plus set-up's count once.
- a layer a workload never calls reads 0.
- distance-evaluation counts are index counter deltas taken only where
  one thread owns the index; ``sharded`` shares one index between
  concurrent shards, so it reports ``shard.counter_inflation`` instead.
"""

from __future__ import annotations

import statistics
from typing import Sequence

from spans import Span, layer_of, self_seconds
from workloads import Observation, Workload

__all__ = ["LAYER_METRICS", "derive_layers", "self_time_by_layer"]

#: ``(name, unit)`` of every per-layer metric, in payload order.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("index.build_s", "s"),
    ("nn_phase.lookup_s", "s"),
    ("nn_phase.lookups", "count"),
    ("nn_phase.neighbors", "count"),
    ("nn_phase.candidates_per_lookup", "count"),
    ("distances.kernel_evals", "count"),
    ("distances.scalar_evals", "count"),
    ("distances.useful_ratio", "ratio"),
    ("distances.cache_hit_rate", "ratio"),
    ("storage.spill_s", "s"),
    ("storage.buffer_hits", "count"),
    ("storage.buffer_misses", "count"),
    ("storage.buffer_evictions", "count"),
    ("storage.hit_ratio", "ratio"),
    ("cspairs.join_s", "s"),
    ("cspairs.rows", "count"),
    ("partitioner.extract_s", "s"),
    ("partitioner.groups", "count"),
    ("shard.plan_s", "s"),
    ("shard.run_s", "s"),
    ("shard.merge_s", "s"),
    ("shard.worker_sum_s", "s"),
    ("shard.concurrency", "ratio"),
    ("shard.replication", "ratio"),
    ("shard.counter_inflation", "ratio"),
    ("incremental.add_p50_ms", "ms"),
    ("incremental.remove_p50_ms", "ms"),
    ("incremental.partition_p50_ms", "ms"),
    ("incremental.evals_per_op", "count"),
    ("run.glue_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

#: Metric name -> the span whose inclusive time it sums.
_SPAN_SECONDS = {
    "index.build_s": "index.build",
    "nn_phase.lookup_s": "nn_phase.prepare_nn_lists",
    "storage.spill_s": "stage.spill",
    "cspairs.join_s": "stage.cspairs",
    "partitioner.extract_s": "stage.partition",
    "shard.plan_s": "shard.plan_shards",
    "shard.run_s": "shard.ShardRunner.run",
    "shard.merge_s": "shard.merge_partitions",
}

#: Metric name -> the span whose median op-phase duration it reports.
_SPAN_P50_MS = {
    "incremental.add_p50_ms": "incremental.add",
    "incremental.remove_p50_ms": "incremental.remove",
    "incremental.partition_p50_ms": "incremental.partition",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def derive_layers(
    workload: Workload,
    spans: Sequence[Span],
    observations: Sequence[Observation],
    overhead: float,
) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` value for one traced run."""
    n_ops = max(1, len(observations))

    def per_op(values_by_phase: dict[str, float]) -> float:
        setup = values_by_phase.get("setup", 0.0)
        return setup + values_by_phase.get("op", 0.0) / n_ops

    def span_seconds(name: str) -> float:
        totals: dict[str, float] = {}
        for span in spans:
            if span.name == name:
                totals[span.phase] = totals.get(span.phase, 0.0) + span.seconds
        return per_op(totals)

    keys = {key for obs in observations for key in obs.counters}
    keys |= set(workload.setup_counters)
    counts = {
        key: workload.setup_counters.get(key, 0.0)
        + sum(obs.counters.get(key, 0.0) for obs in observations) / n_ops
        for key in keys
    }

    def count(key: str) -> float:
        return counts.get(key, 0.0)

    metrics = {name: span_seconds(span) for name, span in _SPAN_SECONDS.items()}
    for name, span_name in _SPAN_P50_MS.items():
        durations = [
            s.seconds for s in spans if s.name == span_name and s.phase == "op"
        ]
        metrics[name] = statistics.median(durations) * 1e3 if durations else 0.0

    evals = count("kernel_evals") + count("scalar_evals")
    buffer_accesses = count("buffer_hits") + count("buffer_misses")
    metrics.update(
        {
            "nn_phase.lookups": count("lookups"),
            "nn_phase.neighbors": count("neighbors"),
            "nn_phase.candidates_per_lookup": _ratio(
                count("candidates"), count("lookups")
            ),
            "distances.kernel_evals": count("kernel_evals"),
            "distances.scalar_evals": count("scalar_evals"),
            "distances.useful_ratio": _ratio(count("neighbors"), evals),
            "distances.cache_hit_rate": _ratio(
                count("cache_hits"), count("cache_calls")
            ),
            "storage.buffer_hits": count("buffer_hits"),
            "storage.buffer_misses": count("buffer_misses"),
            "storage.buffer_evictions": count("buffer_evictions"),
            "storage.hit_ratio": _ratio(count("buffer_hits"), buffer_accesses),
            "cspairs.rows": count("cs_rows"),
            "partitioner.groups": count("groups"),
            "shard.worker_sum_s": count("worker_sum_s"),
            "shard.concurrency": _ratio(
                count("worker_sum_s"), metrics["shard.run_s"]
            ),
            "shard.replication": _ratio(count("shard_members"), workload.sizes.n),
            "shard.counter_inflation": workload.gate_metrics.get(
                "shard.counter_inflation", 0.0
            ),
            "incremental.evals_per_op": _ratio(
                count("incremental_evals"), count("incremental_ops")
            ),
            "run.glue_s": self_time_by_layer(spans, n_ops).get("run", 0.0),
            "trace.overhead_frac": overhead,
        }
    )
    return {name: metrics[name] for name, _ in LAYER_METRICS}


def self_time_by_layer(spans: Sequence[Span], n_ops: int) -> dict[str, float]:
    """Seconds per op of each layer's own (self) span time.

    On one thread these add up to the op wall time; spans on worker
    threads overlap, so on ``sharded`` they add up to more.
    """
    own = self_seconds(list(spans))
    totals: dict[str, float] = {}
    for span in spans:
        if span.phase == "op":
            layer = layer_of(span.name)
            totals[layer] = totals.get(layer, 0.0) + own[span.sid]
    return {layer: total / max(1, n_ops) for layer, total in sorted(totals.items())}
