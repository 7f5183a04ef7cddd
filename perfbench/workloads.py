"""The four benchmark workloads and their correctness gates.

Every workload solves the ROADMAP reference problem family — the
``org`` relation under tf-idf cosine — at a fixed size made from the
seed, and stresses a different part of the program:

- ``batch``: one full ``dedup --index minhash`` solve per op (combined
  cut K=5, theta=0.4, c=4, in memory).  Phase 1 dominates, so it
  exposes the index build, the distance kernels and the per-query
  lookup driver.
- ``sharded``: the same solve with 4 LSH shards, 2 in flight on the
  thread pool and a 64-page buffer pool per shard.  It exercises the
  shard layer, the rid-subset batch lookup driver and the storage
  engine in the working-set-fits case, and must match ``batch``'s
  partition checksum.
- ``retune``: the section-4.4 workflow.  Setup runs Phase 1 once
  (size cut, K=7); each op re-solves Phase 2 for one (K, c) of a grid
  through the storage engine with a 4-page buffer pool, far smaller
  than ``NN_Reln``.  Almost no index work, the opposite of ``batch``.
- ``serve``: one closed-loop client over a live window.  Each op
  inserts the next record and removes the oldest live one, so the
  window size holds steady; exact candidates, scalar cached distances
  and the incremental layer, which no other workload touches.

A workload's ``op`` is the timed unit.  ``observe`` (untimed) turns an
op's output into a checksum and per-layer counters; ``gate`` (untimed,
after the loop) runs the correctness checks.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, ClassVar

from repro.core import nn_phase
from repro.core.cspairs import build_cs_pairs
from repro.core.formulation import DEParams
from repro.core.partitioner import partition_records
from repro.core.result import Partition
from repro.data.duplicates import GoldStandard
from repro.data.loaders import load_dataset
from repro.data.schema import Record, Relation
from repro.eval.metrics import pairwise_scores
from repro.eval.pr_curve import truncate_to_k
from repro.run.config import RunConfig
from repro.run.context import RunContext
from repro.run.pipeline import StagedPipeline
from repro.run.serve import ServeConfig, ServeSession
from repro.verify.verifier import verify_result

__all__ = ["SIZES", "WORKLOADS", "Observation", "Sizes", "Workload"]

DUPLICATE_FRACTION = 0.3
#: The reference cut: combined K=5, theta=0.4, SN threshold c=4.
CUT = DEParams.combined(5, 0.4, c=4.0)
#: The verifier checks that hold on an approximate (MinHash) index and
#: cost well under a second at the benchmark's size.  ``compact-set``,
#: ``maximality`` and ``nn-parity`` compare against exact neighbors and
#: fail by design on MinHash output.
CHEAP_CHECKS = ("partition", "sn-bound", "cut-spec", "cspairs", "reproducible")
BATCH_CONFIG = RunConfig(distance="cosine", index="minhash")


@dataclass(frozen=True)
class Sizes:
    """Input sizes; every workload states its own in the payload."""

    #: Relation size of ``batch``, ``sharded`` and ``retune``.
    n: int
    #: Live-window size of ``serve``.
    window: int
    #: Records ``serve`` can insert after the window before it wraps.
    stream: int


SIZES = {
    "full": Sizes(n=4096, window=300, stream=3000),
    # For the self-test: every code path, in seconds.
    "smoke": Sizes(n=240, window=40, stream=200),
}


@dataclass
class Observation:
    """What the untimed check took from one op's output."""

    #: Ops with equal keys must produce equal checksums.
    key: Any
    checksum: str | None
    #: Per-layer work counters of this op (see ``layers.py``).
    counters: dict[str, float] = field(default_factory=dict)


def org_relation(seed: int, n: int) -> tuple[Relation, GoldStandard]:
    """Exactly ``n`` records of the seeded ``org`` relation, with gold.

    The generator's output size varies with the seed, so it is asked
    for enough entities and cut to ``n`` (its rows are shuffled, so the
    cut is a random sample); run times then compare like with like.
    """
    entities = max(8, int(n / 1.35))
    while True:
        data = load_dataset(
            "org",
            n_entities=entities,
            duplicate_fraction=DUPLICATE_FRACTION,
            seed=seed,
        )
        if len(data.relation) >= n:
            break
        entities = int(entities * 1.1) + 1
    records = [record for record in data.relation if record.rid < n]
    gold = GoldStandard({r.rid: data.gold.entity_of[r.rid] for r in records})
    return Relation(name="org", schema=data.relation.schema, records=records), gold


def _neighbors(nn_relation) -> int:
    return sum(len(entry.neighbors) for entry in nn_relation)


def _gate_report(report) -> list[tuple[str, bool]]:
    return [(check.name, check.passed) for check in report.checks]


class Workload:
    """One workload: ``setup`` once or more, then timed ``op`` calls."""

    name: ClassVar[str]
    #: Set-up is repeated this many times per run; ``setup_s`` is the median.
    setup_repeats: ClassVar[int] = 3
    #: Ops the timed loop runs even past its deadline.
    min_ops = 0

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        #: Counters of work done once in set-up (see ``layers.py``).
        self.setup_counters: dict[str, float] = {}
        #: Per-layer values only the gate can compute.
        self.gate_metrics: dict[str, float] = {}
        self.pair_f1 = 0.0

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> Any:
        raise NotImplementedError

    def observe(self, i: int, raw: Any) -> Observation:
        raise NotImplementedError

    def gate(self, observations: list[Observation]) -> list[tuple[str, bool]]:
        """Run the correctness checks; ``(check name, passed)`` pairs."""
        raise NotImplementedError

    def header(self) -> dict[str, Any]:
        """Sizes and configuration, for the payload header."""
        return {}


class Batch(Workload):
    name = "batch"
    config = BATCH_CONFIG
    setup_repeats = 9

    def setup(self) -> None:
        self.relation, self.gold = org_relation(self.seed, self.sizes.n)
        self.first = None
        self.backend = None

    def op(self, i: int):
        ctx = RunContext.create(self.config)
        return ctx, StagedPipeline(ctx).run(self.relation, CUT)

    def observe(self, i: int, raw) -> Observation:
        ctx, result = raw
        if self.first is None:
            self.first = (ctx, result)
        stats = ctx.last_stats
        self.backend = stats.kernel_backend
        return Observation(
            key=None,
            checksum=result.partition.checksum(),
            counters=self._counters(ctx, result),
        )

    def _counters(self, ctx, result) -> dict[str, float]:
        # One fresh index per op on one thread: its counters are this
        # op's work, with nothing else accruing on them.
        stats = ctx.last_stats
        return {
            "lookups": stats.phase1.lookups,
            "neighbors": _neighbors(result.nn_relation),
            "candidates": ctx.index.candidates_generated,
            "kernel_evals": ctx.index.kernel_evaluations,
            "scalar_evals": ctx.index.evaluations,
            "cache_calls": stats.distance_cache_calls,
            "cache_hits": stats.distance_cache_hits,
            "cs_rows": stats.n_cs_pairs,
            "groups": len(result.partition.non_trivial_groups()),
        }

    def gate(self, observations):
        ctx, result = self.first
        report = verify_result(
            result, self.relation, ctx.distance, checks=CHEAP_CHECKS
        )
        self.pair_f1 = pairwise_scores(result.partition, self.gold).f1
        return _gate_report(report)

    def header(self):
        return {
            "n": self.sizes.n,
            "config": self.config.to_dict(),
            "cut": CUT.describe(),
            "kernel_backend": self.backend,
        }


class Sharded(Batch):
    name = "sharded"
    config = BATCH_CONFIG.replace(
        shards=4,
        shards_in_flight=2,
        pool="thread",
        use_engine=True,
        buffer_pages=64,
    )

    def _counters(self, ctx, result) -> dict[str, float]:
        # Shards query one shared index concurrently, so index counter
        # deltas are not this op's work; only per-shard outcomes and the
        # program's own report (for ``shard.counter_inflation``) are used.
        stats = ctx.last_stats
        buffers = [run["buffer"] or {} for run in stats.shard_runs]
        return {
            "lookups": stats.phase1.lookups,
            "neighbors": _neighbors(result.nn_relation),
            "reported_kernel_evals": stats.phase1.kernel_evaluations,
            "buffer_hits": sum(b.get("hits", 0) for b in buffers),
            "buffer_misses": sum(b.get("misses", 0) for b in buffers),
            "buffer_evictions": sum(b.get("evictions", 0) for b in buffers),
            "cs_rows": stats.n_cs_pairs,
            "groups": len(result.partition.non_trivial_groups()),
            "worker_sum_s": sum(run["seconds"] for run in stats.shard_runs),
            "shard_members": sum(run["n_members"] for run in stats.shard_runs),
        }

    def gate(self, observations):
        checks = super().gate(observations)
        reference_ctx = RunContext.create(BATCH_CONFIG)
        reference = StagedPipeline(reference_ctx).run(self.relation, CUT)
        parity = all(
            obs.checksum == reference.partition.checksum() for obs in observations
        )
        # The unsharded solve runs on one thread, so its count is true.
        reported = [obs.counters["reported_kernel_evals"] for obs in observations]
        true_evals = reference_ctx.index.kernel_evaluations
        if reported and true_evals:
            self.gate_metrics["shard.counter_inflation"] = (
                sum(reported) / len(reported) / true_evals
            )
        return checks + [("batch-parity", parity)]

    def header(self):
        return {**super().header(), "buffer_pages_per_shard": self.config.buffer_pages}


class Retune(Workload):
    name = "retune"
    # Re-solve cost grows with K.  An odd number of K values puts the
    # median op inside one K's band rather than on the edge between two,
    # and cycling K fastest keeps a run's last, partial cycle balanced.
    K_VALUES = (3, 4, 5, 6, 7)
    K_MAX = max(K_VALUES)
    GRID = tuple(
        (k, c) for c, k in itertools.product((2.0, 3.0, 4.0, 5.0, 6.0), K_VALUES)
    )
    REFERENCE = (5, 4.0)
    config = BATCH_CONFIG.replace(use_engine=True, buffer_pages=4)

    def setup(self) -> None:
        self.relation, self.gold = org_relation(self.seed, self.sizes.n)
        ctx = RunContext.create(BATCH_CONFIG)
        ctx.index.build(self.relation, ctx.distance)
        stats = nn_phase.Phase1Stats()
        nn = nn_phase.prepare_nn_lists(
            self.relation,
            ctx.index,
            DEParams.size(self.K_MAX, c=4.0),
            stats=stats,
        )
        self.distance = ctx.distance
        self.nn_by_k = {k: truncate_to_k(nn, k) for k in self.K_VALUES}
        self.table_pages = 0
        self.setup_counters = {
            "lookups": stats.lookups,
            "neighbors": _neighbors(nn),
            "candidates": ctx.index.candidates_generated,
            "kernel_evals": ctx.index.kernel_evaluations,
            "scalar_evals": ctx.index.evaluations,
        }

    def op(self, i: int):
        k, c = self.GRID[i % len(self.GRID)]
        ctx = RunContext.create(self.config, distance=self.distance)
        result = StagedPipeline(ctx).run_from_nn(
            self.relation, self.nn_by_k[k], DEParams.size(k, c=c)
        )
        return (k, c), ctx, result

    def observe(self, i: int, raw) -> Observation:
        key, ctx, result = raw
        stats = ctx.last_stats
        self.table_pages = max(
            self.table_pages, ctx.engine.table("NN_Reln").n_pages
        )
        return Observation(
            key=key,
            checksum=result.partition.checksum(),
            counters={
                "buffer_hits": stats.buffer.hits,
                "buffer_misses": stats.buffer.misses,
                "buffer_evictions": stats.buffer.evictions,
                "cs_rows": stats.n_cs_pairs,
                "groups": len(result.partition.non_trivial_groups()),
            },
        )

    def _in_memory(self, key) -> Partition:
        k, c = key
        params = DEParams.size(k, c=c)
        pairs = build_cs_pairs(self.nn_by_k[k], params)
        return partition_records(self.relation.ids(), pairs, params)

    def gate(self, observations):
        """Each distinct (K, c) solve matches the in-memory builders."""
        solved = {obs.key: obs.checksum for obs in observations}
        checks = []
        for (k, c), checksum in sorted(solved.items()):
            expected = self._in_memory((k, c)).checksum()
            checks.append((f"engine-vs-memory K={k} c={c:g}", checksum == expected))
        self.pair_f1 = pairwise_scores(self._in_memory(self.REFERENCE), self.gold).f1
        return checks

    def header(self):
        return {
            "n": self.sizes.n,
            "config": self.config.to_dict(),
            "phase1_cut": DEParams.size(self.K_MAX, c=4.0).describe(),
            "grid": [list(point) for point in self.GRID],
            "buffer_pages": self.config.buffer_pages,
            "nn_table_pages": self.table_pages,
        }


class Serve(Workload):
    name = "serve"
    config = ServeConfig(distance="cosine", k=5, c=4.0, candidates="exact")

    @property
    def min_ops(self) -> int:
        # pair_f1 scores the departures of the first 1.5 windows' worth
        # of ops; the loop always runs that far, so it repeats exactly.
        return 3 * self.sizes.window // 2

    def setup(self) -> None:
        window = self.sizes.window
        relation, gold = org_relation(self.seed, window + self.sizes.stream)
        # Entities arrive in random order and an entity's copies arrive
        # close together, so the live window holds about as many
        # duplicate pairs as a batch relation of its size; in the
        # generator's order a window of the stream holds almost none.
        rng = random.Random(self.seed)
        start = {}
        jitter = window / (2 * len(relation))
        arrival = {
            record.rid: start.setdefault(gold.entity_of[record.rid], rng.random())
            + rng.random() * jitter
            for record in relation
        }
        ordered = sorted(relation, key=lambda record: arrival[record.rid])
        # Renumbered in arrival order, as a loaded seed file is: the
        # session assigns rids in arrival order, and the distance caches
        # token vectors by the seed's rids at prepare time.
        self.records = [Record(i, record.fields) for i, record in enumerate(ordered)]
        self.entity = [gold.entity_of[record.rid] for record in ordered]
        self.session = ServeSession(
            self.config,
            seed=Relation(
                name="window", schema=relation.schema, records=self.records[:window]
            ),
            schema=relation.schema,
        )
        self.session.dedup.partition()
        self.live = deque(range(window))
        self.cursor = window
        self.live_by_entity: dict[int, set[int]] = {}
        for rid in self.live:
            self.live_by_entity.setdefault(self._entity(rid), set()).add(rid)
        #: (true positives, predicted, actual) pairs scored at departures.
        self.tally = [0, 0, 0]
        self._distance_seen = self._distance_counts()

    def _entity(self, rid: int) -> int:
        # Serve rids are positions in the (wrapping) arrival order.
        return self.entity[rid % len(self.records)]

    def _distance_counts(self) -> tuple[int, int]:
        distance = self.session.dedup.distance
        return distance.calls, distance.misses

    def op(self, i: int):
        record = self.records[self.cursor % len(self.records)]
        self.cursor += 1
        added = self.session.insert(record.fields)
        add_stats = self.session.dedup.last_op
        # Cached by the insert's group lookup: no recomputation here.
        before = self.session.dedup.partition()
        gone = self.live.popleft()
        self.session.delete(gone)
        self.live.append(added.rid)
        return add_stats, self.session.dedup.last_op, before, gone, added.rid

    def observe(self, i: int, raw) -> Observation:
        add_stats, remove_stats, before, gone, added = raw
        self.live_by_entity.setdefault(self._entity(added), set()).add(added)
        peers = self.live_by_entity[self._entity(gone)]
        if gone < self.min_ops:
            # Each pair that was live together is scored once, in the
            # partition just before the first of the two leaves.
            predicted = set(before.group_of(gone)) - {gone}
            actual = peers - {gone}
            self.tally[0] += len(predicted & actual)
            self.tally[1] += len(predicted)
            self.tally[2] += len(actual)
        peers.discard(gone)

        calls, misses = self._distance_counts()
        seen_calls, seen_misses = self._distance_seen
        self._distance_seen = (calls, misses)
        return Observation(
            key=None,
            checksum=None,
            counters={
                "incremental_ops": 2,
                "incremental_evals": add_stats.cache_misses + remove_stats.cache_misses,
                "scalar_evals": misses - seen_misses,
                "cache_calls": calls - seen_calls,
                "cache_hits": (calls - seen_calls) - (misses - seen_misses),
            },
        )

    def gate(self, observations):
        report = self.session.verify()
        true_positives, predicted, actual = self.tally
        if predicted + actual:
            self.pair_f1 = 2 * true_positives / (predicted + actual)
        window_ok = len(self.session.dedup) == self.sizes.window
        return _gate_report(report) + [("window-size", window_ok)]

    def header(self):
        return {
            "window": self.sizes.window,
            "stream": self.sizes.stream,
            "scored_departures": self.min_ops,
            "config": {
                "distance": self.config.distance,
                "k": self.config.k,
                "c": self.config.c,
                "candidates": self.config.candidates,
            },
        }


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (Batch, Sharded, Retune, Serve)
}

