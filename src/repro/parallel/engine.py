"""The chunked, multi-worker Phase-1 executor.

:class:`ParallelNNEngine` runs the NN-list computation of Phase 1 over
a pool of workers.  The lookup order is resolved up front and split
into contiguous chunks (:func:`repro.parallel.chunking.plan_chunks`);
each worker answers its chunk through the index's *batch* API — for
:class:`~repro.index.bruteforce.BruteForceIndex` a blocked all-pairs
evaluation that halves evaluations via distance symmetry and fills the
shared pair cache the NG range counts are then served from — and the
per-chunk :class:`~repro.core.neighborhood.NNEntry` lists merge in
chunk order.  Every entry is a pure function of (relation, distance,
params), so the merged result is identical to the sequential
``prepare_nn_lists`` output for any worker count, pool kind, or chunk
size.

Breadth-first order under chunking
----------------------------------
The paper's BF order is produced *online*: each lookup's results decide
which ids are probed next (Figure 5), so the exact global sequence
cannot be known before the lookups run.  The engine instead chunks the
order that seeds the BF traversal — the outer scan of ``R`` — which
keeps each worker on a contiguous region of the relation; within a
chunk, the blocked batch evaluation touches each region of the index
once, which is the same locality the BF order exists to create.

Pool choice
-----------
``pool="thread"`` shares one index (and thus one pair cache) across
workers — cross-chunk pair reuse is preserved, but CPU-bound pure-Python
distances serialize on the GIL.  ``pool="process"`` gives real
parallelism at the cost of pickling the index to each worker and losing
cross-chunk cache sharing.  See ``docs/performance.md`` for guidance.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Literal, Sequence

from repro.core.formulation import DEParams
from repro.core.neighborhood import NNEntry, NNRelation
from repro.core.nn_phase import (
    WORK_COUNTERS,
    PhaseMeter,
    cut_shape,
    lookup_order,
)
from repro.data.schema import Relation
from repro.index.base import NNIndex
from repro.parallel.chunking import Chunk, plan_chunks

__all__ = ["ChunkResult", "ParallelNNEngine"]

PoolKind = Literal["thread", "process"]

#: How many chunks the default plan creates per worker.  Several chunks
#: per worker smooth out load imbalance without shrinking chunks so far
#: that the blocked evaluation loses its symmetry savings.
CHUNKS_PER_WORKER = 4


@dataclass
class ChunkResult:
    """One worker's output for one chunk, plus its cost accounting."""

    chunk_index: int
    entries: list[NNEntry]
    lookups: int
    seconds: float
    evaluations: int
    cache_hits: int
    cache_misses: int
    candidates_generated: int = 0
    evaluations_pruned: int = 0
    kernel_evaluations: int = 0
    #: Sub-stage wall-time deltas accrued on the worker's index during
    #: this chunk (``candidates`` / ``verify``); exact for process
    #: pools, indicative only under thread interleaving (the engine
    #: then uses the global delta instead).
    substage_seconds: dict[str, float] = field(default_factory=dict)


def _run_chunk(
    index: NNIndex, params: DEParams, chunk: Chunk, radius_fn
) -> ChunkResult:
    """Compute the NN entries for one chunk (runs inside a worker)."""
    relation = index.relation
    assert relation is not None
    meter = PhaseMeter(index)
    records = [relation.get(rid) for rid in chunk.rids]
    k, theta = cut_shape(params)
    answers = index.phase1_batch(
        records, k=k, theta=theta, p=params.p, radius_fn=radius_fn
    )
    entries = [
        NNEntry(rid=record.rid, neighbors=tuple(neighbors), ng=ng)
        for record, (neighbors, ng) in zip(records, answers)
    ]
    return ChunkResult(
        chunk_index=chunk.index,
        entries=entries,
        lookups=len(records),
        seconds=time.perf_counter() - meter.started,
        substage_seconds=meter.substages(),
        **meter.counters(),
    )


# ----------------------------------------------------------------------
# Process-pool plumbing: ship the (index, params, radius_fn) payload to
# each worker once via the initializer instead of once per chunk.
# ----------------------------------------------------------------------

_WORKER_PAYLOAD: dict = {}


def _init_process_worker(index, params, radius_fn) -> None:
    _WORKER_PAYLOAD["args"] = (index, params, radius_fn)


def _run_chunk_in_process(chunk: Chunk) -> ChunkResult:
    index, params, radius_fn = _WORKER_PAYLOAD["args"]
    return _run_chunk(index, params, chunk, radius_fn)


class ParallelNNEngine:
    """Chunked Phase-1 executor over a ``concurrent.futures`` pool.

    Parameters
    ----------
    n_workers:
        Worker count.  ``1`` runs the chunks inline — still through the
        batched fast path, which is how the sequential-vs-batch
        benchmark isolates the blocked-evaluation speedup.
    pool:
        ``"thread"`` (default; shared index and pair cache) or
        ``"process"`` (true parallelism; the index must pickle).
    chunk_size:
        Fixed chunk length; default is a balanced split into
        ``n_workers * CHUNKS_PER_WORKER`` chunks.
    """

    def __init__(
        self,
        n_workers: int = 1,
        pool: PoolKind = "thread",
        chunk_size: int | None = None,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        if pool not in ("thread", "process"):
            raise ValueError(f"unknown pool kind {pool!r}")
        self.n_workers = n_workers
        self.pool: PoolKind = pool
        self.chunk_size = chunk_size

    # ------------------------------------------------------------------

    def plan(self, rids: Sequence[int]) -> list[Chunk]:
        """The chunk plan the engine will execute for a lookup order."""
        if self.chunk_size is not None:
            return plan_chunks(rids, chunk_size=self.chunk_size)
        if self.n_workers == 1:
            # Inline execution has no load imbalance to smooth, and one
            # whole-order chunk maximizes the blocked pass's symmetry
            # savings: every pair is in-batch, none goes through the
            # cache twice.
            return plan_chunks(rids, n_chunks=1)
        return plan_chunks(rids, n_chunks=self.n_workers * CHUNKS_PER_WORKER)

    def iter_chunk_results(
        self,
        relation: Relation,
        index: NNIndex,
        params: DEParams,
        order: str = "bf",
        order_seed: int = 0,
        stats=None,
        radius_fn=None,
    ):
        """Yield :class:`ChunkResult` objects in chunk order.

        The streaming core of :meth:`run`: results are yielded as soon
        as each chunk (in plan order) completes, so a consumer can
        spill entries out of core without the whole NN relation ever
        being resident.  ``stats`` accounting (lookups, wall time,
        counter deltas) is finalized when the iterator is exhausted;
        an abandoned iterator records nothing.
        """
        if index.relation is not relation:
            raise ValueError("index was not built over the given relation")

        chunks = self.plan(lookup_order(relation, order, order_seed))
        meter = PhaseMeter(index)
        results: list[ChunkResult] = []

        def finalize() -> None:
            if stats is None:
                return
            stats.n_chunks += len(results)
            stats.chunk_seconds.extend(r.seconds for r in results)
            if self.pool == "process" and self.n_workers > 1 and len(chunks) > 1:
                # Worker processes own private index copies; the parent's
                # counters never move, so sum the per-chunk deltas.
                counters = {
                    name: sum(getattr(r, name) for r in results)
                    for name in WORK_COUNTERS
                }
                substages: dict[str, float] = {}
                for r in results:
                    for name, seconds in r.substage_seconds.items():
                        substages[name] = substages.get(name, 0.0) + seconds
            else:
                # Shared index: per-chunk deltas interleave across
                # threads, but the global delta is exact.
                counters = meter.counters()
                substages = meter.substages()
            stats.add_run(
                index.name,
                lookups=sum(r.lookups for r in results),
                seconds=time.perf_counter() - meter.started,
                counters=counters,
                substages=substages,
            )

        # ``Executor.map`` yields in submission order — chunk order —
        # regardless of completion order, so no sort is needed.
        if self.n_workers == 1 or len(chunks) <= 1:
            for chunk in chunks:
                result = _run_chunk(index, params, chunk, radius_fn)
                results.append(result)
                yield result
        elif self.pool == "thread":
            with ThreadPoolExecutor(max_workers=self.n_workers) as executor:
                for result in executor.map(
                    lambda chunk: _run_chunk(index, params, chunk, radius_fn),
                    chunks,
                ):
                    results.append(result)
                    yield result
        else:
            with ProcessPoolExecutor(
                max_workers=self.n_workers,
                initializer=_init_process_worker,
                initargs=(index, params, radius_fn),
            ) as executor:
                for result in executor.map(_run_chunk_in_process, chunks):
                    results.append(result)
                    yield result
        finalize()

    def run(
        self,
        relation: Relation,
        index: NNIndex,
        params: DEParams,
        order: str = "bf",
        order_seed: int = 0,
        stats=None,
        radius_fn=None,
    ) -> NNRelation:
        """Materialize the NN relation, identically to ``prepare_nn_lists``.

        ``stats`` (a :class:`~repro.core.nn_phase.Phase1Stats`) is
        extended with per-chunk timings and pair-cache hit counts on top
        of the sequential path's lookup/second accounting.
        """
        nn_relation = NNRelation()
        for result in self.iter_chunk_results(
            relation,
            index,
            params,
            order=order,
            order_seed=order_seed,
            stats=stats,
            radius_fn=radius_fn,
        ):
            for entry in result.entries:
                nn_relation.add(entry)
        return nn_relation
