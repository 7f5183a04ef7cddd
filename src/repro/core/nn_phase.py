"""Phase 1 — nearest-neighbor list computation (paper section 4.1).

``prepare_nn_lists`` materializes the NN relation
``NN_Reln[ID, NN-List, NG]``: for every tuple, its nearest neighbors
(the best K for ``DE_S(K)``; all within θ for ``DE_D(θ)``) and its
neighborhood growth ``ng``.  Both are pure functions of (relation,
distance, cut), so an index with a columnar pass
(:attr:`~repro.index.base.NNIndex.columnar_phase1`) answers the whole
relation through one chunked
:meth:`~repro.index.base.NNIndex.phase1_batch` driver.  Every other
index is probed record by record in the paper's online breadth-first
order, which exists for index buffer locality (Figure 5 / section
4.1.1); the Figure 8 benchmark compares it against random order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Literal, Sequence

from repro.core.bforder import breadth_first_order, random_order, sequential_order
from repro.core.formulation import CombinedCut, DEParams, SizeCut
from repro.core.neighborhood import NNEntry, NNRelation
from repro.data.schema import Relation
from repro.index.base import Neighbor, NNIndex

__all__ = ["Phase1Stats", "PhaseMeter", "prepare_nn_lists"]

LookupOrder = Literal["bf", "random", "sequential"]


@dataclass
class Phase1Stats:
    """Cost accounting for Phase 1.

    All counters *accumulate*: reusing one stats object across several
    ``prepare_nn_lists`` calls (resumed or incremental runs) sums their
    costs instead of keeping only the last call's.  The chunk fields are
    filled by the parallel engine only; the sequential path is one
    implicit chunk and leaves them untouched.
    """

    lookups: int = 0
    seconds: float = 0.0
    evaluations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Candidate (query, record) pairs the index surfaced for
    #: verification — the size of the candidate-generation stage's
    #: output (``n * (n - 1)`` for brute force would examine everything;
    #: approximate indexes surface far fewer).  On the batch path each
    #: (query, candidate) counts once, however many probes (NN list,
    #: NG range count) the per-record sequence would have made; the
    #: size cut's exhaustive-fallback extension counts too.
    candidates_generated: int = 0
    #: Pairs excluded without any distance computation: LSH bucket
    #: misses, q-gram count-filter rejects, triangle-inequality prunes,
    #: BK-tree subtree skips.  The sub-quadratic lever, made visible.
    evaluations_pruned: int = 0
    #: Pairs evaluated inside a vectorized batch kernel (numpy path)
    #: rather than one scalar ``distance()`` call at a time.  Disjoint
    #: from ``evaluations``: a pair is counted in exactly one of the
    #: two, so their sum is the total distance work.  The columnar
    #: MinHash batch evaluates (and counts) each unordered pair once
    #: per query block — once per ``phase1_batch`` call at moderate
    #: sizes.
    kernel_evaluations: int = 0
    n_chunks: int = 0
    chunk_seconds: list[float] = field(default_factory=list)
    #: Phase-1 sub-stage wall times — build-side ``tokenize`` / ``sign``
    #: / ``bucket`` plus lookup-side ``candidates`` / ``verify`` /
    #: ``drive`` — harvested as deltas from ``NNIndex.substage_seconds``
    #: by the drivers' :class:`PhaseMeter` (batch, online, parallel
    #: engine, shard runner).
    substage_seconds: dict[str, float] = field(default_factory=dict)
    #: Per-index-name accumulation of {lookups, evaluations,
    #: candidates_generated, evaluations_pruned} — one stats object can
    #: aggregate runs over several indexes (the bench matrix does).
    by_index: dict[str, dict[str, int]] = field(default_factory=dict)

    def credit_index(
        self,
        name: str,
        *,
        lookups: int = 0,
        evaluations: int = 0,
        candidates_generated: int = 0,
        evaluations_pruned: int = 0,
        kernel_evaluations: int = 0,
    ) -> None:
        """Accumulate one run's costs under the index's name."""
        row = self.by_index.setdefault(
            name,
            {
                "lookups": 0,
                "evaluations": 0,
                "candidates_generated": 0,
                "evaluations_pruned": 0,
                "kernel_evaluations": 0,
            },
        )
        row["lookups"] += lookups
        row["evaluations"] += evaluations
        row["candidates_generated"] += candidates_generated
        row["evaluations_pruned"] += evaluations_pruned
        row["kernel_evaluations"] += kernel_evaluations

    def add_run(
        self,
        name: str,
        *,
        lookups: int,
        seconds: float,
        counters: dict[str, int],
        substages: "dict[str, float] | None" = None,
    ) -> None:
        """Accumulate one driver run: lookups, wall time, work counters
        (:data:`WORK_COUNTERS` deltas), sub-stage times, and the
        per-index row."""
        self.lookups += lookups
        self.seconds += seconds
        for counter in WORK_COUNTERS:
            setattr(self, counter, getattr(self, counter) + counters.get(counter, 0))
        self.add_substages(substages)
        self.credit_index(
            name,
            lookups=lookups,
            evaluations=counters.get("evaluations", 0),
            candidates_generated=counters.get("candidates_generated", 0),
            evaluations_pruned=counters.get("evaluations_pruned", 0),
            kernel_evaluations=counters.get("kernel_evaluations", 0),
        )

    def add_substages(self, delta: "dict[str, float] | None") -> None:
        """Accumulate a sub-stage wall-time delta into this object."""
        if not delta:
            return
        for name, seconds in delta.items():
            self.substage_seconds[name] = (
                self.substage_seconds.get(name, 0.0) + seconds
            )

    @property
    def cache_bypassed(self) -> bool:
        """Whether distance work skipped the pair cache entirely.

        True on kernel-backed batch runs: every pair went through the
        vectorized kernel, so the pair cache saw zero traffic and
        :attr:`cache_hit_rate` is undefined rather than genuinely 0.0.
        """
        return (
            self.cache_hits + self.cache_misses == 0
            and self.kernel_evaluations > 0
        )

    @property
    def prune_rate(self) -> float:
        """Fraction of considered pairs excluded without evaluation.

        0.0 when nothing was pruned or nothing ran (brute force never
        prunes: it has no candidate-generation stage).
        """
        total = (
            self.evaluations_pruned
            + self.evaluations
            + self.kernel_evaluations
            + self.cache_hits
        )
        if total == 0:
            return 0.0
        return self.evaluations_pruned / total

    @property
    def throughput(self) -> float:
        """Lookups per second (the paper's ``pt`` metric, wall-clock).

        Defined as 0.0 when no lookup has been recorded (or no time has
        elapsed), so resumed/empty runs never divide by zero.
        """
        if self.lookups == 0 or self.seconds <= 0.0:
            return 0.0
        return self.lookups / self.seconds

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of distance requests served by a pair cache."""
        total = self.cache_hits + self.cache_misses
        if total == 0:
            return 0.0
        return self.cache_hits / total


def _substage_snapshot(index: NNIndex) -> dict[str, float]:
    """Copy the index's sub-stage ledger (for later delta computation)."""
    return dict(getattr(index, "substage_seconds", None) or {})


def _substage_delta(
    index: NNIndex, before: dict[str, float]
) -> dict[str, float]:
    """Per-stage wall time accrued on ``index`` since ``before``."""
    after = getattr(index, "substage_seconds", None) or {}
    delta = {
        name: seconds - before.get(name, 0.0)
        for name, seconds in after.items()
    }
    return {name: seconds for name, seconds in delta.items() if seconds > 0.0}


#: The index work counters a Phase-1 run is metered by.
WORK_COUNTERS = (
    "evaluations",
    "cache_hits",
    "cache_misses",
    "candidates_generated",
    "evaluations_pruned",
    "kernel_evaluations",
)


class PhaseMeter:
    """The work and wall time an index accrues from construction on.

    Every Phase-1 driver meters through one of these: snapshot at the
    start, :meth:`counters` / :meth:`substages` as deltas, and
    :meth:`record` to fold the run into a :class:`Phase1Stats`.
    """

    def __init__(self, index: NNIndex) -> None:
        self.index = index
        self.started = time.perf_counter()
        self._counters = {
            name: getattr(index, name, 0) for name in WORK_COUNTERS
        }
        self._substages = _substage_snapshot(index)

    def counters(self) -> dict[str, int]:
        return {
            name: getattr(self.index, name, 0) - before
            for name, before in self._counters.items()
        }

    def substages(self) -> dict[str, float]:
        return _substage_delta(self.index, self._substages)

    def record(self, stats: "Phase1Stats | None", lookups: int) -> None:
        """Add this run to ``stats``, crediting the untimed rest to ``drive``."""
        if stats is None:
            return
        seconds = time.perf_counter() - self.started
        substages = self.substages()
        # The driver's own ordering and result assembly, attributed
        # explicitly so the timers account for the full wall time.  Can
        # go non-positive when thread-pool workers accrue concurrently
        # on the shared index; skip the entry then.
        drive = seconds - sum(substages.values())
        if drive > 0.0:
            substages["drive"] = drive
        stats.add_run(
            self.index.name,
            lookups=lookups,
            seconds=seconds,
            counters=self.counters(),
            substages=substages,
        )


def cut_shape(params: DEParams) -> tuple[int | None, float | None]:
    """Translate a cut specification into the ``phase1_batch`` query shape."""
    if isinstance(params.cut, SizeCut):
        return params.cut.k, None
    if isinstance(params.cut, CombinedCut):
        # The K nearest neighbors within radius theta: both bounds hold.
        return params.cut.k, params.theta
    return None, params.theta


def lookup_order(relation: Relation, order: str, order_seed: int = 0) -> list[int]:
    """The rid sequence the batch drivers chunk.

    ``"bf"`` chunks the scan of ``R`` that seeds the online BF traversal
    (relation order, like ``"sequential"``); ``"random"`` is a seeded
    permutation.
    """
    if order == "random":
        return random_order(relation, seed=order_seed)
    if order in ("bf", "sequential"):
        return sequential_order(relation)
    raise ValueError(f"unknown lookup order {order!r}")


def _fetch(
    index: NNIndex, relation: Relation, rid: int, params: DEParams
) -> Sequence[Neighbor]:
    # Materializing the query record (possibly a buffer-pool page read)
    # is the probe's input prep — credited to ``candidates``.
    started = time.perf_counter()
    record = relation.get(rid)
    index._credit_substage("candidates", time.perf_counter() - started)
    k, theta = cut_shape(params)
    if theta is None:
        return index.knn(record, k)
    neighbors = index.within(record, theta)
    return neighbors if k is None else neighbors[:k]


def prepare_nn_lists(
    relation: Relation,
    index: NNIndex,
    params: DEParams,
    order: LookupOrder = "bf",
    order_seed: int = 0,
    stats: Phase1Stats | None = None,
    radius_fn=None,
    n_workers: int = 1,
    pool: str = "thread",
    chunk_size: int | None = None,
    rids: Sequence[int] | None = None,
) -> NNRelation:
    """Materialize the NN relation for a DE problem instance.

    Every entry is a pure function of (relation, distance, cut), so the
    lookup order cannot change the result.  Indexes with a columnar
    pass (:attr:`NNIndex.columnar_phase1`) are answered by one chunked
    :meth:`NNIndex.phase1_batch` driver, where ``order`` only sets the
    chunk order.  Every other index keeps the paper's online per-query
    traversal, in O(1) extra memory; for a paged index the order
    decides its buffer locality (Figure 8).

    Parameters
    ----------
    relation:
        The input relation (must already be indexed: ``index.build``
        called with the same relation and the problem's distance).
    index:
        A built NN index.
    params:
        The DE parameters; the cut specification decides the query
        shape (top-K vs. within-θ) exactly as in the paper.
    order:
        Index lookup order: ``"bf"`` (breadth-first, the paper's
        choice), ``"random"`` (the paper's baseline), or
        ``"sequential"`` (relation order).
    order_seed:
        Seed for the random order.
    stats:
        Optional mutable stats object to fill with lookup counts and
        wall-clock time.
    radius_fn:
        Optional :class:`~repro.core.radius.RadiusFunction` overriding
        the linear ``p * nn(v)`` neighborhood in the NG computation
        (the non-linear extension the paper's section 2 permits).
    n_workers:
        With ``n_workers > 1`` the chunks are answered over a worker
        pool by :class:`~repro.parallel.engine.ParallelNNEngine`,
        producing a result identical to this path for any worker count.
    pool:
        Worker pool kind for the parallel path: ``"thread"`` or
        ``"process"``.
    chunk_size:
        Optional fixed chunk length for the batch drivers; by default a
        columnar index answers the whole order in one ``phase1_batch``
        call (it bounds its own scratch) and other indexes answer rid
        subsets in chunks of 256.
    rids:
        Optional subset of record ids to compute entries for.  Queries
        still run against the *full* index, so each returned entry is
        exactly the entry a whole-relation run would produce for that
        rid — the contract the sharded runner's exact merge relies on.
        The subset is answered in ascending-rid chunks (``order`` and
        ``n_workers`` do not apply).
    """
    if index.relation is not relation:
        raise ValueError("index was not built over the given relation")
    if n_workers < 1:
        raise ValueError("n_workers must be at least 1")

    if rids is not None:
        return _batch_nn_lists(
            relation, index, params, sorted(rids),
            stats=stats, radius_fn=radius_fn, chunk_size=chunk_size,
        )

    if n_workers > 1:
        # Imported lazily: repro.parallel depends on repro.core modules.
        from repro.parallel.engine import ParallelNNEngine

        engine = ParallelNNEngine(
            n_workers=n_workers, pool=pool, chunk_size=chunk_size
        )
        return engine.run(
            relation,
            index,
            params,
            order=order,
            order_seed=order_seed,
            stats=stats,
            radius_fn=radius_fn,
        )

    if index.columnar_phase1:
        return _batch_nn_lists(
            relation, index, params, lookup_order(relation, order, order_seed),
            stats=stats, radius_fn=radius_fn, chunk_size=chunk_size,
        )
    return _online_nn_lists(
        relation, index, params, order, order_seed, stats, radius_fn
    )


def _online_nn_lists(
    relation: Relation,
    index: NNIndex,
    params: DEParams,
    order: str,
    order_seed: int,
    stats: Phase1Stats | None,
    radius_fn,
) -> NNRelation:
    """One probe per record, in the paper's online order.

    Under ``"bf"`` each lookup's neighbors decide which records are
    probed next (Figure 5), so consecutive probes of a paged index
    touch the same pages — the buffer locality Figure 8 measures.
    Probes only read the index's pair cache, so memory stays O(1).
    """
    nn_relation = NNRelation()
    meter = PhaseMeter(index)

    def lookup(rid: int) -> Sequence[Neighbor]:
        neighbors = _fetch(index, relation, rid, params)
        # The fetched list already reveals nn(v) when non-empty (for
        # the size spec always; for the diameter spec whenever some
        # neighbor lies within θ), sparing the index a redundant 1-NN
        # probe inside the NG computation.
        nn_distance = neighbors[0].distance if neighbors else None
        ng = index.neighborhood_growth(
            relation.get(rid),
            p=params.p,
            nn_distance=nn_distance,
            radius_fn=radius_fn,
        )
        nn_relation.add(NNEntry(rid=rid, neighbors=tuple(neighbors), ng=ng))
        return neighbors

    if order == "bf":
        for _ in breadth_first_order(relation, lookup):
            pass
    else:
        for rid in lookup_order(relation, order, order_seed):
            lookup(rid)
    meter.record(stats, lookups=len(nn_relation))
    return nn_relation


def _batch_nn_lists(
    relation: Relation,
    index: NNIndex,
    params: DEParams,
    rids: Sequence[int],
    stats: Phase1Stats | None = None,
    radius_fn=None,
    chunk_size: int | None = None,
) -> NNRelation:
    """Answer ``rids`` in chunks through :meth:`NNIndex.phase1_batch`.

    The cut dispatch maps onto ``phase1_batch``'s query shape exactly
    as :func:`_fetch` does, so each entry is bit-identical to the
    per-query entry for the same rid, whatever the chunking.
    """
    k, theta = cut_shape(params)
    nn_relation = NNRelation()
    meter = PhaseMeter(index)
    if chunk_size and chunk_size > 0:
        size = chunk_size
    elif index.columnar_phase1:
        size = max(1, len(rids))
    else:
        # The generic batch holds its pair cache for a whole call.
        size = 256
    for start in range(0, len(rids), size):
        fetch_started = time.perf_counter()
        records = [relation.get(rid) for rid in rids[start : start + size]]
        index._credit_substage(
            "candidates", time.perf_counter() - fetch_started
        )
        batch = index.phase1_batch(
            records, k=k, theta=theta, p=params.p, radius_fn=radius_fn
        )
        for record, (neighbors, ng) in zip(records, batch):
            nn_relation.add(
                NNEntry(rid=record.rid, neighbors=tuple(neighbors), ng=ng)
            )
    meter.record(stats, lookups=len(rids))
    return nn_relation
