"""Nearest-neighbor index protocol.

Phase 1 of the DE algorithm assumes "the availability of an index for
efficiently answering: for any given tuple v in R, fetch its nearest
neighbors" (paper section 4.1).  The paper uses probabilistic indexes
for edit distance / fms and *treats them as exact*; we follow suit and
validate approximation quality against :class:`BruteForceIndex`
(benchmark A4).

The protocol supports the two query shapes Phase 1 needs:

- ``knn(record, k)`` — the k nearest other records (DE_S);
- ``within(record, radius)`` — all other records with distance below
  ``radius`` (DE_D);

plus :meth:`NNIndex.neighborhood_growth`, the paper's ``ng(v)``: the
number of tuples (including ``v`` itself) within a sphere of radius
``p * nn(v)``, with ``p = 2`` fixed in the paper.

Ordering and ties
-----------------
Neighbors are always ordered by ``(distance, rid)``.  The deterministic
rid tie-break keeps DE solutions unique even though real string data
violates the paper's distinct-distances assumption.
"""

from __future__ import annotations

import abc
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.data.schema import Record, Relation
from repro.distances.base import DistanceFunction

__all__ = ["Neighbor", "NNIndex"]


@dataclass(frozen=True, slots=True, order=True)
class Neighbor:
    """A neighbor hit: distance first so tuples sort by proximity."""

    distance: float
    rid: int


class NNIndex(abc.ABC):
    """Index answering k-NN and range queries under a distance function."""

    #: Human-readable name used in reports.
    name: str = "index"

    def __init__(self) -> None:
        self.relation: Relation | None = None
        self.distance: DistanceFunction | None = None
        #: Number of candidate distance evaluations performed (for cost
        #: accounting in benchmarks).
        self.evaluations = 0
        #: Distance computations spent constructing the index itself
        #: (pivot tables, BK-tree inserts); zero for structure-free
        #: indexes.  Reported separately so the bench matrix can charge
        #: each index its honest total cost.
        self.build_evaluations = 0
        #: Candidate (query, record) pairs surfaced for verification.
        self.candidates_generated = 0
        #: Pairs excluded without any distance computation (bucket
        #: misses, count-filter rejects, triangle-inequality prunes,
        #: memo/cache hits that replaced an evaluation).
        self.evaluations_pruned = 0
        #: Shared pair-cache accounting, mirrored by ``Phase1Stats``.
        self.cache_hits = 0
        self.cache_misses = 0
        #: Pair distances served by a vectorized batch kernel.  Kernel
        #: batches bypass both ``evaluations`` and the pair cache, so
        #: this is the separate ledger that keeps totals reconcilable.
        self.kernel_evaluations = 0
        #: Kernel selection: "python" (never), "auto" (numpy kernels
        #: when available), "numpy" (required).  Scalar by default so a
        #: bare ``build()`` keeps exact historical counter behavior;
        #: the run layer opts in via :meth:`enable_kernel`.
        self.kernel_mode = "python"
        #: Phase-1 sub-stage wall times, accumulated by implementations:
        #: build-side ``tokenize`` / ``sign`` / ``bucket`` and lookup-side
        #: ``candidates`` / ``verify``.  Mirrored (as deltas) into
        #: ``Phase1Stats.substage_seconds`` by the Phase-1 drivers.
        self.substage_seconds: dict[str, float] = {}
        self._kernel = None
        #: Canonical-direction pair cache keyed by ``(min_rid, max_rid)``.
        #: Batch scopes fill it; per-query calls only consult it, so the
        #: plain sequential path stays the honest O(1)-memory baseline.
        self._pair_cache: dict[tuple[int, int], float] = {}
        self._batch_depth = 0
        self._batch_lock = threading.Lock()

    def __getstate__(self) -> dict:
        # Locks do not pickle; process-pool workers re-create their own.
        # Batch kernels hold a live numpy module reference, so they are
        # dropped too and re-resolved from ``kernel_mode`` on restore.
        state = self.__dict__.copy()
        state["_batch_lock"] = None
        state["_kernel"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._batch_lock = threading.Lock()
        if self.relation is not None and self.distance is not None:
            self._resolve_kernel()

    def build(self, relation: Relation, distance: DistanceFunction) -> None:
        """Index ``relation`` under ``distance`` (calls ``prepare``).

        ``distance.prepare`` (corpus statistics) and the batch-kernel
        construction (columnar token vectors) both walk the corpus into
        token-derived structures, so their wall time is credited to the
        ``tokenize`` sub-stage alongside the index's own token-set
        extraction.
        """
        started = time.perf_counter()
        distance.prepare(relation)
        self._credit_substage("tokenize", time.perf_counter() - started)
        self.relation = relation
        self.distance = distance
        # Cached pairs are keyed by rid and scoped to one relation;
        # stale entries across rebuilds would silently answer with
        # another relation's distances.
        self._pair_cache.clear()
        self._build()
        started = time.perf_counter()
        self._resolve_kernel()
        self._credit_substage("tokenize", time.perf_counter() - started)

    def enable_kernel(self, mode: str) -> None:
        """Select the batch-kernel mode (``python``/``auto``/``numpy``).

        Takes effect immediately when the index is already built,
        otherwise at the next :meth:`build`.  ``numpy`` raises
        :class:`~repro.distances.kernels.KernelUnavailable` when numpy
        is missing; a distance function without a kernel implementation
        keeps the scalar path under every mode.
        """
        if mode not in ("python", "auto", "numpy"):
            raise ValueError(f"unknown kernel mode: {mode!r}")
        if mode == self.kernel_mode and self._kernel is not None:
            # Already resolved: shard pipelines re-announce the mode on
            # a shared built index, and swapping its kernel under
            # concurrent readers would rebuild it for nothing.
            return
        self.kernel_mode = mode
        if self.relation is not None and self.distance is not None:
            self._resolve_kernel()

    def _resolve_kernel(self) -> None:
        """(Re)build the batch kernel according to ``kernel_mode``."""
        self._kernel = None
        if self.kernel_mode == "python":
            return
        if self.relation is None or self.distance is None:
            return
        from repro.distances.kernels import KernelUnavailable, have_numpy

        try:
            self._kernel = self.distance.make_kernel(self.relation)
        except KernelUnavailable:
            if self.kernel_mode == "numpy" and not have_numpy():
                raise
            self._kernel = None

    @property
    def kernel_backend(self) -> str:
        """Backend actually answering batch queries ("python" = scalar)."""
        return self._kernel.backend if self._kernel is not None else "python"

    @property
    def columnar_phase1(self) -> bool:
        """Whether :meth:`phase1_batch` answers a whole relation in one
        pass with bounded scratch memory.

        Phase 1 then runs as one batch call instead of one probe per
        record.  ``False`` by default: the generic batch keeps its pair
        cache (and per-query memos) alive for the whole call.
        """
        return False

    @abc.abstractmethod
    def _build(self) -> None:
        """Construct index structures; relation/distance are set."""

    @abc.abstractmethod
    def knn(self, record: Record, k: int) -> list[Neighbor]:
        """Return up to ``k`` nearest *other* records, sorted."""

    @abc.abstractmethod
    def within(
        self, record: Record, radius: float, inclusive: bool = False
    ) -> list[Neighbor]:
        """Return all other records with ``d < radius`` (or ``<=``), sorted."""

    # ------------------------------------------------------------------
    # Batch queries
    # ------------------------------------------------------------------

    def knn_batch(self, records: "Sequence[Record]", k: int) -> list[list[Neighbor]]:
        """Answer :meth:`knn` for several records at once.

        The default runs the per-record loop inside a *batch scope*:
        indexes that route candidate verification through
        :meth:`_pair_distance` then evaluate each unordered pair at most
        once per batch (distance symmetry), with later probes of the
        same pair — including the NG range counts of
        :meth:`phase1_batch` — served from the shared pair cache.
        :class:`~repro.index.bruteforce.BruteForceIndex` overrides the
        batch methods entirely with a blocked all-pairs evaluation.
        Results are positionally aligned with ``records`` and identical
        to per-record :meth:`knn` calls.
        """
        with self._batch_scope():
            return [self.knn(record, k) for record in records]

    def within_batch(
        self, records: "Sequence[Record]", radius: float, inclusive: bool = False
    ) -> list[list[Neighbor]]:
        """Answer :meth:`within` for several records at once.

        Same contract as :meth:`knn_batch`: positionally aligned,
        result-identical to per-record calls, pair-cached per batch.
        """
        with self._batch_scope():
            return [self.within(record, radius, inclusive) for record in records]

    def phase1_batch(
        self,
        records: "Sequence[Record]",
        k: int | None = None,
        theta: float | None = None,
        p: float = 2.0,
        radius_fn: "Callable[[float], float] | None" = None,
    ) -> list[tuple[list[Neighbor], int]]:
        """Batched Phase-1 kernel: each record's cut neighbor list and NG.

        The query shape mirrors the DE cut specifications: ``k`` alone
        is the size cut (k nearest), ``theta`` alone the diameter cut
        (all within θ), both together the combined cut (the k nearest
        within θ).  Returns ``(neighbors, ng)`` per record, positionally
        aligned with ``records`` and identical to the per-record
        ``knn``/``within`` + :meth:`neighborhood_growth` sequence.  The
        default implementation is exactly that sequence; indexes with a
        blocked evaluation override it.
        """
        if k is None and theta is None:
            raise ValueError("phase1_batch needs k, theta, or both")
        results: list[tuple[list[Neighbor], int]] = []
        with self._batch_scope():
            for record in records:
                if theta is not None:
                    neighbors = self.within(record, theta)
                    if k is not None:
                        neighbors = neighbors[:k]
                else:
                    assert k is not None
                    neighbors = self.knn(record, k)
                nn_distance = neighbors[0].distance if neighbors else None
                ng = self.neighborhood_growth(
                    record, p=p, nn_distance=nn_distance, radius_fn=radius_fn
                )
                results.append((neighbors, ng))
        return results

    # ------------------------------------------------------------------
    # Derived queries
    # ------------------------------------------------------------------

    def nn_distance(self, record: Record) -> float:
        """Return ``nn(v)``: the distance to the nearest other record.

        Returns ``inf`` for a singleton relation.
        """
        hits = self.knn(record, 1)
        if not hits:
            return float("inf")
        return hits[0].distance

    def neighborhood_growth(
        self,
        record: Record,
        p: float = 2.0,
        nn_distance: float | None = None,
        radius_fn: "Callable[[float], float] | None" = None,
    ) -> int:
        """Return ``ng(v) = |{u : d(u, v) < p * nn(v)}|`` (self included).

        ``nn_distance`` may be supplied by callers that already hold the
        record's NN list (Phase 1 does), saving a redundant 1-NN query.
        ``radius_fn`` generalizes the linear ``p * nn(v)`` neighborhood
        (paper section 2 allows non-linear functions); when given it
        overrides ``p``.  With exact duplicates present (``nn(v) == 0``,
        outside the paper's distinct-distances assumption) the
        zero-distance records are counted as the neighborhood, which
        preserves the intent that immediate-vicinity tuples contribute
        to growth.
        """
        nn_d = self.nn_distance(record) if nn_distance is None else nn_distance
        if nn_d == float("inf"):
            return 1
        if nn_d == 0.0:
            return 1 + len(self.within(record, 0.0, inclusive=True))
        radius = radius_fn(nn_d) if radius_fn is not None else p * nn_d
        return 1 + len(self.within(record, radius))

    # ------------------------------------------------------------------
    # Helpers for implementations
    # ------------------------------------------------------------------

    def _checked(self) -> tuple[Relation, DistanceFunction]:
        if self.relation is None or self.distance is None:
            raise RuntimeError(f"{type(self).__name__}.build() has not been called")
        return self.relation, self.distance

    def _evaluate(self, a: Record, b: Record) -> float:
        self.evaluations += 1
        assert self.distance is not None
        return self.distance.distance(a, b)

    # ------------------------------------------------------------------
    # Batch scope and the shared canonical pair cache
    # ------------------------------------------------------------------

    @contextmanager
    def _batch_scope(self) -> Iterator[None]:
        """Mark a batch evaluation in progress.

        Inside the scope :meth:`_pair_distance` *fills* the shared pair
        cache (outside it only consults), so a pair probed from both
        endpoints — or probed again by the NG range count — is evaluated
        once per batch.  Scopes nest and may be entered concurrently by
        thread-pool chunk workers; batch-scoped scratch state is
        released when the outermost scope exits.
        """
        with self._batch_lock:
            self._batch_depth += 1
        try:
            yield
        finally:
            with self._batch_lock:
                self._batch_depth -= 1
                if self._batch_depth == 0:
                    self._on_batch_exit()

    def _on_batch_exit(self) -> None:
        """Hook: drop per-batch scratch state (see ``BKTreeIndex``)."""

    def _pair_distance(self, record: Record, other: Record) -> float:
        """Evaluate ``d(record, other)`` through the shared pair cache.

        The pair is always evaluated in canonical (lower rid first)
        direction: the distance protocol is symmetric, but float
        accumulation inside real distance functions need not be
        bit-symmetric, and a fixed direction keeps batch and per-query
        answers bit-identical no matter which side touches a pair first.
        """
        rid, oid = record.rid, other.rid
        key = (rid, oid) if rid <= oid else (oid, rid)
        cached = self._pair_cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        d = (
            self._evaluate(record, other)
            if rid <= oid
            else self._evaluate(other, record)
        )
        if self._batch_depth:
            self._pair_cache[key] = d
        return d

    def _credit_substage(self, name: str, seconds: float) -> None:
        """Accumulate wall time under one Phase-1 sub-stage."""
        self.substage_seconds[name] = (
            self.substage_seconds.get(name, 0.0) + seconds
        )

    def _candidate_distances(
        self, record: Record, rids: "Sequence[int]"
    ) -> list[float]:
        """Verify a candidate list: distances from ``record`` to ``rids``.

        The batch-kernel route (when enabled and when the whole list is
        in-relation) answers all candidates in one vectorized pass,
        ledgered under ``kernel_evaluations``; otherwise each pair goes
        through :meth:`_pair_distance` exactly as before.  Both routes
        return bit-identical values, so approximate indexes may take
        either without affecting results.  Kernels whose row evaluation
        is O(n) advertise ``pairs_min`` to skip tiny candidate lists.
        """
        started = time.perf_counter()
        try:
            kernel = self._kernel
            if (
                kernel is not None
                and len(rids) >= getattr(kernel, "pairs_min", 1)
                and record.rid in kernel
                and all(rid in kernel for rid in rids)
            ):
                self.kernel_evaluations += len(rids)
                return kernel.pairs(record.rid, rids)
            relation, _ = self._checked()
            return [self._pair_distance(record, relation.get(rid)) for rid in rids]
        finally:
            self._credit_substage("verify", time.perf_counter() - started)

    def _select_neighbors(
        self,
        record: Record,
        rids: "Sequence[int]",
        k: int | None = None,
        radius: float | None = None,
        inclusive: bool = False,
    ) -> "list[Neighbor] | None":
        """Kernel-vectorized verify + select for one candidate list.

        Computes all candidate distances through the kernel's array
        path, filters by radius, and ranks by ``(distance, rid)`` with a
        stable ``lexsort`` — the exact total order ``Neighbor`` tuples
        sort by, so the result is bit-identical to the scalar
        build-``Neighbor``-objects-then-sort route while skipping
        millions of python-level comparisons on large candidate lists.
        Returns ``None`` when the kernel/numpy path cannot serve the
        query (caller falls back to the scalar path).
        """
        kernel = self._kernel
        if kernel is None or not hasattr(kernel, "pairs_array"):
            return None
        if len(rids) < getattr(kernel, "pairs_min", 1):
            return None
        from repro.distances.kernels.compat import numpy_or_none

        np = numpy_or_none()
        if np is None:  # pragma: no cover - kernels imply numpy
            return None
        started = time.perf_counter()
        try:
            candidates = np.asarray(rids, dtype=np.int64)
            query_row = None
            rows = None
            resolver = getattr(kernel, "resolve_rows", None)
            if resolver is not None:
                # One bulk membership-check-plus-row-mapping instead of
                # a python ``in`` probe per candidate.
                resolved = resolver(record.rid, candidates)
                if resolved is None:
                    return None
                query_row, rows = resolved
            elif record.rid not in kernel or not all(
                rid in kernel for rid in rids
            ):
                return None
            self.kernel_evaluations += len(rids)
            if rows is None:
                distances = kernel.pairs_array(record.rid, rids)
            else:
                distances = kernel.pairs_array(
                    record.rid, candidates, rows=rows, query_row=query_row
                )
            if radius is not None:
                # ``d < r or (inclusive and d == r)`` — distances are
                # clipped floats (never NaN), so ``<=`` is the same set.
                keep = (
                    distances <= radius if inclusive else distances < radius
                )
                distances = distances[keep]
                candidates = candidates[keep]
            order = np.lexsort((candidates, distances))
            if k is not None:
                order = order[:k]
            return [
                Neighbor(d, rid)
                for d, rid in zip(
                    distances[order].tolist(), candidates[order].tolist()
                )
            ]
        finally:
            self._credit_substage("verify", time.perf_counter() - started)
