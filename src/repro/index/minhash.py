"""MinHash / LSH index over token sets.

A locality-sensitive candidate generator in the family of probabilistic
indexes the paper cites for cosine / fuzzy match similarity.  Records
are signed with ``n_hashes`` min-hashes of their word-token sets; the
signature is cut into bands, and records colliding in any band become
candidates, which are then verified with the actual distance function.

The banding scheme makes candidate probability an S-curve in Jaccard
similarity; with the defaults (64 hashes, 16 bands of 4 rows) pairs with
token Jaccard above ~0.4 are found with high probability, which is the
regime fuzzy duplicates live in.

Cost model
----------
Signatures *and* per-record band keys are computed exactly once, in
``_build``; a lookup for an in-relation record is ``n_bands`` dict
probes plus one verification per surfaced candidate.  Batch queries
(``knn_batch`` / ``within_batch`` / ``phase1_batch``) additionally run
inside the base-class batch scope, so every unordered candidate pair is
evaluated at most once per batch and the NG range counts that follow in
Phase 1 are served from the shared pair cache.  See
``docs/performance.md`` ("Choosing an index") for the knobs.
"""

from __future__ import annotations

import hashlib
import time

from repro.data.schema import Record
from repro.distances.kernels.compat import numpy_or_none
from repro.distances.tokens import qgrams, tokenize
from repro.index.base import Neighbor, NNIndex
from repro.index.signatures import (
    RelationSignatures,
    SignatureFactory,
    group_band_buckets,
)

__all__ = ["MinHashIndex", "minhash_signature", "band_keys"]

_PRIME = (1 << 61) - 1


def _stable_hash(token: str, salt: int) -> int:
    """Deterministic 64-bit hash of ``token`` under ``salt``."""
    digest = hashlib.blake2b(
        token.encode("utf-8"), digest_size=8, salt=salt.to_bytes(8, "little")
    ).digest()
    return int.from_bytes(digest, "little")


def minhash_signature(elements: set[str], n_hashes: int) -> tuple[int, ...]:
    """The ``n_hashes``-wide min-hash signature of a token/q-gram set.

    Stable across processes and sessions (keyed blake2b, no process
    salt), which is what lets the persistent postings index
    (:mod:`repro.index.postings`) restore logged signatures instead of
    re-hashing on a warm restart.  Empty sets sign as all-``_PRIME``.
    """
    if not elements:
        return tuple([_PRIME] * n_hashes)
    return tuple(
        min(_stable_hash(element, salt) for element in elements)
        for salt in range(n_hashes)
    )


def band_keys(
    signature: tuple[int, ...], n_bands: int
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Cut a signature into its ``n_bands`` LSH bucket keys."""
    rows = len(signature) // n_bands
    return tuple(
        (band, signature[band * rows : band * rows + rows])
        for band in range(n_bands)
    )


class MinHashIndex(NNIndex):
    """LSH candidate index verified against the true distance function.

    Parameters
    ----------
    n_hashes:
        Signature length; must be divisible by ``n_bands``.
    n_bands:
        Number of LSH bands.  More bands (fewer rows per band) lower
        the collision threshold of the S-curve: candidates multiply and
        recall rises at the cost of more verifications.
    use_qgrams:
        Sign q-gram sets instead of word-token sets.  Q-grams make the
        index robust to in-token typos at the cost of larger sets.
    exhaustive_fallback:
        Scan the remainder when a query surfaces fewer candidates than
        the requested ``k``.
    """

    def __init__(
        self,
        n_hashes: int = 64,
        n_bands: int = 16,
        use_qgrams: bool = False,
        q: int = 3,
        exhaustive_fallback: bool = True,
    ):
        super().__init__()
        if n_hashes % n_bands != 0:
            raise ValueError("n_hashes must be divisible by n_bands")
        self.n_hashes = n_hashes
        self.n_bands = n_bands
        self.rows_per_band = n_hashes // n_bands
        self.use_qgrams = use_qgrams
        self.q = q
        self.exhaustive_fallback = exhaustive_fallback
        self.name = f"minhash{n_hashes}x{n_bands}"
        self._signatures: dict[int, tuple[int, ...]] = {}
        #: rid -> its ``n_bands`` banded sub-signature keys, precomputed
        #: in ``_build`` so lookups never re-slice (let alone re-hash)
        #: a signature.
        self._band_keys: dict[int, tuple[tuple[int, tuple[int, ...]], ...]] = {}
        self._buckets: dict[tuple[int, tuple[int, ...]], list[int]] = {}
        #: rid -> relation-order row, plus per-band row -> bucket member
        #: lists (aliases of ``_buckets`` values): the hash-free probe
        #: path for in-relation lookups.
        self._row_of: dict[int, int] = {}
        self._row_buckets: list[list[list[int]]] = []
        #: Columnar twin of ``_row_buckets`` when the grouping ran on the
        #: numpy backend: per band ``(order, bounds, bucket_of)`` arrays
        #: (see :class:`~repro.index.signatures.BandGrouping`).  Probes
        #: and the batch candidate expansion of :meth:`phase1_batch` are
        #: gathers over these.
        self._band_columns = None
        #: Relation rids in relation order (numpy int64 when available),
        #: backing the vectorized exhaustive-fallback extension.
        self._rid_array = None
        self._relation_signatures: RelationSignatures | None = None
        #: ``(kernel, relation row -> kernel row)`` for the columnar pass.
        self._kernel_rows = None

    def __getstate__(self) -> dict:
        # The columnar signature batch (with its (n, n_hashes) matrix)
        # exists to be shared with shard planning in the parent process;
        # lookups never touch it, so process-pool workers skip the copy.
        state = super().__getstate__()
        state["_relation_signatures"] = None
        state["_kernel_rows"] = None
        return state

    def _elements(self, record: Record) -> list[str]:
        text = record.text()
        return qgrams(text, q=self.q) if self.use_qgrams else tokenize(text)

    def _signature(self, record: Record) -> tuple[int, ...]:
        return minhash_signature(set(self._elements(record)), self.n_hashes)

    def _keys_of(self, signature: tuple[int, ...]) -> tuple:
        return band_keys(signature, self.n_bands)

    def _build(self) -> None:
        """Sign every record and bucket it — once, idempotently.

        Rebuilding (same or different relation) starts from empty
        structures, so a second ``build`` never duplicates bucket
        entries, and no lookup ever recomputes a signature or band key
        for an in-relation record.

        Signing runs through the columnar
        :class:`~repro.index.signatures.SignatureFactory` (vocabulary
        hashing + min-gather) on the backend selected by
        ``kernel_mode``; bucketing through
        :func:`~repro.index.signatures.group_band_buckets`.  Both are
        bit-identical to the scalar :func:`minhash_signature` /
        :func:`band_keys` path, and the classic ``_signatures`` /
        ``_band_keys`` / ``_buckets`` views are kept for compatibility
        (they alias the grouping's shared key tuples and member lists).
        Build wall time lands in ``substage_seconds`` under
        ``tokenize`` / ``sign`` / ``bucket``.
        """
        relation, _ = self._checked()
        started = time.perf_counter()
        records = {record.rid: record for record in relation}
        # The corpus scan (possibly through the buffer pool) is input
        # materialization for token-set extraction.
        self._credit_substage("tokenize", time.perf_counter() - started)
        factory = SignatureFactory(self.n_hashes, backend=self.kernel_mode)
        signatures = factory.sign_records(
            list(records), lambda rid: self._elements(records[rid])
        )
        grouping = group_band_buckets(signatures, self.n_bands)
        started = time.perf_counter()
        rids = signatures.rids
        self._signatures = dict(zip(rids, signatures.tuples))
        self._band_keys = dict(zip(rids, grouping.row_keys))
        self._buckets = grouping.buckets
        self._row_of = {rid: i for i, rid in enumerate(rids)}
        self._row_buckets = grouping.row_buckets
        self._band_columns = grouping.band_columns
        np = numpy_or_none()
        self._rid_array = (
            np.asarray(rids, dtype=np.int64) if np is not None else None
        )
        self._relation_signatures = signatures
        self._credit_substage("tokenize", signatures.timings.get("tokenize", 0.0))
        self._credit_substage("sign", signatures.timings.get("sign", 0.0))
        self._credit_substage(
            "bucket", grouping.seconds + (time.perf_counter() - started)
        )

    def relation_signatures(self) -> RelationSignatures | None:
        """The build's signature batch, shareable with shard planning.

        ``None`` when the index signs q-gram sets (shard planning signs
        word-token sets) or has not been built.  Callers must still
        check :meth:`RelationSignatures.matches` against their own rid
        list and signature width.
        """
        if self.use_qgrams:
            return None
        return self._relation_signatures

    def _candidates(self, record: Record):
        """Sorted candidate rids: ``list[int]``, or int64 array on the
        numpy probe path (same rids in the same ascending order)."""
        row = self._row_of.get(record.rid)
        seen: set[int] = set()
        if row is not None:
            columns = self._band_columns
            if columns is not None:
                # In-relation numpy probe: union the bands' member
                # slices with one C-level sort instead of per-member
                # python set inserts.
                np = numpy_or_none()
                members = [
                    order[bounds[g] : bounds[g + 1]]
                    for order, bounds, bucket_of in columns
                    for g in (bucket_of[row],)
                ]
                merged = np.unique(self._rid_array[np.concatenate(members)])
                return merged[merged != record.rid]
            # In-relation probe: no hashing, no key lookups — each
            # band's bucket member list is already resolved per row.
            for band_rows in self._row_buckets:
                seen.update(band_rows[row])
            seen.discard(record.rid)
        else:
            # Out-of-relation probe: sign on the fly (the only case
            # where a signature is ever computed outside _build).
            for key in self._keys_of(self._signature(record)):
                seen.update(self._buckets.get(key, ()))
            seen.discard(record.rid)
        return sorted(seen)

    def _fallback_rest(self, record: Record, candidates: list[int]) -> list[int]:
        """Relation rids not already surfaced, in relation order."""
        if self._rid_array is not None:
            np = numpy_or_none()
            if np is not None:
                exclude = np.asarray(
                    candidates + [record.rid], dtype=np.int64
                )
                mask = np.isin(self._rid_array, exclude)
                return self._rid_array[~mask].tolist()
        relation, _ = self._checked()
        extra = set(candidates)
        extra.add(record.rid)
        return [r.rid for r in relation if r.rid not in extra]

    def _final_candidates(self, record: Record, k: int | None) -> list[int]:
        """Candidate rids for one query, with pruning accounting.

        ``candidates_generated`` counts the pairs handed to
        verification (including any exhaustive-fallback extension);
        ``evaluations_pruned`` counts the pairs never examined at all.
        Wall time is credited to the ``candidates`` sub-stage.
        """
        started = time.perf_counter()
        try:
            relation, _ = self._checked()
            candidates = self._candidates(record)
            if (
                k is not None
                and len(candidates) < k
                and self.exhaustive_fallback
            ):
                if not isinstance(candidates, list):
                    candidates = candidates.tolist()
                candidates = candidates + self._fallback_rest(
                    record, candidates
                )
            n_others = len(relation) - (1 if record.rid in relation else 0)
            self.candidates_generated += len(candidates)
            self.evaluations_pruned += n_others - len(candidates)
            return candidates
        finally:
            self._credit_substage(
                "candidates", time.perf_counter() - started
            )

    def knn(self, record: Record, k: int) -> list[Neighbor]:
        relation, _ = self._checked()
        if k <= 0 or len(relation) <= 1:
            return []
        candidates = self._final_candidates(record, k)
        hits = self._select_neighbors(record, candidates, k=k)
        if hits is not None:
            return hits
        if not isinstance(candidates, list):
            candidates = candidates.tolist()
        hits = [
            Neighbor(d, rid)
            for d, rid in zip(
                self._candidate_distances(record, candidates), candidates
            )
        ]
        hits.sort()
        return hits[:k]

    def within(
        self, record: Record, radius: float, inclusive: bool = False
    ) -> list[Neighbor]:
        relation, _ = self._checked()
        candidates = self._final_candidates(record, None)
        hits = self._select_neighbors(
            record, candidates, radius=radius, inclusive=inclusive
        )
        if hits is not None:
            return hits
        if not isinstance(candidates, list):
            candidates = candidates.tolist()
        hits = [
            Neighbor(d, rid)
            for d, rid in zip(
                self._candidate_distances(record, candidates), candidates
            )
            if d < radius or (inclusive and d == radius)
        ]
        hits.sort()
        return hits

    def neighborhood_growth(
        self,
        record: Record,
        p: float = 2.0,
        nn_distance: float | None = None,
        radius_fn=None,
    ) -> int:
        """``ng(v)`` over the LSH candidates (see the base class).

        The range count only ever sees LSH candidates, so a record with
        none has ``ng = 1`` whatever its true nearest neighbor is; it
        returns 1 at once instead of running the 1-NN probe, whose
        exhaustive fallback would scan the whole relation for nothing.
        """
        if nn_distance is None:
            started = time.perf_counter()
            lonely = len(self._candidates(record)) == 0
            self._credit_substage("candidates", time.perf_counter() - started)
            if lonely:
                return 1
        return super().neighborhood_growth(
            record, p=p, nn_distance=nn_distance, radius_fn=radius_fn
        )

    # ------------------------------------------------------------------
    # Columnar Phase 1
    # ------------------------------------------------------------------

    #: Directed (query, band member) entries one query block of
    #: :meth:`phase1_batch` may expand; bounds the pass's scratch memory.
    _EXPAND_BUDGET = 1 << 20
    #: Unordered pairs handed to the kernel per call.
    _PAIR_BLOCK = 1 << 16

    def phase1_batch(
        self,
        records,
        k: int | None = None,
        theta: float | None = None,
        p: float = 2.0,
        radius_fn=None,
    ) -> list[tuple[list[Neighbor], int]]:
        """Every record's cut neighbor list and NG in one columnar pass.

        Per query block: the in-relation candidate pairs are expanded
        straight from the build's band columns (one repeat/arange gather
        per band), each unordered pair is evaluated once through the
        kernel, and one ``(query, distance, rid)`` lexsort yields the
        cut lists, ``nn(v)`` and ``ng(v)`` by segment operations.  The
        result is entry-for-entry the per-record ``knn``/``within`` +
        :meth:`neighborhood_growth` sequence; indexes without the numpy
        band columns or a batch kernel take exactly that sequence.

        Counters: ``candidates_generated`` grows by one per (query,
        candidate), ``kernel_evaluations`` by one per unordered pair
        evaluated in a query block (a whole call at moderate sizes), and
        ``evaluations_pruned`` by the relation pairs never examined.
        """
        if k is None and theta is None:
            raise ValueError("phase1_batch needs k, theta, or both")
        # Read the kernel once: every evaluation of this call uses it.
        kernel = self._kernel
        evaluate = None
        if k is None or k > 0:
            evaluate = self._pair_evaluator(kernel)
        rows = self._query_rows(records) if evaluate is not None else None
        if rows is None or len(rows) == 0:
            return super().phase1_batch(
                records, k=k, theta=theta, p=p, radius_fn=radius_fn
            )
        results: list[tuple[list[Neighbor], int]] = []
        for block in self._query_blocks(rows):
            results.extend(
                self._phase1_block(block, kernel, evaluate, k, theta, p, radius_fn)
            )
        return results

    @property
    def columnar_phase1(self) -> bool:
        """True with numpy band columns and a batch kernel over the relation."""
        return (
            self._band_columns is not None
            and self._pair_evaluator(self._kernel) is not None
        )

    def _query_rows(self, records):
        """Relation rows of ``records`` (int64), or ``None`` if any is foreign."""
        if self._band_columns is None:
            return None
        row_of = self._row_of
        rows = [row_of.get(record.rid) for record in records]
        if any(row is None for row in rows):
            return None
        np = numpy_or_none()
        return np.asarray(rows, dtype=np.int64)

    def _pair_evaluator(self, kernel):
        """``f(rows_a, rows_b) -> distances`` over relation rows, or ``None``.

        Kernels with a ``pair_distances`` method evaluate a whole pair
        block at once; other kernels answer one call per distinct left
        row.  ``None`` (no kernel, or a relation the kernel does not
        cover) keeps the per-record path.
        """
        if (
            kernel is None
            or self._rid_array is None
            or len(kernel.rids) != len(self._rid_array)
        ):
            return None
        np = numpy_or_none()
        pair_distances = getattr(kernel, "pair_distances", None)
        if pair_distances is not None:
            cached = self._kernel_rows
            if cached is None or cached[0] is not kernel:
                cached = (kernel, kernel.rows_of(self._rid_array))
                self._kernel_rows = cached
            kernel_rows = cached[1]
            if kernel_rows is None:
                return None
            return lambda a, b: pair_distances(kernel_rows[a], kernel_rows[b])

        def by_left_row(a, b):
            out = np.empty(len(a), dtype=np.float64)
            heads = np.flatnonzero(np.diff(a, prepend=-1, append=-1))
            for lo, hi in zip(heads[:-1].tolist(), heads[1:].tolist()):
                out[lo:hi] = self._row_distances(kernel, int(a[lo]), b[lo:hi])
            return out

        return by_left_row

    def _row_distances(self, kernel, row, candidates):
        """Distances from one relation row to candidate rows (one kernel call)."""
        np = numpy_or_none()
        query_rid = int(self._rid_array[row])
        rids = self._rid_array[candidates]
        resolver = getattr(kernel, "resolve_rows", None)
        if resolver is not None and hasattr(kernel, "pairs_array"):
            query_row, rows = resolver(query_rid, rids)
            return kernel.pairs_array(
                query_rid, rids, rows=rows, query_row=query_row
            )
        return np.asarray(kernel.pairs(query_rid, rids.tolist()), dtype=np.float64)

    def _evaluate_pairs(self, evaluate, a, b):
        """Distances of relation-row pairs, in bounded kernel blocks."""
        np = numpy_or_none()
        started = time.perf_counter()
        out = np.empty(len(a), dtype=np.float64)
        for lo in range(0, len(a), self._PAIR_BLOCK):
            hi = lo + self._PAIR_BLOCK
            out[lo:hi] = evaluate(a[lo:hi], b[lo:hi])
        self.kernel_evaluations += len(a)
        self._credit_substage("verify", time.perf_counter() - started)
        return out

    def _query_blocks(self, rows):
        """Split query rows into runs of at most ~``_EXPAND_BUDGET`` entries."""
        np = numpy_or_none()
        sizes = np.zeros(len(rows), dtype=np.int64)
        for _, bounds, bucket_of in self._band_columns:
            bucket = bucket_of[rows]
            sizes += bounds[bucket + 1] - bounds[bucket]
        block_of = (np.cumsum(sizes) - sizes) // self._EXPAND_BUDGET
        cuts = np.flatnonzero(np.diff(block_of)) + 1
        return np.split(rows, cuts)

    def _expand_candidates(self, rows):
        """Unique ``(query position, candidate row)`` pairs of a block.

        Sorted by query position, then candidate row; self pairs dropped.
        """
        np = numpy_or_none()
        queries = []
        members = []
        positions = np.arange(len(rows), dtype=np.int64)
        for order, bounds, bucket_of in self._band_columns:
            bucket = bucket_of[rows]
            starts = bounds[bucket]
            counts = bounds[bucket + 1] - starts
            offsets = np.cumsum(counts) - counts
            flat = (
                np.arange(int(counts.sum()), dtype=np.int64)
                - np.repeat(offsets, counts)
                + np.repeat(starts, counts)
            )
            members.append(order[flat])
            queries.append(np.repeat(positions, counts))
        query = np.concatenate(queries)
        member = np.concatenate(members)
        keep = member != rows[query]
        n = len(self._rid_array)
        keys = np.sort(query[keep] * n + member[keep])
        keys = keys[np.diff(keys, prepend=-1) != 0]
        return keys // n, keys % n

    def _phase1_block(self, rows, kernel, evaluate, k, theta, p, radius_fn):
        """``(neighbors, ng)`` for one query block (see :meth:`phase1_batch`)."""
        np = numpy_or_none()
        n = len(self._rid_array)
        m = len(rows)
        started = time.perf_counter()
        query, member = self._expand_candidates(rows)
        # Each unordered pair once: canonical (low row, high row) keys.
        left = rows[query]
        pair_keys, pair_of = np.unique(
            np.minimum(left, member) * n + np.maximum(left, member),
            return_inverse=True,
        )
        self._credit_substage("candidates", time.perf_counter() - started)
        distance = self._evaluate_pairs(
            evaluate, pair_keys // n, pair_keys % n
        )[pair_of.reshape(-1)]
        in_lsh = np.ones(len(query), dtype=bool)
        examined = len(query)
        if theta is None and self.exhaustive_fallback:
            # Size cut: queries with fewer than k LSH candidates extend
            # to the rest of the relation, as ``knn`` does.
            lsh_counts = np.bincount(query, minlength=m)
            short = np.flatnonzero(lsh_counts < min(k, n - 1))
            if len(short):
                ext_query, ext_member, ext_distance, scanned = (
                    self._fallback_extension(kernel, rows, query, member, short, k)
                )
                examined += scanned
                query = np.concatenate((query, ext_query))
                member = np.concatenate((member, ext_member))
                distance = np.concatenate((distance, ext_distance))
                in_lsh = np.concatenate(
                    (in_lsh, np.zeros(len(ext_query), dtype=bool))
                )
        self.candidates_generated += examined
        self.evaluations_pruned += m * (n - 1) - examined

        # Cut lists: each query's (distance, rid)-smallest candidates
        # within theta, the first k of its run.  Only entries that can
        # enter a list (all of them under a size cut) are sorted.
        pool = (
            np.arange(len(query)) if theta is None
            else np.flatnonzero(distance < theta)
        )
        rid = self._rid_array[member[pool]]
        order = np.lexsort((rid, distance[pool], query[pool]))
        listed = query[pool][order]
        if k is not None:
            rank = np.arange(len(listed)) - np.searchsorted(listed, listed)
            order = order[rank < k]
            listed = listed[rank < k]
        neighbors: list[list[Neighbor]] = [[] for _ in range(m)]
        for q, d, r in zip(
            listed.tolist(),
            distance[pool][order].tolist(),
            rid[order].tolist(),
        ):
            neighbors[q].append(Neighbor(d, r))

        # NG: nn(v) is the smallest candidate distance (the cut list's
        # first entry when there is one, else the 1-NN over the LSH
        # candidates); the range count sees LSH candidates only.  No
        # candidates: ng = 1.
        nn = np.full(m, np.inf)
        np.minimum.at(nn, query, distance)
        if radius_fn is None:
            radius = p * nn
        else:
            radius = np.array(
                [radius_fn(x) if 0.0 < x < np.inf else 0.0 for x in nn.tolist()],
                dtype=np.float64,
            )
        inside = in_lsh & (
            (distance < radius[query])
            | ((nn[query] == 0.0) & (distance == 0.0))
        )
        ng = 1 + np.bincount(query[inside], minlength=m)
        return list(zip(neighbors, ng.tolist()))

    def _fallback_extension(self, kernel, rows, query, member, short, k):
        """Exhaustive-fallback entries for under-filled size-cut queries.

        Each short query scans every relation row it has not already
        got; only its ``k`` smallest ``(distance, rid)`` extension
        entries can reach the cut list (and ``nn(v)`` is among them), so
        just those are kept — scratch memory stays O(n) per query.
        Returns ``(positions, rows, distances, rows scanned)``.
        """
        np = numpy_or_none()
        n = len(self._rid_array)
        positions, members, distances = [], [], []
        scanned = 0
        # ``query`` is sorted, so each query's LSH run is one slice.
        heads = np.searchsorted(query, short)
        tails = np.searchsorted(query, short, side="right")
        for q, lo, hi in zip(short.tolist(), heads.tolist(), tails.tolist()):
            started = time.perf_counter()
            taken = np.zeros(n, dtype=bool)
            taken[member[lo:hi]] = True
            taken[rows[q]] = True
            rest = np.flatnonzero(~taken)
            self._credit_substage("candidates", time.perf_counter() - started)
            started = time.perf_counter()
            d = self._row_distances(kernel, int(rows[q]), rest)
            self.kernel_evaluations += len(rest)
            self._credit_substage("verify", time.perf_counter() - started)
            best = np.lexsort((self._rid_array[rest], d))[:k]
            positions.append(np.full(len(best), q, dtype=np.int64))
            members.append(rest[best])
            distances.append(d[best])
            scanned += len(rest)
        return (
            np.concatenate(positions),
            np.concatenate(members),
            np.concatenate(distances),
            scanned,
        )
