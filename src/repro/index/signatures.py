"""Columnar, vocabulary-hashed MinHash signature factory.

The scalar :func:`~repro.index.minhash.minhash_signature` hashes every
*occurrence* of a token once per salt: ``sum_r |tokens(r)| * n_hashes``
keyed blake2b calls for a relation.  Token sets are Zipfian, so the
number of *distinct* tokens ``V`` is far smaller than the number of
occurrences — on the Org generator roughly 12–17x smaller at n >= 5k,
and the gap widens with n.  :class:`SignatureFactory` exploits that:

1. **Intern** the corpus into a token vocabulary and a CSR layout
   (``indptr`` / ``indices``, the same shape
   :class:`~repro.distances.kernels.columnar.ColumnarVectors` uses):
   each record's element set becomes a row of vocabulary ids.
2. **Hash each distinct token once per salt** with the *same* keyed
   blake2b the scalar path uses (one pre-keyed state per salt, copied
   per token; all digests decoded in one call) into an
   ``(n_hashes, V)`` uint64 matrix ``H``.
3. **Gather + min**: record ``r``'s signature is the element-wise
   minimum of ``H[:, ids(r)]`` — one ``np.minimum.reduceat`` over CSR
   segments per salt on the numpy backend, a C-speed
   ``map(min, zip(*rows))`` on the pure-python fallback.

Both backends are **bit-identical** to the scalar function by
construction: the per-(token, salt) hashes are the very same blake2b
values, min over uint64 equals min over the non-negative python ints,
and empty element sets sign as all-``_PRIME`` exactly like the scalar
path.  Persistent-postings warm restarts, shard plans, and every parity
checksum therefore stay valid no matter which backend signed.

:func:`group_band_buckets` is the companion bucketing step.  On the
numpy backend it groups each band's sub-signature rows with one stable
lexsort and emits only integer columns — no per-record or per-bucket
python objects; without numpy it is the classic dict-``setdefault``
loop.  Bucket membership order equals relation order in both forms —
identical to the scalar append order.
"""

from __future__ import annotations

import hashlib
import struct
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.distances.kernels.compat import numpy_or_none, require_numpy

__all__ = [
    "BandGrouping",
    "RelationSignatures",
    "SignatureFactory",
    "find_bucket",
    "group_band_buckets",
    "resolve_signer_backend",
]

_PRIME = (1 << 61) - 1


def resolve_signer_backend(mode: str) -> str:
    """Map an ``enable_kernel`` mode onto a signer backend.

    ``"python"`` keeps the scalar loop; ``"numpy"`` requires numpy
    (raising :class:`~repro.distances.kernels.KernelUnavailable` when it
    is missing, mirroring ``NNIndex._resolve_kernel``); ``"auto"`` picks
    numpy when importable and falls back to python otherwise.
    """
    if mode == "python":
        return "python"
    if mode == "numpy":
        require_numpy()
        return "numpy"
    if mode == "auto":
        return "numpy" if numpy_or_none() is not None else "python"
    raise ValueError(f"unknown signer mode: {mode!r}")


@dataclass
class RelationSignatures:
    """Signatures of one relation, aligned with ``rids`` (relation order).

    The numpy backend fills ``matrix``, the ``(n, n_hashes)`` uint64
    signature matrix; the python backend fills ``rows``, one python-int
    tuple per record.
    """

    rids: list[int]
    n_hashes: int
    backend: str
    matrix: object | None = None
    rows: list[tuple[int, ...]] | None = None
    #: Sub-stage wall times: ``tokenize`` (element extraction + vocab
    #: interning) and ``sign`` (hashing + min-gather).
    timings: dict[str, float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.rids)

    @property
    def tuples(self) -> list[tuple[int, ...]]:
        """Per-record tuples, as :func:`minhash_signature` returns them
        (derived from ``matrix`` on each call on the numpy backend)."""
        if self.matrix is None:
            return self.rows
        return [tuple(row) for row in self.matrix.tolist()]

    def matches(self, rids: Sequence[int], n_hashes: int) -> bool:
        """Whether these signatures cover exactly ``rids`` at ``n_hashes``."""
        return self.n_hashes == n_hashes and list(rids) == self.rids


@dataclass
class BandGrouping:
    """The LSH bucketing of a signature batch, in one of two forms.

    **Columns** (numpy backend): ``band_columns`` holds per band an
    ``(order, bounds, bucket_of)`` triple of int64 arrays — the rows
    sorted by bucket, each bucket's ``[bounds[g], bounds[g + 1])`` slice
    of ``order``, and every row's bucket ordinal.  Row ``r``'s band-``b``
    bucket members are ``order[bounds[g]:bounds[g + 1]]`` with
    ``g = bucket_of[r]``, in relation order.  ``keys`` holds per band the
    ``(n_buckets, rows_per_band)`` uint64 sub-signature of each bucket,
    lexicographically ascending, so a signature from outside the batch
    finds its bucket by binary search (:func:`find_bucket`).

    **Dicts** (python backend): ``buckets`` maps ``(band,
    sub-signature)`` to member rids in relation order — exactly the
    scalar ``setdefault``/``append`` result — and ``row_buckets`` holds
    per band, row -> member list (aliases of the ``buckets`` values).
    """

    band_columns: list[tuple] | None = None
    keys: list | None = None
    buckets: dict[tuple[int, tuple[int, ...]], list[int]] | None = None
    row_buckets: list[list[list[int]]] | None = None
    seconds: float = 0.0

    @property
    def n_buckets(self) -> int:
        """Distinct ``(band, sub-signature)`` buckets."""
        if self.band_columns is None:
            return len(self.buckets)
        return sum(len(bounds) - 1 for _, bounds, _ in self.band_columns)

    def shared_buckets(self, rids: Sequence[int]) -> list[list[int]]:
        """Member rids (relation order) of every bucket with two or more
        members; ``rids`` are the batch's rids in row order."""
        if self.band_columns is None:
            return [members for members in self.buckets.values() if len(members) > 1]
        np = require_numpy()
        rid_array = np.asarray(rids, dtype=np.int64)
        shared: list[list[int]] = []
        for order, bounds, _ in self.band_columns:
            ordered = rid_array[order].tolist()
            edges = bounds.tolist()
            for g in np.flatnonzero(np.diff(bounds) > 1).tolist():
                shared.append(ordered[edges[g] : edges[g + 1]])
        return shared


class SignatureFactory:
    """Vocabulary-hashed MinHash signer with numpy and python backends.

    Parameters
    ----------
    n_hashes:
        Signature width (salt count).
    backend:
        ``"auto"`` / ``"numpy"`` / ``"python"`` — resolved through
        :func:`resolve_signer_backend`, i.e. with the same semantics as
        ``NNIndex.enable_kernel``.
    """

    def __init__(self, n_hashes: int, backend: str = "auto") -> None:
        if n_hashes < 1:
            raise ValueError("n_hashes must be at least 1")
        self.n_hashes = n_hashes
        self.backend = resolve_signer_backend(backend)
        # One keyed blake2b state per salt, copied per token.
        self._prototypes = [
            hashlib.blake2b(digest_size=8, salt=salt.to_bytes(8, "little"))
            for salt in range(n_hashes)
        ]

    # ------------------------------------------------------------------

    def sign_records(
        self,
        rids: Sequence[int],
        elements_of: Callable[[int], Iterable[str]],
    ) -> RelationSignatures:
        """Sign ``rids``, reading each record's element set lazily.

        ``elements_of(rid)`` returns the record's token/q-gram iterable
        (duplicates are fine; interning dedups).  Element extraction is
        timed as ``tokenize``, hashing + min-gather as ``sign``.
        """
        started = time.perf_counter()
        vocab: dict[str, int] = {}
        vocab_id = vocab.setdefault
        indptr = [0]
        indices: list[int] = []
        for rid in rids:
            row = {vocab_id(token, len(vocab)) for token in elements_of(rid)}
            indices.extend(row)
            indptr.append(len(indices))
        tokenize_seconds = time.perf_counter() - started

        started = time.perf_counter()
        matrix = rows = None
        if self.backend == "numpy":
            matrix = self._sign_numpy(vocab, indptr, indices)
        else:
            rows = self._sign_python(vocab, indptr, indices)
        sign_seconds = time.perf_counter() - started
        return RelationSignatures(
            rids=[int(rid) for rid in rids],
            n_hashes=self.n_hashes,
            backend=self.backend,
            matrix=matrix,
            rows=rows,
            timings={
                "tokenize": tokenize_seconds,
                "sign": sign_seconds,
            },
        )

    def sign_sets(
        self, element_sets: Sequence[Iterable[str]]
    ) -> RelationSignatures:
        """Sign explicit element sets (positional rids ``0..n-1``)."""
        return self.sign_records(
            range(len(element_sets)), lambda i: element_sets[i]
        )

    # ------------------------------------------------------------------

    def _hash_vocabulary(self, vocab: dict[str, int]) -> bytes:
        """Every distinct token's ``n_hashes`` keyed blake2b digests.

        Salt-major, tokens in vocabulary-id order (``vocab`` iterates in
        id order), 8 little-endian bytes per (salt, token) — each exactly
        the digest ``_stable_hash(token, salt)`` decodes, which is the
        whole bit-identity argument.
        """
        encoded = [token.encode("utf-8") for token in vocab]
        digests: list[bytes] = []
        append = digests.append
        for prototype in self._prototypes:
            copy = prototype.copy
            for data in encoded:
                state = copy()
                state.update(data)
                append(state.digest())
        return b"".join(digests)

    def _sign_numpy(
        self, vocab: dict[str, int], indptr: list[int], indices: list[int]
    ):
        np = require_numpy()
        n = len(indptr) - 1
        signatures = np.full((n, self.n_hashes), _PRIME, dtype=np.uint64)
        if vocab:
            hashes = np.frombuffer(
                self._hash_vocabulary(vocab), dtype="<u8"
            ).reshape(self.n_hashes, len(vocab))
            ids = np.asarray(indices, dtype=np.int64)
            indptr = np.asarray(indptr, dtype=np.int64)
            # Empty rows keep the all-_PRIME fill and are left out of the
            # reduceat offsets (a repeated offset would mis-reduce).
            rows = np.flatnonzero(np.diff(indptr) > 0)
            # One salt at a time: O(occurrences) scratch per gather.
            for salt, column in enumerate(hashes):
                signatures[rows, salt] = np.minimum.reduceat(
                    column[ids], indptr[rows]
                )
        return signatures

    def _sign_python(
        self, vocab: dict[str, int], indptr: list[int], indices: list[int]
    ) -> list[tuple[int, ...]]:
        size = len(vocab)
        empty = tuple([_PRIME] * self.n_hashes)
        flat = struct.unpack(f"<{size * self.n_hashes}Q", self._hash_vocabulary(vocab))
        # Transpose the salt-major values into one tuple per token.
        rows = list(
            zip(*(flat[s * size : (s + 1) * size] for s in range(self.n_hashes)))
        )
        tuples: list[tuple[int, ...]] = []
        for i in range(len(indptr) - 1):
            lo, hi = indptr[i], indptr[i + 1]
            if lo == hi:
                tuples.append(empty)
                continue
            token_rows = [rows[vid] for vid in indices[lo:hi]]
            if len(token_rows) == 1:
                tuples.append(token_rows[0])
            else:
                tuples.append(tuple(map(min, zip(*token_rows))))
        return tuples


def group_band_buckets(
    signatures: RelationSignatures, n_bands: int
) -> BandGrouping:
    """Bucket signed records by LSH band.

    With a signature ``matrix`` (numpy backend) each band is grouped by
    one stable lexsort (stable, so members keep relation order — the
    scalar append order) into the columns form; otherwise the classic
    dict-``setdefault`` loop builds the dicts form (see
    :class:`BandGrouping`).  Both hold the same buckets.
    """
    if signatures.n_hashes % n_bands != 0:
        raise ValueError("n_hashes must be divisible by n_bands")
    started = time.perf_counter()
    rows_per_band = signatures.n_hashes // n_bands
    n = len(signatures.rids)
    if signatures.matrix is None:
        grouping = _group_dicts(signatures, n_bands, rows_per_band)
    else:
        np = require_numpy()
        band_columns = []
        keys = []
        for band in range(n_bands):
            sub = signatures.matrix[:, band * rows_per_band : (band + 1) * rows_per_band]
            # Column 0 is the primary key (lexsort reads keys last-first).
            order = np.lexsort(sub.T[::-1])
            sorted_sub = sub[order]
            changed = np.any(sorted_sub[1:] != sorted_sub[:-1], axis=1)
            heads = np.flatnonzero(np.concatenate(([n > 0], changed)))
            bounds = np.append(heads, n).astype(np.int64)
            # row -> bucket ordinal, inverted from the sort positions.
            bucket_of = np.empty(n, dtype=np.int64)
            bucket_of[order] = np.repeat(np.arange(len(heads)), np.diff(bounds))
            band_columns.append((order.astype(np.int64), bounds, bucket_of))
            keys.append(sorted_sub[heads])
        grouping = BandGrouping(band_columns=band_columns, keys=keys)
    grouping.seconds = time.perf_counter() - started
    return grouping


def _group_dicts(
    signatures: RelationSignatures, n_bands: int, rows_per_band: int
) -> BandGrouping:
    rids = signatures.rids
    buckets: dict[tuple[int, tuple[int, ...]], list[int]] = {}
    row_buckets: list[list[list[int]]] = [[] for _ in range(n_bands)]
    for rid, signature in zip(rids, signatures.rows):
        for band in range(n_bands):
            lo = band * rows_per_band
            bucket = buckets.setdefault((band, signature[lo : lo + rows_per_band]), [])
            bucket.append(rid)
            row_buckets[band].append(bucket)
    return BandGrouping(buckets=buckets, row_buckets=row_buckets)


def find_bucket(keys, key: Sequence[int]) -> int | None:
    """Ordinal of the bucket whose sub-signature is ``key``, or ``None``.

    ``keys`` is one band's lexicographically ascending bucket-key array
    (:attr:`BandGrouping.keys`); the equal range is narrowed one
    column at a time, ``2 * rows_per_band`` binary searches in all.
    """
    np = require_numpy()
    lo, hi = 0, len(keys)
    for column, value in enumerate(key):
        values = keys[lo:hi, column]
        value = np.uint64(value)
        lo, hi = (
            lo + int(np.searchsorted(values, value, "left")),
            lo + int(np.searchsorted(values, value, "right")),
        )
        if lo == hi:
            return None
    return lo
