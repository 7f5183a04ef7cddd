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
   blake2b the scalar path uses, into a ``(V, n_hashes)`` uint64
   matrix ``H``.
3. **Gather + column-min**: record ``r``'s signature is the
   element-wise minimum of the rows ``H[ids(r)]`` — a vectorized
   ``np.minimum.reduceat`` over CSR segments on the numpy backend, a
   C-speed ``map(min, zip(*rows))`` on the pure-python fallback.

Both backends are **bit-identical** to the scalar function by
construction: the per-(token, salt) hashes are the very same blake2b
values, min over uint64 equals min over the non-negative python ints,
and empty element sets sign as all-``_PRIME`` exactly like the scalar
path.  Persistent-postings warm restarts, shard plans, and every parity
checksum therefore stay valid no matter which backend signed.

:func:`group_band_buckets` is the companion bucketing step: instead of
``n * n_bands`` per-record tuple-keyed dict inserts it packs each band's
sub-signature rows and groups equal rows via a stable lexsort, emitting
one shared key tuple (and one shared member list) per *bucket*.  Bucket
membership order equals relation order — identical to the scalar
append order.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.distances.kernels.compat import (
    KernelUnavailable,
    numpy_or_none,
    require_numpy,
)

__all__ = [
    "BandGrouping",
    "RelationSignatures",
    "SignatureFactory",
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
    """Signatures of one relation, columnar plus scalar views.

    ``matrix`` is the ``(n, n_hashes)`` uint64 signature matrix (``None``
    on the python backend); ``tuples`` is the per-record python-int
    tuple view — byte-for-byte what :func:`minhash_signature` returns —
    aligned with ``rids`` (relation iteration order).
    """

    rids: list[int]
    tuples: list[tuple[int, ...]]
    n_hashes: int
    backend: str
    matrix: object | None = None
    #: Sub-stage wall times: ``tokenize`` (element extraction + vocab
    #: interning) and ``sign`` (hashing + min-gather).
    timings: dict[str, float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.rids)

    def matches(self, rids: Sequence[int], n_hashes: int) -> bool:
        """Whether these signatures cover exactly ``rids`` at ``n_hashes``."""
        return self.n_hashes == n_hashes and list(rids) == self.rids


@dataclass
class BandGrouping:
    """The vectorized LSH bucketing of a signature batch.

    All three views alias the *same* key tuples and member lists, so a
    relation-sized index pays one tuple per bucket, not one per
    (record, band) insert:

    - ``buckets``: ``(band, sub-signature) -> member rids`` in relation
      order — exactly the scalar ``setdefault``/``append`` result;
    - ``row_keys``: per record its ``n_bands`` keys (the scalar
      ``band_keys`` output), sharing key tuples across records;
    - ``row_buckets``: per band, row -> member list, the hash-free probe
      path for in-relation candidate lookups.

    ``band_columns`` (numpy backend only, else ``None``) is the columnar
    twin: per band an ``(order, bounds, bucket_of)`` triple of int64
    arrays — the rows sorted by bucket, each bucket's ``[bounds[g],
    bounds[g + 1])`` slice of ``order``, and every row's bucket ordinal.
    Row ``r``'s band-``b`` bucket members are
    ``order[bounds[g]:bounds[g + 1]]`` with ``g = bucket_of[r]``, so
    probes and whole-batch candidate expansion are array gathers with
    no per-row python objects.
    """

    buckets: dict[tuple[int, tuple[int, ...]], list[int]]
    row_keys: list[tuple[tuple[int, tuple[int, ...]], ...]]
    row_buckets: list[list[list[int]]]
    seconds: float = 0.0
    band_columns: list[tuple] | None = None


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
        self._salts = [salt.to_bytes(8, "little") for salt in range(n_hashes)]

    # ------------------------------------------------------------------

    def _hash_token(self, token: str) -> list[int]:
        """All ``n_hashes`` keyed blake2b values of one distinct token.

        The per-(token, salt) value is exactly ``_stable_hash(token,
        salt)`` — same digest size, same little-endian decode — which is
        the whole bit-identity argument.
        """
        encoded = token.encode("utf-8")
        blake2b = hashlib.blake2b
        return [
            int.from_bytes(
                blake2b(encoded, digest_size=8, salt=salt).digest(), "little"
            )
            for salt in self._salts
        ]

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
        if self.backend == "numpy":
            matrix, tuples = self._sign_numpy(vocab, indptr, indices)
        else:
            matrix, tuples = None, self._sign_python(vocab, indptr, indices)
        sign_seconds = time.perf_counter() - started
        return RelationSignatures(
            rids=[int(rid) for rid in rids],
            tuples=tuples,
            n_hashes=self.n_hashes,
            backend=self.backend,
            matrix=matrix,
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

    def _hash_matrix_rows(self, vocab: dict[str, int]) -> list[list[int]]:
        """One hash row per distinct token, in vocabulary-id order."""
        rows: list[list[int]] = [None] * len(vocab)  # type: ignore[list-item]
        for token, vid in vocab.items():
            rows[vid] = self._hash_token(token)
        return rows

    def _sign_numpy(
        self, vocab: dict[str, int], indptr: list[int], indices: list[int]
    ):
        np = require_numpy()
        n = len(indptr) - 1
        signatures = np.full((n, self.n_hashes), _PRIME, dtype=np.uint64)
        if vocab:
            flat = [value for row in self._hash_matrix_rows(vocab) for value in row]
            hashes = np.array(flat, dtype=np.uint64).reshape(
                len(vocab), self.n_hashes
            )
            ids = np.asarray(indices, dtype=np.int64)
            starts = np.asarray(indptr[:-1], dtype=np.int64)
            sizes = np.diff(np.asarray(indptr, dtype=np.int64))
            nonempty = sizes > 0
            # Bound the (occurrences, n_hashes) gather scratch: chunk the
            # record range so each gather stays around ~256k rows.
            chunk_rows = 1 << 18
            row = 0
            while row < n:
                end = row
                budget = 0
                while end < n and (budget == 0 or budget < chunk_rows):
                    budget += int(sizes[end])
                    end += 1
                lo, hi = int(starts[row]), int(indptr[end])
                if hi > lo:
                    gathered = hashes[ids[lo:hi]]
                    mask = nonempty[row:end]
                    # Empty rows are dropped from the reduceat boundary
                    # list (duplicate offsets would mis-reduce); their
                    # signatures stay the all-_PRIME fill.
                    bounds = (starts[row:end] - lo)[mask]
                    reduced = np.minimum.reduceat(gathered, bounds, axis=0)
                    signatures[row:end][mask] = reduced
                row = end
        tuples = [tuple(row) for row in signatures.tolist()]
        return signatures, tuples

    def _sign_python(
        self, vocab: dict[str, int], indptr: list[int], indices: list[int]
    ) -> list[tuple[int, ...]]:
        empty = tuple([_PRIME] * self.n_hashes)
        rows = self._hash_matrix_rows(vocab)
        tuples: list[tuple[int, ...]] = []
        for i in range(len(indptr) - 1):
            lo, hi = indptr[i], indptr[i + 1]
            if lo == hi:
                tuples.append(empty)
                continue
            token_rows = [rows[vid] for vid in indices[lo:hi]]
            if len(token_rows) == 1:
                tuples.append(tuple(token_rows[0]))
            else:
                tuples.append(tuple(map(min, zip(*token_rows))))
        return tuples


def group_band_buckets(
    signatures: RelationSignatures, n_bands: int
) -> BandGrouping:
    """Bucket signed records by LSH band, vectorized when possible.

    Equal-key grouping runs as one stable lexsort per band on the numpy
    backend (stable, so members keep relation order — the scalar append
    order) and as the classic dict-``setdefault`` loop otherwise.  Both
    produce identical ``buckets`` / ``row_keys`` structures.
    """
    if signatures.n_hashes % n_bands != 0:
        raise ValueError("n_hashes must be divisible by n_bands")
    started = time.perf_counter()
    rows_per_band = signatures.n_hashes // n_bands
    rids = signatures.rids
    n = len(rids)
    np = numpy_or_none()

    buckets: dict[tuple[int, tuple[int, ...]], list[int]] = {}
    per_band_keys: list[list] = []
    row_buckets: list[list[list[int]]] = []
    band_columns: list[tuple] | None = None

    if signatures.matrix is not None and np is not None and n:
        matrix = signatures.matrix
        rid_array = np.asarray(rids, dtype=np.int64)
        band_columns = []
        for band in range(n_bands):
            sub = matrix[:, band * rows_per_band : (band + 1) * rows_per_band]
            # Stable sort: within an equal-key run, relation order is
            # preserved — the scalar append order.
            order = np.lexsort(tuple(sub[:, c] for c in reversed(range(rows_per_band))))
            sorted_sub = sub[order]
            if n > 1:
                changed = np.any(sorted_sub[1:] != sorted_sub[:-1], axis=1)
                heads = np.concatenate(([0], np.flatnonzero(changed) + 1))
            else:
                heads = np.zeros(1, dtype=np.int64)
            starts = np.concatenate((heads, [n])).astype(np.int64)
            counts = np.diff(starts)
            # row -> bucket ordinal, inverted from the sort positions.
            inverse = np.empty(n, dtype=np.int64)
            inverse[order] = np.repeat(np.arange(len(heads)), counts)
            ordered_rids = rid_array[order].tolist()
            bounds = starts.tolist()
            # One python tuple per *bucket*, not per (record, band), and
            # one C-speed slice per bucket for its member list.
            keys = [
                (band, tuple(key_row))
                for key_row in sorted_sub[heads].tolist()
            ]
            bucket_lists = [
                ordered_rids[bounds[g] : bounds[g + 1]]
                for g in range(len(keys))
            ]
            buckets.update(zip(keys, bucket_lists))
            inverse_list = inverse.tolist()
            per_band_keys.append([keys[g] for g in inverse_list])
            row_buckets.append([bucket_lists[g] for g in inverse_list])
            band_columns.append((order.astype(np.int64), starts, inverse))
    else:
        per_band_keys = [[None] * n for _ in range(n_bands)]
        row_buckets = [[None] * n for _ in range(n_bands)]  # type: ignore[list-item]
        for i, signature in enumerate(signatures.tuples):
            for band in range(n_bands):
                key = (
                    band,
                    signature[band * rows_per_band : band * rows_per_band + rows_per_band],
                )
                bucket = buckets.setdefault(key, [])
                bucket.append(rids[i])
                per_band_keys[band][i] = key
                row_buckets[band][i] = bucket

    row_keys = [tuple(keys) for keys in zip(*per_band_keys)] if n else []
    return BandGrouping(
        buckets=buckets,
        row_keys=row_keys,
        row_buckets=row_buckets,
        seconds=time.perf_counter() - started,
        band_columns=band_columns,
    )
