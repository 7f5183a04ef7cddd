"""Columnar (CSR + CSC) token-vector storage for one relation chunk.

``ColumnarVectors`` holds every record's sparse token vector in three
contiguous arrays — ``indptr`` / ``indices`` / ``values`` — built once
from per-record token lists.  Rows are ordered by ascending record id;
the vocabulary is the *sorted* token universe, so ascending vocabulary
index is exactly ascending token string.  That invariant is what makes
the kernels bit-identical to the scalar merge-join paths:
``similarity_row`` accumulates each dot product with ``np.bincount``,
whose C loop adds contributions sequentially in concatenation order =
ascending token order = the order the scalar merge-join uses.

    rids:    [r0, r1, ...]                       (ascending)
    indptr:  [0, nnz(r0), nnz(r0)+nnz(r1), ...]  row boundaries
    indices: vocab indices, ascending inside each row
    values:  tf-idf weights aligned with indices (None for set kernels)

A CSC view (``postings``) is derived lazily for the column-gather step;
within each posting, rows appear in ascending order (stable argsort of
a row-major scan).

Being plain numpy arrays, instances also cross process-pool boundaries
as flat buffers instead of per-record dicts.
"""

from __future__ import annotations

from collections.abc import Sequence

from .compat import require_numpy

__all__ = ["ColumnarVectors"]


class ColumnarVectors:
    """CSR token matrix over a relation chunk, with lazy CSC postings."""

    def __init__(
        self,
        rids: Sequence[int],
        tokens_per_record: Sequence[Sequence[str]],
        weights_per_record: Sequence[Sequence[float]] | None = None,
    ) -> None:
        np = require_numpy()
        self._np = np
        if list(rids) != sorted(rids):
            raise ValueError("rids must be ascending")
        self.rid_list = [int(r) for r in rids]
        self.rids = np.asarray(self.rid_list, dtype=np.int64)
        self.row_of = {rid: i for i, rid in enumerate(self.rid_list)}

        vocab = sorted({t for tokens in tokens_per_record for t in tokens})
        self.vocab_index = {t: i for i, t in enumerate(vocab)}
        self.n_vocab = len(vocab)

        indptr = np.zeros(len(self.rid_list) + 1, dtype=np.int64)
        flat_indices: list[int] = []
        flat_values: list[float] | None = (
            [] if weights_per_record is not None else None
        )
        for i, tokens in enumerate(tokens_per_record):
            cols = sorted(self.vocab_index[t] for t in tokens)
            flat_indices.extend(cols)
            indptr[i + 1] = len(flat_indices)
            if flat_values is not None:
                # Re-sort weights alongside their (string-sorted) tokens;
                # vocab index order coincides with token string order.
                pairs = sorted(
                    zip(
                        (self.vocab_index[t] for t in tokens),
                        weights_per_record[i],
                    )
                )
                flat_values.extend(w for _, w in pairs)
        self.indptr = indptr
        self.indices = np.asarray(flat_indices, dtype=np.int64)
        self.values = (
            np.asarray(flat_values, dtype=np.float64)
            if flat_values is not None
            else None
        )
        self.row_sizes = np.diff(indptr)
        self._pindptr = None
        self._prows = None
        self._pvals = None
        self._rid_table = None
        self._rid_table_built = False
        self._entry_keys = None

    def __len__(self) -> int:
        return len(self.rid_list)

    def __contains__(self, rid: int) -> bool:
        return rid in self.row_of

    def rid_row_table(self):
        """Dense ``rid → row`` int64 table (``-1`` marks absent rids).

        Built lazily; ``None`` when the rid space is too sparse for a
        dense table to be worth its memory (callers then fall back to
        the ``row_of`` dict).
        """
        if not self._rid_table_built:
            np = self._np
            if len(self.rid_list):
                lo = int(self.rids[0])
                hi = int(self.rids[-1])
                if lo >= 0 and hi <= 4 * len(self.rid_list) + 1024:
                    table = np.full(hi + 1, -1, dtype=np.int64)
                    table[self.rids] = np.arange(
                        len(self.rid_list), dtype=np.int64
                    )
                    self._rid_table = table
            self._rid_table_built = True
        return self._rid_table

    def resolve_rows(self, rids):
        """Vectorized ``rid → row`` mapping for a candidate array.

        Returns an int64 row array aligned with ``rids``, or ``None``
        when any rid is not indexed — one bulk table gather instead of
        a python dict lookup per candidate.
        """
        np = self._np
        arr = np.asarray(rids, dtype=np.int64)
        if len(arr) == 0:
            return arr
        table = self.rid_row_table()
        if table is None:
            row_of = self.row_of
            rows = np.empty(len(arr), dtype=np.int64)
            for k, rid in enumerate(arr.tolist()):
                row = row_of.get(rid)
                if row is None:
                    return None
                rows[k] = row
            return rows
        if int(arr.min()) < 0 or int(arr.max()) >= len(table):
            return None
        rows = table[arr]
        if rows.min() < 0:
            return None
        return rows

    def pair_matches(self, rows_a, rows_b):
        """One global CSR gather matching ``rows_b``'s tokens into ``rows_a``.

        For pairs ``(rows_a[j], rows_b[j])`` returns ``(seg, flat,
        match)`` over the concatenation of every ``rows_b[j]`` CSR
        segment: ``seg`` is the entry's pair index ``j``, ``flat`` its
        position in ``indices``/``values``, and ``match`` the position of
        the same token in row ``rows_a[j]`` (``-1`` when absent).  Each
        pair's entries stay in ascending token order — the order the
        per-query subset gather and the scalar merge-join use.  Lookups
        go through one sorted ``row * n_vocab + token`` key per stored
        entry, so the whole block is a single ``searchsorted``.
        """
        np = self._np
        if self._entry_keys is None:
            rows = np.repeat(
                np.arange(len(self.rid_list), dtype=np.int64), self.row_sizes
            )
            self._entry_keys = rows * max(1, self.n_vocab) + self.indices
        keys = self._entry_keys
        starts = self.indptr[rows_b]
        lengths = self.indptr[rows_b + 1] - starts
        total = int(lengths.sum())
        seg = np.repeat(np.arange(len(rows_b), dtype=np.int64), lengths)
        offs = np.cumsum(lengths) - lengths
        flat = (
            np.arange(total, dtype=np.int64)
            - np.repeat(offs, lengths)
            + np.repeat(starts, lengths)
        )
        probe = rows_a[seg] * max(1, self.n_vocab) + self.indices[flat]
        match = np.searchsorted(keys, probe)
        # Probes past the last key clamp to 0; the equality test below
        # then fails, as it must.
        match[match == len(keys)] = 0
        if total:
            match[keys[match] != probe] = -1
        return seg, flat, match

    def postings(self):
        """CSC view ``(pindptr, prows, pvals)``; built on first use."""
        if self._pindptr is None:
            np = self._np
            pindptr = np.zeros(self.n_vocab + 1, dtype=np.int64)
            if len(self.indices):
                counts = np.bincount(self.indices, minlength=self.n_vocab)
                np.cumsum(counts, out=pindptr[1:])
                # Stable sort of a row-major scan: rows stay ascending
                # inside every posting list.
                order = np.argsort(self.indices, kind="stable")
                rows = np.repeat(
                    np.arange(len(self.rid_list), dtype=np.int64),
                    self.row_sizes,
                )
                self._prows = rows[order]
                self._pvals = (
                    self.values[order] if self.values is not None else None
                )
            else:
                self._prows = np.empty(0, dtype=np.int64)
                self._pvals = (
                    np.empty(0, dtype=np.float64)
                    if self.values is not None
                    else None
                )
            self._pindptr = pindptr
        return self._pindptr, self._prows, self._pvals

    def dot_row(self, i: int):
        """Weighted dot products of row ``i`` against every row.

        Gathers the posting segment of each query token in ascending
        token order and accumulates with ``np.bincount`` — additions
        land on each target row in the same order the scalar merge-join
        would apply them.
        """
        np = self._np
        pindptr, prows, pvals = self.postings()
        start, end = int(self.indptr[i]), int(self.indptr[i + 1])
        if start == end:
            return np.zeros(len(self.rid_list), dtype=np.float64)
        cols = self.indices[start:end]
        qw = self.values[start:end]
        row_chunks = []
        val_chunks = []
        for k in range(len(cols)):
            c = int(cols[k])
            s, e = int(pindptr[c]), int(pindptr[c + 1])
            row_chunks.append(prows[s:e])
            val_chunks.append(pvals[s:e] * qw[k])
        return np.bincount(
            np.concatenate(row_chunks),
            weights=np.concatenate(val_chunks),
            minlength=len(self.rid_list),
        )

    def intersection_row(self, i: int):
        """Integer set-intersection sizes of row ``i`` vs every row."""
        np = self._np
        pindptr, prows, _ = self.postings()
        start, end = int(self.indptr[i]), int(self.indptr[i + 1])
        if start == end:
            return np.zeros(len(self.rid_list), dtype=np.int64)
        cols = self.indices[start:end]
        row_chunks = [
            prows[int(pindptr[int(c)]) : int(pindptr[int(c) + 1])] for c in cols
        ]
        return np.bincount(
            np.concatenate(row_chunks), minlength=len(self.rid_list)
        )
