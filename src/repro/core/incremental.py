"""Online duplicate elimination under record inserts *and* deletes.

The paper solves DE as a batch problem; a serving system answers "which
group does this record join?" per arrival.  This module maintains the
full DE state — NN lists, exact nearest neighbors, neighborhood
memberships, the CSPairs relation, and memoized per-component group
extractions — under single-record :meth:`IncrementalDeduplicator.add`
and :meth:`IncrementalDeduplicator.remove`, with the invariant
(enforced by property tests and the ``incremental`` verify checks) that
the maintained solution equals a from-scratch batch run at every point.

Cost model (n = current size, K = cut-bounded list length):

- **insert** — O(n) distance evaluations to the existing records (each
  unordered pair at most once, pinned in a per-operation memo), then
  O(log K) list maintenance and O(1) amortized neighborhood updates per
  existing record: the exact nearest neighbor is maintained explicitly,
  so a shrinking radius only *truncates* the stored membership list —
  no rescans;
- **remove** — O(n) membership checks plus one O(n)-evaluation rebuild
  per record that *referenced* the removed record (its cut list or its
  exact NN), which is O(K) records on average;
- **partition** — CSPairs rows are patched only for records whose
  maintained entry changed since the last call; group extraction is
  re-run only for mutual-NN connected components whose rows changed
  (component independence is the PR 5 sharding argument), so a quiet
  arrival re-extracts nothing.

Corpus-dependent distances (IDF-weighted cosine, fms) are prepared
lazily on the first arrival; ``refit_every`` re-prepares them — and
rebuilds all maintained state under the new statistics — every that
many operations, which bounds IDF drift (``refit_every=1`` gives exact
batch parity at every point, at batch cost).  Candidate generation can
be delegated to a persistent MinHash postings index
(:class:`repro.index.postings.PersistentMinHashPostings`) via
``candidates=``; that trades the exactness guarantee for per-insert
cost proportional to the candidate set, exactly like the approximate
batch indexes.
"""

from __future__ import annotations

import time
import warnings
from bisect import insort
from dataclasses import dataclass

from repro.core.cspairs import (
    CSPair,
    max_pair_size,
    nn_list_limit,
    prefix_equal_flags,
)
from repro.core.formulation import CombinedCut, DEParams, SizeCut
from repro.core.neighborhood import NNEntry, NNRelation
from repro.core.partitioner import extract_component_groups, mutual_components
from repro.core.result import Partition
from repro.data.schema import Record, Relation
from repro.distances.base import CachedDistance, DistanceFunction
from repro.index.base import Neighbor

__all__ = ["IncrementalDeduplicator", "OpStats", "RepairStats"]


@dataclass(frozen=True)
class OpStats:
    """Telemetry for one ``add`` / ``remove`` operation."""

    op: str
    rid: int
    #: Relation size after the operation.
    n: int
    #: Distinct unordered pairs evaluated (the per-operation memo size);
    #: no pair is ever evaluated twice within one operation, bounded
    #: cache or not.
    pinned_pairs: int
    #: Distance calls forwarded past the per-operation memo.
    distance_calls: int
    #: Inner (uncached) distance computations during the operation.
    cache_misses: int
    #: Entries rebuilt by a full scan (removals only).
    rebuilt: int
    #: Entries whose maintained Phase-1 state changed.
    dirty: int
    seconds: float


@dataclass(frozen=True)
class RepairStats:
    """Telemetry for one incremental :meth:`partition` repair."""

    n_pairs: int
    n_components: int
    #: Components re-extracted because their CSPairs rows changed.
    components_repaired: int
    #: Components whose cached group extraction was reused verbatim.
    components_reused: int
    seconds: float


class IncrementalDeduplicator:
    """Maintains the DE solution for a live relation.

    Parameters
    ----------
    distance:
        The tuple distance.  Corpus statistics are collected lazily on
        the first arrival (or against ``seed`` when given) and refreshed
        per ``refit_every``.  Wrapped in an unbounded
        :class:`~repro.distances.base.CachedDistance` unless one is
        supplied; a *bounded* cache is detected and warned about — the
        per-operation memo still pins each operation's working set, so
        no pair is evaluated twice within one insert or remove, but
        cross-operation re-probes of evicted pairs recompute.
    params:
        The DE parameters (all three cut specifications supported).
    seed:
        Optional initial relation to load in bulk.
    refit_every:
        Re-prepare the distance on the live relation (and rebuild all
        maintained state) every this many operations; ``None`` (the
        default) freezes the statistics collected at the first arrival.
    candidates:
        Optional persistent candidate index (duck-typed: ``add(record)``
        / ``remove(rid)`` / ``candidates(record) -> list[int]`` /
        ``__contains__`` — rids already present, i.e. warm-restored
        from a postings log, are not re-added).  When
        given, arrivals only evaluate distances to surfaced candidates —
        approximate, like the batch MinHash index; leave ``None`` for
        the exact-parity guarantee.
    max_cache_entries:
        Bound for the internally created distance cache (``None`` =
        unbounded).  Long-lived sessions should bound it: the pair cache
        otherwise grows O(n²).  Removals invalidate the removed record's
        cached pairs on unbounded caches (bounded ones age them out via
        eviction; rids are never reused, so stale pairs are
        unreachable either way).
    constraints, constraint_mode:
        Constraints (:mod:`repro.core.constraints`) the maintained
        solution must respect.  ``"postprocess"`` splits groups at
        :meth:`partition` only — parity with the batch postprocess
        mode.  ``"pushdown"`` (or ``"inline"``: they coincide online,
        where there is no planning phase) additionally filters
        forbidden pairs out of the maintained CSPairs relation as rows
        are patched — parity with the batch inline mode.  The NN scan
        is never pruned: per-arrival Phase 1 stays globally exact, so
        ``incremental-nn-parity`` holds in every mode.
    """

    def __init__(
        self,
        distance: DistanceFunction,
        params: DEParams,
        seed: Relation | None = None,
        schema: tuple[str, ...] = ("value",),
        *,
        refit_every: int | None = None,
        candidates=None,
        max_cache_entries: int | None = None,
        constraints=(),
        constraint_mode: str = "postprocess",
    ):
        if refit_every is not None and refit_every <= 0:
            raise ValueError("refit_every must be positive (or None)")
        if constraint_mode not in ("postprocess", "pushdown", "inline"):
            raise ValueError(
                f"unknown constraint mode {constraint_mode!r}; expected "
                "'postprocess', 'pushdown', or 'inline'"
            )
        self.params = params
        self.refit_every = refit_every
        self.candidates = candidates
        if isinstance(distance, CachedDistance):
            self.distance = distance
            if distance.max_entries is not None:
                warnings.warn(
                    "IncrementalDeduplicator received a bounded "
                    f"CachedDistance (max_entries={distance.max_entries}); "
                    "each operation's working set is pinned in a "
                    "per-operation memo, but re-probes of evicted pairs "
                    "across operations will recompute distances",
                    stacklevel=2,
                )
        else:
            self.distance = CachedDistance(distance, max_entries=max_cache_entries)
        self.relation = Relation(
            name=(seed.name if seed is not None else "incremental"),
            schema=(seed.schema if seed is not None else tuple(schema)),
        )
        from repro.core.constraints import (
            Constraint,
            PairFilter,
            constraint_from_dict,
        )

        self.constraints = tuple(
            c if isinstance(c, Constraint) else constraint_from_dict(c)
            for c in constraints
        )
        self.constraint_mode = constraint_mode
        #: Compiled conjunction (validates fields against the schema).
        self._pair_filter = (
            PairFilter(self.constraints, self.relation.schema)
            if self.constraints
            else None
        )
        #: rid -> cut-bounded NN list, exactly as Phase 1 would store it.
        self._neighbors: dict[int, list[Neighbor]] = {}
        #: rid -> exact nearest neighbor over *all* other records —
        #: maintained beyond the cut so theta-cut records with an empty
        #: list still know their radius (``None`` = no other records).
        self._true_nn: dict[int, Neighbor | None] = {}
        #: rid -> sorted members of the ``p * nn`` neighborhood (the
        #: records NG counts); ``ng = len(members) + 1``.
        self._nbhd: dict[int, list[Neighbor]] = {}
        self._ng: dict[int, int] = {}
        self._next_rid = 0
        # Incrementally maintained Phase-2 state.
        self._pairs: dict[tuple[int, int], CSPair] = {}
        self._pair_keys: dict[int, set[tuple[int, int]]] = {}
        self._dirty: set[int] = set()
        self._component_groups: dict[tuple, tuple[tuple[int, ...], ...]] = {}
        self._partition_cache: Partition | None = None
        # Lazy-prepare / refit bookkeeping (the no-seed construction
        # used to skip prepare() entirely, scoring IDF metrics against
        # an empty corpus).
        self._prepared = False
        self._ops_since_refit = 0
        #: Number of distance re-preparations performed (telemetry).
        self.refits = 0
        #: Telemetry of the latest operation / partition repair.
        self.last_op: OpStats | None = None
        self.last_repair: RepairStats | None = None
        # Per-operation pair memo (satellite of the bounded-cache fix).
        self._op_memo: dict[tuple[int, int], float] = {}
        self._op_calls = 0
        self._op_marked: set[int] = set()
        if seed is not None:
            # Seed records are re-added under rids 0..n-1, and corpus
            # statistics (cosine token vectors, fms weights) are keyed
            # by rid: prepare on the renumbered seed, not the original.
            renumbered = Relation(
                name=seed.name,
                schema=seed.schema,
                records=[
                    Record(rid, record.fields)
                    for rid, record in enumerate(seed)
                ],
            )
            self.distance.prepare(renumbered)
            self._prepared = True
            for record in renumbered:
                self.add(record.fields)

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    def add(self, fields: tuple[str, ...] | list[str]) -> int:
        """Insert a record; returns its assigned id."""
        start = time.perf_counter()
        rid = self._next_rid
        self._next_rid += 1
        record = Record(rid, tuple(fields))
        self.relation.add(record)
        # A rid the candidate index already holds is a warm-restart
        # replay: its persisted signature is reused, not recomputed.
        if self.candidates is not None and rid not in self.candidates:
            self.candidates.add(record)
        self._begin_op()
        if not self._prepared or self._refit_due():
            self._refit()
        else:
            self._apply_insert(record)
        self._ops_since_refit += 1
        self._finish_op("add", rid, start)
        return rid

    def remove(self, rid: int) -> None:
        """Delete a record, with bounded recomputation.

        Only records that *referenced* the removed record — it sat in
        their cut-bounded NN list, or it was their exact nearest
        neighbor (the radius-defining record) — are rebuilt by a scan;
        every other record at most loses the removed record from its
        neighborhood membership, an O(|neighborhood|) patch with no
        distance evaluations at all.  Raises :class:`KeyError` for an
        unknown id.
        """
        start = time.perf_counter()
        self.relation.get(rid)  # KeyError before any state is touched
        self._begin_op()
        self.relation.remove(rid)
        if self.candidates is not None:
            self.candidates.remove(rid)
        rebuilds: list[int] = []
        if self._refit_due():
            self._drop_entry_state(rid)
            self._refit()
        else:
            for other in self.relation:
                orid = other.rid
                if any(nb.rid == rid for nb in self._neighbors[orid]):
                    rebuilds.append(orid)
                    continue
                t = self._true_nn[orid]
                if t is not None and t.rid == rid:
                    rebuilds.append(orid)
                    continue
                nbh = self._nbhd[orid]
                kept = [m for m in nbh if m.rid != rid]
                if len(kept) != len(nbh):
                    self._nbhd[orid] = kept
                    self._ng[orid] = len(kept) + 1
                    self._mark_dirty(orid)
            self._drop_entry_state(rid)
            # Rids are never reused, so a removed record's cached pairs
            # can never be probed again — invalidation exists purely to
            # stop unbounded growth across a long session.  A bounded
            # cache already handles that via eviction; skipping the
            # full-cache sweep keeps removals O(n).
            if (
                isinstance(self.distance, CachedDistance)
                and self.distance.max_entries is None
            ):
                self.distance.invalidate_rid(rid)
            for orid in rebuilds:
                self._rebuild_entry(self.relation.get(orid))
        self._ops_since_refit += 1
        self._finish_op("remove", rid, start, rebuilt=len(rebuilds))

    def refit(self) -> None:
        """Re-prepare the distance on the live relation and rebuild.

        The explicit IDF-drift valve: corpus statistics frozen at the
        first arrival eventually misweight tokens as the relation
        evolves.  Also runs automatically per ``refit_every``.
        """
        start = time.perf_counter()
        self._begin_op()
        self._refit()
        self._finish_op("refit", -1, start)

    # ------------------------------------------------------------------
    # Insert path
    # ------------------------------------------------------------------

    def _apply_insert(self, record: Record) -> None:
        rid = record.rid
        p = self.params.p
        targets = self._scan_targets(record)
        hits = sorted(Neighbor(self._d(record, o), o.rid) for o in targets)
        self._neighbors[rid] = self._bound_list(hits)
        nn, members = self._neighborhood(hits)
        self._true_nn[rid] = nn
        self._nbhd[rid] = members
        self._ng[rid] = len(members) + 1
        self._mark_dirty(rid)

        for other in targets:
            orid = other.rid
            d = self._d(record, other)  # pinned: free re-probe
            changed = False
            # Cut-bounded NN list: insert if admitted, re-bound.  The
            # newcomer survives the bound unless it ties the size-cut
            # boundary (its id is the largest, so it sorts last).
            if self._admits(orid, d):
                lst = self._neighbors[orid]
                insort(lst, Neighbor(d, rid))
                lst = self._bound_list(lst)
                self._neighbors[orid] = lst
                changed = any(nb.rid == rid for nb in lst)
            # Exact NN and neighborhood membership.  The radius can only
            # shrink on insert, so the stored membership list is
            # re-filtered — never rescanned.
            cand = Neighbor(d, rid)
            t_old = self._true_nn[orid]
            old_members = self._nbhd[orid]
            if t_old is None or cand < t_old:
                t_new = cand
                if d == 0.0:
                    members = [m for m in old_members if m.distance == 0.0]
                else:
                    cutoff = p * d
                    members = [m for m in old_members if m.distance < cutoff]
            else:
                t_new = t_old
                members = old_members
            # Does the newcomer itself land in the (possibly shrunk)
            # neighborhood?  Zero radius counts exact co-locations.
            if (d == 0.0) if t_new.distance == 0.0 else (d < p * t_new.distance):
                if members is old_members:
                    members = list(old_members)
                insort(members, cand)
            self._true_nn[orid] = t_new
            if members is not old_members:
                self._nbhd[orid] = members
            ng = len(members) + 1
            if ng != self._ng[orid]:
                self._ng[orid] = ng
                changed = True
            if changed:
                self._mark_dirty(orid)

    # ------------------------------------------------------------------
    # Shared state builders
    # ------------------------------------------------------------------

    def _d(self, a: Record, b: Record) -> float:
        """Pair distance through the per-operation memo.

        Guarantees each unordered pair is evaluated at most once per
        operation even when the underlying cache is bounded and has
        evicted the pair (the documented free-re-probe promise).
        """
        key = (a.rid, b.rid) if a.rid < b.rid else (b.rid, a.rid)
        value = self._op_memo.get(key)
        if value is None:
            value = self.distance.distance(a, b)
            self._op_memo[key] = value
            self._op_calls += 1
        return value

    def _scan_targets(self, record: Record) -> list[Record]:
        """The records an arrival is compared against."""
        if self.candidates is None:
            return [o for o in self.relation if o.rid != record.rid]
        surfaced = self.candidates.candidates(record)
        return [
            self.relation.get(rid)
            for rid in surfaced
            if rid != record.rid and rid in self.relation
        ]

    def _scan_hits(self, record: Record) -> list[Neighbor]:
        return sorted(
            Neighbor(self._d(record, o), o.rid) for o in self._scan_targets(record)
        )

    def _neighborhood(
        self, hits: list[Neighbor]
    ) -> tuple[Neighbor | None, list[Neighbor]]:
        """Exact NN and neighborhood members from a full sorted scan."""
        if not hits:
            return None, []
        nn = hits[0]
        if nn.distance == 0.0:
            members = [h for h in hits if h.distance == 0.0]
        else:
            cutoff = self.params.p * nn.distance
            members = [h for h in hits if h.distance < cutoff]
        return nn, members

    def _rebuild_entry(self, record: Record) -> None:
        """Recompute one record's entry by scan (removal repair path)."""
        rid = record.rid
        hits = self._scan_hits(record)
        lst = self._bound_list(hits)
        nn, members = self._neighborhood(hits)
        ng = len(members) + 1
        if lst != self._neighbors[rid] or ng != self._ng[rid]:
            self._mark_dirty(rid)
        self._neighbors[rid] = lst
        self._true_nn[rid] = nn
        self._nbhd[rid] = members
        self._ng[rid] = ng

    def _admits(self, rid: int, d: float) -> bool:
        """Whether a new neighbor at distance ``d`` belongs in rid's list."""
        current = self._neighbors[rid]
        if isinstance(self.params.cut, CombinedCut) and not d < self.params.theta:
            return False
        if isinstance(self.params.cut, (SizeCut, CombinedCut)):
            if len(current) < self.params.cut.k:
                return True
            return d <= current[-1].distance  # ties: id order decides later
        return d < self.params.theta

    def _bound_list(self, hits: list[Neighbor]) -> list[Neighbor]:
        if isinstance(self.params.cut, SizeCut):
            return hits[: self.params.cut.k]
        if isinstance(self.params.cut, CombinedCut):
            within = [h for h in hits if h.distance < self.params.theta]
            return within[: self.params.cut.k]
        return [h for h in hits if h.distance < self.params.theta]

    # ------------------------------------------------------------------
    # Refit / lazy preparation
    # ------------------------------------------------------------------

    def _refit_due(self) -> bool:
        return (
            self.refit_every is not None
            and self._ops_since_refit >= self.refit_every
        )

    def _refit(self) -> None:
        """Prepare the distance on the live relation, rebuild all state."""
        self.distance.prepare(self.relation)
        self._prepared = True
        self._ops_since_refit = 0
        self.refits += 1
        self._op_memo.clear()  # stale under the new corpus statistics
        self._neighbors.clear()
        self._true_nn.clear()
        self._nbhd.clear()
        self._ng.clear()
        for record in self.relation:
            hits = self._scan_hits(record)
            self._neighbors[record.rid] = self._bound_list(hits)
            nn, members = self._neighborhood(hits)
            self._true_nn[record.rid] = nn
            self._nbhd[record.rid] = members
            self._ng[record.rid] = len(members) + 1
        # Every pair is potentially stale under the new statistics.
        self._pairs.clear()
        self._pair_keys.clear()
        self._dirty = set(self._neighbors)
        self._op_marked.update(self._neighbors)
        self._partition_cache = None

    # ------------------------------------------------------------------
    # Incremental Phase 2
    # ------------------------------------------------------------------

    def _mark_dirty(self, rid: int) -> None:
        self._dirty.add(rid)
        self._op_marked.add(rid)
        self._partition_cache = None

    def _drop_entry_state(self, rid: int) -> None:
        """Forget one record's Phase-1 entry and its CSPairs rows."""
        self._neighbors.pop(rid, None)
        self._true_nn.pop(rid, None)
        self._nbhd.pop(rid, None)
        self._ng.pop(rid, None)
        self._dirty.discard(rid)
        for key in self._pair_keys.pop(rid, set()):
            if self._pairs.pop(key, None) is not None:
                other = key[0] if key[1] == rid else key[1]
                keys = self._pair_keys.get(other)
                if keys is not None:
                    keys.discard(key)
        self._partition_cache = None

    def _refresh_pairs(self) -> None:
        """Patch the maintained CSPairs relation for all dirty entries.

        A CSPairs row depends only on its two endpoints' cut lists and
        NGs, so rows with no dirty endpoint are reused verbatim.  For a
        dirty record, every row it anchors or partners is dropped and
        rebuilt from its (new) cut list with the same mutuality /
        flag-prefix logic as the batch builder — bit-identical rows by
        construction.
        """
        params = self.params
        # The online analogue of the batch inline mode: forbidden pairs
        # never enter the maintained CSPairs relation.  Postprocess mode
        # keeps them (parity with the paper-exact batch reference).
        pair_filter = (
            self._pair_filter
            if self.constraint_mode in ("pushdown", "inline")
            else None
        )
        for rid in list(self._dirty):
            for key in self._pair_keys.pop(rid, set()):
                if self._pairs.pop(key, None) is not None:
                    other = key[0] if key[1] == rid else key[1]
                    keys = self._pair_keys.get(other)
                    if keys is not None:
                        keys.discard(key)
        for rid in self._dirty:
            lst = self._neighbors.get(rid)
            if lst is None:
                continue
            limit = nn_list_limit(params, len(lst))
            for nb in lst[:limit]:
                orid = nb.rid
                olist = self._neighbors.get(orid)
                if olist is None:
                    continue
                olimit = nn_list_limit(params, len(olist))
                if not any(o.rid == rid for o in olist[:olimit]):
                    continue  # not mutual
                id1, id2 = (rid, orid) if rid < orid else (orid, rid)
                key = (id1, id2)
                if key in self._pairs:
                    continue  # both endpoints dirty: already rebuilt
                if pair_filter is not None and not pair_filter(
                    self.relation.get(id1), self.relation.get(id2)
                ):
                    continue
                l1, l2 = self._neighbors[id1], self._neighbors[id2]
                flags = prefix_equal_flags(
                    id1,
                    tuple(n.rid for n in l1),
                    id2,
                    tuple(n.rid for n in l2),
                    max_pair_size(len(l1), len(l2), params),
                )
                self._pairs[key] = CSPair(
                    id1=id1,
                    id2=id2,
                    ng1=self._ng[id1],
                    ng2=self._ng[id2],
                    flags=flags,
                )
                self._pair_keys.setdefault(id1, set()).add(key)
                self._pair_keys.setdefault(id2, set()).add(key)
        self._dirty.clear()

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def nn_relation(self) -> NNRelation:
        """Materialize the maintained Phase-1 state as an NN relation."""
        nn = NNRelation()
        for rid in sorted(self._neighbors):
            nn.add(
                NNEntry(
                    rid=rid,
                    neighbors=tuple(self._neighbors[rid]),
                    ng=self._ng[rid],
                )
            )
        return nn

    def cs_pairs(self) -> list[CSPair]:
        """The maintained CSPairs relation, sorted by ``(id1, id2)``."""
        self._refresh_pairs()
        return sorted(self._pairs.values(), key=lambda pair: (pair.id1, pair.id2))

    def partition(self) -> Partition:
        """The DE solution over the live relation.

        Incremental: CSPairs rows are patched for dirty entries only,
        and group extraction re-runs only for mutual-NN components whose
        rows changed; unchanged components reuse their cached groups
        (exact — extraction is a pure function of a component's rows).
        """
        if self._partition_cache is not None:
            return self._partition_cache
        start = time.perf_counter()
        rows = self.cs_pairs()
        components = mutual_components(rows)
        groups: list[list[int]] = []
        memo: dict[tuple, tuple[tuple[int, ...], ...]] = {}
        repaired = 0
        for component in components:
            key = tuple(component)
            cached = self._component_groups.get(key)
            if cached is None:
                cached = tuple(
                    tuple(group)
                    for group in extract_component_groups(component, self.params)
                )
                repaired += 1
            memo[key] = cached
            groups.extend(list(group) for group in cached)
        self._component_groups = memo
        assigned = {rid for group in groups for rid in group}
        singles = [[rid] for rid in self.relation.ids() if rid not in assigned]
        partition = Partition.from_groups(groups + singles)
        if self._pair_filter is not None:
            # The unconditional zero-violation split — identical to the
            # batch postprocess stage, so checksum parity holds.
            from repro.core.predicates import apply_constraining_predicate

            partition = apply_constraining_predicate(
                partition, self.relation, self._pair_filter.forbids
            )
        self.last_repair = RepairStats(
            n_pairs=len(rows),
            n_components=len(components),
            components_repaired=repaired,
            components_reused=len(components) - repaired,
            seconds=time.perf_counter() - start,
        )
        self._partition_cache = partition
        return partition

    def __len__(self) -> int:
        return len(self.relation)

    # ------------------------------------------------------------------
    # Per-operation bookkeeping
    # ------------------------------------------------------------------

    def _begin_op(self) -> None:
        self._op_memo.clear()
        self._op_calls = 0
        self._op_marked = set()
        self._op_miss_base = self.distance.misses

    def _finish_op(self, op: str, rid: int, start: float, rebuilt: int = 0) -> None:
        self.last_op = OpStats(
            op=op,
            rid=rid,
            n=len(self.relation),
            pinned_pairs=len(self._op_memo),
            distance_calls=self._op_calls,
            cache_misses=self.distance.misses - self._op_miss_base,
            rebuilt=rebuilt,
            dirty=len(self._op_marked),
            seconds=time.perf_counter() - start,
        )
