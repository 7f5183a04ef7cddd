"""Batched candidate generation across the approximate indexes.

The contracts under test, per index (MinHash LSH, q-gram inverted,
BK-tree, LAESA pivot):

- ``knn_batch`` / ``within_batch`` / ``phase1_batch`` are
  result-identical to per-query calls on a fresh index;
- the parallel engine reproduces the sequential NN relation checksum
  for any worker count;
- Phase-1 ``evaluations`` strictly drop vs. the brute-force baseline,
  and the new pruning counters (``candidates_generated`` /
  ``evaluations_pruned`` / per-index attribution) are filled;
- the MinHash index signs and buckets records exactly once per build;
- the per-query path consults a primed pair cache (the recorded
  ``cache_hit_rate = 0.0`` regression).
"""

from __future__ import annotations

import pytest

from repro.core.formulation import DEParams
from repro.core.nn_phase import Phase1Stats, prepare_nn_lists
from repro.data.loaders import load_dataset
from repro.data.schema import Record
from repro.distances.edit import EditDistance
from repro.distances.kernels import have_numpy
from repro.eval.bench_phase1 import nn_checksum
from repro.index.bktree import BKTreeIndex
from repro.index.bruteforce import BruteForceIndex
from repro.index.inverted import QgramInvertedIndex
from repro.index.minhash import MinHashIndex, band_keys, minhash_signature
from repro.index.pivot import PivotIndex
from repro.parallel.engine import ParallelNNEngine

APPROX_FACTORIES = [
    ("minhash", MinHashIndex),
    ("qgram", QgramInvertedIndex),
    ("bktree", BKTreeIndex),
    ("pivot", PivotIndex),
]

K = 3
THETA = 0.42
PARAMS = DEParams.size(K, c=4.0)


@pytest.fixture(scope="module")
def relation():
    # Seed-fixed tiny org dataset; edit distance suits all four indexes
    # (the BK-tree accepts nothing else).
    return load_dataset(
        "org", n_entities=30, duplicate_fraction=0.4, seed=7
    ).relation


def build(factory, relation):
    index = factory()
    index.build(relation, EditDistance())
    return index


#: MinHash index builds: ``python`` keeps the bucket dicts, ``numpy``
#: the integer band columns.
KERNELS = ["python"] + (["numpy"] if have_numpy() else [])


def build_minhash(relation, kernel):
    index = MinHashIndex()
    index.enable_kernel(kernel)
    index.build(relation, EditDistance())
    return index


def band_state(index) -> list[list[list[int]]]:
    """Per band, every bucket's member rids (relation order), read from
    whichever form the build kept."""
    if index._band_columns is None:
        return [
            [members for (band, _), members in index._buckets.items() if band == b]
            for b in range(index.n_bands)
        ]
    rids = index._rid_array
    return [
        [
            rids[order[bounds[g] : bounds[g + 1]]].tolist()
            for g in range(len(bounds) - 1)
        ]
        for order, bounds, _ in index._band_columns
    ]


def scalar_candidates(index, relation, probe) -> list[int]:
    """Relation rids sharing a scalar ``band_keys`` bucket with ``probe``."""

    def keys_of(record):
        signature = minhash_signature(set(index._elements(record)), index.n_hashes)
        return set(band_keys(signature, index.n_bands))

    probe_keys = keys_of(probe)
    return sorted(
        record.rid
        for record in relation
        if record.rid != probe.rid and keys_of(record) & probe_keys
    )


class TestBatchPerQueryParity:
    """Batch answers must be bit-identical to per-query answers."""

    @pytest.mark.parametrize("name,factory", APPROX_FACTORIES)
    def test_knn_batch(self, name, factory, relation):
        records = relation.records
        got = build(factory, relation).knn_batch(records, K)
        plain = build(factory, relation)
        assert got == [plain.knn(record, K) for record in records]

    @pytest.mark.parametrize("name,factory", APPROX_FACTORIES)
    def test_within_batch(self, name, factory, relation):
        records = relation.records
        got = build(factory, relation).within_batch(records, THETA)
        plain = build(factory, relation)
        assert got == [plain.within(record, THETA) for record in records]

    @pytest.mark.parametrize("name,factory", APPROX_FACTORIES)
    @pytest.mark.parametrize(
        "k,theta", [(K, None), (None, THETA), (K, THETA)]
    )
    def test_phase1_batch(self, name, factory, relation, k, theta):
        records = relation.records
        got = build(factory, relation).phase1_batch(records, k=k, theta=theta)
        plain = build(factory, relation)
        want = []
        for record in records:
            if theta is not None:
                neighbors = plain.within(record, theta)
                if k is not None:
                    neighbors = neighbors[:k]
            else:
                neighbors = plain.knn(record, k)
            nn_distance = neighbors[0].distance if neighbors else None
            want.append(
                (neighbors, plain.neighborhood_growth(record, nn_distance=nn_distance))
            )
        assert got == want

    @pytest.mark.parametrize(
        "name,factory",
        [
            ("minhash", MinHashIndex),
            # Fast path off: the banded-DP filter re-runs cheap partial
            # DPs per cutoff instead of caching full distances, so the
            # once-per-pair bound only holds on the _pair_distance route.
            ("qgram", lambda: QgramInvertedIndex(enable_fast_path=False)),
            ("bktree", BKTreeIndex),
            ("pivot", PivotIndex),
        ],
    )
    def test_batch_reuses_pairs(self, name, factory, relation):
        """Inside one batch no unordered pair is evaluated twice."""
        index = build(factory, relation)
        index.phase1_batch(relation.records, k=K, theta=THETA)
        n = len(relation)
        assert index.evaluations <= n * (n - 1) // 2 + index.build_evaluations


class TestEngineParity:
    """Chunked parallel execution reproduces the sequential result."""

    @pytest.mark.parametrize("name,factory", APPROX_FACTORIES)
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_worker_count_invariance(self, name, factory, relation, n_workers):
        sequential = prepare_nn_lists(
            relation, build(factory, relation), PARAMS, order="sequential"
        )
        engine = ParallelNNEngine(n_workers=n_workers, pool="thread")
        parallel = engine.run(
            relation, build(factory, relation), PARAMS, order="sequential"
        )
        assert nn_checksum(parallel) == nn_checksum(sequential)

    def test_process_pool_roundtrip(self, relation):
        """The index (incl. its batch lock) survives pickling to workers."""
        sequential = prepare_nn_lists(
            relation, build(MinHashIndex, relation), PARAMS, order="sequential"
        )
        engine = ParallelNNEngine(n_workers=2, pool="process", chunk_size=11)
        parallel = engine.run(
            relation, build(MinHashIndex, relation), PARAMS, order="sequential"
        )
        assert nn_checksum(parallel) == nn_checksum(sequential)


class TestPruningAccounting:
    """The sub-quadratic lever is visible in Phase1Stats."""

    def run_stats(self, factory, relation):
        stats = Phase1Stats()
        index = build(factory, relation)
        engine = ParallelNNEngine(n_workers=1)
        engine.run(relation, index, PARAMS, order="sequential", stats=stats)
        return index, stats

    @pytest.mark.parametrize("name,factory", APPROX_FACTORIES)
    def test_evaluations_drop_vs_brute(self, name, factory, relation):
        brute_stats = Phase1Stats()
        prepare_nn_lists(
            relation,
            build(BruteForceIndex, relation),
            PARAMS,
            order="sequential",
            stats=brute_stats,
        )
        index, stats = self.run_stats(factory, relation)
        total = stats.evaluations + index.build_evaluations
        assert total < brute_stats.evaluations

    @pytest.mark.parametrize("name,factory", APPROX_FACTORIES)
    def test_counters_filled_and_credited(self, name, factory, relation):
        index, stats = self.run_stats(factory, relation)
        assert stats.candidates_generated > 0
        assert stats.evaluations_pruned > 0
        assert 0.0 < stats.prune_rate <= 1.0
        row = stats.by_index[index.name]
        assert row["lookups"] == len(relation)
        assert row["evaluations"] == stats.evaluations
        assert row["candidates_generated"] == stats.candidates_generated
        assert row["evaluations_pruned"] == stats.evaluations_pruned

    def test_brute_force_never_prunes(self, relation):
        _, stats = self.run_stats(BruteForceIndex, relation)
        assert stats.evaluations_pruned == 0
        assert stats.prune_rate == 0.0

    def test_sequential_path_credits_index(self, relation):
        stats = Phase1Stats()
        index = build(QgramInvertedIndex, relation)
        prepare_nn_lists(relation, index, PARAMS, order="sequential", stats=stats)
        row = stats.by_index[index.name]
        assert row["lookups"] == len(relation)
        assert row["evaluations_pruned"] == stats.evaluations_pruned > 0


class TestMinHashBuildOnce:
    """Signatures and band buckets are computed in _build, idempotently."""

    def test_rebuild_is_idempotent(self, relation):
        for kernel in KERNELS:
            index = build_minhash(relation, kernel)
            before = band_state(index)
            index.build(relation, EditDistance())
            after = band_state(index)
            assert after == before, kernel
            # A non-idempotent rebuild would double every bucket's
            # members: each band must still hold every row exactly once.
            for members in after:
                assert sorted(r for bucket in members for r in bucket) == sorted(
                    relation.ids()
                ), kernel

    def test_lookups_never_resign_in_relation_records(self, relation, monkeypatch):
        index = build(MinHashIndex, relation)
        record = relation.records[0]

        def boom(_record):
            raise AssertionError("lookup recomputed a signature")

        monkeypatch.setattr(index, "_signature", boom)
        index.knn(record, K)
        index.within(record, THETA)
        index.phase1_batch([record], k=K)

    def test_out_of_relation_probe_still_signs(self, relation):
        other = load_dataset(
            "org", n_entities=5, duplicate_fraction=0.0, seed=99
        ).relation
        # Foreign rids: a seed-99 relation reuses rids 0..n, which
        # would make its records in-relation probes.  An in-relation
        # text must find that record and its bucket mates; foreign
        # texts find whatever shares a band key with them.
        probes = [
            Record(10**6 + i, record.fields)
            for i, record in enumerate([relation.records[0], *other])
        ]
        for kernel in KERNELS:
            index = build_minhash(relation, kernel)
            for probe in probes:
                assert probe.rid not in index._row_of
                got = [int(rid) for rid in index._candidates(probe)]
                assert got == scalar_candidates(index, relation, probe), kernel
            assert relation.records[0].rid in [
                int(rid) for rid in index._candidates(probes[0])
            ]

class TestPerQueryCacheConsultation:
    """A primed pair cache serves the per-query path (hit-rate regression).

    ``BENCH_phase1.json`` once recorded ``cache_hit_rate = 0.0`` for
    every per-query run — correct for a cold index (per-query lookups
    consult but never fill the cache), yet the consultation itself must
    demonstrably work.
    """

    def test_primed_cache_serves_per_query_lookups(self, relation):
        index = build(BruteForceIndex, relation)
        index.prime_pairs(relation.records)
        stats = Phase1Stats()
        prepare_nn_lists(relation, index, PARAMS, order="sequential", stats=stats)
        assert stats.cache_hits > 0
        assert stats.cache_hit_rate > 0.9
        assert stats.evaluations == 0

    def test_cold_per_query_path_never_fills(self, relation):
        index = build(BruteForceIndex, relation)
        prepare_nn_lists(relation, index, PARAMS, order="sequential")
        assert index.cache_hits == 0
        assert not index._pair_cache
