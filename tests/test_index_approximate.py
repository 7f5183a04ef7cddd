"""Tests for the approximate indexes (q-gram inverted, MinHash)."""

import pytest

from repro.data.schema import Relation
from repro.distances.base import CachedDistance
from repro.distances.edit import EditDistance
from repro.distances.jaccard import TokenJaccardDistance
from repro.index.bruteforce import BruteForceIndex
from repro.index.inverted import QgramInvertedIndex
from repro.distances.kernels import have_numpy
from repro.distances.tokens import tokenize
from repro.index.minhash import MinHashIndex, band_keys, minhash_signature
from repro.storage.buffer import BufferPool
from repro.storage.pages import DiskManager

NAMES = [
    "cascade systems corporation",
    "cascade systems corp",
    "summit logistics incorporated",
    "summit logistic incorporated",
    "pioneer foods company",
    "pioneer food company",
    "evergreen consulting group",
    "evergreen consulting",
    "harbor analytics limited",
    "granite manufacturing",
    "sterling partners",
    "beacon holdings",
]


@pytest.fixture
def relation():
    return Relation.from_strings("orgs", NAMES)


class TestQgramInverted:
    def test_finds_obvious_duplicates(self, relation):
        idx = QgramInvertedIndex()
        idx.build(relation, CachedDistance(EditDistance()))
        hits = idx.knn(relation.get(0), 1)
        assert hits[0].rid == 1

    def test_top1_agreement_with_bruteforce(self, relation):
        idx = QgramInvertedIndex()
        idx.build(relation, CachedDistance(EditDistance()))
        ref = BruteForceIndex()
        ref.build(relation, CachedDistance(EditDistance()))
        agree = sum(
            idx.knn(r, 1)[0].rid == ref.knn(r, 1)[0].rid for r in relation
        )
        assert agree == len(relation)

    def test_within_returns_only_in_radius(self, relation):
        idx = QgramInvertedIndex()
        idx.build(relation, CachedDistance(EditDistance()))
        for hit in idx.within(relation.get(0), 0.3):
            assert hit.distance < 0.3

    def test_exhaustive_fallback_fills_short_lists(self):
        # Two clusters with no shared q-grams: fallback must still
        # produce k neighbors.
        relation = Relation.from_strings("r", ["aaaa", "aaab", "zzzz", "zzzy"])
        idx = QgramInvertedIndex(exhaustive_fallback=True)
        idx.build(relation, EditDistance())
        assert len(idx.knn(relation.get(0), 3)) == 3

    def test_no_fallback_truncates(self):
        relation = Relation.from_strings("r", ["aaaa", "aaab", "zzzz", "zzzy"])
        idx = QgramInvertedIndex(exhaustive_fallback=False)
        idx.build(relation, EditDistance())
        assert len(idx.knn(relation.get(0), 3)) < 3

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            QgramInvertedIndex(q=0)

    def test_paged_postings_hit_buffer(self, relation):
        disk = DiskManager(page_capacity=8)
        pool = BufferPool(disk, capacity=64)
        idx = QgramInvertedIndex(buffer_pool=pool)
        idx.build(relation, CachedDistance(EditDistance()))
        pool.reset_stats()
        idx.knn(relation.get(0), 3)
        assert pool.stats.accesses > 0

    def test_paged_results_match_unpaged(self, relation):
        disk = DiskManager(page_capacity=8)
        pool = BufferPool(disk, capacity=64)
        paged = QgramInvertedIndex(buffer_pool=pool)
        paged.build(relation, CachedDistance(EditDistance()))
        plain = QgramInvertedIndex()
        plain.build(relation, CachedDistance(EditDistance()))
        for record in relation:
            assert [n.rid for n in paged.knn(record, 4)] == [
                n.rid for n in plain.knn(record, 4)
            ]


class TestMinHash:
    def test_finds_obvious_duplicates(self, relation):
        idx = MinHashIndex()
        idx.build(relation, CachedDistance(TokenJaccardDistance()))
        hits = idx.knn(relation.get(2), 1)
        assert hits[0].rid == 3

    def test_signature_deterministic(self, relation):
        expected = [
            minhash_signature(set(tokenize(record.text())), 64)
            for record in relation
        ]
        for kernel in ["python"] + (["numpy"] if have_numpy() else []):
            a = MinHashIndex()
            a.enable_kernel(kernel)
            a.build(relation, TokenJaccardDistance())
            b = MinHashIndex()
            b.enable_kernel(kernel)
            b.build(relation, TokenJaccardDistance())
            assert a.relation_signatures().tuples == expected
            assert b.relation_signatures().tuples == expected
            # Bucket membership, read from the columns (numpy) or the
            # dicts (python), is the scalar band_keys grouping.
            scalar: dict = {}
            for record, signature in zip(relation, expected):
                for key in band_keys(signature, a.n_bands):
                    scalar.setdefault(key, []).append(record.rid)
            for index in (a, b):
                if index._band_columns is None:
                    assert index._buckets == scalar
                    continue
                rids = index._rid_array
                membership = {}
                for band, ((order, bounds, _), keys) in enumerate(
                    zip(index._band_columns, index._bucket_keys)
                ):
                    for g, key in enumerate(keys.tolist()):
                        membership[(band, tuple(key))] = rids[
                            order[bounds[g] : bounds[g + 1]]
                        ].tolist()
                assert membership == scalar

    def test_rejects_bad_band_config(self):
        with pytest.raises(ValueError):
            MinHashIndex(n_hashes=10, n_bands=3)

    def test_qgram_mode_robust_to_typos(self):
        relation = Relation.from_strings("r", ["microsoft", "microsft", "boeing", "intel"])
        idx = MinHashIndex(use_qgrams=True, q=2)
        idx.build(relation, CachedDistance(EditDistance()))
        hits = idx.knn(relation.get(0), 1)
        assert hits[0].rid == 1

    def test_within_radius_semantics(self, relation):
        idx = MinHashIndex()
        idx.build(relation, CachedDistance(TokenJaccardDistance()))
        for hit in idx.within(relation.get(0), 0.5):
            assert hit.distance < 0.5

    def test_fallback_fills_k(self, relation):
        idx = MinHashIndex(exhaustive_fallback=True)
        idx.build(relation, CachedDistance(TokenJaccardDistance()))
        assert len(idx.knn(relation.get(0), 6)) == 6

    def test_empty_token_records(self):
        relation = Relation.from_strings("r", ["", "", "abc"])
        idx = MinHashIndex()
        idx.build(relation, CachedDistance(TokenJaccardDistance()))
        hits = idx.knn(relation.get(0), 2)
        assert len(hits) == 2
