"""The columnar MinHash build: pickling and shard planning.

A numpy build keeps only integer band columns (no per-record python
views), so everything that used to read those views must give the same
answers from the columns: a pickled index restored in a process-pool
worker, and the shard planner's LSH components.  Sharded runs on one
shared index are covered in ``tests/test_phase1_columnar.py``.
"""

from __future__ import annotations

import pickle

import pytest

from repro.data.loaders import load_dataset
from repro.data.schema import Record
from repro.distances.cosine import CosineDistance
from repro.distances.kernels import have_numpy
from repro.distances.tokens import tokenize
from repro.index.minhash import MinHashIndex
from repro.index.signatures import SignatureFactory
from repro.shard.plan import plan_shards

pytestmark = pytest.mark.skipif(not have_numpy(), reason="numpy unavailable")


@pytest.fixture(scope="module")
def relation():
    return load_dataset(
        "org", n_entities=70, duplicate_fraction=0.4, seed=6
    ).relation


def built(relation):
    index = MinHashIndex()
    index.enable_kernel("numpy")
    index.build(relation, CosineDistance())
    return index


def exact(results):
    return [
        ([(n.rid, n.distance) for n in neighbors], ng)
        for neighbors, ng in results
    ]


class TestPickledIndex:
    def test_restored_index_answers_like_the_original(self, relation):
        index = built(relation)
        assert index._buckets is None and index._row_buckets is None
        restored = pickle.loads(pickle.dumps(index))
        assert restored._relation_signatures is None
        assert restored.columnar_phase1

        for record in relation:
            assert restored._candidates(record).tolist() == (
                index._candidates(record).tolist()
            )
        # Foreign rids with in-relation texts: their probes find real
        # buckets through the key arrays.
        for record in relation.records[:5]:
            probe = Record(10**6 + record.rid, record.fields)
            got = restored._candidates(probe).tolist()
            assert got == index._candidates(probe).tolist()
            assert record.rid in got
        records = list(relation)
        for k, theta in [(5, None), (None, 0.4), (5, 0.4)]:
            assert exact(restored.phase1_batch(records, k=k, theta=theta)) == (
                exact(index.phase1_batch(records, k=k, theta=theta))
            )


class TestPlanFromColumns:
    def test_column_and_dict_groupings_plan_alike(self, relation):
        ids = relation.ids()
        python = SignatureFactory(64, backend="python").sign_records(
            ids, lambda rid: tokenize(relation.get(rid).text())
        )
        assert python.matrix is None
        from_dicts = plan_shards(relation, 4, signatures=python)
        from_columns = plan_shards(relation, 4)
        for field in (
            "members",
            "recall",
            "n_candidate_pairs",
            "n_coresident_pairs",
            "n_components",
            "n_split_components",
        ):
            assert getattr(from_columns, field) == getattr(from_dicts, field)
        assert from_columns.n_candidate_pairs > 0

