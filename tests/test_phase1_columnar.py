"""The columnar MinHash Phase-1 pass equals the per-record sequence.

``MinHashIndex.phase1_batch`` expands a batch's candidate pairs from
the band columns, evaluates each unordered pair once, and derives every
cut list, ``nn(v)`` and ``ng(v)`` by segment operations.  These tests
pin it entry for entry to the per-record ``knn``/``within`` +
``neighborhood_growth`` sequence on a scalar (``kernel="python"``)
index, across cuts, ``radius_fn``, exact duplicates, candidate-less
records, tiny relations, rid subsets, chunk sizes, distances (cosine,
Jaccard, edit), and sharded runs.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.formulation import DEParams
from repro.core.nn_phase import Phase1Stats, cut_shape, prepare_nn_lists
from repro.core.radius import AffineRadius
from repro.data.loaders import load_dataset
from repro.data.schema import Relation
from repro.distances.cosine import CosineDistance
from repro.distances.edit import EditDistance
from repro.distances.jaccard import TokenJaccardDistance
from repro.distances.kernels import have_numpy
from repro.eval.bench_phase1 import nn_checksum
from repro.index.base import NNIndex
from repro.index.bruteforce import BruteForceIndex
from repro.index.minhash import MinHashIndex
from repro.run.config import RunConfig
from repro.run.context import RunContext
from repro.run.pipeline import StagedPipeline

pytestmark = pytest.mark.skipif(
    not have_numpy(), reason="numpy not installed (the perf extra)"
)

#: Cosine and Jaccard kernels evaluate pair blocks; the edit kernel has
#: no pair method and is asked one left row at a time.
DISTANCES = {
    "cosine": CosineDistance,
    "edit": EditDistance,
    "jaccard": TokenJaccardDistance,
}

#: Short words over a tiny alphabet: plenty of shared tokens (LSH
#: collisions), exact-duplicate records, and the odd record whose
#: tokens no other record has (no LSH candidates at all).
words = st.lists(
    st.text(alphabet="abc dxyz", min_size=0, max_size=14),
    min_size=1,
    max_size=24,
)

cuts = st.sampled_from(
    [
        (1, None),
        (3, None),
        (30, None),
        (None, 0.3),
        (None, 0.7),
        (2, 0.5),
        (5, 0.9),
    ]
)


def build(relation, distance_name, kernel):
    index = MinHashIndex()
    index.enable_kernel(kernel)
    index.build(relation, DISTANCES[distance_name]())
    return index


def per_record(index, records, k, theta, radius_fn=None):
    """The reference: one NN probe, then one NG probe, per record."""
    out = []
    for record in records:
        if theta is None:
            neighbors = index.knn(record, k)
        else:
            neighbors = index.within(record, theta)
            if k is not None:
                neighbors = neighbors[:k]
        nn_distance = neighbors[0].distance if neighbors else None
        ng = index.neighborhood_growth(
            record, nn_distance=nn_distance, radius_fn=radius_fn
        )
        out.append((neighbors, ng))
    return out


def exact(results):
    """Bit-exact rendering: (rid, distance) tuples plus NG."""
    return [
        ([(n.rid, n.distance) for n in neighbors], ng)
        for neighbors, ng in results
    ]


class TestColumnarEqualsPerRecord:
    @pytest.mark.parametrize("distance_name", sorted(DISTANCES))
    @settings(max_examples=40, deadline=None)
    @given(texts=words, cut=cuts, affine=st.booleans())
    def test_entry_for_entry(self, distance_name, texts, cut, affine):
        k, theta = cut
        radius_fn = AffineRadius(1.5, 0.05) if affine else None
        relation = Relation.from_strings("r", texts)
        columnar = build(relation, distance_name, "numpy")
        scalar = build(relation, distance_name, "python")
        got = columnar.phase1_batch(
            relation.records, k=k, theta=theta, radius_fn=radius_fn
        )
        want = per_record(scalar, relation.records, k, theta, radius_fn)
        assert exact(got) == exact(want)
        # The kernel-backed per-record path agrees as well.
        assert exact(got) == exact(
            per_record(columnar, relation.records, k, theta, radius_fn)
        )

    @pytest.mark.parametrize("texts", [["acme"], ["acme", "acme"], ["a b", "c d"]])
    @pytest.mark.parametrize("cut", [(1, None), (4, None), (None, 0.5), (2, 0.5)])
    def test_one_and_two_record_relations(self, texts, cut):
        k, theta = cut
        relation = Relation.from_strings("r", texts)
        got = build(relation, "cosine", "numpy").phase1_batch(
            relation.records, k=k, theta=theta
        )
        want = per_record(
            build(relation, "cosine", "python"), relation.records, k, theta
        )
        assert exact(got) == exact(want)

    def test_exact_duplicates_and_candidate_less_records(self):
        texts = ["acme corp", "acme corp", "acme corp", "zeta", "qq rr", "acme"]
        relation = Relation.from_strings("r", texts)
        index = build(relation, "cosine", "numpy")
        got = index.phase1_batch(relation.records, k=None, theta=0.5)
        want = per_record(
            build(relation, "cosine", "python"), relation.records, None, 0.5
        )
        assert exact(got) == exact(want)
        # nn = 0: the zero-distance records are the neighborhood.
        assert got[0][1] == 3
        # No LSH candidates: empty list, ng = 1.
        assert got[3] == ([], 1)

    @pytest.mark.parametrize("cut", [(None, 0.25), (2, 0.25)])
    def test_distance_equal_to_theta_is_outside(self, cut):
        # {w,x,y,z} vs {w,x,y}: Jaccard distance exactly 0.25.
        k, theta = cut
        relation = Relation.from_strings("r", ["w x y z", "w x y", "q r s"])
        index = build(relation, "jaccard", "numpy")
        assert 1 in index._candidates(relation.records[0])
        got = index.phase1_batch(relation.records, k=k, theta=theta)
        want = per_record(
            build(relation, "jaccard", "python"), relation.records, k, theta
        )
        assert exact(got) == exact(want)
        assert got[0][0] == []

    def test_python_kernel_keeps_the_per_record_path(self):
        relation = load_dataset(
            "org", n_entities=40, duplicate_fraction=0.4, seed=4
        ).relation
        index = build(relation, "cosine", "python")
        got = index.phase1_batch(relation.records, k=3, theta=0.4)
        assert exact(got) == exact(
            NNIndex.phase1_batch(index, relation.records, k=3, theta=0.4)
        )
        assert index.kernel_evaluations == 0


class TestDriverParity:
    """``prepare_nn_lists`` over subsets and chunkings, both kernels."""

    @pytest.fixture(scope="class")
    def relation(self):
        return load_dataset(
            "org", n_entities=60, duplicate_fraction=0.4, seed=11
        ).relation

    @pytest.mark.parametrize("distance_name", sorted(DISTANCES))
    @pytest.mark.parametrize(
        "params",
        [
            DEParams.size(4, c=4.0),
            DEParams.diameter(0.4, c=4.0),
            DEParams.combined(5, 0.4, c=4.0),
        ],
        ids=["size", "diameter", "combined"],
    )
    @pytest.mark.parametrize("chunk_size", [None, 1, 256])
    def test_chunked_subset_matches_per_record(
        self, relation, distance_name, params, chunk_size
    ):
        subset = [rid for rid in relation.ids() if rid % 3 != 1]
        index = build(relation, distance_name, "numpy")
        nn = prepare_nn_lists(
            relation, index, params, rids=subset, chunk_size=chunk_size
        )
        assert nn.ids() == sorted(subset)
        k, theta = cut_shape(params)
        scalar = build(relation, distance_name, "python")
        want = per_record(
            scalar, [relation.get(rid) for rid in sorted(subset)], k, theta
        )
        got = [(list(nn.get(rid).neighbors), nn.get(rid).ng) for rid in sorted(subset)]
        assert exact(got) == exact(want)

    @pytest.mark.parametrize("order", ["bf", "random", "sequential"])
    def test_order_only_sets_the_chunk_order(self, relation, order):
        params = DEParams.combined(5, 0.4, c=4.0)
        reference = prepare_nn_lists(
            relation, build(relation, "cosine", "python"), params
        )
        nn = prepare_nn_lists(
            relation, build(relation, "cosine", "numpy"), params,
            order=order, chunk_size=7,
        )
        assert nn_checksum(nn) == nn_checksum(reference)

    def test_only_columnar_indexes_take_the_batch_driver(self, relation):
        assert build(relation, "cosine", "numpy").columnar_phase1
        brute = BruteForceIndex()
        brute.enable_kernel("numpy")
        brute.build(relation, CosineDistance())
        assert not brute.columnar_phase1
        # Without a kernel the per-record probes only read the pair
        # cache, so a whole-relation run holds no pair state.
        scalar = build(relation, "cosine", "python")
        assert not scalar.columnar_phase1
        prepare_nn_lists(relation, scalar, DEParams.combined(5, 0.4, c=4.0))
        assert not scalar._pair_cache


class TestHonestCounters:
    @pytest.fixture(scope="class")
    def relation(self):
        return load_dataset(
            "org", n_entities=80, duplicate_fraction=0.3, seed=2
        ).relation

    def test_one_count_per_candidate_and_unordered_pair(self, relation):
        index = build(relation, "cosine", "numpy")
        stats = Phase1Stats()
        prepare_nn_lists(
            relation, index, DEParams.combined(5, 0.4, c=4.0), stats=stats
        )
        candidates = {
            record.rid: set(index._candidates(record).tolist())
            for record in relation
        }
        n = len(relation)
        directed = sum(len(c) for c in candidates.values())
        unordered = {
            (min(a, b), max(a, b)) for a, c in candidates.items() for b in c
        }
        assert stats.candidates_generated == directed
        assert stats.kernel_evaluations == len(unordered)
        assert stats.evaluations == 0
        assert stats.evaluations_pruned == n * (n - 1) - directed

    def test_substages_cover_the_run(self, relation):
        index = build(relation, "cosine", "numpy")
        stats = Phase1Stats()
        prepare_nn_lists(
            relation, index, DEParams.combined(5, 0.4, c=4.0), stats=stats
        )
        lookup = {
            name: seconds
            for name, seconds in stats.substage_seconds.items()
            if name in ("candidates", "verify", "drive")
        }
        assert set(lookup) >= {"candidates", "verify"}
        assert sum(lookup.values()) == pytest.approx(stats.seconds, rel=0.05)


class TestLonelyRecordNG:
    """Per-record NG of a candidate-less record: 1, with no scan."""

    def test_no_scan_and_unchanged_value(self):
        relation = Relation.from_strings(
            "r", ["acme corp", "acme corp inc", "zeta", "beta co", "beta co ltd"]
        )
        index = build(relation, "cosine", "numpy")
        lonely = relation.records[2]
        assert len(index._candidates(lonely)) == 0
        reference = build(relation, "cosine", "numpy")
        # The base implementation runs the 1-NN probe, whose exhaustive
        # fallback scans the whole relation.
        want = NNIndex.neighborhood_growth(reference, lonely)
        assert reference.kernel_evaluations + reference.evaluations > 0
        assert index.neighborhood_growth(lonely) == want == 1
        assert index.kernel_evaluations == 0
        assert index.evaluations == 0


class TestShardedParity:
    @pytest.mark.parametrize("in_flight", [1, 2])
    @pytest.mark.parametrize(
        "params",
        [DEParams.size(5, c=4.0), DEParams.combined(5, 0.4, c=4.0)],
        ids=["size", "combined"],
    )
    def test_four_shards_match_unsharded(self, in_flight, params):
        relation = load_dataset(
            "org", n_entities=70, duplicate_fraction=0.4, seed=6
        ).relation
        base = RunConfig(distance="cosine", index="minhash")
        reference = StagedPipeline(RunContext.create(base)).run(relation, params)
        sharded = StagedPipeline(
            RunContext.create(base.replace(shards=4, shards_in_flight=in_flight))
        ).run(relation, params)
        assert sharded.partition.checksum() == reference.partition.checksum()
        assert nn_checksum(sharded.nn_relation) == nn_checksum(
            reference.nn_relation
        )
        # The planner's columns-only grouping keeps every LSH pair
        # co-resident on this input.
        assert sharded.stats.shard_plan["recall"] == 1.0

    def test_concurrent_shards_share_one_index(self):
        """More in-flight shards than cores, with frequent thread
        switches, on one shared index: still the unsharded answer."""
        relation = load_dataset(
            "org", n_entities=70, duplicate_fraction=0.4, seed=8
        ).relation
        params = DEParams.size(5, c=4.0)
        base = RunConfig(distance="cosine", index="minhash")
        reference = StagedPipeline(RunContext.create(base)).run(relation, params)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sharded = StagedPipeline(
                RunContext.create(base.replace(shards=4, shards_in_flight=4))
            ).run(relation, params)
        finally:
            sys.setswitchinterval(interval)
        assert sharded.partition.checksum() == reference.partition.checksum()
