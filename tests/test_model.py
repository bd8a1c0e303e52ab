import numpy as np
import pytest

from dustmix.datasets import at_lq_corpus
from dustmix.model import (
    Corpus,
    DirichletMatrix,
    Location,
    LocationRole,
    ParticleCatalog,
    SampleCounts,
    validate_corpus,
)


@pytest.fixture()
def small_catalog():
    return ParticleCatalog(("Alterite", "Biotite", "Quartz"))


class TestCatalog:
    def test_needs_two_types(self):
        with pytest.raises(ValueError):
            ParticleCatalog(("only",))

    def test_unique_names(self):
        with pytest.raises(ValueError):
            ParticleCatalog(("a", "b", "a"))

    def test_refuses_a_bare_string(self):
        # "ab" once became the two types "a" and "b"
        with pytest.raises(ValueError, match="type_names must be a sequence of names, not a string"):
            ParticleCatalog("ab")


class TestSampleCounts:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SampleCounts(np.array([1, -1, 0]))

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            SampleCounts(np.array([0, 0, 0]))

    def test_rejects_fractional(self):
        with pytest.raises(ValueError):
            SampleCounts(np.array([1.5, 0.5]))

    def test_accepts_integral_floats(self):
        sample = SampleCounts(np.array([2.0, 3.0]))
        assert sample.total == 5
        assert sample.counts.dtype == np.int64

    def test_total_must_fit_in_int64(self):
        # each count fits, but an int64 sum of these would wrap below one
        with pytest.raises(ValueError,
                           match="total count 9223372036854775813 does not fit in a 64-bit"):
            SampleCounts(np.array([2**62, 2**62, 5]))
        largest = 2**63 - 1
        assert SampleCounts(np.array([2**62, largest - 2**62])).total == largest

    @pytest.mark.parametrize("count", [2.0**63, 1e19], ids=["2**63", "1e19"])
    def test_float_count_must_fit_in_int64(self, count):
        # refused by name before the int64 cast, which would wrap them to -2**63
        with pytest.raises(ValueError, match=f"count {int(count)} does not fit in a 64-bit"):
            SampleCounts(np.array([count, 1.0]))
        assert SampleCounts(np.array([2.0**62, 1.0])).total == 2**62 + 1

    def test_unsigned_count_must_fit_in_int64(self):
        # refused by name: the int64 cast would wrap 2**63 to a negative total
        with pytest.raises(ValueError, match=f"count {2**63} does not fit in a 64-bit"):
            SampleCounts(np.array([2**63, 1], dtype=np.uint64))
        largest = np.array([2**63 - 1], dtype=np.uint64)
        assert SampleCounts(largest).total == 2**63 - 1
        assert SampleCounts(np.array([3, 1], dtype=np.uint8)).total == 4

    def test_rejects_bool(self):
        # np.rint turns a bool array into float16 counts
        with pytest.raises(ValueError, match="counts must be integers"):
            SampleCounts(np.array([True, False]))

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="counts must be a one-dimensional vector"):
            SampleCounts(np.ones((2, 2), dtype=np.int64))


class TestLocationRole:
    def test_known_source_index_non_negative(self):
        with pytest.raises(ValueError, match="source_index must be non-negative"):
            LocationRole.known(-1)


def _two_source_corpus(small_catalog, n_unknown=0, claims=(0, 1)):
    return Corpus.from_groups(small_catalog, [
        ("k0", LocationRole.known(claims[0]), [np.array([5, 1, 1])]),
        ("k1", LocationRole.known(claims[1]), [np.array([1, 5, 1])]),
        ("t", LocationRole.trace(), [np.array([2, 2, 2])]),
    ], n_unknown)


class TestFromGroups:
    def test_ids_are_positions(self, small_catalog):
        corpus = Corpus.from_groups(small_catalog, [
            ("k", LocationRole.known(0), [np.array([5, 1, 1]), np.array([4, 1, 0])]),
            ("t", LocationRole.trace(), [np.array([1, 1, 1]), [2, 2, 2], np.array([0, 0, 3])]),
        ], 1)
        assert [(loc.name, loc.role) for loc in corpus.locations] == [
            ("k", LocationRole.known(0)), ("t", LocationRole.trace())]
        assert [(s.location_id, s.sample_index, s.counts.tolist())
                for loc in corpus.locations for s in loc.samples] == [
            (0, 0, [5, 1, 1]), (0, 1, [4, 1, 0]),
            (1, 0, [1, 1, 1]), (1, 1, [2, 2, 2]), (1, 2, [0, 0, 3])]
        assert corpus.n_unknown_sources == 1
        assert validate_corpus(corpus) == []

    def test_counts_are_checked_when_built(self, small_catalog):
        # validate_corpus has no count check: every sample is built checked,
        # and its counts cannot be changed afterwards
        with pytest.raises(ValueError, match="non-negative"):
            Corpus.from_groups(small_catalog, [("k", LocationRole.known(0), [[1, -1, 1]])])
        with pytest.raises(ValueError, match="at least one particle"):
            Corpus.from_groups(small_catalog, [("k", LocationRole.known(0), [[0, 0, 0]])])
        sample = _two_source_corpus(small_catalog).locations[0].samples[0]
        with pytest.raises(ValueError, match="read-only"):
            sample.counts[0] = -1


class TestValidateCorpus:
    def test_bundled_corpus_is_clean(self, corpus_both_known):
        assert validate_corpus(corpus_both_known) == []

    def test_clean_small_corpus(self, small_catalog):
        assert validate_corpus(_two_source_corpus(small_catalog)) == []

    def test_two_unknown_sources_flagged(self, small_catalog):
        violations = validate_corpus(_two_source_corpus(small_catalog, n_unknown=2))
        assert any(v.code == "unknown-source-limit" for v in violations)

    def test_negative_unknown_source_count_flagged(self, small_catalog):
        violations = validate_corpus(_two_source_corpus(small_catalog, n_unknown=-1))
        assert [(v.code, v.message) for v in violations] == [
            ("unknown-source-count", "unknown-source count cannot be negative")]

    @pytest.mark.parametrize("trace_samples", [None, ()])
    def test_unknown_source_without_trace_sample_flagged(self, small_catalog, trace_samples):
        # no trace location, or trace locations that hold no sample: nothing
        # informs the unknown source's profile
        known = _two_source_corpus(small_catalog).locations[:2]
        traces = () if trace_samples is None else (
            Location("t", LocationRole.trace(), trace_samples),)
        corpus = Corpus(small_catalog, known + traces, 1)
        expected = ["unknown-without-trace"] if trace_samples is None else [
            "empty-location", "unknown-without-trace"]
        assert [v.code for v in validate_corpus(corpus)] == expected
        assert validate_corpus(_two_source_corpus(small_catalog, n_unknown=1)) == []
        assert validate_corpus(Corpus(small_catalog, known, 0)) == []

    @pytest.mark.parametrize("empty", ["k1", "t2"])
    def test_location_without_samples_flagged(self, small_catalog, empty):
        # a known location whose samples are gone, or a second trace location
        # with none: no sample pins that source or that share
        k0, k1, t = _two_source_corpus(small_catalog).locations
        locations = (k0, Location("k1", k1.role, ()), t) if empty == "k1" else (
            k0, k1, t, Location("t2", LocationRole.trace(), ()))
        violations = validate_corpus(Corpus(small_catalog, locations, 0))
        assert [v.code for v in violations] == ["empty-location"]
        assert repr(empty) in violations[0].message

    def test_duplicate_claim_flagged(self, small_catalog):
        violations = validate_corpus(_two_source_corpus(small_catalog, claims=(1, 1)))
        codes = {v.code for v in violations}
        assert "duplicate-source-claim" in codes
        assert "source-index-range" in codes

    def test_sample_length_mismatch_flagged(self, small_catalog):
        bad = Corpus.from_groups(small_catalog, [("k0", LocationRole.known(0), [[1, 1]])])
        assert any(v.code == "sample-length" for v in validate_corpus(bad))

    def test_wrong_location_id_flagged(self, small_catalog):
        bad = Corpus(
            small_catalog,
            (Location("k0", LocationRole.known(0), (SampleCounts(np.array([1, 1, 1]), 5, 0),)),),
            0,
        )
        assert any(v.code == "sample-location" for v in validate_corpus(bad))

    def test_empty_corpus_needs_a_source(self, small_catalog):
        bad = Corpus(small_catalog, (), 0)
        assert any(v.code == "no-sources" for v in validate_corpus(bad))


class TestCorpusProperties:
    def test_bundled_shape(self, corpus_both_known):
        corpus = corpus_both_known
        assert corpus.n_locations == 4
        assert corpus.n_sources == 2
        assert corpus.n_types == 14
        assert corpus.n_samples == 26
        assert corpus.source_names == ("AT", "LQ")
        assert corpus.trace_location_ids == (2, 3)
        # the first control sample's published count vector
        assert corpus.locations[0].samples[0].counts.tolist() == [
            189, 21, 1, 3, 3, 0, 9, 3, 0, 16, 5, 74, 0, 11,
        ]

    def test_dropping_an_absent_location_is_named(self):
        with pytest.raises(KeyError, match="no location named 'XX' in the bundled corpus"):
            at_lq_corpus(drop_known="XX")

    def test_unknown_source_naming(self, corpus_at_known):
        assert corpus_at_known.source_names == ("AT", "unknown")
        assert corpus_at_known.n_sources == 2

    def test_source_names_follow_the_source_index(self, small_catalog):
        # the location that claims source 1 is listed first
        groups = [("LQ", LocationRole.known(1), [np.array([1, 5, 1])]),
                  ("AT", LocationRole.known(0), [np.array([5, 1, 1])]),
                  ("e1", LocationRole.trace(), [np.array([3, 3, 1])])]
        for unknown, names in ((0, ("AT", "LQ")), (1, ("AT", "LQ", "unknown"))):
            corpus = Corpus.from_groups(small_catalog, groups, unknown)
            assert validate_corpus(corpus) == []
            assert corpus.source_names == names

    def test_iter_samples_order(self, small_catalog):
        corpus = _two_source_corpus(small_catalog)
        seen = [(loc_id, s.sample_index) for loc_id, s in corpus.iter_samples()]
        assert seen == [(0, 0), (1, 0), (2, 0)]


class TestDirichletMatrix:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DirichletMatrix(np.array([[1.0, 0.0]]))

    def test_values_read_only(self):
        matrix = DirichletMatrix(np.ones((2, 3)))
        with pytest.raises(ValueError):
            matrix.values[0, 0] = 2.0
