import numpy as np
import pytest

from dustmix.model import (
    Corpus,
    DirichletMatrix,
    Location,
    LocationRole,
    ParticleCatalog,
    SampleCounts,
    collapse_to_counts,
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

    def test_index_of_unknown(self, small_catalog):
        with pytest.raises(KeyError):
            small_catalog.index_of("Feldspar")


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


class TestCollapse:
    def test_counts_occurrences(self, small_catalog):
        sample = collapse_to_counts(["Quartz", "Quartz", "Biotite"], small_catalog)
        assert sample.counts.tolist() == [0, 1, 2]
        assert sample.total == 3

    def test_empty_rejected(self, small_catalog):
        with pytest.raises(ValueError):
            collapse_to_counts([], small_catalog)

    def test_unknown_label_named(self, small_catalog):
        with pytest.raises(KeyError, match="Gypsum"):
            collapse_to_counts(["Quartz", "Gypsum"], small_catalog)


def _two_source_corpus(small_catalog, n_unknown=0, claims=(0, 1)):
    locations = (
        Location("k0", LocationRole.known(claims[0]),
                 (SampleCounts(np.array([5, 1, 1]), 0, 0),)),
        Location("k1", LocationRole.known(claims[1]),
                 (SampleCounts(np.array([1, 5, 1]), 1, 0),)),
        Location("t", LocationRole.trace(),
                 (SampleCounts(np.array([2, 2, 2]), 2, 0),)),
    )
    return Corpus(small_catalog, locations, n_unknown)


class TestValidateCorpus:
    def test_bundled_corpus_is_clean(self, corpus_both_known):
        assert validate_corpus(corpus_both_known) == []

    def test_clean_small_corpus(self, small_catalog):
        assert validate_corpus(_two_source_corpus(small_catalog)) == []

    def test_two_unknown_sources_flagged(self, small_catalog):
        violations = validate_corpus(_two_source_corpus(small_catalog, n_unknown=2))
        assert any(v.code == "unknown-source-limit" for v in violations)

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
        bad = Corpus(
            small_catalog,
            (Location("k0", LocationRole.known(0), (SampleCounts(np.array([1, 1]), 0, 0),)),),
            0,
        )
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

    def test_unknown_source_naming(self, corpus_at_known):
        assert corpus_at_known.source_names == ("AT", "unknown")
        assert corpus_at_known.n_sources == 2

    def test_iter_samples_order(self, small_catalog):
        corpus = _two_source_corpus(small_catalog)
        seen = [(loc_id, s.sample_index) for loc_id, s in corpus.iter_samples()]
        assert seen == [(0, 0), (1, 0), (2, 0)]


class TestDirichletMatrix:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DirichletMatrix(np.array([[1.0, 0.0]]), role="H")

    def test_rejects_bad_role(self):
        with pytest.raises(ValueError):
            DirichletMatrix(np.ones((2, 2)), role="X")

    def test_values_read_only(self):
        matrix = DirichletMatrix(np.ones((2, 3)), role="H")
        with pytest.raises(ValueError):
            matrix.values[0, 0] = 2.0
