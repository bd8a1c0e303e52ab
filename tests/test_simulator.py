import csv

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from dustmix import simulator
from dustmix.model import ParticleCatalog, SampleCounts
from dustmix.simulator import (
    CellResult,
    ScenarioSpec,
    StudyResults,
    StudySpec,
    generate_corpus,
    generate_sample,
    profiles_from_counts,
    run_study,
    write_aggregate_csv,
    write_cells_csv,
)
from dustmix.vbi import FitConfig


@pytest.fixture(scope="module")
def catalog():
    return ParticleCatalog(tuple(f"t{i}" for i in range(4)))


PROFILES = np.array([
    [0.70, 0.20, 0.05, 0.05],
    [0.05, 0.10, 0.25, 0.60],
])


class TestGenerateSample:
    def test_total_preserved(self):
        rng = np.random.default_rng(0)
        for n in (1, 17, 500):
            sample = generate_sample([0.3, 0.7], PROFILES, n, rng)
            assert sample.total == n

    def test_degenerate_mixture_uses_single_profile(self):
        rng = np.random.default_rng(1)
        sample = generate_sample([1.0, 0.0], PROFILES, 200000, rng)
        freq = sample.counts / sample.total
        se = np.sqrt(PROFILES[0] * (1 - PROFILES[0]) / 200000)
        assert np.all(np.abs(freq - PROFILES[0]) <= 3.5 * se + 1e-9)

    def test_one_hot_profile_yields_one_type(self):
        rng = np.random.default_rng(2)
        profiles = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        sample = generate_sample([0.4, 0.6], profiles, 100, rng)
        assert sample.counts[1] == 100

    def test_mixture_frequencies_match_blend(self):
        rng = np.random.default_rng(3)
        theta = np.array([0.9, 0.1])
        expected = theta @ PROFILES
        sample = generate_sample(theta, PROFILES, 100000, rng)
        freq = sample.counts / sample.total
        se = np.sqrt(expected * (1 - expected) / 100000)
        assert np.all(np.abs(freq - expected) <= 3.0 * se)

    def test_invalid_inputs(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            generate_sample([0.5, 0.6], PROFILES, 10, rng)
        with pytest.raises(ValueError):
            generate_sample([0.5, 0.5], PROFILES, 0, rng)

    def test_goodness_of_fit_across_seeds(self):
        # aggregate chi-square over independent seeds stays unremarkable
        theta = np.array([0.6, 0.4])
        expected = theta @ PROFILES
        n = 10000
        rejections = 0
        for seed in range(100):
            rng = np.random.default_rng(np.random.SeedSequence((99, seed)))
            sample = generate_sample(theta, PROFILES, n, rng)
            stat, pvalue = stats.chisquare(sample.counts, expected * n)
            rejections += pvalue < 0.001
        assert rejections <= 2


class TestProfilesFromCounts:
    def test_bundled_control_pool(self, corpus_both_known):
        at_samples = corpus_both_known.locations[0].samples
        profile = profiles_from_counts(at_samples)
        assert profile.argmax() == 0
        assert profile[0] == pytest.approx(2315.0 / 4150.0, rel=1e-12)

    def test_single_sample_one_hot(self):
        sample = SampleCounts(np.array([0, 0, 0, 5]))
        assert_allclose(profiles_from_counts([sample]), [0, 0, 0, 1.0])

    def test_duplicates_do_not_change_pool(self):
        sample = SampleCounts(np.array([2, 1, 1, 0]))
        one = profiles_from_counts([sample])
        two = profiles_from_counts([sample, sample])
        assert_allclose(one, two)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            profiles_from_counts([])


class TestScenario:
    def test_corpus_layout(self, catalog):
        spec = ScenarioSpec(
            catalog=catalog,
            true_profiles=PROFILES,
            trace_mixtures=((0.5, 0.5), (0.51, 0.49)),
            particles_per_sample=50,
            samples_per_trace=3,
            known_sample_counts=(4,),
        )
        corpus = generate_corpus(spec, np.random.default_rng(np.random.SeedSequence(0)))
        assert corpus.n_locations == 3
        assert corpus.n_unknown_sources == 1
        assert [len(l.samples) for l in corpus.locations] == [4, 3, 3]
        assert corpus.locations[0].role.is_known
        assert all(s.total == 50 for l in corpus.locations for s in l.samples)

    def test_known_sample_size_override(self, catalog):
        spec = ScenarioSpec(
            catalog=catalog,
            true_profiles=PROFILES,
            trace_mixtures=((0.5, 0.5),),
            particles_per_sample=50,
            known_sample_counts=(2,),
            known_particles_per_sample=200,
        )
        corpus = generate_corpus(spec, np.random.default_rng(np.random.SeedSequence(0)))
        assert all(s.total == 200 for s in corpus.locations[0].samples)
        assert all(s.total == 50 for s in corpus.locations[1].samples)

    def test_validation(self, catalog):
        with pytest.raises(ValueError):
            ScenarioSpec(catalog=catalog, true_profiles=PROFILES,
                         trace_mixtures=((0.5, 0.4),), particles_per_sample=10)
        with pytest.raises(ValueError):
            ScenarioSpec(catalog=catalog, true_profiles=np.array([[0.5, 0.5]]),
                         trace_mixtures=((1.0,),), particles_per_sample=10)
        with pytest.raises(ValueError, match="each trace mixture must have one share per source"):
            ScenarioSpec(catalog=catalog, true_profiles=PROFILES,
                         trace_mixtures=((0.2, 0.3, 0.5),), particles_per_sample=10)
        with pytest.raises(ValueError, match="more known sources than profile rows"):
            ScenarioSpec(catalog=catalog, true_profiles=PROFILES, trace_mixtures=((0.5, 0.5),),
                         particles_per_sample=10, known_sample_counts=(2, 2, 2))


    @pytest.mark.parametrize("field, value", [
        ("particles_per_sample", 2.5),
        ("particles_per_sample", True),
        ("particles_per_sample", 0),
        ("samples_per_trace", 2.5),
        ("samples_per_trace", "3"),
        ("known_sample_counts", (2.5,)),
        ("known_sample_counts", (0,)),
        ("known_particles_per_sample", 10.5),
        ("known_particles_per_sample", 0),
        ("known_sample_counts", 12),
        ("trace_mixtures", 0.5),
        ("trace_mixtures", (0.5, 0.5)),
    ])
    def test_bad_counts_fail_at_construction(self, catalog, field, value):
        # a non-integer count once truncated (particles) or failed later in
        # generate_corpus with a TypeError naming no field, and a scalar
        # where a list belongs raised a bare TypeError
        kwargs = dict(catalog=catalog, true_profiles=PROFILES, trace_mixtures=((0.5, 0.5),),
                      particles_per_sample=10, samples_per_trace=2, known_sample_counts=(2,))
        with pytest.raises(ValueError, match=field):
            ScenarioSpec(**{**kwargs, field: value})

    def test_integral_counts_are_stored_as_int(self, catalog):
        spec = ScenarioSpec(catalog=catalog, true_profiles=PROFILES, trace_mixtures=((0.5, 0.5),),
                            particles_per_sample=50.0, samples_per_trace=3.0,
                            known_sample_counts=(2.0,), known_particles_per_sample=20.0)
        for value in (spec.particles_per_sample, spec.samples_per_trace,
                      *spec.known_sample_counts, spec.known_particles_per_sample):
            assert type(value) is int
        corpus = generate_corpus(spec, np.random.default_rng(np.random.SeedSequence(0)))
        assert [len(l.samples) for l in corpus.locations] == [2, 3]
        assert [s.total for l in corpus.locations for s in l.samples] == [20, 20, 50, 50, 50]

    @pytest.mark.parametrize("mixture", [("0.5", "0.5"), (True, False), (0.5, None)])
    def test_mistyped_trace_share_fails_by_name(self, catalog, mixture):
        # a string share once passed float() and a bool read as 1.0 or 0.0
        with pytest.raises(ValueError, match="trace_mixtures"):
            ScenarioSpec(catalog=catalog, true_profiles=PROFILES, trace_mixtures=(mixture,),
                         particles_per_sample=10)


class TestStudy:
    def _study(self, catalog, **kwargs):
        defaults = dict(
            catalog=catalog,
            true_profiles=PROFILES,
            unknown_shares=(0.3, 0.7),
            sample_sizes=(40, 80),
            samples_per_trace=2,
            known_samples=3,
            replications=2,
            rng_seed=0,
        )
        defaults.update(kwargs)
        return StudySpec(**defaults)

    @pytest.mark.parametrize("field, value", [
        ("replications", 2.5),
        ("replications", True),
        ("replications", 0),
        ("sample_sizes", (1.5,)),
        ("sample_sizes", (40, "80")),
        ("sample_sizes", (0,)),
        ("samples_per_trace", 0),
        ("samples_per_trace", 2.5),
        ("known_samples", 0),
        ("known_sample_size", 10.5),
        ("rng_seed", -1),
        ("rng_seed", 0.5),
        ("second_trace", (0.5, 0.6)),
        ("second_trace", (0.2, 0.3, 0.5)),
        ("unknown_shares", 0.5),
        ("sample_sizes", 40),
        ("second_trace", 0.5),
        ("known_samples", (12,)),
    ])
    def test_bad_counts_and_mixture_fail_at_construction(self, catalog, field, value):
        with pytest.raises(ValueError, match=field):
            self._study(catalog, **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("true_profiles", np.vstack([PROFILES, PROFILES[:1]])),
    ], ids=["three-sources"])
    def test_design_must_be_one_known_and_one_unknown(self, catalog, field, value):
        with pytest.raises(ValueError, match="exactly two sources, the first known"):
            self._study(catalog, **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("unknown_shares", ("0.5",)),
        ("unknown_shares", (0.3, True)),
        ("second_trace", ("0.5", "0.5")),
        ("second_trace", (True, False)),
    ])
    def test_mistyped_shares_fail_by_name(self, catalog, field, value):
        # these were read with float(), which takes a numeric string and a bool
        with pytest.raises(ValueError, match=field):
            self._study(catalog, **{field: value})

    @pytest.mark.parametrize("profiles", [
        [[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]],  # three types on a four-type catalog
        [[0.6, -0.2, 0.3, 0.3], [0.25, 0.25, 0.25, 0.25]],
        [[np.nan, 0.5, 0.25, 0.25], [0.25, 0.25, 0.25, 0.25]],
    ], ids=["wrong-width", "negative-entry", "nan-entry"])
    def test_bad_profiles_fail_at_construction(self, catalog, profiles):
        with pytest.raises(ValueError, match="true_profiles"):
            self._study(catalog, true_profiles=np.array(profiles))

    def test_integral_counts_are_stored_as_int(self, catalog):
        study = self._study(catalog, sample_sizes=(40.0,), replications=2.0, rng_seed=3.0,
                            known_samples=3.0, known_sample_size=50.0, second_trace=(1, 0))
        assert study.sample_sizes == (40,) and type(study.sample_sizes[0]) is int
        assert type(study.replications) is int and type(study.rng_seed) is int
        assert type(study.known_samples) is int and type(study.known_sample_size) is int
        assert study.second_trace == (1.0, 0.0)

    def test_grid_is_exhaustive(self, catalog):
        study = self._study(catalog)
        results = run_study(study, FitConfig(outer_max_iters=15))
        assert len(results.cells) == 2 * 2 * 2
        seen = {(c.unknown_share, c.sample_size, c.replication) for c in results.cells}
        assert len(seen) == 8

    def test_second_trace_mixture(self, catalog):
        study = self._study(catalog, second_trace=(0.51, 0.49),
                            unknown_shares=(0.3,), sample_sizes=(40,), replications=1)
        scenario = study.scenario(0.3, 40)
        assert scenario.trace_mixtures == ((0.7, 0.3), (0.51, 0.49))
        results = run_study(study, FitConfig(outer_max_iters=15))
        assert len(results.cells[0].theta_unknown_mean) == 2

    def test_deterministic_given_seed(self, catalog):
        study = self._study(catalog, unknown_shares=(0.3,), sample_sizes=(40,), replications=1)
        first = run_study(study, FitConfig(outer_max_iters=15))
        second = run_study(study, FitConfig(outer_max_iters=15))
        assert first.cells == second.cells

    def test_seed_changes_results(self, catalog):
        base = self._study(catalog, unknown_shares=(0.3,), sample_sizes=(40,), replications=1)
        other = self._study(catalog, unknown_shares=(0.3,), sample_sizes=(40,),
                            replications=1, rng_seed=1)
        assert run_study(base, FitConfig(outer_max_iters=15)).cells != run_study(
            other, FitConfig(outer_max_iters=15)
        ).cells

    def test_failed_cells_are_recorded(self, catalog, monkeypatch, tmp_path):
        # a cell whose fit raises keeps the study running: its row carries
        # the error, blank estimates, and counts as a failure in the aggregate
        def failing_fit(corpus, config):
            raise ValueError("fit exploded")

        monkeypatch.setattr(simulator, "fit", failing_fit)
        study = self._study(catalog, unknown_shares=(0.3,), sample_sizes=(40,),
                            second_trace=(0.5, 0.5))
        results = run_study(study)
        assert [c.error for c in results.cells] == ["fit exploded"] * 2
        assert all(c.theta_unknown_mean == () and not c.converged for c in results.cells)
        assert results.aggregate() == [
            {"unknown_share": 0.3, "sample_size": 40, "replications": 0, "failures": 2}]
        write_cells_csv(results, tmp_path / "cells.csv")
        rows = list(csv.reader((tmp_path / "cells.csv").read_text().splitlines()))
        assert len(rows) == 3 and all(len(row) == len(rows[0]) for row in rows)
        for rep, row in enumerate(rows[1:]):
            # share, size, replication, converged, iterations, then a blank
            # bound, 2 traces x (mean, mode) and 4 profile entries, the error
            assert row == ["0.3", "40", str(rep), "0", "0"] + [""] * 9 + ["fit exploded"]

    def test_aggregate_header_comes_from_the_spec(self, catalog, tmp_path):
        # every replication of the first cell failed: the header still names
        # every trace and profile column, and only that cell's means are blank
        study = self._study(catalog, sample_sizes=(40,), second_trace=(0.5, 0.5))
        failed = [CellResult(0.3, 40, rep, error="fit exploded") for rep in range(2)]
        fitted = [CellResult(0.7, 40, rep, theta_unknown_mean=(0.5 + rep / 4, 0.5),
                             theta_unknown_mode=(0.5, 0.5), beta_unknown_mean=(0.25,) * 4,
                             converged=True, iterations=3, elbo=-1.0) for rep in range(2)]
        write_aggregate_csv(StudyResults(study, tuple(failed + fitted)), tmp_path / "agg.csv")
        rows = list(csv.reader((tmp_path / "agg.csv").read_text().splitlines()))
        assert rows[0] == ["unknown_share", "sample_size", "replications", "failures",
                           "trace0_mean", "trace0_mode", "trace0_abs_err",
                           "trace1_mean", "trace1_mode", "trace1_abs_err",
                           "beta_unknown_0", "beta_unknown_1", "beta_unknown_2", "beta_unknown_3"]
        assert rows[1:] == [
            ["0.3", "40", "0", "2"] + [""] * 10,
            ["0.7", "40", "2", "0", "0.625", "0.5", "0.125", "0.5", "0.5", "0.0"] + ["0.25"] * 4]

    def test_aggregate_and_csvs(self, catalog, tmp_path):
        study = self._study(catalog)
        results = run_study(study, FitConfig(outer_max_iters=15))
        rows = results.aggregate()
        assert len(rows) == 4
        assert {(r["unknown_share"], r["sample_size"]) for r in rows} == {
            (0.3, 40), (0.3, 80), (0.7, 40), (0.7, 80),
        }
        write_cells_csv(results, tmp_path / "cells.csv")
        write_aggregate_csv(results, tmp_path / "agg.csv")
        cells_lines = (tmp_path / "cells.csv").read_text().splitlines()
        assert len(cells_lines) == 1 + 8
        agg_lines = (tmp_path / "agg.csv").read_text().splitlines()
        assert len(agg_lines) == 1 + 4

    def test_grid_validation(self, catalog):
        with pytest.raises(ValueError):
            self._study(catalog, unknown_shares=())
        with pytest.raises(ValueError):
            self._study(catalog, unknown_shares=(0.0, 0.5))
        # aggregate() finds a cell's rows by value, so a grid value is given once
        with pytest.raises(ValueError, match=r"unknown_shares repeats a value: \[0.4, 0.4\]"):
            self._study(catalog, unknown_shares=(0.4, 0.4))
        with pytest.raises(ValueError, match=r"sample_sizes repeats a value: \[40, 80, 40\]"):
            self._study(catalog, sample_sizes=[40, 80, 40])
        for replications in (0, -2):
            with pytest.raises(ValueError, match="replications"):
                self._study(catalog, replications=replications)
