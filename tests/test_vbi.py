import contextlib
import dataclasses
import json
import logging
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy.special import gammaln

from dustmix import numerics, vbi
from dustmix.model import (
    Corpus,
    CorpusValidationError,
    LocationRole,
    ParticleCatalog,
)
from dustmix.datasets import at_lq_corpus, at_lq_point_profiles
from dustmix.numerics import beta_hpdi, beta_summary
from dustmix.posterior import build_report, theta_marginal
from dustmix.simulator import ScenarioSpec, StudySpec, generate_corpus
from dustmix.vbi import (
    FitConfig,
    NumericalFailure,
    corpus_elbo,
    elbo_terms,
    estep_sample,
    fit,
    initialize,
)
from conftest import theta_interval
from test_bad_input import BAD_INPUTS
import _pins
from _oracles import (
    EXACT_SHARE_MEAN,
    EXACT_SHARE_SD,
    FROZEN_2X2,
    bundled_counts,
    fixed_point_2x2,
    gibbs_trace_shares,
)


def estep_from_start(alpha, eta, counts_vec, config=None):
    """:func:`estep_sample` of one sample from the start a lone sample gets:
    gamma = alpha + count / sources, lam = eta.  Returns gamma, lam, phi and
    the bounds."""
    counts = np.asarray(counts_vec, dtype=np.float64)[None]
    a = np.asarray(alpha, dtype=np.float64)[None]
    gamma, lam, phi, bounds = estep_sample(counts, a, eta, a + counts.sum() / a.shape[1], eta,
                                           config or FitConfig())
    return gamma[0], lam, phi[0], bounds


def random_instances():
    """Random single-sample instances (alpha, eta, counts), fixed seed."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        M = int(rng.integers(1, 5))
        T = int(rng.integers(2, 7))
        alpha = rng.uniform(0.2, 5.0, size=M)
        eta = rng.uniform(0.2, 5.0, size=(M, T))
        counts_vec = rng.integers(0, 30, size=T)
        if counts_vec.sum() == 0:
            counts_vec[0] = 1
        yield alpha, eta, counts_vec


class TestInitialize:
    def test_both_known_pattern(self, corpus_both_known):
        eta, a, loc, counts, gamma = initialize(corpus_both_known, FitConfig())
        assert_allclose(eta, 1.0)
        assert a.shape == (4, 2)
        assert_allclose(a[0], [150.0, 1.0])   # AT location
        assert_allclose(a[1], [1.0, 150.0])   # LQ location
        assert_allclose(a[2], [1.0, 1.0])     # traces
        assert_allclose(a[3], [1.0, 1.0])
        assert len(loc) == len(counts) == len(gamma) == 26
        for n, (loc_id, sample) in enumerate(corpus_both_known.iter_samples()):
            assert loc[n] == loc_id and np.array_equal(counts[n], sample.counts)
            assert_allclose(gamma[n], a[loc_id] + sample.total / (2 * 26))

    def test_single_known_pattern(self, corpus_at_known):
        _, a, *_ = initialize(corpus_at_known, FitConfig())
        assert a.shape == (3, 2)
        assert_allclose(a[0], [150.0, 1.0])
        assert_allclose(a[1:], 1.0)

    def test_refuses_invalid_corpus(self):
        corpus = Corpus.from_groups(ParticleCatalog(("a", "b")),
                                    [("t", LocationRole.trace(), [np.array([1, 1])])], 2)
        with pytest.raises(CorpusValidationError) as err:
            initialize(corpus, FitConfig())
        assert any(v.code == "unknown-source-limit" for v in err.value.violations)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FitConfig(flat_weight=0.0)
        assert [field.name for field in dataclasses.fields(FitConfig)] == [
            "flat_weight", "estep_tol", "estep_max_iters", "outer_max_iters"]
        with pytest.raises(ValueError, match="^outer_max_iters must be at least 1, got 0$"):
            FitConfig(outer_max_iters=0)

    @pytest.mark.parametrize("name", ["flat_weight", "estep_tol"])
    def test_config_refuses_infinite_settings(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got inf$"):
            FitConfig(**{name: np.inf})

    @pytest.mark.parametrize("name, value", [("known_weight", 150.0), ("outer_tol", 1e-6)])
    def test_config_refuses_engine_constants(self, name, value):
        # the control-pinning weight and the outer tolerance are no settings
        with pytest.raises(TypeError, match=name):
            FitConfig(**{name: value})


class TestEstepSample:
    def test_single_source_closed_form(self):
        alpha = np.array([2.0])
        eta = np.array([[1.5, 2.5, 1.0]])
        gamma, lam, phi, bounds = estep_from_start(alpha, eta, [4, 1, 2])
        assert_allclose(phi, 1.0)
        assert_allclose(gamma, alpha + 7.0)
        assert_allclose(lam, eta + np.array([[4.0, 1.0, 2.0]]))
        assert len(bounds) <= 2  # settles after the first sweep

    def test_symmetric_instance_uniform_responsibilities(self):
        alpha = np.array([1.3, 1.3, 1.3])
        eta = np.tile(np.array([2.0, 1.0, 3.0, 1.0]), (3, 1))
        _, _, phi, _ = estep_from_start(alpha, eta, [5, 0, 2, 1])
        assert_allclose(phi, 1.0 / 3.0, atol=1e-14)

    def test_oracle_fixed_point(self):
        # two sources, two types: compare against the 64-digit fixed point
        alpha = np.array([1.0, 1.0])
        eta = np.array([[2.0, 1.0], [1.0, 2.0]])
        gamma, lam, phi, _ = estep_from_start(
            alpha, eta, [3, 1], FitConfig(estep_tol=1e-16, estep_max_iters=5000))
        assert_allclose(gamma, FROZEN_2X2["gamma"], atol=1e-8)
        assert_allclose(lam, FROZEN_2X2["lam"], atol=1e-8)
        assert_allclose(phi, FROZEN_2X2["phi"], atol=1e-8)

    def test_oracle_regenerates_frozen_values(self):
        gamma, lam, phi, terms = fixed_point_2x2()
        assert_allclose([float(g) for g in gamma], FROZEN_2X2["gamma"], atol=1e-15)
        assert float(terms["log_p_beta"]) == pytest.approx(
            FROZEN_2X2["terms"]["log_p_beta"], abs=1e-15
        )

    def test_elbo_monotone_across_sweeps(self, corpus_both_known):
        config = FitConfig()
        eta, A, loc, counts, gamma = initialize(corpus_both_known, config)
        for n in range(len(loc)):
            row = slice(n, n + 1)
            *_, bounds = estep_sample(counts[row], A[loc[row]], eta, gamma[row], eta, config)
            assert np.all(np.diff(bounds) >= -1e-8)

    def test_count_identities(self):
        for alpha, eta, counts_vec in random_instances():
            gamma, lam, _, _ = estep_from_start(alpha, eta, counts_vec)
            n = counts_vec.sum()
            assert (gamma - alpha).sum() == pytest.approx(n, abs=1e-9)
            assert (lam - eta).sum() == pytest.approx(n, abs=1e-9)

    def test_type_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        M, T = 3, 5
        alpha = rng.uniform(0.5, 3.0, size=M)
        eta = rng.uniform(0.5, 3.0, size=(M, T))
        counts_vec = rng.integers(1, 20, size=T)
        perm = rng.permutation(T)
        config = FitConfig(estep_tol=1e-12)

        gamma, lam, phi, _ = estep_from_start(alpha, eta, counts_vec, config)
        gamma_p, lam_p, phi_p, _ = estep_from_start(alpha, eta[:, perm], counts_vec[perm], config)

        assert_allclose(gamma_p, gamma, atol=1e-10)
        assert_allclose(lam_p, lam[:, perm], atol=1e-10)
        assert_allclose(phi_p, phi[perm, :], atol=1e-10)

    @pytest.mark.parametrize("scenario", ["both_known", "at_known", "lq_known"])
    def test_runs_on_initialize_rows(self, scenario):
        # each sample's row of initialize's arrays goes in as it is, and what
        # comes back is a row corpus_elbo reads: its bound is the last one
        config = FitConfig()
        eta, A, loc, counts, gamma = initialize(_pins.bundled_corpus(scenario), config)
        for n in range(len(loc)):
            row = counts[n:n + 1], A[loc[n:n + 1]]
            new_gamma, lam, phi, bounds = estep_sample(*row, eta, gamma[n:n + 1], eta, config)
            assert corpus_elbo(*row, eta, new_gamma, phi, lam) == bounds[-1]

    @staticmethod
    def _next_sweep_step(counts_vec, alpha, eta, gamma, lam):
        """Largest relative gamma/lam change of one more sweep from (gamma, lam)."""
        again_gamma, again_lam, _, _ = estep_sample(
            np.asarray(counts_vec, dtype=np.float64)[None], alpha[None], eta, gamma[None], lam,
            FitConfig(estep_max_iters=1))
        return max(np.abs(again_gamma / gamma - 1.0).max(), np.abs(again_lam / lam - 1.0).max())

    def test_stops_at_parameter_fixed_point(self):
        # the bound goes flat before the parameters stop moving, so the
        # stop is on the parameter step: one more sweep moves nothing by
        # more than estep_tol
        alpha = np.array([1.0, 1.0])
        eta = np.array([[2.0, 1.0], [1.0, 2.0]])
        config = FitConfig(estep_tol=1e-16, estep_max_iters=5000)
        gamma, lam, _, _ = estep_from_start(alpha, eta, [3, 1], config)
        assert self._next_sweep_step(np.array([3, 1]), alpha, eta, gamma, lam) <= config.estep_tol

        config = FitConfig()
        for alpha, eta, counts_vec in random_instances():
            gamma, lam, _, _ = estep_from_start(alpha, eta, counts_vec, config)
            assert self._next_sweep_step(counts_vec, alpha, eta, gamma, lam) <= config.estep_tol

    def test_warns_when_stopped_at_cap(self, caplog):
        # the FROZEN_2X2 instance
        alpha = np.array([1.0, 1.0])
        eta = np.array([[2.0, 1.0], [1.0, 2.0]])
        with caplog.at_level(logging.WARNING, logger="dustmix.vbi"):
            estep_from_start(alpha, eta, [3, 1], FitConfig(estep_max_iters=3))
        assert any("after 3 sweeps" in record.getMessage() for record in caplog.records)

        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="dustmix.vbi"):
            estep_from_start(alpha, eta, [3, 1])
        assert not caplog.records

    def test_bounds_are_the_swept_states_bounds(self):
        # each recorded bound is the one-row corpus_elbo of the state that
        # sweep made, bit for bit, and the last sweep's state is returned
        for alpha, eta, counts_vec in random_instances():
            gamma, lam, phi, bounds = estep_from_start(alpha, eta, counts_vec)
            c, a = counts_vec[None].astype(float), alpha[None]
            mixing = numerics.DirichletRows(a + counts_vec.sum() / len(alpha))
            profiles = numerics.DirichletRows(eta)
            expected = []
            for _ in bounds:
                mixing, profiles, swept = vbi._sweep_rows(c, a, eta, mixing, profiles)
                expected.append(corpus_elbo(c, a, eta, mixing.rows, swept.phi, profiles.rows))
            assert bounds == expected
            assert np.array_equal(gamma, mixing.rows[0]) and np.array_equal(lam, profiles.rows)
            assert np.array_equal(phi, swept.phi[0])


class TestSweep:
    def test_rows_match_one_row_sweeps(self):
        # each row of a batched sweep is its one-row sweep against the same
        # profile posterior, bit for bit; the profile posterior adds every
        # row's allocations
        rng = np.random.default_rng(7)
        for _ in range(10):
            N, M, T = int(rng.integers(1, 6)), int(rng.integers(1, 5)), int(rng.integers(2, 7))
            counts = rng.integers(0, 30, size=(N, T)).astype(np.float64)
            a = rng.uniform(0.2, 5.0, size=(N, M))
            eta = rng.uniform(0.2, 5.0, size=(M, T))
            gamma = rng.uniform(0.5, 30.0, size=(N, M))
            lam = numerics.DirichletRows(rng.uniform(0.5, 40.0, size=(M, T)))
            new_gamma, new_lam, swept = vbi._sweep_rows(
                counts, a, eta, numerics.DirichletRows(gamma), lam)
            allocated = np.zeros((M, T))
            for n in range(N):
                row_gamma, row_lam, row = vbi._sweep_rows(
                    counts[n:n + 1], a[n:n + 1], eta, numerics.DirichletRows(gamma[n:n + 1]), lam)
                assert_allclose(new_gamma.rows[n], row_gamma.rows[0], rtol=0, atol=0)
                assert_allclose(swept.phi[n], row.phi[0], rtol=0, atol=0)
                allocated += row_lam.rows - eta
            assert_allclose(new_lam.rows, eta + allocated, rtol=1e-12)

    def test_no_rows(self):
        eta = np.array([[1.0, 2.0, 3.0], [2.0, 2.0, 1.0]])
        lam = eta + 4.0
        gamma, new_lam, swept = vbi._sweep_rows(
            np.zeros((0, 3)), np.ones((0, 2)), eta, numerics.DirichletRows(np.ones((0, 2))),
            numerics.DirichletRows(lam))
        assert gamma.rows.shape == (0, 2) and swept.phi.shape == (0, 3, 2)
        assert np.array_equal(new_lam.rows, eta)
        assert numerics.DirichletRows(np.ones((0, 3))).e_log.shape == (0, 3)


def _domain_instance():
    """A small valid corpus state: counts, a, eta, gamma, phi, lam."""
    rng = np.random.default_rng(9)
    N, M, T = 3, 2, 4
    return {
        "counts": rng.integers(1, 9, size=(N, T)).astype(np.float64),
        "a": rng.uniform(0.5, 2.0, size=(N, M)),
        "eta": rng.uniform(0.5, 2.0, size=(M, T)),
        "gamma": rng.uniform(1.0, 9.0, size=(N, M)),
        "phi": rng.dirichlet(np.ones(M), size=(N, T)),
        "lam": rng.uniform(1.0, 9.0, size=(M, T)),
    }


def _spoiled(name, bad):
    """The domain instance with one entry of ``name`` set to ``bad``, or with
    one row of it whose sum overflows (``bad`` is None)."""
    state = _domain_instance()
    if bad is None:
        state[name][0, :2] = 1e308
    else:
        state[name][0, 0] = bad
    return state


BAD_VALUES = [0.0, -1.0, np.nan, np.inf, None]


class TestDomainCheck:
    """Every array handed to digamma or log Gamma, and every row sum of one,
    is rejected with ValueError when not strictly positive and finite."""

    @pytest.mark.parametrize("bad", BAD_VALUES)
    @pytest.mark.parametrize("name", ["gamma", "lam", "a", "eta"])
    def test_corpus_elbo(self, name, bad):
        with pytest.raises(ValueError), np.errstate(over="ignore"):
            vbi.corpus_elbo(**_spoiled(name, bad))

    # the sweep reads gamma and lam as checked DirichletRows and evaluates
    # digammas of those only; a and eta enter it by addition, and the next
    # state's check catches what they spoil
    @pytest.mark.parametrize("bad", BAD_VALUES)
    @pytest.mark.parametrize("name", ["gamma", "lam"])
    def test_sweep(self, name, bad):
        state = _spoiled(name, bad)
        with pytest.raises(ValueError), np.errstate(over="ignore"):
            vbi._sweep_rows(state["counts"], state["a"], state["eta"],
                            *map(numerics.DirichletRows, (state["gamma"], state["lam"])))


class TestElboSample:
    """A sample's bound is the one-row call of :func:`corpus_elbo`."""

    def test_single_type_data_term_is_zero(self):
        # with one particle type the data term is psi(lam) - psi(lam) = 0
        terms = elbo_terms(np.array([[5.0]]), np.array([[2.0]]), np.array([[2.0]]),
                           np.array([[3.0]]), np.ones((1, 1, 1)), np.array([[2.5]]))
        assert terms["log_p_x"] == 0.0

    def test_responsibility_entropy_bounds(self):
        rng = np.random.default_rng(5)
        M, T = 4, 6
        counts_vec = rng.integers(0, 25, size=T)
        counts_vec[0] = max(counts_vec[0], 1)
        eta = rng.uniform(0.5, 4.0, size=(M, T))
        phi = rng.dirichlet(np.ones(M), size=T)
        gamma = rng.uniform(0.5, 5.0, size=M)
        terms = elbo_terms(counts_vec[None].astype(float), rng.uniform(0.5, 3.0, size=(1, M)),
                           eta, gamma[None], phi[None], eta)
        n = counts_vec.sum()
        assert -1e-12 <= terms["entropy_z"] <= n * np.log(M) + 1e-12

    def test_oracle_terms(self):
        row = {"counts": np.array([[3.0, 1.0]]), "a": np.array([[1.0, 1.0]]),
               "eta": np.array([[2.0, 1.0], [1.0, 2.0]]),
               "gamma": np.array([FROZEN_2X2["gamma"]]), "phi": np.array([FROZEN_2X2["phi"]]),
               "lam": np.array(FROZEN_2X2["lam"])}
        terms = elbo_terms(**row)
        for name, expected in FROZEN_2X2["terms"].items():
            assert terms[name] == pytest.approx(expected, abs=1e-8), name
        assert corpus_elbo(**row) == pytest.approx(FROZEN_2X2["elbo"], abs=1e-8)


class TestCorpusElbo:
    """The corpus bound is the sum of the per-sample bounds with the shared
    profile block counted once, not once per sample."""

    @staticmethod
    def _check(counts, a, eta, gamma, phi, lam):
        per_sample = sum(corpus_elbo(*(rows[n:n + 1] for rows in (counts, a)), eta,
                                     *(rows[n:n + 1] for rows in (gamma, phi)), lam)
                         for n in range(len(counts)))
        terms = elbo_terms(counts[:1], a[:1], eta, gamma[:1], phi[:1], lam)
        profile = terms["log_p_beta"] + terms["entropy_beta"]
        expected = per_sample - (len(counts) - 1) * profile
        total = corpus_elbo(counts, a, eta, gamma, phi, lam)
        assert total == pytest.approx(expected, rel=1e-12)

    def test_fitted_states(self, fit_both_known, corpus_both_known):
        result, _ = fit_both_known
        _, A, loc, counts, _ = initialize(corpus_both_known, FitConfig())
        self._check(counts, A[loc], result.H_converged.values, result.gamma, result.phi,
                    result.lam)

    def test_random_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            N = int(rng.integers(2, 6))
            M = int(rng.integers(1, 5))
            T = int(rng.integers(2, 7))
            eta = rng.uniform(0.2, 5.0, size=(M, T))
            lam = rng.uniform(0.5, 40.0, size=(M, T))
            counts = np.array([rng.integers(1, 30, size=T) for _ in range(N)], dtype=np.float64)
            rows = [(rng.uniform(0.5, 30.0, size=M), rng.dirichlet(np.ones(M), size=T))
                    for _ in range(N)]
            gamma, phi = (np.array(block) for block in zip(*rows))
            self._check(counts, rng.uniform(0.2, 5.0, size=(N, M)), eta, gamma, phi, lam)


def _one_trace_corpus(*trace_samples):
    """One known location of one sample, one trace location (one sample
    [4, 3, 3] unless given) and one unknown source, over three types."""
    return Corpus.from_groups(ParticleCatalog(("a", "b", "c")), [
        ("k", LocationRole.known(), [np.array([6, 2, 2])]),
        ("t", LocationRole.trace(), trace_samples or [np.array([4, 3, 3])]),
    ], 1)


class TestFit:
    def test_known_only_profile_recovery(self, corpus_both_known, pooled_profiles):
        known_only = Corpus(
            catalog=corpus_both_known.catalog,
            locations=tuple(l for l in corpus_both_known.locations if l.role.is_known),
            n_unknown_sources=0,
        )
        result = fit(known_only, FitConfig())
        _, pooled = pooled_profiles
        normalized = result.H_converged.values / result.H_converged.values.sum(axis=1, keepdims=True)
        assert np.abs(normalized - pooled).max() < 0.02
        assert result.A_converged.values.shape == (0, 2)

    def test_single_source_trace_degenerate(self):
        # a lone source's share row is Beta(w, 0), which no report can hold
        corpus = Corpus.from_groups(ParticleCatalog(("a", "b", "c")), [
            ("k", LocationRole.known(), [np.array([5, 3, 2])]),
            ("t", LocationRole.trace(), [np.array([1, 1, 8])]),
        ])
        with pytest.raises(CorpusValidationError) as refused:
            fit(corpus, FitConfig(outer_max_iters=20))
        assert [v.code for v in refused.value.violations] == ["single-source-trace"]

    def test_duplicate_trace_name_is_refused(self):
        # the report would key both trace rows by "t" and keep one of them
        corpus = Corpus.from_groups(ParticleCatalog(("a", "b", "c")), [
            ("k", LocationRole.known(), [np.array([5, 3, 2])]),
            ("t", LocationRole.trace(), [np.array([1, 1, 8])]),
            ("t", LocationRole.trace(), [np.array([4, 1, 5])]),
        ], 1)
        with pytest.raises(CorpusValidationError, match=r"\[duplicate-location-name\] "
                           r"2 locations are named 't'"):
            fit(corpus, FitConfig())

    def test_one_source_trace_corpus_is_refused(self):
        # the bundled corpus without LQ and with no unknown source declared:
        # each trace's share row would be [w], a Beta(w, 0) marginal
        with pytest.raises(CorpusValidationError, match=r"\[single-source-trace\]"):
            fit(at_lq_corpus(drop_known="LQ"))
        assert fit(at_lq_corpus(unknown_sources=1, drop_known="LQ")).converged

    def test_known_sources_follow_location_order(self):
        # a trace, then LQ, then AT: LQ is source 0 and AT source 1
        bundled = at_lq_corpus()
        by_name = {loc.name: loc for loc in bundled.locations}
        corpus = Corpus.from_groups(bundled.catalog, [
            (name, by_name[name].role, [s.counts for s in by_name[name].samples])
            for name in ("e1", "LQ", "AT")])
        assert corpus.source_names == ("LQ", "AT")
        _, A, _, _, _ = initialize(corpus, FitConfig())
        assert A.tolist() == [[1.0, 1.0], [150.0, 1.0], [1.0, 150.0]]
        report = build_report(fit(corpus), corpus)
        assert list(report.beta) == ["LQ", "AT"]
        (lq, at), = report.theta.values()
        assert (lq.label, at.label) == ("LQ", "AT")
        # e1 is 10% LQ and 90% AT
        assert lq.mean < 0.2 < 0.8 < at.mean

    def test_outer_trace_monotone(self, fit_both_known):
        result, _ = fit_both_known
        trace = np.array(result.elbo_trace)
        assert np.all(np.diff(trace) >= -1e-8 * np.maximum(np.abs(trace[:-1]), 1.0))

    def test_nonconvergence_reported_not_raised(self, corpus_both_known):
        result = fit(corpus_both_known, FitConfig(outer_max_iters=1))
        assert not result.converged
        assert result.iterations == 1
        assert len(result.elbo_trace) == 1

    def test_outer_loop_stops_at_its_tolerance(self, fit_both_known, corpus_both_known,
                                               monkeypatch):
        # at the first relative bound change between phases of at most _OUTER_TOL
        def relative_changes(result):
            trace = np.array(result.elbo_trace)
            return np.abs(np.diff(trace)) / np.abs(trace[:-1])

        result, _ = fit_both_known
        changes = relative_changes(result)
        assert result.converged and changes[-1] <= vbi._OUTER_TOL < changes[:-1].min()
        monkeypatch.setattr(vbi, "_OUTER_TOL", 1e-4)
        looser = fit(corpus_both_known, FitConfig())
        changes = relative_changes(looser)
        assert looser.converged and looser.iterations < result.iterations
        assert changes[-1] <= 1e-4 < changes[:-1].min()

    def test_inference_phase_warns_at_cap(self, caplog):
        corpus = _one_trace_corpus()

        def phase_warnings(config):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="dustmix.vbi"):
                fit(corpus, config)
            return [record.getMessage() for record in caplog.records
                    if record.getMessage().startswith("inference phase")]

        # a phase capped at one sweep has no bound change to report
        warned = phase_warnings(FitConfig(estep_max_iters=1, outer_max_iters=3))
        assert warned and all(message == "inference phase: stopped at its cap after 1 sweep, "
                              "with no bound change to compare" for message in warned)
        warned = phase_warnings(FitConfig(estep_tol=1e-300, estep_max_iters=2, outer_max_iters=3))
        assert warned
        for message in warned:
            match = re.fullmatch(r"inference phase: bound still changing by (\S+) \(relative\) "
                                 r"after 2 sweeps", message)
            assert match and np.isfinite(float(match[1])), message

    def test_duplicated_sample_states_identical(self):
        base = np.array([4, 3, 3])
        corpus = _one_trace_corpus(base, base.copy())
        result = fit(corpus, FitConfig(outer_max_iters=30))
        twins = [n for n, (loc_id, _) in enumerate(corpus.iter_samples()) if loc_id == 1]
        assert_allclose(result.gamma[twins[0]], result.gamma[twins[1]], rtol=0, atol=0)
        assert_allclose(result.phi[twins[0]], result.phi[twins[1]], rtol=0, atol=0)

    def test_corpus_count_identity(self, fit_both_known, corpus_both_known):
        result, _ = fit_both_known
        lam = result.lam
        eta = result.H_converged.values
        total = sum(s.total for _, s in corpus_both_known.iter_samples())
        assert (lam - eta).sum() == pytest.approx(total, rel=1e-9)

    def test_refuses_unknown_source_without_trace_sample(self, corpus_both_known):
        # the bundled corpus without its trace locations, one unknown source
        known = tuple(l for l in corpus_both_known.locations if l.role.is_known)
        with pytest.raises(CorpusValidationError) as err:
            fit(Corpus(corpus_both_known.catalog, known, 1), FitConfig())
        assert [v.code for v in err.value.violations] == ["unknown-without-trace"]

    def test_builds_no_per_sample_states(self, corpus_both_known, monkeypatch):
        # the fit keeps its state in arrays, from the starting point that
        # initialize returns to the result
        starts = []
        start = vbi.initialize
        monkeypatch.setattr(vbi, "initialize",
                            lambda *args: starts.append(start(*args)) or starts[-1])
        result = fit(corpus_both_known, FitConfig())
        assert len(starts) == 1 and all(isinstance(part, np.ndarray) for part in starts[0])
        N, M, T = (corpus_both_known.n_samples, corpus_both_known.n_sources,
                   corpus_both_known.n_types)
        assert result.gamma.shape == (N, M)
        assert result.phi.shape == (N, T, M)
        assert result.lam.shape == (M, T)

    def test_makes_no_seven_term_bound(self, corpus_both_known, fit_both_known, monkeypatch):
        # every bound a finite fit reads is a swept state's collapsed bound
        calls = []
        bound_terms = vbi._bound_terms
        monkeypatch.setattr(vbi, "_bound_terms", lambda *args: calls.append(1) or bound_terms(*args))
        result = fit(corpus_both_known, FitConfig())
        assert np.isfinite(result.elbo_trace).all() and not calls
        assert result.elbo_trace == fit_both_known[0].elbo_trace

    def test_deterministic(self, corpus_both_known, fit_both_known):
        result, _ = fit_both_known
        again = fit(corpus_both_known, FitConfig())
        assert_allclose(again.A_converged.values, result.A_converged.values, rtol=0, atol=0)
        assert again.elbo_trace == result.elbo_trace

    @pytest.mark.parametrize("scenario, share", [("both_known", "none"), ("at_known", "0.")])
    def test_logs_what_the_warm_start_chose(self, scenario, share, request, caplog):
        result = request.getfixturevalue(f"fit_{scenario}")
        if scenario == "both_known":
            result = result[0]
        with caplog.at_level(logging.DEBUG, logger="dustmix.vbi"):
            again = fit(request.getfixturevalue(f"corpus_{scenario}"), FitConfig())
        chosen = [record for record in caplog.records
                  if record.getMessage().startswith("warm start:")]
        assert len(chosen) == 1 and chosen[0].levelno == logging.DEBUG
        message = chosen[0].getMessage()
        # the known stage runs its full cap on the bundled corpora; Newton
        # steps settle each trace-stage pass well inside it
        assert "known stage 50 sweeps (not settled)" in message
        passes = message.split("trace stage per pass [")[1].split("]")[0].split("; ")
        assert len(passes) == 3
        for chosen in passes:
            match = re.fullmatch(
                r"(\d+) sweeps, (\d+) Newton steps kept, (\d+) reverted, settled", chosen)
            assert match and 1 <= int(match[1]) <= 15 and int(match[2]) > 0, chosen
        assert message.split("bootstrap unknown share ")[1].startswith(share)
        # logging changes no output
        assert again.elbo_trace == result.elbo_trace
        assert np.array_equal(again.A_converged.values, result.A_converged.values)


def _trace_stage_args(corpus):
    """The arguments of ``corpus``'s first trace-stage pass: the trace rows'
    counts, mixing prior rows, gamma and phi (the flat 1 / sources), and the
    frozen profile posterior."""
    captured = []
    settle = vbi._settle_trace_rows

    def capture(*args):
        captured.append(args)
        return settle(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vbi, "_settle_trace_rows", capture)
        fit(corpus, FitConfig(outer_max_iters=1))
    return captured[0]


class TestTraceStage:
    """The warm start's trace stage settles each trace row at its fixed
    point by per-row Newton steps, with plain sweeps as the fallback."""

    @staticmethod
    def _plain(monkeypatch, counts, a, gamma, phi, lam):
        """The stage with every factorisation failing, so that every row
        takes its plain sweep, and its cap lifted; then called again (one
        sweep a call) until the rows no longer move.  Returns the first
        call's result and the rows at rest."""
        def failing(*args):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(vbi, "_sample_whitening", failing)
        monkeypatch.setattr(vbi, "_WARM_SWEEPS", 100_000)
        first = vbi._settle_trace_rows(counts, a, gamma, phi, lam)
        gamma, phi = first[0], first[1].phi
        for _ in range(5_000):
            new_gamma, swept, *_ = vbi._settle_trace_rows(counts, a, gamma, phi, lam)
            phi = swept.phi
            if np.array_equal(new_gamma, gamma):
                return first, gamma
            gamma = new_gamma
        pytest.fail("plain sweeps did not come to rest")

    @pytest.mark.parametrize("name", ["both_known", "at_known", "lq_known", "three_source"])
    def test_newton_reaches_the_plain_fixed_point(self, name, request, monkeypatch):
        corpus = (_pins.three_source_corpus() if name == "three_source"
                  else request.getfixturevalue(f"corpus_{name}"))
        args = _trace_stage_args(corpus)
        gamma, _, sweeps, kept, _, settled = vbi._settle_trace_rows(*args)
        assert settled and kept > 0 and sweeps <= 15
        # plain sweeps stopped by the settle test sit up to 2e-8 (relative)
        # short of their rest point on the 3-source corpus, after 265 sweeps
        (plain, *_), at_rest = self._plain(monkeypatch, *args)
        assert_allclose(plain, at_rest, rtol=1e-7, atol=0)
        assert_allclose(gamma, at_rest, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("spoiled", ["factorisation", "residual"])
    def test_spoiled_steps_settle_by_plain_sweeps(self, corpus_at_known, spoiled, monkeypatch):
        # a failing factorisation takes no Newton step; a step that grows its
        # row's residual (here to 1e3 times the row) is taken back, and that
        # row's sweep made again from its plain sweep
        if spoiled == "residual":
            monkeypatch.setattr(vbi, "_row_newton_points",
                                lambda counts, gamma, phi, swept: 1e3 * gamma)
        counts, a, gamma, phi, lam = _trace_stage_args(corpus_at_known)
        first, _ = self._plain(monkeypatch, counts, a, gamma, phi, lam)
        new_gamma, new_swept, sweeps, kept, reverted, settled = first
        assert settled and kept == 0 and reverted == len(gamma) * (sweeps - 1)
        for _ in range(sweeps):  # plain sweeps, as the stage made them before
            swept = vbi._Responsibilities(counts, numerics.DirichletRows(gamma), lam)
            gamma = a + swept.allocated
        assert np.array_equal(new_gamma, gamma) and np.array_equal(new_swept.phi, swept.phi)

    @pytest.mark.parametrize("factor", [1e3, 1e-3])
    def test_row_far_from_its_fixed_point(self, corpus_at_known, factor, monkeypatch):
        counts, a, gamma, phi, lam = _trace_stage_args(corpus_at_known)
        rest, rest_swept, *_ = vbi._settle_trace_rows(counts, a, gamma, phi, lam)
        start = rest.copy()
        start[0] *= factor
        points, newton_points = [], vbi._row_newton_points
        monkeypatch.setattr(vbi, "_row_newton_points",
                            lambda *args: points.append(newton_points(*args)) or points[-1])
        gamma, _, _, kept, _, settled = vbi._settle_trace_rows(counts, a, start, rest_swept.phi,
                                                              lam)
        assert settled and kept > 0
        # every Newton point the stage could take is strictly positive
        assert all(np.all(point[np.isfinite(point).all(axis=1)] > 0.0) for point in points)
        assert_allclose(gamma, rest, rtol=1e-12, atol=0)


class TestNumericalFailure:
    def test_names_the_term(self):
        state = _domain_instance()
        state["phi"][1, 2, 0] = np.nan
        with pytest.raises(NumericalFailure) as err:
            vbi.corpus_elbo(**state)
        assert err.value.term == "log_p_x"
        assert err.value.iteration is None

    def test_inference_phase_names_the_sweep(self, monkeypatch):
        state = _domain_instance()
        sweep, calls = vbi._sweep_rows, []

        def spoiling_sweep(counts, *args):
            gamma, lam, swept = sweep(counts, *args)
            calls.append(1)
            if len(calls) == 2:
                swept.phi = swept.phi.copy()
                swept.phi[0, 0, 0] = np.nan
                swept.entropy_z = np.nan
            return gamma, lam, swept

        monkeypatch.setattr(vbi, "_sweep_rows", spoiling_sweep)
        gamma, lam = numerics.DirichletRows(state["gamma"]), numerics.DirichletRows(state["lam"])
        with pytest.raises(NumericalFailure) as err:
            vbi._inference_phase(state["counts"], state["a"], state["eta"], gamma, lam,
                                 FitConfig(estep_tol=1e-300))
        assert err.value.iteration == 2
        assert err.value.term == "log_p_x"
        assert "inference sweep 2" in str(err.value)


@contextlib.contextmanager
def _counting_work(monkeypatch):
    """Count the special-function evaluations (``evaluations``, the
    trigammas of the linear response included) and the
    :class:`numerics.DirichletRows` domain checks (``checks``) of the engine
    inside the block; warnings are silenced.  The engine reads every special
    function through the one handle ``numerics.special``, so the count
    replaces the functions it hands out."""
    counts = {"evaluations": 0, "checks": 0}

    def counting(function):
        def counted(*args):
            counts["evaluations"] += 1
            return function(*args)
        return counted

    class CountingRows(numerics.DirichletRows):
        def __init__(self, rows):
            counts["checks"] += 1
            super().__init__(rows)

    with monkeypatch.context() as mp:
        for name in ("gammaln", "psi", "zeta"):
            mp.setattr(numerics.special, name, counting(getattr(numerics.special, name)))
        mp.setattr(vbi, "DirichletRows", CountingRows)
        mp.setattr(vbi.logger, "disabled", True)
        yield counts


@pytest.fixture(scope="module")
def phase_start(corpus_both_known):
    """The arguments of the both-known fit's first inference phase."""
    captured = []
    original = vbi._inference_phase

    def capture(*args):
        captured.append(args)
        return original(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vbi, "_inference_phase", capture)
        fit(corpus_both_known, FitConfig(outer_max_iters=1))
    return captured[0]


def _assert_is_corpus_elbo(bound, counts, a, eta, gamma, phi, lam):
    """``bound`` equals :func:`vbi.corpus_elbo` of the state to 1e-12 of
    its summed absolute terms, the tolerance of :class:`TestCollapsedBound`."""
    terms = vbi._bound_terms(counts, *map(numerics.DirichletRows, (a, eta, gamma)), phi,
                             numerics.DirichletRows(lam))
    scale = sum(abs(value) for value in terms.values())
    assert abs(bound - vbi.corpus_elbo(counts, a, eta, gamma, phi, lam)) <= 1e-12 * scale


class TestSharedState:
    """An inference phase builds each state once; its collapsed bound and
    the next sweep share that state's special-function evaluations."""

    def test_bounds_equal_corpus_elbo(self, phase_start, monkeypatch):
        # the phase scores each swept state once, by its collapsed bound, and
        # returns the last one's state, responsibilities and bound
        scored = []
        collapsed_bound = vbi._collapsed_bound

        def recording(a, eta, gamma, lam, swept):
            bound = collapsed_bound(a, eta, gamma, lam, swept)
            scored.append(((a.rows, eta.rows, gamma.rows, swept.phi, lam.rows), bound))
            return bound

        monkeypatch.setattr(vbi, "_collapsed_bound", recording)
        gamma, lam, swept, bound, sweeps = vbi._inference_phase(
            *phase_start[:5], FitConfig(estep_tol=1e-12))
        monkeypatch.undo()
        assert sweeps > 2 and len(scored) == sweeps
        for args, collapsed in scored:
            _assert_is_corpus_elbo(collapsed, phase_start[0], *args)
        _, _, last_gamma, last_phi, last_lam = scored[-1][0]
        assert bound == scored[-1][1]
        assert gamma.rows is last_gamma and lam.rows is last_lam and swept.phi is last_phi

    def test_phase_from_its_fixed_point_makes_two_sweeps(self, phase_start):
        # no sweep moves a state at its fixed point, so the first two
        # sweeps' bounds agree; the start state itself is not scored
        counts, a, eta, gamma, lam = phase_start[:5]
        gamma, lam, *_ = vbi._fixed_point(counts, a, eta, gamma.rows, lam.rows, 1e-12, 20_000)
        rest = numerics.DirichletRows(gamma), numerics.DirichletRows(lam)
        assert vbi._inference_phase(counts, a, eta, *rest, FitConfig())[-1] == 2

    @staticmethod
    def _work(phase_start, sweeps, monkeypatch):
        """Special-function evaluations and domain checks of a phase capped
        at ``sweeps`` sweeps."""
        config = FitConfig(estep_tol=1e-300, estep_max_iters=sweeps)
        with _counting_work(monkeypatch) as counts:
            assert vbi._inference_phase(*phase_start[:5], config)[-1] == sweeps
        return counts

    def test_one_sweep_evaluates_each_state_once(self, phase_start, monkeypatch):
        # a phase that evaluated the sweep and the bound apart made 15
        # checked calls per sweep: 3 digammas in the sweep, 4 digammas and
        # 8 log Gammas in the bound; the collapsed bound needs only the 4 log
        # Gammas of the swept state
        short = self._work(phase_start, 2, monkeypatch)
        long = self._work(phase_start, 6, monkeypatch)
        assert (long["evaluations"] - short["evaluations"]) / 4 <= 7
        assert (long["checks"] - short["checks"]) / 4 <= 2


@st.composite
def _sweep_instances(draw):
    """Counts (with zero-count types, every sample holding a particle),
    priors a and eta, and a state gamma, lam to sweep from."""
    N, M, T = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(2, 6))
    counts = draw(arrays(np.float64, (N, T),
                         elements=st.sampled_from([0.0, 0.0, 1.0, 3.0, 40.0, 2000.0])))
    counts[:, 0] = np.maximum(counts[:, 0], 1.0)

    def positive(shape, lo, hi):
        return draw(arrays(np.float64, shape, elements=st.floats(lo, hi)))
    return (counts, positive((N, M), 0.05, 200.0), positive((M, T), 0.05, 200.0),
            positive((N, M), 0.05, 5000.0), positive((M, T), 0.05, 5000.0))


class TestCollapsedBound:
    """Right after a sweep the bound collapses to log normalisers and the
    responsibility entropy; the inference phase stops on that form."""

    @settings(max_examples=300, deadline=None)
    @given(_sweep_instances())
    def test_equals_corpus_elbo_after_a_sweep(self, instance):
        counts, a, eta, gamma, lam = instance
        a, eta, gamma, lam = map(numerics.DirichletRows, (a, eta, gamma, lam))
        gamma, lam, swept = vbi._sweep_rows(counts, a.rows, eta.rows, gamma, lam)
        terms = vbi._bound_terms(counts, a, eta, gamma, swept.phi, lam)
        # relative to the terms: a bound near zero is a difference of terms
        # hundreds of times larger, and keeps only their rounding
        scale = sum(abs(value) for value in terms.values())
        collapsed = vbi._collapsed_bound(a, eta, gamma, lam, swept)
        assert abs(collapsed - vbi._check_terms(terms)) <= 1e-12 * scale
        # the closed-form entropy against the one summed over phi
        assert abs(swept.entropy_z - terms["entropy_z"]) <= 1e-12 * scale

    def test_entropy_of_underflowed_responsibilities(self):
        # a responsibility that underflowed to 0 adds 0, and so does a type
        # with no particles
        phi = np.array([[[1.0, 0.0], [0.25, 0.75]], [[0.0, 1.0], [0.5, 0.5]]])
        weighted = phi * np.array([[3.0, 0.0], [2.0, 4.0]])[:, :, None]
        assert vbi._entropy_z(weighted, phi) == pytest.approx(-4.0 * np.log(0.5), rel=1e-15)

    @pytest.mark.parametrize("scenario", ["both_known", "at_known", "lq_known"])
    def test_fits_equal_with_the_seven_term_stop(self, scenario, request, monkeypatch):
        # the patch reaches the phases' stop rule and the Newton acceptance;
        # every collapsed bound of a fit is over all of the corpus's rows
        result = request.getfixturevalue(f"fit_{scenario}")
        if scenario == "both_known":
            result = result[0]
        corpus = request.getfixturevalue(f"corpus_{scenario}")
        counts = np.array([sample.counts for _, sample in corpus.iter_samples()], dtype=np.float64)
        calls = []

        def seven_terms(a, eta, gamma, lam, swept):
            calls.append(1)
            return float(sum(vbi._bound_terms(counts, a, eta, gamma, swept.phi, lam).values()))

        monkeypatch.setattr(vbi, "_collapsed_bound", seven_terms)
        again = fit(corpus, FitConfig())
        assert calls
        for name in ("gamma", "phi", "lam", "trace_locations", "converged", "iterations"):
            assert np.array_equal(getattr(again, name), getattr(result, name)), name
        assert np.array_equal(again.H_converged.values, result.H_converged.values)
        # the trace holds each returned state's bound in the patched form
        assert_allclose(again.elbo_trace, result.elbo_trace, rtol=1e-12, atol=0)
        # a near-tie Newton acceptance can go either way under the two forms'
        # rounding; the linear-response rows are good to about 1e-6 anyway
        assert_allclose(again.A_converged.values, result.A_converged.values, rtol=2e-6, atol=0)

    @pytest.mark.parametrize("config", [
        FitConfig(), FitConfig(estep_tol=1e-300, estep_max_iters=7), FitConfig(estep_max_iters=1)
    ])
    def test_phase_makes_no_seven_term_bound(self, phase_start, config, monkeypatch):
        calls = []
        bound_terms = vbi._bound_terms
        monkeypatch.setattr(vbi, "_bound_terms", lambda *args: calls.append(1) or bound_terms(*args))
        monkeypatch.setattr(vbi.logger, "disabled", True)
        vbi._inference_phase(*phase_start[:5], config)
        assert not calls


def _log_space_sweep(counts, a, eta, gamma, lam):
    """Reference: one sweep with the responsibilities in log space (the
    digammas of each source and type, normalised per type after subtracting
    the largest), each mixing and profile posterior from their count-weighted
    sums, and the collapsed bound with the responsibility entropy summed over
    them.  The digammas are first shifted by their row and column maxima,
    which the normalisation cancels: unshifted, digammas of 1e-6 (-1e6) lose
    their last ten digits in the sum.  Returns gamma, lam, phi, the bound
    and the scale of its rounding: the summed magnitudes of the log Gammas
    of the four normalisers and of the count-weighted log weights, which
    the closed-form entropy adds up before they cancel."""
    gamma, lam = numerics.DirichletRows(gamma), numerics.DirichletRows(lam)
    log_theta = gamma.psi - gamma.psi.max(axis=1, keepdims=True)
    log_beta = lam.e_log - lam.e_log.max(axis=0)
    log_phi = log_beta.T + log_theta[:, None, :]
    log_phi -= log_phi.max(axis=2, keepdims=True)
    phi = np.exp(log_phi)
    total = phi.sum(axis=2, keepdims=True)
    phi /= total
    weighted = phi * counts[:, :, None]
    new_gamma, new_lam = a + weighted.sum(axis=1), eta + weighted.sum(axis=0).T
    entropy = -(weighted * (log_phi - np.log(total))).sum()
    norms = [numerics.DirichletRows(rows).log_norm_sum for rows in (a, new_gamma, eta, new_lam)]
    scale = sum(np.abs(gammaln(values)).sum() for rows in (a, new_gamma, eta, new_lam)
                for values in (rows, rows.sum(axis=1)))
    scale += (weighted * np.abs(log_beta.T + log_theta[:, None, :])).sum() + abs(entropy)
    return new_gamma, new_lam, phi, norms[0] - norms[1] + norms[2] - norms[3] + entropy, scale


# gamma (1e3, 1e-3) against profiles whose type-0 weight is largest for the
# other source: every source's e_theta e_beta for type 0 underflows, so Z does
UNDERFLOW = {"counts": np.array([[5.0, 3.0]]), "a": np.full((1, 2), 1e-6),
             "eta": np.full((2, 2), 1e-6), "gamma": np.array([[1e3, 1e-3]]),
             "lam": np.array([[1e-3, 50.0], [50.0, 50.0]])}


@st.composite
def _wide_sweep_instances(draw):
    """Counts as in :func:`_sweep_instances`, with priors and a state drawn
    log-uniformly over [1e-6, 1e6], the box of the fitted rows, so that
    some rows' normalisers underflow."""
    N, M, T = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(2, 6))
    counts = draw(arrays(np.float64, (N, T),
                         elements=st.sampled_from([0.0, 0.0, 1.0, 3.0, 40.0, 2000.0])))
    counts[:, 0] = np.maximum(counts[:, 0], 1.0)

    def positive(shape):
        return 10.0 ** draw(arrays(np.float64, shape, elements=st.floats(-6.0, 6.0)))
    return counts, positive((N, M)), positive((M, T)), positive((N, M)), positive((M, T))


class TestFactoredSweep:
    """The sweep forms the responsibilities from rows x sources, sources x
    types and rows x types factors; it must give what the log-space sweep
    gives, row by row."""

    @staticmethod
    def _check(instance):
        counts, a, eta, gamma, lam = instance
        new_gamma, new_lam, swept = vbi._sweep_rows(
            counts, a, eta, numerics.DirichletRows(gamma), numerics.DirichletRows(lam))
        ref_gamma, ref_lam, ref_phi, ref_bound, scale = _log_space_sweep(*instance)
        assert_allclose(new_gamma.rows, ref_gamma, rtol=1e-12, atol=0)
        assert_allclose(new_lam.rows, ref_lam, rtol=1e-12, atol=0)
        # an entry below 2^-122 can be a subnormal product over a normal Z
        assert_allclose(swept.phi, ref_phi, rtol=1e-12, atol=2.0**-120)
        priors = numerics.DirichletRows(a), numerics.DirichletRows(eta)
        bound = vbi._collapsed_bound(*priors, new_gamma, new_lam, swept)
        assert np.isfinite(bound) and abs(bound - ref_bound) <= 1e-12 * scale

    @settings(max_examples=300, deadline=None)
    @given(_wide_sweep_instances())
    def test_matches_the_log_space_sweep(self, instance):
        self._check(instance)

    def test_underflowed_normaliser_matches_the_log_space_sweep(self):
        instance = tuple(UNDERFLOW.values())
        gamma, lam = numerics.DirichletRows(UNDERFLOW["gamma"]), numerics.DirichletRows(
            UNDERFLOW["lam"])
        swept = vbi._Responsibilities(UNDERFLOW["counts"], gamma, lam)
        assert swept.guarded is not None
        self._check(instance)

    def test_logs_the_rows_it_takes_in_log_space(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="dustmix.vbi"):
            vbi._sweep_rows(UNDERFLOW["counts"], UNDERFLOW["a"], UNDERFLOW["eta"],
                            *map(numerics.DirichletRows, (UNDERFLOW["gamma"], UNDERFLOW["lam"])))
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.DEBUG, "sweep: 1 of 1 rows took log-space responsibilities")]
        caplog.clear()
        state = _domain_instance()
        with caplog.at_level(logging.DEBUG, logger="dustmix.vbi"):
            vbi._sweep_rows(state["counts"], state["a"], state["eta"],
                            *map(numerics.DirichletRows, (state["gamma"], state["lam"])))
        assert not caplog.records

    def test_rows_of_a_large_sweep_match_one_row_sweeps(self):
        # each row's values are its own, bit for bit, with the underflowed
        # row among them; the profile posterior adds every row's allocations
        rng = np.random.default_rng(11)
        N, M, T = 492, 2, 14
        counts = rng.integers(0, 400, size=(N, T)).astype(np.float64)
        counts[:, 0] += 1.0
        a, eta = rng.uniform(0.5, 150.0, size=(N, M)), rng.uniform(0.5, 3.0, size=(M, T))
        gamma, lam = rng.uniform(1.0, 3000.0, size=(N, M)), rng.uniform(1.0, 3000.0, size=(M, T))
        gamma[7] = [1e3, 1e-6]
        lam[0, 0] = 1e-6
        lam = numerics.DirichletRows(lam)
        new_gamma, new_lam, swept = vbi._sweep_rows(counts, a, eta, numerics.DirichletRows(gamma),
                                                    lam)
        assert list(swept.guarded[0]) == [7]
        allocated = np.zeros((M, T))
        for n in range(N):
            row_gamma, row_lam, row = vbi._sweep_rows(
                counts[n:n + 1], a[n:n + 1], eta, numerics.DirichletRows(gamma[n:n + 1]), lam)
            assert np.array_equal(new_gamma.rows[n], row_gamma.rows[0])
            assert np.array_equal(swept.phi[n], row.phi[0])
            allocated += row_lam.rows - eta
        assert_allclose(new_lam.rows, eta + allocated, rtol=1e-12)


class TestFixedPointSharedState:
    """The Newton loop builds each state once: a kept state's bound and the
    next cycle's plain sweep share its evaluations, and the priors' log
    normalisers are evaluated once per call."""

    def test_bounds_equal_corpus_elbo(self, fixed_prior_start, monkeypatch):
        # the Newton acceptance compares the collapsed bounds of the plain
        # sweep and the stabilising sweep, both straight out of a sweep
        scored = []
        collapsed_bound = vbi._collapsed_bound
        counts = fixed_prior_start[0]

        def recording(a, eta, gamma, lam, swept):
            bound = collapsed_bound(a, eta, gamma, lam, swept)
            scored.append(((a.rows, eta.rows, gamma.rows, swept.phi, lam.rows), bound))
            return bound

        monkeypatch.setattr(vbi, "_collapsed_bound", recording)
        *_, accepted, rejected = vbi._fixed_point(*fixed_prior_start)
        monkeypatch.undo()
        assert accepted > 0 and len(scored) == 2 * (accepted + rejected)
        for args, bound in scored:
            _assert_is_corpus_elbo(bound, counts, *args)

    def test_one_cycle_evaluates_each_state_once(self, fixed_prior_start, monkeypatch):
        # a cycle is two sweeps, so caps of 3 and 7 sweeps run one and three
        # cycles, each then one plain sweep: 3 digammas per sweep, 4 log
        # Gammas for each of the two collapsed bounds its acceptance compares,
        # and one trigamma set (entries and sums) for each of the Newton
        # step's gamma and lam; the checks are those of the two swept states
        # and of the Newton point
        work = []
        for cap in (3, 7):
            with _counting_work(monkeypatch) as counts:
                assert vbi._fixed_point(*fixed_prior_start[:5], vbi._LR_TOL, cap)[3] == cap
            work.append(counts)
        short, long = work
        assert (long["evaluations"] - short["evaluations"]) / 2 <= 2 * 3 + 2 * 4 + 2 * 2
        assert (long["checks"] - short["checks"]) / 2 <= 6

    def test_fit_makes_no_checked_calls(self, corpus_both_known, monkeypatch):
        # the engine evaluates special functions only through DirichletRows;
        # the checked digamma and log_gamma are public API alone
        calls = []
        positive = numerics._positive
        monkeypatch.setattr(numerics, "_positive",
                            lambda *args: calls.append(1) or positive(*args))
        fit(corpus_both_known, FitConfig())
        assert not calls


# The bundled fits' outputs as recorded once the warm start's trace stage
# settled by per-row Newton steps: the full bound trace and the iteration
# count, sha256 digests of the float64 bytes of the EB-path arrays, and the
# linear-response trace rows (``python tests/_pins.py`` re-records the bound
# traces).  The iteration counts and the final bounds (to 1e-12) are those
# the engine has given since before the pins.
BUNDLED_FITS = json.loads((Path(__file__).parent / "bundled_fits.json").read_text())


def _assert_pinned(result, pinned):
    assert result.iterations == pinned["iterations"]
    assert list(result.elbo_trace) == pinned["elbo_trace"]
    assert _pins.digests(result) == pinned["sha256"]
    assert_allclose(result.A_converged.values, pinned["A_converged"], rtol=_pins.A_RTOL, atol=0)


class TestBundledFits:
    """Regression guard: the bundled fits stop where the engine has always
    stopped them, at the same final bound, with every EB-path output
    bitwise unchanged."""

    @pytest.mark.parametrize("scenario, iterations, bound", [
        ("both_known", 32, -15035.445763787697),
        ("at_known", 45, -7999.91501301066),
        ("lq_known", 41, -9062.889340035932),
    ])
    def test_iterations_and_final_bound(self, scenario, iterations, bound, request):
        result = request.getfixturevalue(f"fit_{scenario}")
        if scenario == "both_known":
            result = result[0]
        assert result.iterations == iterations
        assert result.elbo_trace[-1] == pytest.approx(bound, rel=1e-12)

    @pytest.mark.parametrize("scenario", ["both_known", "at_known", "lq_known"])
    def test_outputs_pinned(self, scenario, request):
        result = request.getfixturevalue(f"fit_{scenario}")
        if scenario == "both_known":
            result = result[0]
        _assert_pinned(result, BUNDLED_FITS[scenario])


# The six fits of a serial run_study over the pooled AT/LQ profiles (shares
# 0.1/0.5/0.9, n = 1900, 2 replications, seed 0), pinned and recorded like the
# bundled fits.
STUDY_GRID_FITS = json.loads((Path(__file__).parent / "study_grid_fits.json").read_text())


@pytest.fixture(scope="module")
def study_grid_fits():
    """Each study-grid fit, keyed like its pin, with the sweep counts of its
    inference phases."""
    return _pins.study_grid_fits()


class TestStudyGridFits:
    """Regression guard: the benchmark's study-grid fits keep every EB-path
    output bitwise."""

    @pytest.mark.parametrize("key", list(STUDY_GRID_FITS))
    def test_outputs_pinned(self, key, study_grid_fits):
        result, _ = study_grid_fits[key]
        _assert_pinned(result, STUDY_GRID_FITS[key])

    def test_a_first_phase_that_cannot_settle_hands_over(self, study_grid_fits, caplog):
        # the pins cover a first phase that plain sweeps cannot settle within
        # the cap, which the bundled fits do not: it hands over to the fixed
        # point's Newton steps, ends below the cap and warns of no cap
        _, sweeps = study_grid_fits["share 0.1, n 1900, replication 1"]
        assert sweeps[0] < FitConfig().estep_max_iters
        with caplog.at_level(logging.DEBUG, logger="dustmix.vbi"):
            fit(_study_corpus((0, 0, 0, 1)), FitConfig())
        messages = [record.getMessage() for record in caplog.records]
        assert sum(message.startswith("inference phase: handed over at sweep ")
                   for message in messages) == 1
        assert not any("still changing" in message for message in messages)


# One fit of the many-traces design (:func:`_pins.many_trace_corpus`),
# pinned and recorded like the bundled fits.  Its M-steps solve 24 trace
# rows in one batch, where some rows keep a halved Newton step and others
# do not.
MANY_TRACE_FIT = json.loads((Path(__file__).parent / "many_trace_fit.json").read_text())


class TestManyTraceFit:
    """Regression guard: a fit whose M-step solves many trace rows at once
    keeps every EB-path output bitwise."""

    def test_outputs_pinned(self):
        result = fit(_pins.many_trace_corpus(), FitConfig())
        assert len(result.trace_locations) == 24
        _assert_pinned(result, MANY_TRACE_FIT)


# One fit with three sources (:func:`_pins.three_source_corpus`), pinned and
# recorded like the bundled fits.  The other pins have two sources, and rows
# of three entries are summed in more than one step.
THREE_SOURCE_FIT = json.loads((Path(__file__).parent / "three_source_fit.json").read_text())


class TestThreeSourceFit:
    """Regression guard: a fit with three sources keeps every EB-path
    output bitwise."""

    def test_outputs_pinned(self):
        result = fit(_pins.three_source_corpus(), FitConfig())
        assert result.gamma.shape[1] == 3 and len(result.trace_locations) == 3
        _assert_pinned(result, THREE_SOURCE_FIT)


def _plain_fixed_point(counts, a, eta, gamma, lam, tol, cap):
    """Reference: plain sweeps until no parameter moves by a relative ``tol``."""
    gamma, lam = numerics.DirichletRows(gamma), numerics.DirichletRows(lam)
    for sweeps in range(1, cap + 1):
        new_gamma, new_lam, swept = vbi._sweep_rows(counts, a, eta, gamma, lam)
        moved = vbi._relative_step(gamma.rows, lam.rows, new_gamma.rows, new_lam.rows)
        gamma, lam = new_gamma, new_lam
        if moved < tol:
            break
    return gamma.rows, lam.rows, swept.phi, sweeps


def _converged_fixed_point(counts, a, eta, gamma, lam, tol, cap):
    """:func:`vbi._fixed_point` by plain sweeps to a relative step of 1e-12."""
    return *_plain_fixed_point(counts, a, eta, gamma, lam, 1e-12, 200_000), 0, 0


def _lr_fixed_point(replacement):
    """:func:`vbi._fixed_point` with only the linear-response step's call
    (the one capped at ``_LR_MAX_SWEEPS``) made by ``replacement``; an
    inference phase that hands over keeps the engine's."""
    original = vbi._fixed_point
    return lambda *args: (replacement if args[6] == vbi._LR_MAX_SWEEPS else original)(*args)


def _fixed_point_args(corpus):
    """The arguments ``corpus``'s fit passes to :func:`vbi._fixed_point` in
    its linear-response step: the configured priors and the state its first
    inference phase returned under them."""
    captured = []
    original = vbi._fixed_point

    def capture(*args):
        captured.append(args)
        return original(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vbi, "_fixed_point", capture)
        fit(corpus, FitConfig())
    return next(args for args in captured if args[6] == vbi._LR_MAX_SWEEPS)


@pytest.fixture(scope="module")
def fixed_prior_start(corpus_at_known):
    """The arguments the AT-known fit passes to :func:`vbi._fixed_point`: a
    configured-prior state from its first inference phase."""
    return _fixed_point_args(corpus_at_known)


def _study_corpus(cell=(0, 0, 2, 1)):
    """A study's share-0.1, n=1900 corpus from the cell seed ``cell``; by
    default criterion 8's, replication 1, and at (0, 0, 0, 1) the
    study-grid pin's, replication 1."""
    names, profiles = at_lq_point_profiles()
    spec = StudySpec(catalog=ParticleCatalog(names), true_profiles=profiles,
                     unknown_shares=(0.1,), sample_sizes=(1900,))
    rng = np.random.default_rng(np.random.SeedSequence(cell))
    return generate_corpus(spec.scenario(0.1, 1900), rng)


@pytest.fixture(scope="module")
def capped_phase_start():
    """The arguments of the first inference phase of criterion 8's
    share-0.1, n=1900, replication-1 fit, which plain sweeps do not settle
    within the default cap (the bound still changes by 4.4e-8 relative at
    sweep 500)."""
    captured = []
    original = vbi._inference_phase

    def capture(*args):
        captured.append(args)
        return original(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vbi, "_inference_phase", capture)
        fit(_study_corpus(), FitConfig(outer_max_iters=1))
    return captured[0]


class TestPhaseHandoff:
    """An inference phase that plain sweeps cannot settle within its cap
    hands its state to the fixed point's Newton steps."""

    def test_returns_a_settled_state_above_the_capped_bound(self, capped_phase_start,
                                                            monkeypatch):
        counts, a, eta, *_, config = capped_phase_start
        gamma, lam, _, bound, sweeps = vbi._inference_phase(*capped_phase_start)
        assert sweeps < config.estep_max_iters
        # the fixed point stops on a plain sweep moving nothing by _LR_TOL,
        # and the phase sweeps once more from there
        new_gamma, new_lam, _ = vbi._sweep_rows(counts, a, eta, gamma, lam)
        assert vbi._relative_step(gamma.rows, lam.rows, new_gamma.rows, new_lam.rows) \
            <= vbi._LR_TOL
        # with no rate check in reach, the phase runs plain sweeps to its cap
        monkeypatch.setattr(vbi, "_RATE_SWEEPS", config.estep_max_iters + 1)
        *_, plain_bound, plain_sweeps = vbi._inference_phase(*capped_phase_start)
        assert plain_sweeps == config.estep_max_iters and bound >= plain_bound

    @pytest.mark.parametrize("cap", [41, 42, 43, 200])
    def test_stays_within_the_cap(self, capped_phase_start, cap, caplog):
        # the first rate check is at sweep 40, against sweep 20's change; the
        # phase hands over only if the fixed point's first sweep and its own
        # last one fit under the cap, and its count includes every sweep
        calls = []
        sweep = vbi._sweep_rows
        with pytest.MonkeyPatch.context() as mp, \
                caplog.at_level(logging.DEBUG, logger="dustmix.vbi"):
            mp.setattr(vbi, "_sweep_rows", lambda *args: calls.append(1) or sweep(*args))
            sweeps = vbi._inference_phase(*capped_phase_start[:5],
                                          FitConfig(estep_max_iters=cap))[-1]
        assert sweeps == len(calls) <= cap
        handed = [record.getMessage() for record in caplog.records
                  if record.getMessage().startswith("inference phase: handed over at sweep ")]
        assert len(handed) == (cap > 41)


class TestFixedPoint:
    @pytest.mark.parametrize("scenario", ["at-known", "study"])
    def test_concentrations_match_converged_plain_sweeps(self, scenario, request, monkeypatch):
        corpus = request.getfixturevalue("corpus_at_known") if scenario == "at-known" \
            else _study_corpus()
        rows = fit(corpus, FitConfig()).A_converged.values
        monkeypatch.setattr(vbi, "_fixed_point", _lr_fixed_point(_converged_fixed_point))
        expected = fit(corpus, FitConfig()).A_converged.values
        assert_allclose(rows.sum(axis=1), expected.sum(axis=1), rtol=1e-5)
        assert_allclose(rows / rows.sum(axis=1, keepdims=True),
                        expected / expected.sum(axis=1, keepdims=True), rtol=1e-15)

    def test_continues_the_first_inference_phase(self, corpus_at_known, monkeypatch):
        # the first phase runs under the configured priors, so the fixed point
        # starts where it stopped, not from the outer loop's end state
        phases, starts = [], []
        phase, fixed_point = vbi._inference_phase, vbi._fixed_point
        monkeypatch.setattr(vbi, "_inference_phase",
                            lambda *args: phases.append(phase(*args)) or phases[-1])
        monkeypatch.setattr(vbi, "_fixed_point",
                            lambda *args: starts.append(args) or fixed_point(*args))
        fit(corpus_at_known, FitConfig())
        assert len(phases) > 1 and len(starts) == 1
        counts, a, eta, gamma, lam = starts[0][:5]
        assert np.array_equal(gamma, phases[0][0].rows) and np.array_equal(lam, phases[0][1].rows)
        config = FitConfig()
        configured = np.full_like(a, config.flat_weight)
        known = [i for i, loc in enumerate(corpus_at_known.locations) if loc.role.is_known]
        for row, (loc_id, _) in zip(configured, corpus_at_known.iter_samples()):
            if loc_id in known:
                row[known.index(loc_id)] = vbi._KNOWN_WEIGHT
        assert np.array_equal(a, configured) and np.array_equal(eta, np.ones_like(lam))

    @pytest.mark.parametrize("name", [
        "study", "counts-times-1e6", "both_known", "at_known", "lq_known"])
    def test_damped_steps_converge_on_hard_inputs(self, name, request, monkeypatch):
        # undamped Newton steps leave the positive orthant on the first two
        corpus = {"study": _study_corpus, "counts-times-1e6": BAD_INPUTS["counts-times-1e6"]}.get(
            name, lambda: request.getfixturevalue(f"corpus_{name}"))()
        fixed_point, sweeps = vbi._fixed_point, []

        def counting(*args):
            result = fixed_point(*args)
            sweeps.append(result[3])
            return result

        monkeypatch.setattr(vbi, "_fixed_point", _lr_fixed_point(counting))
        rows = fit(corpus, FitConfig()).A_converged.values
        assert len(sweeps) == 1 and sweeps[0] <= 30
        monkeypatch.setattr(vbi, "_fixed_point", _lr_fixed_point(_converged_fixed_point))
        assert_allclose(rows, fit(corpus, FitConfig()).A_converged.values, rtol=1e-6, atol=0)

    def test_bound_of_kept_states_never_falls(self, fixed_prior_start, monkeypatch):
        # every cycle scores its plain sweep, then its stabilising sweep; the
        # cycle keeps whichever state the next sweep starts from
        scored, starts = [], []
        collapsed_bound, sweep = vbi._collapsed_bound, vbi._sweep_rows

        def recording_bound(a, eta, gamma, lam, swept):
            bound = collapsed_bound(a, eta, gamma, lam, swept)
            scored.append(((a.rows, eta.rows, gamma.rows, swept.phi, lam.rows), gamma, bound))
            return bound

        def recording_sweep(counts, a, eta, gamma, lam):
            starts.append(gamma)
            return sweep(counts, a, eta, gamma, lam)

        monkeypatch.setattr(vbi, "_collapsed_bound", recording_bound)
        monkeypatch.setattr(vbi, "_sweep_rows", recording_sweep)
        *_, accepted, rejected = vbi._fixed_point(*fixed_prior_start)
        monkeypatch.undo()
        assert accepted > 0 and len(scored) == 2 * (accepted + rejected)
        kept_states = []
        for (plain, _, plain_bound), (trial, gamma, trial_bound) in zip(scored[::2], scored[1::2]):
            if any(start is gamma for start in starts):
                # exact, on the values the acceptance compares
                assert trial_bound >= plain_bound
                kept_states.append(trial)
            else:
                kept_states.append(plain)
        kept = [vbi.corpus_elbo(fixed_prior_start[0], a, eta, gamma, phi, lam)
                for a, eta, gamma, phi, lam in kept_states]
        # a plain sweep separates consecutive kept states; near the fixed
        # point their bounds differ by rounding, a few ulps of its sums
        assert np.all(np.diff(kept) >= -1e-12 * np.abs(kept[:-1]))

    @pytest.mark.parametrize("step", [np.nan, -np.inf])
    def test_nonfinite_extrapolation_is_plain_sweeping(self, step, fixed_prior_start,
                                                        monkeypatch):
        # a non-finite precision either fails Cholesky (-inf) or factors into
        # a non-finite Newton step (nan); neither is taken
        factor = vbi._linear_response_factor
        monkeypatch.setattr(vbi, "_linear_response_factor", lambda counts, theta, beta, phi: factor(
            counts, np.full_like(theta, step), np.full_like(beta, step), phi))
        gamma, lam, phi, sweeps, accepted, rejected = vbi._fixed_point(*fixed_prior_start)
        expected = _plain_fixed_point(*fixed_prior_start)
        for got, want in zip((gamma, lam, phi, sweeps), expected):
            assert np.array_equal(got, want)
        assert accepted == 0 and rejected == sweeps - 1

    def test_failed_factorisation_is_plain_sweeping(self, fixed_prior_start, monkeypatch):
        # a precision that is not positive definite takes no Newton step and
        # no stabilising sweep; P is linear in its three inputs, so these
        # factor -P
        factor = vbi._linear_response_factor
        monkeypatch.setattr(vbi, "_linear_response_factor",
                            lambda counts, theta, beta, phi: factor(-counts, -theta, -beta, phi))
        gamma, lam, phi, sweeps, accepted, rejected = vbi._fixed_point(*fixed_prior_start)
        expected = _plain_fixed_point(*fixed_prior_start)
        for got, want in zip((gamma, lam, phi, sweeps), expected):
            assert np.array_equal(got, want)
        assert accepted == 0 and rejected == sweeps - 1

    def test_oversized_newton_step_is_damped(self, fixed_prior_start, monkeypatch):
        # a precision 100 times too small makes steps 100 times too long; the
        # damping stops each at half the distance to the positive boundary,
        # so no entry of a Newton point falls below half its value, and a
        # damped point has an entry at exactly half.  P is linear in its
        # three inputs, so these factor P/100 (D/100, X/100 and L_S/10)
        factor, newton_point = vbi._linear_response_factor, vbi._newton_point
        ratios = []

        def recording(counts, x, phi, swept):
            point = newton_point(counts, x, phi, swept)
            ratios.append(min((new.rows / old.rows).min() for new, old in zip(point, x)))
            return point

        monkeypatch.setattr(vbi, "_linear_response_factor", lambda counts, theta, beta, phi: factor(
            counts / 100, theta / 100, beta / 100, phi))
        monkeypatch.setattr(vbi, "_newton_point", recording)
        gamma, lam, _, sweeps, _, _ = vbi._fixed_point(*fixed_prior_start)
        assert min(ratios) >= 0.5 * (1.0 - 1e-12)
        assert any(ratio == pytest.approx(0.5, rel=1e-12) for ratio in ratios)
        assert sweeps < vbi._LR_MAX_SWEEPS
        counts, a, eta = fixed_prior_start[:3]
        new_gamma, new_lam, _ = vbi._sweep_rows(counts, a, eta, *map(numerics.DirichletRows,
                                                                     (gamma, lam)))
        assert vbi._relative_step(gamma, lam, new_gamma.rows, new_lam.rows) < vbi._LR_TOL

    def test_fewer_sweeps_than_plain_sweeping(self, fixed_prior_start):
        sweeps = vbi._fixed_point(*fixed_prior_start)[3]
        plain = _plain_fixed_point(*fixed_prior_start)[3]
        assert 50 * sweeps <= plain

    def test_warns_at_cap(self, fixed_prior_start, monkeypatch, caplog):
        # the fit passes the module's tolerance and cap; the cap counts the
        # stabilising sweeps too
        assert fixed_prior_start[5:] == (vbi._LR_TOL, vbi._LR_MAX_SWEEPS)
        calls = []
        sweep = vbi._sweep_rows
        monkeypatch.setattr(vbi, "_sweep_rows", lambda *args: calls.append(1) or sweep(*args))
        with caplog.at_level(logging.WARNING, logger="dustmix.vbi"):
            sweeps = vbi._fixed_point(*fixed_prior_start[:5], vbi._LR_TOL, 5)[3]
        assert sweeps == len(calls) == 5
        assert any("fixed point still moving" in record.getMessage()
                   and "after 5 sweeps" in record.getMessage() for record in caplog.records)

    def test_repeatable(self, fixed_prior_start):
        first = vbi._fixed_point(*fixed_prior_start)
        second = vbi._fixed_point(*fixed_prior_start)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_fit_logs_sweeps_and_extrapolations(self, corpus_at_known, caplog):
        with caplog.at_level(logging.DEBUG, logger="dustmix.vbi"):
            fit(corpus_at_known, FitConfig(outer_max_iters=2))
        assert any(record.levelno == logging.DEBUG and re.fullmatch(
            r"fixed-prior point: \d+ sweeps, \d+ Newton steps kept, \d+ rejected",
            record.getMessage()) for record in caplog.records)


def _dense_precision(counts, theta_blocks, beta_blocks, phi):
    """Reference: the linear-response precision assembled dense, over E log
    theta of each sample (index n*M + m), then E log beta of each source
    (N*M + m*T + t), each diagonal block written in place by index."""
    (N, T, M) = phi.shape
    weighted = counts[:, :, None] * phi
    w = np.einsum("ntm,mk->ntmk", weighted, np.eye(M)) - np.einsum(
        "ntm,ntk->ntmk", weighted, phi
    )
    cross = w.transpose(0, 2, 3, 1).reshape(N * M, M * T)
    beta_beta = np.einsum("tmk,tu->mtku", w.sum(axis=0), np.eye(T)).reshape(M * T, M * T)
    G = N * M
    precision = np.zeros((G + M * T, G + M * T))
    theta = np.arange(G).reshape(N, M)
    precision[theta[:, :, None], theta[:, None, :]] = theta_blocks - w.sum(axis=1)
    beta = G + np.arange(M * T).reshape(M, T)
    precision[beta[:, :, None], beta[:, None, :]] = beta_blocks
    precision[:G, G:] = -cross
    precision[G:, :G] = -cross.T
    precision[G:, G:] -= beta_beta
    return precision


def _dense_share_variances(counts, gamma, lam, phi, loc, trace_ids):
    """Reference: the location shares and their variances |L^-1 g|^2 for
    the dense precision P = L L^T and the dense share gradients g (one
    column per trace location and source)."""
    precision = _dense_precision(counts, vbi._dirichlet_log_precision(gamma),
                                 vbi._dirichlet_log_precision(lam), phi)
    M = gamma.shape[1]
    shares = gamma / gamma.sum(axis=1, keepdims=True)
    grads = np.zeros((precision.shape[0], len(trace_ids) * M))
    p_loc = np.zeros((len(trace_ids), M))
    for j, loc_id in enumerate(trace_ids):
        members = np.flatnonzero(loc == loc_id)
        p_loc[j] = shares[members].mean(axis=0)
        for n in members:
            p = shares[n]
            grads[n * M:(n + 1) * M, j * M:(j + 1) * M] = (
                np.diag(p) - np.outer(p, p)) / members.size
    whitened = np.linalg.solve(np.linalg.cholesky(precision), grads)
    return p_loc, np.einsum("gk,gk->k", whitened, whitened).reshape(-1, M)


def _many_traces_corpus():
    """A corpus the size of the benchmark's many-traces workload: AT known
    with 12 control samples, LQ unknown, 24 trace locations of 2 samples."""
    names, profiles = at_lq_point_profiles()
    shares = 0.05 + 0.9 * (np.arange(24) + 0.5) / 24
    spec = ScenarioSpec(catalog=ParticleCatalog(names), true_profiles=profiles,
                        trace_mixtures=tuple((1.0 - u, u) for u in shares),
                        particles_per_sample=350, samples_per_trace=2)
    return generate_corpus(spec, np.random.default_rng(3))


def _newton_state(corpus, args):
    """What the first Newton step of ``corpus``'s fixed point sees, from the
    ``args`` the fit passes to :func:`vbi._fixed_point`: counts, each
    sample's location, the trace location ids, x = (gamma, lam), the phi of
    the plain sweep from x and that sweep's (gamma, lam)."""
    counts, a, eta, gamma, lam = args[:5]
    new_gamma, new_lam, swept = vbi._sweep_rows(counts, a, eta, *map(numerics.DirichletRows,
                                                                     (gamma, lam)))
    loc = vbi.initialize(corpus, FitConfig())[2]
    return (counts, loc, list(corpus.trace_location_ids), (gamma, lam), swept.phi,
            (new_gamma.rows, new_lam.rows))


def _random_state(seed):
    """A random corpus of 5-9 samples over 3-6 types and 2-3 sources, each
    source but the last pinned by a known location and two trace locations
    after them, swept 200 times from a random state towards its fixed point
    (away from it P need not be positive definite).  The swept state it
    returns is random, so the Newton step is not small."""
    rng = np.random.default_rng(seed)
    N, T, M = rng.integers(5, 10), rng.integers(3, 7), rng.integers(2, 4)
    counts = rng.integers(0, 30, size=(N, T)).astype(float)
    counts[:, 0] += 1.0
    loc, a, eta = np.arange(N) % (M + 1), np.ones((N, M)), np.ones((M, T))
    known = np.flatnonzero(loc < M - 1)
    a[known, loc[known]] = 150.0
    state = map(numerics.DirichletRows, (rng.uniform(1.0, 20.0, size=(N, M)),
                                         rng.uniform(1.0, 20.0, size=(M, T))))
    for _ in range(200):
        *state, _ = vbi._sweep_rows(counts, a, eta, *state)
    phi = vbi._sweep_rows(counts, a, eta, *state)[2].phi
    gamma, lam = (values.rows for values in state)
    swept = tuple(values * rng.uniform(0.5, 2.0, size=values.shape) for values in (gamma, lam))
    return counts, loc, [M - 1, M], (gamma, lam), phi, swept


@pytest.fixture(scope="module", params=["at-known", "many-traces", 0, 1, 2, 3, 4])
def newton_state(request, corpus_at_known):
    if request.param == "at-known":
        return _newton_state(corpus_at_known, request.getfixturevalue("fixed_prior_start"))
    if request.param == "many-traces":
        corpus = _many_traces_corpus()
        return _newton_state(corpus, _fixed_point_args(corpus))
    return _random_state(request.param)


class TestBlockFactor:
    """The linear-response precision solved on its per-sample blocks agrees
    with the dense assembly it replaces."""

    def test_newton_solve_matches_dense(self, newton_state):
        counts, _, _, x, phi, swept = newton_state
        point = vbi._newton_point(counts, tuple(map(numerics.DirichletRows, x)), phi,
                                  tuple(map(numerics.DirichletRows, swept)))
        blocks = [vbi._dirichlet_log_precision(values) for values in x]
        residual = np.concatenate([(new - old).ravel() for new, old in zip(swept, x)])
        solved = np.linalg.solve(_dense_precision(counts, *blocks, phi), residual)
        steps = [np.einsum("ijk,ik->ij", block, part.reshape(values.shape))
                 for values, block, part in zip(x, blocks, np.split(solved, [x[0].size]))]
        t = min(1.0, 0.5 * min((values[step < 0.0] / -step[step < 0.0]).min(initial=np.inf)
                               for values, step in zip(x, steps)))
        for new, values, step in zip(point, x, steps):
            moved = new.rows - values
            assert np.linalg.norm(moved - t * step) <= 1e-10 * np.linalg.norm(t * step)

    def test_share_variances_match_dense_whitening(self, newton_state):
        counts, loc, trace_ids, (gamma, lam), phi, _ = newton_state
        shares, variances = vbi._share_variances(counts, gamma, lam, phi, loc, trace_ids)
        dense_shares, dense_variances = _dense_share_variances(
            counts, gamma, lam, phi, loc, trace_ids)
        assert_allclose(shares, dense_shares, rtol=1e-14)
        assert_allclose(variances, dense_variances, rtol=1e-10)

    @pytest.mark.parametrize("block", ["D_n", "S"])
    def test_indefinite_block_fails_on_both_paths(self, newton_state, block):
        counts, _, _, (gamma, lam), phi, _ = newton_state
        theta, beta = vbi._dirichlet_log_precision(gamma), vbi._dirichlet_log_precision(lam)
        if block == "D_n":
            theta[-1] *= -1.0  # D_n = -(theta block + allocation term): negative definite
        else:
            beta *= -1.0  # P_bb, and with it S, negative definite
        dense = _dense_precision(counts, theta, beta, phi)
        if block == "S":
            np.linalg.cholesky(dense[:gamma.size, :gamma.size])  # every D_n still factors
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(dense)
        with pytest.raises(np.linalg.LinAlgError):
            vbi._linear_response_factor(counts, theta, beta, phi)


def _share_sd(row):
    """Sd of the last source's share under the Dirichlet row."""
    mean = row[-1] / row.sum()
    return float(np.sqrt(mean * (1.0 - mean) / (row.sum() + 1.0)))


class TestShareUncertainty:
    @staticmethod
    def _bundled_fit(scenario, request):
        key = scenario.replace("-", "_")
        result = request.getfixturevalue(f"fit_{key}")
        if scenario == "both-known":
            result = result[0]
        return result, request.getfixturevalue(f"corpus_{key}")

    @pytest.mark.parametrize("scenario", ["both-known", "at-known", "lq-known"])
    def test_share_sd_matches_exact_posterior(self, scenario, request):
        # the fitted hyperparameter rows alone give sds 10-25x too small
        result, corpus = self._bundled_fit(scenario, request)
        for row, loc_idx in zip(result.A_converged.values, result.trace_locations):
            name = corpus.locations[loc_idx].name
            ratio = _share_sd(row) / EXACT_SHARE_SD[scenario][name]
            assert 0.8 <= ratio <= 1.6, (name, ratio)

    def test_exact_share_sds_regenerate(self):
        counts = bundled_counts()
        _, sd = gibbs_trace_shares(
            [counts["LQ"]], [counts["e1"][0], counts["e2"][0]], 2,
            sweeps=20000, burn_in=2000, seed=1,
        )
        expected = EXACT_SHARE_SD["lq-known"]
        assert_allclose(sd[:, 1], [expected["e1"], expected["e2"]], rtol=0.1)

    @pytest.mark.parametrize("scenario", ["both-known", "at-known", "lq-known"])
    def test_share_mean_matches_exact_posterior(self, scenario, request):
        # the largest gap is 0.0252, at AT-known e2, whose chains spread by 0.0035
        result, corpus = self._bundled_fit(scenario, request)
        for name, exact in EXACT_SHARE_MEAN[scenario].items():
            mean, _ = theta_interval(result, corpus, name, 1)
            assert abs(mean - exact) <= 0.03, (name, mean, exact)

    def test_exact_share_means_regenerate(self):
        counts = bundled_counts()
        mean, _ = gibbs_trace_shares(
            [counts["LQ"]], [counts["e1"][0], counts["e2"][0]], 2,
            sweeps=20000, burn_in=2000, seed=1,
        )
        expected = EXACT_SHARE_MEAN["lq-known"]
        assert_allclose(mean[:, 1], [expected["e1"], expected["e2"]], atol=0.005)

    def test_rows_usable_after_one_outer_iteration(self, corpus_lq_known):
        rows = fit(corpus_lq_known, FitConfig(outer_max_iters=1)).A_converged.values
        assert np.all(np.isfinite(rows)) and np.all(rows > 0.0)
        for row in rows:
            for m in range(row.size):
                shape = theta_marginal(row, m)
                interval = beta_hpdi(shape, 0.95)
                assert interval.lo <= beta_summary(shape).mean <= interval.hi

    def test_flat_row_when_response_is_unusable(self, monkeypatch, caplog):
        corpus = _one_trace_corpus()
        config = FitConfig(outer_max_iters=5)
        usable = fit(corpus, config).A_converged.values[0]
        factor = vbi._linear_response_factor
        monkeypatch.setattr(vbi, "_linear_response_factor",
                            lambda counts, theta, beta, phi: factor(-counts, -theta, -beta, phi))
        with caplog.at_level(logging.WARNING, logger="dustmix.vbi"):
            flat = fit(corpus, config).A_converged.values[0]
        assert flat.sum() == pytest.approx(2.0)
        assert_allclose(flat / flat.sum(), usable / usable.sum(), rtol=1e-12)
        assert any("'t'" in record.getMessage() for record in caplog.records)
