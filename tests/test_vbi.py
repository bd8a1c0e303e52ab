import contextlib
import hashlib
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

from dustmix import numerics, simulator, vbi
from dustmix.model import (
    Corpus,
    CorpusValidationError,
    DirichletMatrix,
    Location,
    LocationRole,
    ParticleCatalog,
    SampleCounts,
    VariationalState,
)
from dustmix.datasets import at_lq_point_profiles
from dustmix.numerics import beta_hpdi, beta_summary
from dustmix.posterior import theta_marginal
from dustmix.simulator import ScenarioSpec, StudySpec, generate_corpus, run_study
from dustmix.vbi import (
    FitConfig,
    NumericalFailure,
    elbo_sample,
    elbo_terms,
    estep_sample,
    fit,
    initialize,
)
from test_bad_input import BAD_INPUTS
from _oracles import (
    EXACT_SHARE_SD,
    FROZEN_2X2,
    bundled_counts,
    fixed_point_2x2,
    gibbs_trace_shares,
)


def make_state(alpha, eta, counts, n_samples_total=1):
    M = len(alpha)
    T = len(counts)
    state = VariationalState(
        location_id=0,
        sample_index=0,
        gamma=np.asarray(alpha, float) + sum(counts) / (M * n_samples_total),
        lam=np.asarray(eta, float).copy(),
        phi=np.full((T, M), 1.0 / M),
    )
    return state


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
        H, A, states = initialize(corpus_both_known, FitConfig())
        assert_allclose(H.values, 1.0)
        a = A.values
        assert a.shape == (4, 2)
        assert_allclose(a[0], [150.0, 1.0])   # AT location
        assert_allclose(a[1], [1.0, 150.0])   # LQ location
        assert_allclose(a[2], [1.0, 1.0])     # traces
        assert_allclose(a[3], [1.0, 1.0])
        assert len(states) == 26
        samples = list(corpus_both_known.iter_samples())
        for state, (loc_id, sample) in zip(states, samples):
            expected = a[loc_id] + sample.total / (2 * 26)
            assert_allclose(state.gamma, expected)
            assert_allclose(state.phi, 0.5)
            assert_allclose(state.lam, 1.0)
            assert np.isfinite(state.elbo)

    def test_single_known_pattern(self, corpus_at_known):
        H, A, states = initialize(corpus_at_known, FitConfig())
        a = A.values
        assert a.shape == (3, 2)
        assert_allclose(a[0], [150.0, 1.0])
        assert_allclose(a[1:], 1.0)

    def test_single_source_phi_is_one(self):
        catalog = ParticleCatalog(("a", "b"))
        loc = Location("k", LocationRole.known(0), (SampleCounts(np.array([3, 1]), 0, 0),))
        corpus = Corpus(catalog, (loc,), 0)
        _, _, states = initialize(corpus, FitConfig())
        assert_allclose(states[0].phi, 1.0)

    def test_refuses_invalid_corpus(self):
        catalog = ParticleCatalog(("a", "b"))
        loc = Location("t", LocationRole.trace(), (SampleCounts(np.array([1, 1]), 0, 0),))
        corpus = Corpus(catalog, (loc,), 2)
        with pytest.raises(CorpusValidationError) as err:
            initialize(corpus, FitConfig())
        assert any(v.code == "unknown-source-limit" for v in err.value.violations)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FitConfig(known_weight=0.0)
        with pytest.raises(ValueError):
            FitConfig(outer_max_iters=0)


class TestEstepSample:
    def test_single_source_closed_form(self):
        alpha = np.array([2.0])
        eta = np.array([[1.5, 2.5, 1.0]])
        counts = SampleCounts(np.array([4, 1, 2]), 0, 0)
        H = DirichletMatrix(eta, role="H")
        state = make_state(alpha, eta, [4, 1, 2])
        out = estep_sample(counts, alpha, H, state, FitConfig())
        assert_allclose(out.phi, 1.0)
        assert_allclose(out.gamma, alpha + 7.0)
        assert_allclose(out.lam, eta + np.array([[4.0, 1.0, 2.0]]))
        assert len(out.elbo_steps) <= 2  # settles after the first sweep

    def test_symmetric_instance_uniform_responsibilities(self):
        alpha = np.array([1.3, 1.3, 1.3])
        eta = np.tile(np.array([2.0, 1.0, 3.0, 1.0]), (3, 1))
        counts = SampleCounts(np.array([5, 0, 2, 1]), 0, 0)
        H = DirichletMatrix(eta, role="H")
        state = make_state(alpha, eta, [5, 0, 2, 1])
        out = estep_sample(counts, alpha, H, state, FitConfig())
        assert_allclose(out.phi, 1.0 / 3.0, atol=1e-14)

    def test_oracle_fixed_point(self):
        # two sources, two types: compare against the 64-digit fixed point
        alpha = np.array([1.0, 1.0])
        eta = np.array([[2.0, 1.0], [1.0, 2.0]])
        counts = SampleCounts(np.array([3, 1]), 0, 0)
        H = DirichletMatrix(eta, role="H")
        state = make_state(alpha, eta, [3, 1])
        out = estep_sample(counts, alpha, H, state, FitConfig(estep_tol=1e-16, estep_max_iters=5000))
        assert_allclose(out.gamma, FROZEN_2X2["gamma"], atol=1e-8)
        assert_allclose(out.lam, FROZEN_2X2["lam"], atol=1e-8)
        assert_allclose(out.phi, FROZEN_2X2["phi"], atol=1e-8)

    def test_oracle_regenerates_frozen_values(self):
        gamma, lam, phi, terms = fixed_point_2x2()
        assert_allclose([float(g) for g in gamma], FROZEN_2X2["gamma"], atol=1e-15)
        assert float(terms["log_p_beta"]) == pytest.approx(
            FROZEN_2X2["terms"]["log_p_beta"], abs=1e-15
        )

    def test_elbo_monotone_across_sweeps(self, corpus_both_known):
        config = FitConfig()
        H, A, states = initialize(corpus_both_known, config)
        for state, (loc_id, sample) in zip(states, corpus_both_known.iter_samples()):
            out = estep_sample(sample, A.values[loc_id], H, state, config)
            steps = np.array(out.elbo_steps)
            assert np.all(np.diff(steps) >= -1e-8)

    def test_count_identities(self):
        for alpha, eta, counts_vec in random_instances():
            counts = SampleCounts(counts_vec, 0, 0)
            H = DirichletMatrix(eta, role="H")
            state = make_state(alpha, eta, counts_vec)
            out = estep_sample(counts, alpha, H, state, FitConfig())
            n = counts.total
            assert (out.gamma - alpha).sum() == pytest.approx(n, abs=1e-9)
            assert (out.lam - eta).sum() == pytest.approx(n, abs=1e-9)

    def test_type_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        M, T = 3, 5
        alpha = rng.uniform(0.5, 3.0, size=M)
        eta = rng.uniform(0.5, 3.0, size=(M, T))
        counts_vec = rng.integers(1, 20, size=T)
        perm = rng.permutation(T)
        config = FitConfig(estep_tol=1e-12)

        H = DirichletMatrix(eta, role="H")
        state = make_state(alpha, eta, counts_vec)
        base = estep_sample(SampleCounts(counts_vec, 0, 0), alpha, H, state, config)

        H_p = DirichletMatrix(eta[:, perm], role="H")
        state_p = make_state(alpha, eta[:, perm], counts_vec[perm])
        permuted = estep_sample(SampleCounts(counts_vec[perm], 0, 0), alpha, H_p, state_p, config)

        assert_allclose(permuted.gamma, base.gamma, atol=1e-10)
        assert_allclose(permuted.lam, base.lam[:, perm], atol=1e-10)
        assert_allclose(permuted.phi, base.phi[perm, :], atol=1e-10)

    @staticmethod
    def _next_sweep_step(counts, alpha, H, out):
        """Largest relative gamma/lam change of one more sweep from ``out``."""
        gamma, lam = out.gamma.copy(), out.lam.copy()
        again = estep_sample(counts, alpha, H, out, FitConfig(estep_max_iters=1))
        return max(np.abs(again.gamma / gamma - 1.0).max(), np.abs(again.lam / lam - 1.0).max())

    def test_stops_at_parameter_fixed_point(self):
        # the bound goes flat before the parameters stop moving, so the
        # stop is on the parameter step: one more sweep moves nothing by
        # more than estep_tol
        alpha = np.array([1.0, 1.0])
        eta = np.array([[2.0, 1.0], [1.0, 2.0]])
        counts = SampleCounts(np.array([3, 1]), 0, 0)
        H = DirichletMatrix(eta, role="H")
        config = FitConfig(estep_tol=1e-16, estep_max_iters=5000)
        out = estep_sample(counts, alpha, H, make_state(alpha, eta, [3, 1]), config)
        assert self._next_sweep_step(counts, alpha, H, out) <= config.estep_tol

        config = FitConfig()
        for alpha, eta, counts_vec in random_instances():
            counts = SampleCounts(counts_vec, 0, 0)
            H = DirichletMatrix(eta, role="H")
            out = estep_sample(counts, alpha, H, make_state(alpha, eta, counts_vec), config)
            assert self._next_sweep_step(counts, alpha, H, out) <= config.estep_tol

    def test_warns_when_stopped_at_cap(self, caplog):
        # the FROZEN_2X2 instance
        alpha = np.array([1.0, 1.0])
        eta = np.array([[2.0, 1.0], [1.0, 2.0]])
        counts = SampleCounts(np.array([3, 1]), 0, 0)
        H = DirichletMatrix(eta, role="H")
        with caplog.at_level(logging.WARNING, logger="dustmix.vbi"):
            estep_sample(counts, alpha, H, make_state(alpha, eta, [3, 1]),
                         FitConfig(estep_max_iters=3))
        assert any("after 3 sweeps" in record.getMessage() for record in caplog.records)

        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="dustmix.vbi"):
            estep_sample(counts, alpha, H, make_state(alpha, eta, [3, 1]), FitConfig())
        assert not caplog.records

    def test_bounds_are_the_swept_states_bounds(self):
        # each recorded bound is elbo_sample of the state that sweep made,
        # bit for bit, and so is the state's final elbo
        for alpha, eta, counts_vec in random_instances():
            counts = SampleCounts(counts_vec, 0, 0)
            H = DirichletMatrix(eta, role="H")
            out = estep_sample(counts, alpha, H, make_state(alpha, eta, counts_vec), FitConfig())
            state = make_state(alpha, eta, counts_vec)
            expected = []
            for _ in out.elbo_steps:
                gamma, lam, phi = vbi._sweep(counts_vec[None].astype(float), alpha[None],
                                             eta, state.gamma[None], state.lam)
                state.gamma, state.lam, state.phi = gamma[0], lam, phi[0]
                expected.append(elbo_sample(counts, alpha, H, state))
            assert out.elbo_steps == expected
            assert out.elbo == expected[-1]
            assert np.array_equal(out.gamma, state.gamma) and np.array_equal(out.lam, state.lam)


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
            lam = rng.uniform(0.5, 40.0, size=(M, T))
            new_gamma, new_lam, phi = vbi._sweep(counts, a, eta, gamma, lam)
            allocated = np.zeros((M, T))
            for n in range(N):
                row = vbi._sweep(counts[n:n + 1], a[n:n + 1], eta, gamma[n:n + 1], lam)
                assert_allclose(new_gamma[n], row[0][0], rtol=0, atol=0)
                assert_allclose(phi[n], row[2][0], rtol=0, atol=0)
                allocated += row[1] - eta
            assert_allclose(new_lam, eta + allocated, rtol=1e-12)

    def test_no_rows(self):
        eta = np.array([[1.0, 2.0, 3.0], [2.0, 2.0, 1.0]])
        lam = eta + 4.0
        gamma, new_lam, phi = vbi._sweep(np.zeros((0, 3)), np.ones((0, 2)), eta,
                                         np.ones((0, 2)), lam)
        assert gamma.shape == (0, 2) and phi.shape == (0, 3, 2)
        assert np.array_equal(new_lam, eta)
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

    # the sweep evaluates digammas of gamma and lam only; a and eta enter it
    # by addition, and the next state's check catches what they spoil
    @pytest.mark.parametrize("bad", BAD_VALUES)
    @pytest.mark.parametrize("name", ["gamma", "lam"])
    def test_sweep(self, name, bad):
        state = _spoiled(name, bad)
        with pytest.raises(ValueError), np.errstate(over="ignore"):
            vbi._sweep(state["counts"], state["a"], state["eta"], state["gamma"], state["lam"])


class TestElboSample:
    def test_single_type_data_term_is_zero(self):
        # with one particle type the data term is psi(lam) - psi(lam) = 0
        counts = SampleCounts(np.array([5]), 0, 0)
        H = DirichletMatrix(np.array([[2.0]]), role="H")
        state = VariationalState(0, 0, gamma=np.array([3.0]),
                                 lam=np.array([[2.5]]), phi=np.ones((1, 1)))
        terms = elbo_terms(counts, np.array([2.0]), H, state)
        assert terms["log_p_x"] == 0.0

    def test_responsibility_entropy_bounds(self):
        rng = np.random.default_rng(5)
        M, T = 4, 6
        counts_vec = rng.integers(0, 25, size=T)
        counts_vec[0] = max(counts_vec[0], 1)
        counts = SampleCounts(counts_vec, 0, 0)
        eta = rng.uniform(0.5, 4.0, size=(M, T))
        H = DirichletMatrix(eta, role="H")
        phi = rng.dirichlet(np.ones(M), size=T)
        state = VariationalState(0, 0, gamma=rng.uniform(0.5, 5.0, size=M),
                                 lam=eta.copy(), phi=phi)
        terms = elbo_terms(counts, rng.uniform(0.5, 3.0, size=M), H, state)
        n = counts.total
        assert -1e-12 <= terms["entropy_z"] <= n * np.log(M) + 1e-12

    def test_oracle_terms(self):
        alpha = np.array([1.0, 1.0])
        eta = np.array([[2.0, 1.0], [1.0, 2.0]])
        counts = SampleCounts(np.array([3, 1]), 0, 0)
        H = DirichletMatrix(eta, role="H")
        state = VariationalState(
            0, 0,
            gamma=np.array(FROZEN_2X2["gamma"]),
            lam=np.array(FROZEN_2X2["lam"]),
            phi=np.array(FROZEN_2X2["phi"]),
        )
        terms = elbo_terms(counts, alpha, H, state)
        for name, expected in FROZEN_2X2["terms"].items():
            assert terms[name] == pytest.approx(expected, abs=1e-8), name
        assert elbo_sample(counts, alpha, H, state) == pytest.approx(FROZEN_2X2["elbo"], abs=1e-8)


class TestCorpusElbo:
    """The corpus bound is the sum of the per-sample bounds with the shared
    profile block counted once, not once per sample."""

    @staticmethod
    def _check(samples, a, H, gamma, phi, lam):
        counts = np.array([sample.counts for sample in samples], dtype=np.float64)
        states = [VariationalState(0, n, gamma=g, lam=lam, phi=p)
                  for n, (g, p) in enumerate(zip(gamma, phi))]
        per_sample = sum(elbo_sample(sample, a_row, H, state)
                         for sample, a_row, state in zip(samples, a, states))
        terms = elbo_terms(samples[0], a[0], H, states[0])
        profile = terms["log_p_beta"] + terms["entropy_beta"]
        expected = per_sample - (len(samples) - 1) * profile
        total = vbi.corpus_elbo(counts, a, H.values, gamma, phi, lam)
        assert total == pytest.approx(expected, rel=1e-12)

    def test_fitted_states(self, fit_both_known, corpus_both_known):
        result, _ = fit_both_known
        _, A, _ = initialize(corpus_both_known, FitConfig())
        loc, samples = zip(*corpus_both_known.iter_samples())
        self._check(list(samples), A.values[list(loc)], result.H_converged,
                    result.gamma, result.phi, result.lam)

    def test_random_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            N = int(rng.integers(2, 6))
            M = int(rng.integers(1, 5))
            T = int(rng.integers(2, 7))
            H = DirichletMatrix(rng.uniform(0.2, 5.0, size=(M, T)), role="H")
            lam = rng.uniform(0.5, 40.0, size=(M, T))
            samples = [SampleCounts(rng.integers(1, 30, size=T), 0, n) for n in range(N)]
            rows = [(rng.uniform(0.5, 30.0, size=M), rng.dirichlet(np.ones(M), size=T))
                    for _ in range(N)]
            gamma, phi = (np.array(block) for block in zip(*rows))
            self._check(samples, rng.uniform(0.2, 5.0, size=(N, M)), H, gamma, phi, lam)


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
        catalog = ParticleCatalog(("a", "b", "c"))
        locations = (
            Location("k", LocationRole.known(0), (SampleCounts(np.array([5, 3, 2]), 0, 0),)),
            Location("t", LocationRole.trace(), (SampleCounts(np.array([1, 1, 8]), 1, 0),)),
        )
        corpus = Corpus(catalog, locations, 0)
        result = fit(corpus, FitConfig(outer_max_iters=20))
        row = result.A_converged.values[0]
        assert row.shape == (1,)
        assert row[0] / row.sum() == 1.0

    def test_outer_trace_monotone(self, fit_both_known):
        result, _ = fit_both_known
        trace = np.array(result.elbo_trace)
        assert np.all(np.diff(trace) >= -1e-8 * np.maximum(np.abs(trace[:-1]), 1.0))

    def test_nonconvergence_reported_not_raised(self, corpus_both_known):
        result = fit(corpus_both_known, FitConfig(outer_max_iters=1))
        assert not result.converged
        assert result.iterations == 1
        assert len(result.elbo_trace) == 1

    def test_inference_phase_warns_at_cap(self, caplog):
        catalog = ParticleCatalog(("a", "b", "c"))
        locations = (
            Location("k", LocationRole.known(0), (SampleCounts(np.array([6, 2, 2]), 0, 0),)),
            Location("t", LocationRole.trace(), (SampleCounts(np.array([4, 3, 3]), 1, 0),)),
        )
        corpus = Corpus(catalog, locations, 1)
        with caplog.at_level(logging.WARNING, logger="dustmix.vbi"):
            fit(corpus, FitConfig(estep_max_iters=1, outer_max_iters=3))
        assert any("inference phase" in record.getMessage() and "after 1 sweeps"
                   in record.getMessage() for record in caplog.records)

    def test_duplicated_sample_states_identical(self):
        catalog = ParticleCatalog(("a", "b", "c"))
        base = np.array([4, 3, 3])
        locations = (
            Location("k", LocationRole.known(0),
                     (SampleCounts(np.array([6, 2, 2]), 0, 0),)),
            Location("t", LocationRole.trace(),
                     (SampleCounts(base, 1, 0), SampleCounts(base.copy(), 1, 1))),
        )
        corpus = Corpus(catalog, locations, 1)
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
        # the fit keeps its state in arrays: no initialize call, no state
        # object and no per-sample bound
        calls = {"initialize": 0, "elbo_sample": 0, "VariationalState": 0}

        def counting(name):
            original = getattr(vbi, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(vbi, name, counting(name))
        result = fit(corpus_both_known, FitConfig())
        assert calls == {"initialize": 0, "elbo_sample": 0, "VariationalState": 0}
        N, M, T = (corpus_both_known.n_samples, corpus_both_known.n_sources,
                   corpus_both_known.n_types)
        assert result.gamma.shape == (N, M)
        assert result.phi.shape == (N, T, M)
        assert result.lam.shape == (M, T)

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
        # the known stage runs its full cap on the bundled corpora
        assert "known stage 50 sweeps (not settled)" in message
        passes = message.split("trace stage sweeps per pass [")[1].split("]")[0].split(", ")
        assert len(passes) == 3 and all(1 <= int(n) <= 50 for n in passes)
        assert message.split("bootstrap unknown share ")[1].startswith(share)
        # logging changes no output
        assert again.elbo_trace == result.elbo_trace
        assert np.array_equal(again.A_converged.values, result.A_converged.values)


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
            gamma, lam, phi, weighted = sweep(counts, *args)
            calls.append(1)
            if len(calls) == 2:
                phi = phi.copy()
                phi[0, 0, 0] = np.nan
                weighted = phi * counts[:, :, None]
            return gamma, lam, phi, weighted

        monkeypatch.setattr(vbi, "_sweep_rows", spoiling_sweep)
        gamma, lam = numerics.DirichletRows(state["gamma"]), numerics.DirichletRows(state["lam"])
        with pytest.raises(NumericalFailure) as err:
            vbi._inference_phase(state["counts"], state["a"], state["eta"], gamma,
                                 state["phi"], lam, FitConfig(estep_tol=1e-300))
        assert err.value.iteration == 2
        assert err.value.term == "log_p_x"
        assert "inference sweep 2" in str(err.value)


@contextlib.contextmanager
def _counting_work(monkeypatch):
    """Count the special-function evaluations (``evaluations``, the
    trigammas of the linear response included) and the
    :class:`numerics.DirichletRows` domain checks (``checks``) of the engine
    inside the block; warnings are silenced."""
    counts = {"evaluations": 0, "checks": 0}
    special, zeta = numerics.special, vbi.zeta

    def counted_zeta(*args):
        counts["evaluations"] += 1
        return zeta(*args)

    class CountingSpecial:
        def __getattr__(self, name):
            function = getattr(special, name)

            def counted(*args):
                counts["evaluations"] += 1
                return function(*args)
            return counted

    class CountingRows(numerics.DirichletRows):
        def __init__(self, rows):
            counts["checks"] += 1
            super().__init__(rows)

    with monkeypatch.context() as mp:
        mp.setattr(numerics, "special", CountingSpecial())
        mp.setattr(vbi, "zeta", counted_zeta)
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


class TestSharedState:
    """An inference phase builds each state once; its collapsed bound and
    the next sweep share that state's special-function evaluations."""

    def test_bounds_equal_corpus_elbo(self, phase_start, monkeypatch):
        # the seven terms score the start state and the returned state; the
        # stop rule reads the collapsed bound of the states between
        scored = []
        bound_terms = vbi._bound_terms

        def recording(counts, a, eta, gamma, phi, lam):
            terms = bound_terms(counts, a, eta, gamma, phi, lam)
            scored.append(((counts, a.rows, eta.rows, gamma.rows, phi, lam.rows), terms))
            return terms

        monkeypatch.setattr(vbi, "_bound_terms", recording)
        *_, bound, sweeps = vbi._inference_phase(*phase_start[:6], FitConfig(estep_tol=1e-12))
        monkeypatch.undo()
        assert sweeps > 1 and len(scored) == 2
        for args, terms in scored:
            assert vbi._check_terms(terms) == vbi.corpus_elbo(*args)
        assert bound == vbi.corpus_elbo(*scored[-1][0])

    @staticmethod
    def _work(phase_start, sweeps, monkeypatch):
        """Special-function evaluations and domain checks of a phase capped
        at ``sweeps`` sweeps."""
        config = FitConfig(estep_tol=1e-300, estep_max_iters=sweeps)
        with _counting_work(monkeypatch) as counts:
            assert vbi._inference_phase(*phase_start[:6], config)[-1] == sweeps
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
        gamma, lam, phi, weighted = vbi._sweep_rows(counts, a.rows, eta.rows, gamma, lam)
        assert np.array_equal(weighted, phi * counts[:, :, None])
        terms = vbi._bound_terms(counts, a, eta, gamma, phi, lam)
        # relative to the terms: a bound near zero is a difference of terms
        # hundreds of times larger, and keeps only their rounding
        scale = sum(abs(value) for value in terms.values())
        collapsed = vbi._collapsed_bound(a, eta, gamma, phi, lam, weighted)
        assert abs(collapsed - vbi._check_terms(terms)) <= 1e-12 * scale

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

        def seven_terms(a, eta, gamma, phi, lam, weighted):
            calls.append(1)
            return float(sum(vbi._bound_terms(counts, a, eta, gamma, phi, lam).values()))

        monkeypatch.setattr(vbi, "_collapsed_bound", seven_terms)
        again = fit(corpus, FitConfig())
        assert calls
        for name in ("gamma", "phi", "lam", "elbo_trace", "trace_locations", "converged",
                     "iterations"):
            assert np.array_equal(getattr(again, name), getattr(result, name)), name
        assert np.array_equal(again.H_converged.values, result.H_converged.values)
        # a near-tie Newton acceptance can go either way under the two forms'
        # rounding; the linear-response rows are good to about 1e-6 anyway
        assert_allclose(again.A_converged.values, result.A_converged.values, rtol=2e-6, atol=0)

    @pytest.mark.parametrize("config", [
        FitConfig(), FitConfig(estep_tol=1e-300, estep_max_iters=7), FitConfig(estep_max_iters=1)
    ])
    def test_phase_scores_two_states_by_seven_terms(self, phase_start, config, monkeypatch):
        calls = []
        bound_terms = vbi._bound_terms
        monkeypatch.setattr(vbi, "_bound_terms", lambda *args: calls.append(1) or bound_terms(*args))
        monkeypatch.setattr(vbi.logger, "disabled", True)
        vbi._inference_phase(*phase_start[:6], config)
        assert len(calls) == 2


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

        def recording(a, eta, gamma, phi, lam, weighted):
            bound = collapsed_bound(a, eta, gamma, phi, lam, weighted)
            scored.append(((a.rows, eta.rows, gamma.rows, phi, lam.rows), bound))
            return bound

        monkeypatch.setattr(vbi, "_collapsed_bound", recording)
        *_, accepted, rejected = vbi._fixed_point(*fixed_prior_start)
        monkeypatch.undo()
        assert accepted > 0 and len(scored) == 2 * (accepted + rejected)
        for (a, eta, gamma, phi, lam), bound in scored:
            a_rows, eta_rows, gamma_rows, lam_rows = map(numerics.DirichletRows,
                                                         (a, eta, gamma, lam))
            terms = vbi._bound_terms(counts, a_rows, eta_rows, gamma_rows, phi, lam_rows)
            # the tolerance of TestCollapsedBound, on the summed absolute terms
            scale = sum(abs(value) for value in terms.values())
            assert abs(bound - vbi.corpus_elbo(counts, a, eta, gamma, phi, lam)) <= 1e-12 * scale

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


def _digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


# The bundled fits' outputs as recorded at a3414e1: the full bound trace and
# the iteration count, sha256 digests of the float64 bytes of the EB-path
# arrays, and the linear-response trace rows.
BUNDLED_FITS = json.loads((Path(__file__).parent / "bundled_fits.json").read_text())


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
        pinned = BUNDLED_FITS[scenario]
        assert result.iterations == pinned["iterations"]
        assert list(result.elbo_trace) == pinned["elbo_trace"]
        arrays = {"H_converged": result.H_converged.values, "gamma": result.gamma,
                  "phi": result.phi, "lam": result.lam}
        assert {name: _digest(values) for name, values in arrays.items()} == pinned["sha256"]
        # the linear-response rows come from a fixed point good to about 1e-6
        assert_allclose(result.A_converged.values, pinned["A_converged"], rtol=2e-6, atol=0)


# The six fits of a serial run_study over the pooled AT/LQ profiles (shares
# 0.1/0.5/0.9, n = 1900, 2 replications, seed 0), pinned like the bundled fits
# and recorded before the linear-response step continued the first phase.
STUDY_GRID_FITS = json.loads((Path(__file__).parent / "study_grid_fits.json").read_text())


@pytest.fixture(scope="module")
def study_grid_fits():
    """Each study-grid fit, keyed like its pin, with the sweep counts of its
    inference phases."""
    names, profiles = at_lq_point_profiles()
    spec = StudySpec(catalog=ParticleCatalog(names), true_profiles=profiles,
                     unknown_shares=(0.1, 0.5, 0.9), sample_sizes=(1900,), replications=2,
                     rng_seed=0)
    fits, sweeps = [], []
    original_fit, phase = simulator.fit, vbi._inference_phase

    def capture(corpus, config):
        sweeps.append([])
        fits.append(original_fit(corpus, config))
        return fits[-1]

    def counting(*args):
        result = phase(*args)
        sweeps[-1].append(result[-1])
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "fit", capture)
        mp.setattr(vbi, "_inference_phase", counting)
        cells = run_study(spec, FitConfig()).cells
    keys = [f"share {cell.unknown_share}, n {cell.sample_size}, replication {cell.replication}"
            for cell in cells]
    return dict(zip(keys, zip(fits, sweeps)))


class TestStudyGridFits:
    """Regression guard: the benchmark's study-grid fits keep every EB-path
    output bitwise."""

    @pytest.mark.parametrize("key", list(STUDY_GRID_FITS))
    def test_outputs_pinned(self, key, study_grid_fits):
        result, _ = study_grid_fits[key]
        pinned = STUDY_GRID_FITS[key]
        assert result.iterations == pinned["iterations"]
        assert list(result.elbo_trace) == pinned["elbo_trace"]
        arrays = {"H_converged": result.H_converged.values, "gamma": result.gamma,
                  "phi": result.phi, "lam": result.lam}
        assert {name: _digest(values) for name, values in arrays.items()} == pinned["sha256"]
        assert_allclose(result.A_converged.values, pinned["A_converged"], rtol=2e-6, atol=0)

    def test_a_first_phase_runs_to_its_cap(self, study_grid_fits):
        # the pins cover an unconverged first phase, which the bundled fits do not
        _, sweeps = study_grid_fits["share 0.1, n 1900, replication 1"]
        assert sweeps[0] == FitConfig().estep_max_iters


# One fit of the many-traces design (AT known from 12 samples, LQ unknown; 24
# trace locations of 2 samples at 350 particles, the LQ share of location j
# drawn from the j-th of 24 equal strata of [0.05, 0.95]; generate_corpus at
# seed 0), pinned like the study-grid fits.  Its M-steps solve 24 trace rows
# in one batch, where some rows keep a halved Newton step and others do not.
MANY_TRACE_FIT = json.loads((Path(__file__).parent / "many_trace_fit.json").read_text())


def _many_trace_corpus():
    names, profiles = at_lq_point_profiles()
    design = np.random.default_rng(0)
    shares = 0.05 + 0.9 * (np.arange(24) + design.uniform(size=24)) / 24
    spec = ScenarioSpec(catalog=ParticleCatalog(names), true_profiles=profiles,
                        trace_mixtures=tuple((1.0 - u, u) for u in shares),
                        particles_per_sample=350, samples_per_trace=2, known_sample_counts=(12,))
    return generate_corpus(spec, design)


class TestManyTraceFit:
    """Regression guard: a fit whose M-step solves many trace rows at once
    keeps every EB-path output bitwise."""

    def test_outputs_pinned(self):
        result = fit(_many_trace_corpus(), FitConfig())
        assert len(result.trace_locations) == 24
        assert result.iterations == MANY_TRACE_FIT["iterations"]
        assert list(result.elbo_trace) == MANY_TRACE_FIT["elbo_trace"]
        arrays = {"H_converged": result.H_converged.values, "gamma": result.gamma,
                  "phi": result.phi, "lam": result.lam}
        assert {name: _digest(values) for name, values in arrays.items()} == \
            MANY_TRACE_FIT["sha256"]
        assert_allclose(result.A_converged.values, MANY_TRACE_FIT["A_converged"],
                        rtol=2e-6, atol=0)


# One fit with three sources (AT and LQ known from 6 samples each, a third
# unknown whose profile is the LQ row in reverse type order, renormalised;
# 3 trace locations of 3 samples at 400 particles; generate_corpus at seed
# 0), pinned like the study-grid fits.  The other pins have two sources, and
# rows of three entries are summed in more than one step.
THREE_SOURCE_FIT = json.loads((Path(__file__).parent / "three_source_fit.json").read_text())


def _three_source_corpus():
    names, profiles = at_lq_point_profiles()
    third = profiles[1, ::-1] / profiles[1, ::-1].sum()
    spec = ScenarioSpec(catalog=ParticleCatalog(names), true_profiles=np.vstack([profiles, third]),
                        trace_mixtures=((0.6, 0.1, 0.3), (0.2, 0.5, 0.3), (0.3, 0.3, 0.4)),
                        particles_per_sample=400, samples_per_trace=3, known_sample_counts=(6, 6))
    return generate_corpus(spec, np.random.default_rng(0))


class TestThreeSourceFit:
    """Regression guard: a fit with three sources keeps every EB-path
    output bitwise."""

    def test_outputs_pinned(self):
        result = fit(_three_source_corpus(), FitConfig())
        assert result.gamma.shape[1] == 3 and len(result.trace_locations) == 3
        assert result.iterations == THREE_SOURCE_FIT["iterations"]
        assert list(result.elbo_trace) == THREE_SOURCE_FIT["elbo_trace"]
        arrays = {"H_converged": result.H_converged.values, "gamma": result.gamma,
                  "phi": result.phi, "lam": result.lam}
        assert {name: _digest(values) for name, values in arrays.items()} == \
            THREE_SOURCE_FIT["sha256"]
        assert_allclose(result.A_converged.values, THREE_SOURCE_FIT["A_converged"],
                        rtol=2e-6, atol=0)


def _plain_fixed_point(counts, a, eta, gamma, lam, tol, cap):
    """Reference: plain sweeps until no parameter moves by a relative ``tol``."""
    for sweeps in range(1, cap + 1):
        new_gamma, new_lam, phi = vbi._sweep(counts, a, eta, gamma, lam)
        moved = vbi._relative_step(gamma, lam, new_gamma, new_lam)
        gamma, lam = new_gamma, new_lam
        if moved < tol:
            break
    return gamma, lam, phi, sweeps


def _converged_fixed_point(counts, a, eta, gamma, lam, tol, cap):
    """:func:`vbi._fixed_point` by plain sweeps to a relative step of 1e-12."""
    return *_plain_fixed_point(counts, a, eta, gamma, lam, 1e-12, 200_000), 0, 0


def _fixed_point_args(corpus):
    """The arguments ``corpus``'s fit passes to :func:`vbi._fixed_point`: the
    configured priors and the state its first inference phase returned under
    them."""
    captured = []
    original = vbi._fixed_point

    def capture(*args):
        captured.append(args)
        return original(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vbi, "_fixed_point", capture)
        fit(corpus, FitConfig())
    return captured[0]


@pytest.fixture(scope="module")
def fixed_prior_start(corpus_at_known):
    """The arguments the AT-known fit passes to :func:`vbi._fixed_point`: a
    configured-prior state from its first inference phase."""
    return _fixed_point_args(corpus_at_known)


def _study_corpus():
    """Criterion 8's share-0.1, n=1900 cell, replication 1."""
    names, profiles = at_lq_point_profiles()
    spec = StudySpec(catalog=ParticleCatalog(names), true_profiles=profiles,
                     unknown_shares=(0.1,), sample_sizes=(1900,))
    rng = np.random.default_rng(np.random.SeedSequence((0, 0, 2, 1)))
    return generate_corpus(spec.scenario(0.1, 1900), rng)


class TestFixedPoint:
    @pytest.mark.parametrize("scenario", ["at-known", "study"])
    def test_concentrations_match_converged_plain_sweeps(self, scenario, request, monkeypatch):
        corpus = request.getfixturevalue("corpus_at_known") if scenario == "at-known" \
            else _study_corpus()
        rows = fit(corpus, FitConfig()).A_converged.values
        monkeypatch.setattr(vbi, "_fixed_point", _converged_fixed_point)
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
        assert np.array_equal(gamma, phases[0][0].rows) and np.array_equal(lam, phases[0][2].rows)
        config = FitConfig()
        configured = np.full_like(a, config.flat_weight)
        for row, (loc_id, _) in zip(configured, corpus_at_known.iter_samples()):
            role = corpus_at_known.locations[loc_id].role
            if role.is_known:
                row[role.source_index] = config.known_weight
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

        monkeypatch.setattr(vbi, "_fixed_point", counting)
        rows = fit(corpus, FitConfig()).A_converged.values
        assert sweeps[0] <= 30
        monkeypatch.setattr(vbi, "_fixed_point", _converged_fixed_point)
        assert_allclose(rows, fit(corpus, FitConfig()).A_converged.values, rtol=1e-6, atol=0)

    def test_bound_of_kept_states_never_falls(self, fixed_prior_start, monkeypatch):
        # every cycle scores its plain sweep, then its stabilising sweep; the
        # cycle keeps whichever state the next sweep starts from
        scored, starts = [], []
        collapsed_bound, sweep = vbi._collapsed_bound, vbi._sweep_rows

        def recording_bound(a, eta, gamma, phi, lam, weighted):
            bound = collapsed_bound(a, eta, gamma, phi, lam, weighted)
            scored.append(((a.rows, eta.rows, gamma.rows, phi, lam.rows), gamma, bound))
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
        new_gamma, new_lam, _ = vbi._sweep(counts, a, eta, gamma, lam)
        assert vbi._relative_step(gamma, lam, new_gamma, new_lam) < vbi._LR_TOL

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
        assert any("fixed-prior phase" in record.getMessage()
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
    new_gamma, new_lam, phi = vbi._sweep(counts, a, eta, gamma, lam)
    loc = vbi._start(corpus, FitConfig())[2]
    return counts, loc, list(corpus.trace_location_ids), (gamma, lam), phi, (new_gamma, new_lam)


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
    gamma, lam = rng.uniform(1.0, 20.0, size=(N, M)), rng.uniform(1.0, 20.0, size=(M, T))
    for _ in range(200):
        gamma, lam, _ = vbi._sweep(counts, a, eta, gamma, lam)
    phi = vbi._sweep(counts, a, eta, gamma, lam)[2]
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
    @pytest.mark.parametrize("scenario", ["both-known", "at-known", "lq-known"])
    def test_share_sd_matches_exact_posterior(self, scenario, request):
        # the fitted hyperparameter rows alone give sds 10-25x too small
        key = scenario.replace("-", "_")
        result = request.getfixturevalue(f"fit_{key}")
        if scenario == "both-known":
            result = result[0]
        corpus = request.getfixturevalue(f"corpus_{key}")
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

    def test_rows_usable_after_one_outer_iteration(self, corpus_lq_known):
        rows = fit(corpus_lq_known, FitConfig(outer_max_iters=1)).A_converged.values
        assert np.all(np.isfinite(rows)) and np.all(rows > 0.0)
        for row in rows:
            for m in range(row.size):
                shape = theta_marginal(row, m)
                interval = beta_hpdi(shape, 0.95)
                assert interval.lo <= beta_summary(shape).mean <= interval.hi

    def test_flat_row_when_response_is_unusable(self, monkeypatch, caplog):
        catalog = ParticleCatalog(("a", "b", "c"))
        locations = (
            Location("k", LocationRole.known(0), (SampleCounts(np.array([6, 2, 2]), 0, 0),)),
            Location("t", LocationRole.trace(), (SampleCounts(np.array([4, 3, 3]), 1, 0),)),
        )
        corpus = Corpus(catalog, locations, 1)
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
