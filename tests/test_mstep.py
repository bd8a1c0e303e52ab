import logging

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import root

from dustmix import mstep as mstep_module
from dustmix import vbi
from dustmix.model import (
    Corpus,
    DirichletMatrix,
    Location,
    LocationRole,
    ParticleCatalog,
    SampleCounts,
    VariationalState,
)
from dustmix.mstep import (
    BoxBounds,
    OptimizerConfig,
    alpha_objective_and_gradient,
    eta_objective_and_gradient,
    maximize_rows,
    mstep,
)
from dustmix.numerics import digamma, log_gamma
from dustmix.vbi import FitConfig, _start, _sweep, corpus_elbo, fit


def random_states(rng, n_samples, M, T, location_ids=None):
    states = []
    for i in range(n_samples):
        states.append(
            VariationalState(
                location_id=0 if location_ids is None else location_ids[i],
                sample_index=i,
                gamma=rng.uniform(0.3, 8.0, size=M),
                lam=rng.uniform(0.3, 8.0, size=(M, T)),
                phi=rng.dirichlet(np.ones(M), size=T),
            )
        )
    return states


def central_difference(fun, x, step_scale=1e-5):
    grad = np.zeros_like(x)
    for j in range(x.size):
        h = step_scale * max(1.0, x[j])
        up, down = x.copy(), x.copy()
        up[j] += h
        down[j] -= h
        grad[j] = (fun(up) - fun(down)) / (2.0 * h)
    return grad


class TestEtaObjective:
    def test_single_type_is_identically_zero(self):
        rng = np.random.default_rng(0)
        states = random_states(rng, 3, M=2, T=1)
        value, grad = eta_objective_and_gradient(0, np.array([1.7]), states)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert_allclose(grad, 0.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            M = int(rng.integers(1, 5))
            T = int(rng.integers(2, 7))
            m = int(rng.integers(0, M))
            states = random_states(rng, int(rng.integers(1, 6)), M, T)
            eta_row = rng.uniform(0.2, 6.0, size=T)
            _, grad = eta_objective_and_gradient(m, eta_row, states)
            numeric = central_difference(
                lambda x: eta_objective_and_gradient(m, x, states)[0], eta_row
            )
            assert_allclose(grad, numeric, rtol=1e-4, atol=1e-7)

    def test_gradient_vanishes_at_matching_lambda(self):
        # single sample whose profile posterior row equals the candidate row
        row = np.array([2.0, 5.0, 3.0])
        state = VariationalState(0, 0, gamma=np.array([1.0]),
                                 lam=row[None, :].copy(), phi=np.ones((3, 1)))
        _, grad = eta_objective_and_gradient(0, row, [state])
        assert_allclose(grad, 0.0, atol=1e-10)

    def test_rejects_nonpositive_row(self):
        rng = np.random.default_rng(1)
        states = random_states(rng, 1, 2, 3)
        with pytest.raises(ValueError):
            eta_objective_and_gradient(0, np.array([1.0, -0.5, 2.0]), states)


class TestAlphaObjective:
    def _corpus(self):
        catalog = ParticleCatalog(("a", "b"))
        locations = (
            Location("k", LocationRole.known(0), (SampleCounts(np.array([3, 1]), 0, 0),)),
            Location("t", LocationRole.trace(), (SampleCounts(np.array([1, 2]), 1, 0),)),
        )
        return Corpus(catalog, locations, 1)

    def test_single_source_is_identically_zero(self):
        catalog = ParticleCatalog(("a", "b"))
        corpus = Corpus(
            catalog,
            (Location("t", LocationRole.trace(), (SampleCounts(np.array([2, 2]), 0, 0),)),),
            1,
        )
        state = VariationalState(0, 0, gamma=np.array([4.0]),
                                 lam=np.ones((1, 2)), phi=np.ones((2, 1)))
        value, grad = alpha_objective_and_gradient(0, np.array([1.0]), [state], corpus)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert_allclose(grad, 0.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(43)
        corpus = self._corpus()
        for _ in range(100):
            M = 2
            states = random_states(rng, int(rng.integers(1, 5)), M, 2,
                                   location_ids=[1] * 4)
            alpha_row = rng.uniform(0.2, 6.0, size=M)
            _, grad = alpha_objective_and_gradient(1, alpha_row, states, corpus)
            numeric = central_difference(
                lambda x: alpha_objective_and_gradient(1, x, states, corpus)[0], alpha_row
            )
            assert_allclose(grad, numeric, rtol=1e-4, atol=1e-7)

    def test_gradient_vanishes_at_matching_gamma(self):
        corpus = self._corpus()
        row = np.array([2.5, 4.5])
        state = VariationalState(1, 0, gamma=row.copy(),
                                 lam=np.ones((2, 2)), phi=np.full((2, 2), 0.5))
        _, grad = alpha_objective_and_gradient(1, row, [state], corpus)
        assert_allclose(grad, 0.0, atol=1e-10)

    def test_known_row_rejected(self):
        corpus = self._corpus()
        state = VariationalState(0, 0, gamma=np.array([1.0, 1.0]),
                                 lam=np.ones((2, 2)), phi=np.full((2, 2), 0.5))
        with pytest.raises(ValueError, match="frozen"):
            alpha_objective_and_gradient(0, np.array([1.0, 1.0]), [state], corpus)


def digamma_rows(rows):
    return digamma(rows) - digamma(rows.sum(axis=1))[:, None]


def row_value(x, stat, n):
    return n * (log_gamma(x.sum()) - log_gamma(x).sum()) + x @ stat


def row_gradient(x, stat, n):
    return n * (digamma(x.sum()) - digamma(x)) + stat


def projected(x, grad, bounds):
    outward = ((x <= bounds.lower) & (grad < 0.0)) | ((x >= bounds.upper) & (grad > 0.0))
    return np.where(outward, 0.0, grad)


def random_trace_rows(rng, n_rows, M):
    """Row statistics of trace locations with 1-5 samples each."""
    sizes = rng.integers(1, 6, size=n_rows)
    stat = np.array([digamma_rows(rng.uniform(0.3, 40.0, (k, M))).sum(axis=0) for k in sizes])
    return stat, sizes.astype(np.float64)


def swept_arrays(corpus, sweeps=20):
    """Array state a few inference sweeps after the starting point."""
    H, A, loc, counts, gamma = _start(corpus, FitConfig())
    lam = H.values.copy()
    for _ in range(sweeps):
        gamma, lam, phi = _sweep(counts, A.values[loc], H.values, gamma, lam)
    return H, A, counts, loc, gamma, phi, lam


def trace_stats(gamma, loc, trace_ids):
    return {l: (digamma_rows(gamma[loc == l]).sum(axis=0), float((loc == l).sum()))
            for l in trace_ids}


class TestMaximizeBox:
    def test_stationary_start(self):
        rng = np.random.default_rng(5)
        x0 = rng.uniform(0.5, 30.0, size=(6, 4))
        n = np.arange(1.0, 7.0)
        result = maximize_rows(n[:, None] * digamma_rows(x0), n, x0, BoxBounds(), OptimizerConfig())
        assert np.array_equal(result.x, x0)
        assert np.all(result.iterations == 0) and np.all(result.converged)

    def test_never_evaluates_outside_bounds(self, monkeypatch):
        bounds = BoxBounds(lower=0.2, upper=3.0)
        seen = []
        objective = mstep_module._objective

        def recording(x, stat, n):
            seen.append(x.copy())
            return objective(x, stat, n)

        monkeypatch.setattr(mstep_module, "_objective", recording)
        rng = np.random.default_rng(6)
        # maximizers far above the box: every row ends on its upper edge
        stat = digamma_rows(rng.uniform(10.0, 50.0, size=(5, 3)))
        result = maximize_rows(stat, np.ones(5), np.ones((5, 3)), bounds, OptimizerConfig())
        stacked = np.vstack(seen)
        assert stacked.min() >= bounds.lower and stacked.max() <= bounds.upper
        assert np.all(result.on_box) and np.all(result.converged)

    def test_value_never_below_start(self):
        rng = np.random.default_rng(9)
        bounds = BoxBounds(lower=1e-3, upper=1.0)
        for _ in range(20):
            stat, n = random_trace_rows(rng, 4, 3)
            x0 = rng.uniform(0.1, 0.9, size=(4, 3))
            result = maximize_rows(stat, n, x0, bounds, OptimizerConfig())
            for i in range(4):
                assert result.value[i] >= row_value(x0[i], stat[i], n[i])
                assert result.value[i] == pytest.approx(
                    row_value(result.x[i], stat[i], n[i]), rel=1e-12)

    def test_nonfinite_start_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            maximize_rows(np.zeros((1, 2)), np.ones(1), np.array([[np.nan, 1.0]]),
                          BoxBounds(), OptimizerConfig())
        with pytest.raises(ValueError, match="non-finite"):
            maximize_rows(np.array([[np.nan, 0.0]]), np.ones(1), np.ones((1, 2)),
                          BoxBounds(), OptimizerConfig())

    def test_start_outside_bounds_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            maximize_rows(np.zeros((1, 2)), np.ones(1), np.array([[10.0, 0.5]]),
                          BoxBounds(lower=0.1, upper=1.0), OptimizerConfig())

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            BoxBounds(lower=2.0, upper=1.0)
        with pytest.raises(ValueError):
            BoxBounds(lower=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(max_iters=0)
        with pytest.raises(ValueError):
            OptimizerConfig(grad_tol=0.0)

    def test_batched_rows_match_one_row_solves(self):
        rng = np.random.default_rng(31)
        # a tight tolerance, so the root check can hold the rows to 1e-6
        config = OptimizerConfig(grad_tol=1e-9)
        for M in (2, 3, 5):
            stat, n = random_trace_rows(rng, 10, M)
            x0 = np.ones((10, M))
            batched = maximize_rows(stat, n, x0, BoxBounds(), config)
            assert np.all(batched.converged) and not np.any(batched.on_box)
            for i in range(10):
                alone = maximize_rows(stat[i:i + 1], n[i:i + 1], x0[i:i + 1], BoxBounds(), config)
                assert_allclose(batched.x[i], alone.x[0], rtol=1e-12)
                grad = row_gradient(batched.x[i], stat[i], n[i])
                assert np.abs(projected(batched.x[i], grad, BoxBounds())).max() < config.grad_tol
                # independent check: the only root of the gradient
                check = root(lambda v: row_gradient(np.abs(v), stat[i], n[i]),
                             np.full(M, 5.0), method="hybr")
                assert check.success
                assert_allclose(np.abs(check.x), batched.x[i], rtol=1e-6)


class TestMstep:
    def _known_only_corpus(self):
        catalog = ParticleCatalog(("a", "b", "c"))
        locations = (
            Location("k0", LocationRole.known(0), (SampleCounts(np.array([5, 1, 1]), 0, 0),)),
            Location("k1", LocationRole.known(1), (SampleCounts(np.array([1, 5, 1]), 1, 0),)),
        )
        return Corpus(catalog, locations, 0)

    def test_no_trace_rows_leaves_mixing_matrix_untouched(self):
        corpus = self._known_only_corpus()
        H, A, _, loc, gamma, _, lam = swept_arrays(corpus)
        _, A2, _ = mstep(H, A, lam, digamma_rows(gamma), loc, corpus.trace_location_ids,
                         BoxBounds(), OptimizerConfig())
        assert np.array_equal(A2.values, A.values)

    def test_known_rows_bitwise_preserved(self, corpus_both_known):
        H, A, _, loc, gamma, _, lam = swept_arrays(corpus_both_known)
        _, A2, _ = mstep(H, A, lam, digamma_rows(gamma), loc, corpus_both_known.trace_location_ids,
                         BoxBounds(), OptimizerConfig())
        assert np.array_equal(A2.values[0], A.values[0])
        assert np.array_equal(A2.values[1], A.values[1])
        assert not np.array_equal(A2.values[2], A.values[2])

    def test_profile_rows_are_lambda_inside_the_box(self, corpus_both_known):
        H, A, _, loc, gamma, _, lam = swept_arrays(corpus_both_known)
        H2, _, notes = mstep(H, A, lam, digamma_rows(gamma), loc, corpus_both_known.trace_location_ids,
                             BoxBounds(), OptimizerConfig())
        assert np.array_equal(H2.values, lam)
        assert notes == []

    def test_unclipped_profile_rows_build_no_statistics(self, corpus_both_known, monkeypatch):
        # the profile rows' E log statistics feed only the solve of clipped
        # rows, so with none clipped no empty set of rows is evaluated
        H, A, _, loc, gamma, _, lam = swept_arrays(corpus_both_known)
        built = []

        class RecordingRows(mstep_module.DirichletRows):
            def __init__(self, rows):
                super().__init__(rows)
                built.append(self.rows.shape)

        monkeypatch.setattr(mstep_module, "DirichletRows", RecordingRows)
        H2, _, _ = mstep(H, A, lam, digamma_rows(gamma), loc, corpus_both_known.trace_location_ids,
                         BoxBounds(), OptimizerConfig())
        assert np.array_equal(H2.values, lam)
        assert built and all(shape[0] for shape in built)

    def test_total_bound_never_decreases(self, corpus_both_known):
        H, A, counts, loc, gamma, phi, lam = swept_arrays(corpus_both_known)
        before = corpus_elbo(counts, A.values[loc], H.values, gamma, phi, lam)
        H2, A2, _ = mstep(H, A, lam, digamma_rows(gamma), loc, corpus_both_known.trace_location_ids,
                          BoxBounds(), OptimizerConfig())
        after = corpus_elbo(counts, A2.values[loc], H2.values, gamma, phi, lam)
        assert after >= before - 1e-8

    @pytest.mark.parametrize("scenario", ["corpus_both_known", "corpus_at_known"])
    def test_objective_change_is_bound_change(self, scenario, request):
        # the profile block enters the bound once, so each profile row
        # counts once, with the shared lam's digamma differences
        corpus = request.getfixturevalue(scenario)
        H, A, counts, loc, gamma, phi, lam = swept_arrays(corpus)
        before = corpus_elbo(counts, A.values[loc], H.values, gamma, phi, lam)
        H2, A2, _ = mstep(H, A, lam, digamma_rows(gamma), loc, corpus.trace_location_ids,
                          BoxBounds(), OptimizerConfig())
        after = corpus_elbo(counts, A2.values[loc], H2.values, gamma, phi, lam)
        dg_lam = digamma_rows(lam)
        change = sum(row_value(H2.values[m], dg_lam[m], 1.0) - row_value(H.values[m], dg_lam[m], 1.0)
                     for m in range(len(lam)))
        for l, (stat, n) in trace_stats(gamma, loc, corpus.trace_location_ids).items():
            change += row_value(A2.values[l], stat, n) - row_value(A.values[l], stat, n)
        assert change == pytest.approx(after - before, rel=1e-10)

    def test_eta_objective_counts_shared_posterior_once(self, fit_both_known, corpus_both_known):
        # states viewing the fitted arrays all hold one lam, whose block the
        # bound counts once
        result, _ = fit_both_known
        lam = result.lam
        states = [VariationalState(loc_id, sample.sample_index, gamma=result.gamma[n], lam=lam,
                                   phi=result.phi[n])
                  for n, (loc_id, sample) in enumerate(corpus_both_known.iter_samples())]
        assert len(states) > 1 and all(state.lam is lam for state in states)
        dg_lam = digamma_rows(lam)
        for m, x in enumerate(result.H_converged.values):
            value, grad = eta_objective_and_gradient(m, x, states)
            assert value == pytest.approx(row_value(x, dg_lam[m], 1.0), rel=1e-12)
            assert_allclose(grad, row_gradient(x, dg_lam[m], 1.0), rtol=1e-12, atol=1e-12)

    def test_row_updates_are_separable(self):
        # optimizing rows through mstep equals optimizing each row alone
        rng = np.random.default_rng(12)
        bounds = BoxBounds(upper=20.0)
        lam = rng.uniform(0.5, 8.0, size=(3, 4))
        lam[1, 2] = 35.0  # this profile row goes to the solver
        loc = np.array([0, 1, 1, 2, 2, 2, 3])
        gamma = rng.uniform(0.5, 15.0, size=(7, 3))
        trace_ids = (1, 2, 3)
        H = DirichletMatrix(rng.uniform(0.5, 2.0, size=(3, 4)), role="H")
        A = DirichletMatrix(np.ones((4, 3)), role="A")
        H2, A2, _ = mstep(H, A, lam, digamma_rows(gamma), loc, trace_ids, bounds, OptimizerConfig())
        for m in (2, 1, 0):  # reversed order
            if m == 1:
                res = maximize_rows(digamma_rows(lam[1:2]), np.ones(1),
                                    np.clip(lam[1:2], bounds.lower, bounds.upper),
                                    bounds, OptimizerConfig())
                assert_allclose(res.x[0], H2.values[m], atol=1e-8)
            else:
                assert_allclose(lam[m], H2.values[m], atol=1e-8)
        stats = trace_stats(gamma, loc, trace_ids)
        for l in reversed(trace_ids):
            stat, n = stats[l]
            res = maximize_rows(stat[None], np.array([n]), np.ones((1, 3)), bounds,
                                OptimizerConfig())
            assert_allclose(res.x[0], A2.values[l], atol=1e-8)

    def test_synthetic_gradient_root_recovered(self):
        # profile posterior rows all equal to one target: the optimum sits
        # exactly at that target, confirmed by an independent root finder
        target = np.array([4.0, 9.0, 2.0, 7.0])
        states = [
            VariationalState(0, i, gamma=np.array([1.0]),
                             lam=target[None, :].copy(), phi=np.ones((4, 1)))
            for i in range(3)
        ]
        check = root(
            lambda x: eta_objective_and_gradient(0, np.abs(x), states)[1],
            np.full(4, 5.0),
            method="hybr",
        )
        assert check.success
        assert_allclose(np.abs(check.x), target, rtol=1e-6)

        result = maximize_rows(3.0 * digamma_rows(target[None]), np.array([3.0]),
                               np.ones((1, 4)), BoxBounds(), OptimizerConfig(max_iters=500))
        assert result.converged[0]
        assert_allclose(result.x[0], target, rtol=1e-6)

    def test_clipped_rows_end_at_box_maximizer(self, corpus_both_known):
        config = OptimizerConfig()
        bounds = BoxBounds(upper=50.0)
        H, A, _, loc, gamma, _, lam = swept_arrays(corpus_both_known)
        trace_ids = corpus_both_known.trace_location_ids
        H2, A2, notes = mstep(H, A, lam, digamma_rows(gamma), loc, trace_ids, bounds, config)
        dg_lam = digamma_rows(lam)
        for m in range(len(lam)):
            x = H2.values[m]
            assert x.min() >= bounds.lower and x.max() <= bounds.upper
            assert np.abs(projected(x, row_gradient(x, dg_lam[m], 1.0), bounds)).max() \
                <= config.grad_tol
        for l, (stat, n) in trace_stats(gamma, loc, trace_ids).items():
            x = A2.values[l]
            assert x.min() >= bounds.lower and x.max() <= bounds.upper
            assert np.abs(projected(x, row_gradient(x, stat, n), bounds)).max() \
                <= config.grad_tol
        assert "H row 0 on a box edge" in notes
        assert f"A row {trace_ids[0]} on a box edge" in notes

    def test_unconverged_rows_noted(self, corpus_both_known):
        H, A, _, loc, gamma, _, lam = swept_arrays(corpus_both_known)
        _, _, notes = mstep(H, A, lam, digamma_rows(gamma), loc, corpus_both_known.trace_location_ids,
                            BoxBounds(), OptimizerConfig(max_iters=1))
        assert notes == ["A row 2 unconverged", "A row 3 unconverged"]

    def test_fit_warns_about_rows_on_the_box(self, corpus_both_known, caplog, monkeypatch):
        monkeypatch.setattr(vbi, "_BOX", BoxBounds(upper=50.0))
        with caplog.at_level(logging.WARNING, logger="dustmix.vbi"):
            fit(corpus_both_known, FitConfig(outer_max_iters=3))
        flagged = [r.getMessage() for r in caplog.records if "M-step rows" in r.getMessage()]
        assert len(flagged) == 1
        assert "H row 0 on a box edge in 2 of 2 M-steps" in flagged[0]
        assert "A row 2 on a box edge in 2 of 2 M-steps" in flagged[0]

    def test_fit_regime_on_bundled_corpus(self, fit_both_known):
        # converged trace rows show the expected dominance pattern
        result, _ = fit_both_known
        first, second = result.A_converged.values
        assert first[0] / first[1] > 5.0
        assert second[1] / second[0] > 2.0
