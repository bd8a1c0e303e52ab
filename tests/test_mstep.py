import logging
import math
from functools import reduce
from operator import add, mul, sub
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import root

from dustmix import mstep as mstep_module
from dustmix.model import (
    Corpus,
    DirichletMatrix,
    LocationRole,
    ParticleCatalog,
)
from dustmix.mstep import (
    alpha_objective_and_gradient,
    eta_objective_and_gradient,
    maximize_rows,
    mstep,
    trace_rows,
)
from dustmix.numerics import digamma, log_gamma
from dustmix.numerics import DirichletRows
from dustmix.vbi import FitConfig, _sweep_rows, corpus_elbo, fit, initialize


def random_states(rng, n_samples, M, T):
    """Mixing posteriors (samples x sources) and profile posteriors (samples
    x sources x types) of ``n_samples`` samples that each own theirs."""
    return rng.uniform(0.3, 8.0, size=(n_samples, M)), rng.uniform(0.3, 8.0, size=(n_samples, M, T))


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
        _, lams = random_states(rng, 3, M=2, T=1)
        value, grad = eta_objective_and_gradient(0, np.array([1.7]), lams)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert_allclose(grad, 0.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            M = int(rng.integers(1, 5))
            T = int(rng.integers(2, 7))
            m = int(rng.integers(0, M))
            _, lams = random_states(rng, int(rng.integers(1, 6)), M, T)
            eta_row = rng.uniform(0.2, 6.0, size=T)
            _, grad = eta_objective_and_gradient(m, eta_row, lams)
            numeric = central_difference(
                lambda x: eta_objective_and_gradient(m, x, lams)[0], eta_row
            )
            assert_allclose(grad, numeric, rtol=1e-4, atol=1e-7)

    def test_gradient_vanishes_at_matching_lambda(self):
        # single sample whose profile posterior row equals the candidate row
        row = np.array([2.0, 5.0, 3.0])
        _, grad = eta_objective_and_gradient(0, row, row[None, :])
        assert_allclose(grad, 0.0, atol=1e-10)

    def test_rejects_nonpositive_row(self):
        rng = np.random.default_rng(1)
        _, lams = random_states(rng, 1, 2, 3)
        with pytest.raises(ValueError):
            eta_objective_and_gradient(0, np.array([1.0, -0.5, 2.0]), lams)


class TestAlphaObjective:
    def test_single_source_is_identically_zero(self):
        value, grad = alpha_objective_and_gradient(np.array([1.0]), np.array([[4.0]]))
        assert value == pytest.approx(0.0, abs=1e-12)
        assert_allclose(grad, 0.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            M = 2
            gammas, _ = random_states(rng, int(rng.integers(1, 5)), M, 2)
            alpha_row = rng.uniform(0.2, 6.0, size=M)
            _, grad = alpha_objective_and_gradient(alpha_row, gammas)
            numeric = central_difference(
                lambda x: alpha_objective_and_gradient(x, gammas)[0], alpha_row
            )
            assert_allclose(grad, numeric, rtol=1e-4, atol=1e-7)

    def test_gradient_vanishes_at_matching_gamma(self):
        row = np.array([2.5, 4.5])
        _, grad = alpha_objective_and_gradient(row, row[None, :])
        assert_allclose(grad, 0.0, atol=1e-10)


def digamma_rows(rows):
    return digamma(rows) - digamma(rows.sum(axis=1))[:, None]


def row_value(x, stat, n):
    return n * (log_gamma(x.sum()) - log_gamma(x).sum()) + x @ stat


def row_gradient(x, stat, n):
    return n * (digamma(x.sum()) - digamma(x)) + stat


def set_box(monkeypatch, lower=mstep_module._LOWER, upper=mstep_module._UPPER):
    """Run the M-step's solves in the box [lower, upper]."""
    monkeypatch.setattr(mstep_module, "_LOWER", lower)
    monkeypatch.setattr(mstep_module, "_UPPER", upper)


def projected(x, grad):
    """``grad`` with the coordinates the M-step's box holds zeroed."""
    lower, upper = mstep_module._LOWER, mstep_module._UPPER
    outward = ((x <= lower) & (grad < 0.0)) | ((x >= upper) & (grad > 0.0))
    return np.where(outward, 0.0, grad)


def random_trace_rows(rng, n_rows, M):
    """Row statistics of trace locations with 1-5 samples each."""
    sizes = rng.integers(1, 6, size=n_rows)
    stat = np.array([digamma_rows(rng.uniform(0.3, 40.0, (k, M))).sum(axis=0) for k in sizes])
    return stat, sizes.astype(np.float64)


def swept_arrays(corpus, sweeps=20):
    """Array state a few inference sweeps after the starting point, with the
    starting H and A as arrays."""
    H, A, loc, counts, gamma = initialize(corpus, FitConfig())
    gamma, lam = DirichletRows(gamma), DirichletRows(H)
    for _ in range(sweeps):
        gamma, lam, swept = _sweep_rows(counts, A[loc], H, gamma, lam)
    return H, A, counts, loc, gamma.rows, swept.phi, lam.rows


def trace_stats(gamma, loc, trace_ids):
    return {l: (digamma_rows(gamma[loc == l]).sum(axis=0), float((loc == l).sum()))
            for l in trace_ids}


class TestMaximizeBox:
    def test_stationary_start(self):
        rng = np.random.default_rng(5)
        x0 = rng.uniform(0.5, 30.0, size=(6, 4))
        n = np.arange(1.0, 7.0)
        result = maximize_rows(n[:, None] * digamma_rows(x0), n, x0)
        assert np.array_equal(result.x, x0)
        assert np.all(result.iterations == 0) and np.all(result.converged)

    def test_never_evaluates_outside_bounds(self, monkeypatch):
        set_box(monkeypatch, 0.2, 3.0)
        seen = []
        objective = mstep_module._objective

        def recording(x, stat, n):
            seen.append(x.copy())
            return objective(x, stat, n)

        monkeypatch.setattr(mstep_module, "_objective", recording)
        rng = np.random.default_rng(6)
        # maximizers far above the box: every row ends on its upper edge
        stat = digamma_rows(rng.uniform(10.0, 50.0, size=(5, 3)))
        result = maximize_rows(stat, np.ones(5), np.ones((5, 3)))
        stacked = np.vstack(seen)
        assert stacked.min() >= 0.2 and stacked.max() <= 3.0
        assert np.all(result.on_box) and np.all(result.converged)

    def test_value_never_below_start(self, monkeypatch):
        rng = np.random.default_rng(9)
        set_box(monkeypatch, 1e-3, 1.0)
        for _ in range(20):
            stat, n = random_trace_rows(rng, 4, 3)
            x0 = rng.uniform(0.1, 0.9, size=(4, 3))
            result = maximize_rows(stat, n, x0)
            for i in range(4):
                assert result.value[i] >= row_value(x0[i], stat[i], n[i])
                assert result.value[i] == pytest.approx(
                    row_value(result.x[i], stat[i], n[i]), rel=1e-12)

    def test_nonfinite_start_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            maximize_rows(np.zeros((1, 2)), np.ones(1), np.array([[np.nan, 1.0]]))
        with pytest.raises(ValueError, match="non-finite"):
            maximize_rows(np.array([[np.nan, 0.0]]), np.ones(1), np.ones((1, 2)))

    def test_start_outside_bounds_rejected(self, monkeypatch):
        for row in ([2e6, 0.5], [1e-7, 0.5]):  # outside the default box
            with pytest.raises(ValueError, match="outside"):
                maximize_rows(np.zeros((1, 2)), np.ones(1), np.array([row]))
        set_box(monkeypatch, 0.1, 1.0)
        with pytest.raises(ValueError, match="outside"):
            maximize_rows(np.zeros((1, 2)), np.ones(1), np.array([[10.0, 0.5]]))

    def test_batched_rows_match_one_row_solves(self, monkeypatch):
        rng = np.random.default_rng(31)
        # a tight tolerance, so the root check can hold the rows to 1e-6
        monkeypatch.setattr(mstep_module, "_GRAD_TOL", 1e-9)
        for M in (2, 3, 5):
            stat, n = random_trace_rows(rng, 10, M)
            x0 = np.ones((10, M))
            batched = maximize_rows(stat, n, x0)
            assert np.all(batched.converged) and not np.any(batched.on_box)
            for i in range(10):
                alone = maximize_rows(stat[i:i + 1], n[i:i + 1], x0[i:i + 1])
                assert np.array_equal(batched.x[i], alone.x[0])
                grad = row_gradient(batched.x[i], stat[i], n[i])
                assert np.abs(projected(batched.x[i], grad)).max() < 1e-9
                # independent check: the only root of the gradient
                check = root(lambda v: row_gradient(np.abs(v), stat[i], n[i]),
                             np.full(M, 5.0), method="hybr")
                assert check.success
                assert_allclose(np.abs(check.x), batched.x[i], rtol=1e-6)

        # Mixed batches in a tight box: rows that stay inside it, rows that
        # end on an edge and rows that keep a halved Newton step share one
        # solve on arrays, and each matches its one-row solve, which runs on
        # floats, bit for bit.
        set_box(monkeypatch, 0.05, 20.0)
        evaluations = []
        row_objective = mstep_module._row_objective
        monkeypatch.setattr(mstep_module, "_row_objective",
                            lambda *args: evaluations.append(1) or row_objective(*args))
        for M in (2, 3):
            sizes = rng.integers(1, 6, size=24)
            scales = rng.choice([0.3, 3.0, 30.0], size=(24, 1)) * rng.uniform(0.5, 3.0, (24, M))
            stat = np.array([digamma_rows(rng.uniform(0.3, 1.0, (k, M)) * scale).sum(axis=0)
                             for k, scale in zip(sizes, scales)])
            n, x0 = sizes.astype(np.float64), np.ones((24, M))
            batched = maximize_rows(stat, n, x0)
            kinds = set()
            for i in range(24):
                evaluations.clear()
                alone = maximize_rows(stat[i:i + 1], n[i:i + 1], x0[i:i + 1])
                halved = len(evaluations) > 1 + alone.iterations[0]
                kinds.add("edge" if alone.on_box[0] else "halved" if halved else "interior")
                for field in alone._fields:
                    assert np.array_equal(getattr(batched, field)[i], getattr(alone, field)[0]), \
                        (M, i, field)
            assert kinds == {"interior", "edge", "halved"}, kinds


def replay(evaluations):
    """Whether a one-row float solve stalled, was restored to its start and
    halved a step, replayed from the (x, value, grad) of the objective
    evaluations it made: its start, then each trial of each Newton step."""
    (x, value, _), start = evaluations[0], evaluations[0][1]
    trials, halved = 0, False
    for trial, trial_value, trial_grad in evaluations[1:]:
        trials += 1
        if trial_value >= value or reduce(add, map(mul, trial_grad, map(sub, trial, x))) >= 0.0:
            x, value, halved, trials = trial, trial_value, halved or trials > 1, 0
    return trials == 40, value < start, halved


@st.composite
def float_batches(draw):
    """1 to _FLOAT_ROWS rows of 2 to 5 entries in a drawn box, with the
    module settings to solve them under, in one of three regimes.  Each row's maximizer may lie
    inside or outside the box.  "far" rows start flat, so they take long
    steps, halve some and end on edges.  "near" rows start within 1e-12 of
    their maximizer under a tolerance below the rounding, where a row can
    end under its start.  "convex" rows have a negative sample count, which
    makes the objective convex, so a Newton step can fail all 40 halvings;
    a concave row does not stall in practice."""
    regime = draw(st.sampled_from(["near", "far", "convex"]))
    dims = draw(st.integers(2, 5))
    lower, upper = draw(st.sampled_from([(1e-6, 1e6), (0.05, 2.0), (0.5, 20.0)]))
    tol = 1e-15 if regime == "near" else draw(st.sampled_from([1e-6, 1e-12]))
    sign = -1.0 if regime == "convex" else 1.0
    logs = st.floats(math.log(lower) - 2.0, math.log(upper) + 2.0)
    moves = st.lists(st.floats(-1e-12, 1e-12), min_size=dims, max_size=dims)
    stat, n, x0 = [], [], []
    for _ in range(draw(st.integers(1, mstep_module._FLOAT_ROWS))):
        count = sign * draw(st.sampled_from([1.0, 3.0, 1000.0]))
        target = np.exp(draw(st.lists(logs, min_size=dims, max_size=dims)))
        start = target * (1.0 + np.array(draw(moves))) if regime == "near" else np.ones(dims)
        stat.append(count * digamma_rows(target[None])[0])
        n.append(count)
        x0.append(np.clip(start, lower, upper))
    return (np.array(stat), np.array(n), np.array(x0),
            dict(_LOWER=lower, _UPPER=upper, _GRAD_TOL=tol, _MAX_ITERS=50))


class TestFloatPath:
    def test_float_rows_match_batched_rows(self, monkeypatch):
        # Each row solved alone takes the float path; inside a batch above
        # the cutoff (the drawn rows repeated) it takes the array path.  Every
        # RowSolve field must agree bit for bit, and a non-finite start must
        # fail both paths alike.
        evaluations = []
        row_objective = mstep_module._row_objective

        def recording(x, stat, n):
            value, grad = row_objective(x, stat, n)
            evaluations.append((x, value, grad))
            return value, grad

        monkeypatch.setattr(mstep_module, "_row_objective", recording)
        kinds = set()

        @settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @given(float_batches(), st.sampled_from([None, "nan", "inf"]))
        def check(batch, poison):
            stat, n, x0, constants = batch
            if poison:
                stat[-1, 0] = float(poison)
            copies = mstep_module._FLOAT_ROWS // len(x0) + 1
            tiled = [np.tile(a, (copies,) + (1,) * (a.ndim - 1)) for a in (stat, n, x0)]
            evaluations.clear()
            with mock.patch.multiple(mstep_module, **constants):
                if poison:
                    with pytest.raises(ValueError) as batched_error:
                        maximize_rows(*tiled)
                    with pytest.raises(ValueError) as alone_error:
                        maximize_rows(stat[-1:], n[-1:], x0[-1:])
                    assert str(alone_error.value) == str(batched_error.value)
                    return
                batched = maximize_rows(*tiled)
                assert evaluations == []  # the batch ran on arrays
                for i in range(len(x0)):
                    evaluations.clear()
                    alone = maximize_rows(stat[i:i + 1], n[i:i + 1], x0[i:i + 1])
                    assert evaluations  # the row ran on floats
                    for field in alone._fields:
                        assert np.array_equal(getattr(batched, field)[i],
                                              getattr(alone, field)[0]), (i, field)
                    stalled, restored, halved = replay(evaluations)
                    kinds.update(kind for kind, seen in [
                        ("edge", alone.on_box[0]), ("stalled", stalled), ("restored", restored),
                        ("halved", halved), ("restored, concave", restored and n[i] > 0)] if seen)

        check()
        assert kinds == {"edge", "stalled", "restored", "halved", "restored, concave"}, kinds

    def test_division_by_zero_falls_back_to_arrays(self):
        # a zero sample count divides by zero: the float path gives the
        # batch to the arrays, which fail as they would have alone
        stat, x0 = np.array([[-1.0, -2.0]]), np.ones((1, 2))
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError) as batched_error:
                mstep_module._maximize_batch(stat, np.zeros(1), x0)
            with pytest.raises(ValueError) as error:
                maximize_rows(stat, np.zeros(1), x0)
        assert str(error.value) == str(batched_error.value)

    def test_nan_start_fails_both_paths_alike(self):
        # a NaN start is left to the arrays' DirichletRows check whatever
        # the batch size
        errors = []
        for rows in (1, mstep_module._FLOAT_ROWS + 1):
            x0 = np.array([[np.nan, 1.0]] * rows)
            with pytest.raises(ValueError) as error:
                maximize_rows(np.zeros_like(x0), np.ones(rows), x0)
            errors.append(str(error.value))
        assert errors[0] == errors[1] and "DirichletRows" in errors[0]

    def test_logs_one_debug_line_per_solve(self, caplog):
        rng = np.random.default_rng(3)
        with caplog.at_level(logging.DEBUG, logger="dustmix.mstep"):
            for rows in (1, mstep_module._FLOAT_ROWS + 1):
                stat, n = random_trace_rows(rng, rows, 2)
                maximize_rows(stat, n, np.ones((rows, 2)))
        lines = [r.getMessage() for r in caplog.records if r.name == "dustmix.mstep"]
        assert len(lines) == 2
        assert lines[0].startswith("solved 1 rows on floats: ")
        assert lines[1].startswith(f"solved {mstep_module._FLOAT_ROWS + 1} rows on arrays: ")
        assert all("0 unconverged, 0 on the box" in line for line in lines)


class TestMstep:
    def _known_only_corpus(self):
        return Corpus.from_groups(ParticleCatalog(("a", "b", "c")), [
            ("k0", LocationRole.known(), [np.array([5, 1, 1])]),
            ("k1", LocationRole.known(), [np.array([1, 5, 1])]),
        ])

    def test_no_trace_rows_leaves_mixing_matrix_untouched(self):
        corpus = self._known_only_corpus()
        H, A, _, loc, gamma, _, lam = swept_arrays(corpus)
        trace = trace_rows(loc, corpus.trace_location_ids)
        _, A2, _ = mstep(H, A, lam, digamma_rows(gamma), trace)
        assert np.array_equal(A2, A)

    def test_known_rows_bitwise_preserved(self, corpus_both_known):
        H, A, _, loc, gamma, _, lam = swept_arrays(corpus_both_known)
        trace = trace_rows(loc, corpus_both_known.trace_location_ids)
        _, A2, _ = mstep(H, A, lam, digamma_rows(gamma), trace)
        assert np.array_equal(A2[0], A[0])
        assert np.array_equal(A2[1], A[1])
        assert not np.array_equal(A2[2], A[2])

    def test_profile_rows_are_lambda_inside_the_box(self, corpus_both_known):
        H, A, _, loc, gamma, _, lam = swept_arrays(corpus_both_known)
        trace = trace_rows(loc, corpus_both_known.trace_location_ids)
        H2, _, notes = mstep(H, A, lam, digamma_rows(gamma), trace)
        assert np.array_equal(H2, lam)
        assert notes == []

    def test_unclipped_profile_rows_build_no_statistics(self, corpus_both_known, monkeypatch):
        # the profile rows' E log statistics feed only the solve of clipped
        # rows, so with none clipped no profile row is evaluated: the two
        # trace rows are solved on floats, and no DirichletRows is built
        H, A, _, loc, gamma, _, lam = swept_arrays(corpus_both_known)
        built, evaluated = [], []

        class RecordingRows(mstep_module.DirichletRows):
            def __init__(self, rows):
                super().__init__(rows)
                built.append(self.rows.shape)

        row_objective = mstep_module._row_objective
        monkeypatch.setattr(mstep_module, "DirichletRows", RecordingRows)
        monkeypatch.setattr(mstep_module, "_row_objective",
                            lambda x, *args: evaluated.append(len(x)) or row_objective(x, *args))
        trace = trace_rows(loc, corpus_both_known.trace_location_ids)
        H2, _, _ = mstep(H, A, lam, digamma_rows(gamma), trace)
        assert np.array_equal(H2, lam)
        assert built == []
        assert evaluated and set(evaluated) == {A.shape[1]}

    def test_total_bound_never_decreases(self, corpus_both_known):
        H, A, counts, loc, gamma, phi, lam = swept_arrays(corpus_both_known)
        before = corpus_elbo(counts, A[loc], H, gamma, phi, lam)
        trace = trace_rows(loc, corpus_both_known.trace_location_ids)
        H2, A2, _ = mstep(H, A, lam, digamma_rows(gamma), trace)
        after = corpus_elbo(counts, A2[loc], H2, gamma, phi, lam)
        assert after >= before - 1e-8

    @pytest.mark.parametrize("scenario", ["corpus_both_known", "corpus_at_known"])
    def test_objective_change_is_bound_change(self, scenario, request):
        # the profile block enters the bound once, so each profile row
        # counts once, with the shared lam's digamma differences
        corpus = request.getfixturevalue(scenario)
        H, A, counts, loc, gamma, phi, lam = swept_arrays(corpus)
        before = corpus_elbo(counts, A[loc], H, gamma, phi, lam)
        trace = trace_rows(loc, corpus.trace_location_ids)
        H2, A2, _ = mstep(H, A, lam, digamma_rows(gamma), trace)
        after = corpus_elbo(counts, A2[loc], H2, gamma, phi, lam)
        dg_lam = digamma_rows(lam)
        change = sum(row_value(H2[m], dg_lam[m], 1.0) - row_value(H[m], dg_lam[m], 1.0)
                     for m in range(len(lam)))
        for l, (stat, n) in trace_stats(gamma, loc, corpus.trace_location_ids).items():
            change += row_value(A2[l], stat, n) - row_value(A[l], stat, n)
        assert change == pytest.approx(after - before, rel=1e-10)

    def test_eta_objective_counts_shared_posterior_once(self, fit_both_known):
        # a fit's samples share one lam, passed once, whose block the bound
        # counts once; a stack of profile posteriors counts each
        result, _ = fit_both_known
        lam = result.lam
        dg_lam = digamma_rows(lam)
        for m, x in enumerate(result.H_converged.values):
            value, grad = eta_objective_and_gradient(m, x, lam)
            assert value == pytest.approx(row_value(x, dg_lam[m], 1.0), rel=1e-12)
            assert_allclose(grad, row_gradient(x, dg_lam[m], 1.0), rtol=1e-12, atol=1e-12)
            value, _ = eta_objective_and_gradient(m, x, np.stack([lam, lam]))
            assert value == pytest.approx(row_value(x, 2.0 * dg_lam[m], 2.0), rel=1e-12)

    def test_row_updates_are_separable(self, monkeypatch):
        # optimizing rows through mstep equals optimizing each row alone
        rng = np.random.default_rng(12)
        set_box(monkeypatch, upper=20.0)
        lam = rng.uniform(0.5, 8.0, size=(3, 4))
        lam[1, 2] = 35.0  # this profile row goes to the solver
        loc = np.array([0, 1, 1, 2, 2, 2, 3])
        gamma = rng.uniform(0.5, 15.0, size=(7, 3))
        trace_ids = (1, 2, 3)
        H = rng.uniform(0.5, 2.0, size=(3, 4))
        A = np.ones((4, 3))
        trace = trace_rows(loc, trace_ids)
        H2, A2, _ = mstep(H, A, lam, digamma_rows(gamma), trace)
        for m in (2, 1, 0):  # reversed order
            if m == 1:
                res = maximize_rows(digamma_rows(lam[1:2]), np.ones(1),
                                    np.clip(lam[1:2], mstep_module._LOWER, 20.0))
                assert_allclose(res.x[0], H2[m], atol=1e-8)
            else:
                assert_allclose(lam[m], H2[m], atol=1e-8)
        stats = trace_stats(gamma, loc, trace_ids)
        for l in reversed(trace_ids):
            stat, n = stats[l]
            res = maximize_rows(stat[None], np.array([n]), np.ones((1, 3)))
            assert_allclose(res.x[0], A2[l], atol=1e-8)

    def test_synthetic_gradient_root_recovered(self, monkeypatch):
        # profile posterior rows all equal to one target: the optimum sits
        # exactly at that target, confirmed by an independent root finder
        target = np.array([4.0, 9.0, 2.0, 7.0])
        lams = np.tile(target, (3, 1, 1))
        check = root(
            lambda x: eta_objective_and_gradient(0, np.abs(x), lams)[1],
            np.full(4, 5.0),
            method="hybr",
        )
        assert check.success
        assert_allclose(np.abs(check.x), target, rtol=1e-6)

        monkeypatch.setattr(mstep_module, "_MAX_ITERS", 500)
        result = maximize_rows(3.0 * digamma_rows(target[None]), np.array([3.0]), np.ones((1, 4)))
        assert result.converged[0]
        assert_allclose(result.x[0], target, rtol=1e-6)

    def test_clipped_rows_end_at_box_maximizer(self, corpus_both_known, monkeypatch):
        set_box(monkeypatch, upper=50.0)
        lower, tol = mstep_module._LOWER, mstep_module._GRAD_TOL
        H, A, _, loc, gamma, _, lam = swept_arrays(corpus_both_known)
        trace_ids = corpus_both_known.trace_location_ids
        trace = trace_rows(loc, trace_ids)
        H2, A2, notes = mstep(H, A, lam, digamma_rows(gamma), trace)
        dg_lam = digamma_rows(lam)
        for m in range(len(lam)):
            x = H2[m]
            assert x.min() >= lower and x.max() <= 50.0
            assert np.abs(projected(x, row_gradient(x, dg_lam[m], 1.0))).max() <= tol
        for l, (stat, n) in trace_stats(gamma, loc, trace_ids).items():
            x = A2[l]
            assert x.min() >= lower and x.max() <= 50.0
            assert np.abs(projected(x, row_gradient(x, stat, n))).max() <= tol
        assert "H row 0 on a box edge" in notes
        assert f"A row {trace_ids[0]} on a box edge" in notes

    def test_unconverged_rows_noted(self, corpus_both_known, monkeypatch):
        monkeypatch.setattr(mstep_module, "_MAX_ITERS", 1)
        H, A, _, loc, gamma, _, lam = swept_arrays(corpus_both_known)
        trace = trace_rows(loc, corpus_both_known.trace_location_ids)
        _, _, notes = mstep(H, A, lam, digamma_rows(gamma), trace)
        assert notes == ["A row 2 unconverged", "A row 3 unconverged"]

    def test_fit_warns_about_rows_on_the_box(self, corpus_both_known, caplog, monkeypatch):
        set_box(monkeypatch, upper=50.0)
        with caplog.at_level(logging.WARNING, logger="dustmix.vbi"):
            fit(corpus_both_known, FitConfig(outer_max_iters=3))
        flagged = [r.getMessage() for r in caplog.records if "M-step rows" in r.getMessage()]
        assert len(flagged) == 1
        assert "H row 0 on a box edge in 2 of 2 M-steps" in flagged[0]
        assert "A row 2 on a box edge in 2 of 2 M-steps" in flagged[0]

    def test_fit_wraps_hyperparameters_only_for_its_result(self, corpus_both_known, monkeypatch):
        # the fit carries H and A as arrays from initialize on: they are
        # wrapped (and checked) once, for the result
        built = []
        check = DirichletMatrix.__post_init__
        monkeypatch.setattr(DirichletMatrix, "__post_init__",
                            lambda matrix: built.append(matrix) or check(matrix))
        result = fit(corpus_both_known, FitConfig(outer_max_iters=6))
        assert result.iterations == 6
        assert len(built) == 2
        assert built[0] is result.H_converged and built[1] is result.A_converged

    def test_fit_regime_on_bundled_corpus(self, fit_both_known):
        # converged trace rows show the expected dominance pattern
        result, _ = fit_both_known
        first, second = result.A_converged.values
        assert first[0] / first[1] > 5.0
        assert second[1] / second[0] > 2.0
