import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import special
from scipy.optimize import minimize_scalar

from dustmix import numerics
from dustmix.numerics import (
    BetaShape,
    CredibleInterval,
    DirichletRows,
    beta_hpdi,
    beta_hpdis,
    beta_quantile,
    beta_summary,
    digamma,
    log_gamma,
    reduce_last,
)
from _oracles import beta_cdf as oracle_cdf
from _oracles import beta_hpdi_check, beta_interval_mass

mp.mp.dps = 40

EULER_GAMMA = 0.57721566490153286061


class TestLogGamma:
    def test_at_one(self):
        assert abs(log_gamma(1.0)) <= 1e-12

    def test_half_log_root_pi(self):
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-12)

    def test_ten_equals_log_factorial_nine(self):
        assert log_gamma(10.0) == pytest.approx(math.log(math.factorial(9)), abs=1e-12)

    def test_against_mpmath_grid(self):
        xs = np.concatenate([np.logspace(-6, 6, 120), np.linspace(0.05, 60.0, 150)])
        ref = np.array([float(mp.loggamma(mp.mpf(float(x)))) for x in xs])
        got = log_gamma(xs)
        # absolute where the target is representable, relative elsewhere
        moderate = np.abs(ref) < 1e3
        assert np.max(np.abs(got[moderate] - ref[moderate])) < 1e-12
        scale = np.maximum(np.abs(ref), 1.0)
        assert np.max(np.abs(got - ref) / scale) < 1e-13

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            log_gamma(bad)

    def test_array_shape_preserved(self):
        out = log_gamma(np.ones((3, 2)))
        assert out.shape == (3, 2)
        assert_allclose(out, 0.0, atol=1e-12)


class TestDigamma:
    def test_at_one_is_minus_euler(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-10)

    def test_at_two_by_recurrence(self):
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-10)

    def test_at_half_identity(self):
        assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-10)

    def test_against_mpmath_grid(self):
        xs = np.concatenate([np.logspace(-5, 6, 120), np.linspace(0.05, 60.0, 150)])
        for x in xs:
            ref = float(mp.digamma(mp.mpf(float(x))))
            assert digamma(float(x)) == pytest.approx(ref, abs=1e-10, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -2.5, float("nan")])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            digamma(bad)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=0.1, max_value=100.0, allow_nan=False))
    def test_recurrence_identity(self, x):
        assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.1, max_value=100.0, allow_nan=False))
    def test_matches_log_gamma_derivative(self, x):
        h = 1e-5
        central = (log_gamma(x + h) - log_gamma(x - h)) / (2.0 * h)
        assert digamma(x) == pytest.approx(central, abs=1e-5)


class TestTrigamma:
    def test_zeta_is_polygamma_bit_for_bit(self):
        # the engine takes trigamma as zeta(2, x): scipy's polygamma(1, x)
        # is (-1)**2 * gamma(2) * zeta(2, x), plus a digamma it discards
        x = np.logspace(-6.0, 6.0, 20001)
        assert np.array_equal(special.zeta(2.0, x), special.polygamma(1, x))


class TestDeferredSpecial:
    def test_first_read_makes_a_plain_module_of_scipy_functions(self):
        # the engine computes with scipy's own functions, and once loaded
        # the handle is a plain module, so a read runs no Python code
        handle = numerics._DeferredSpecial("scipy.special")
        assert "zeta" not in vars(handle)
        assert handle.zeta is special.zeta
        assert type(handle) is type(special)
        for name in ("betaln", "gammaln", "psi", "zeta"):
            assert vars(handle)[name] is getattr(special, name)
            assert getattr(numerics.special, name) is getattr(special, name)
        with pytest.raises(AttributeError):
            handle.no_such_function

    def test_private_names_raise_and_load_nothing(self):
        handle = numerics._DeferredSpecial("scipy.special")
        for name in ("__wrapped__", "_private"):
            with pytest.raises(AttributeError):
                getattr(handle, name)
        assert type(handle) is numerics._DeferredSpecial
        assert "zeta" not in vars(handle)


class TestDirichletRows:
    def test_matches_checked_special_functions(self):
        # the same evaluations as the checked functions, bit for bit
        rows = np.random.default_rng(8).uniform(1e-3, 1e3, size=(5, 4))
        dirichlet = DirichletRows(rows)
        sums = rows.sum(axis=1)
        assert np.array_equal(dirichlet.sums, sums)
        assert np.array_equal(dirichlet.psi, digamma(rows))
        assert np.array_equal(dirichlet.e_log, digamma(rows) - digamma(sums)[:, None])
        assert np.array_equal(dirichlet.log_norm,
                              log_gamma(sums) - log_gamma(rows).sum(axis=1))
        assert np.array_equal(dirichlet.less_one, rows - 1.0)

    def test_fields_are_evaluated_once(self):
        dirichlet = DirichletRows(np.array([[1.0, 2.0], [3.0, 4.0]]))
        for name in ("psi", "e_log", "log_norm", "less_one"):
            assert getattr(dirichlet, name) is getattr(dirichlet, name), name

    def test_fields_read_on_the_class_are_descriptors(self):
        # as with cached_property, so help() shows each field's docstring
        assert DirichletRows.psi.__doc__ == "digamma of every entry."

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), -float("inf")])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            DirichletRows(np.array([[1.0, 2.0], [3.0, bad]]))

    def test_row_sum_domain_error(self):
        with pytest.raises(ValueError), np.errstate(over="ignore"):
            DirichletRows(np.array([[1e308, 1e308]]))  # the sum overflows
        with pytest.raises(ValueError):
            DirichletRows(np.ones((2, 0)))  # empty rows sum to zero

    def test_no_rows_pass(self):
        dirichlet = DirichletRows(np.ones((0, 3)))
        assert dirichlet.e_log.shape == (0, 3) and dirichlet.log_norm.shape == (0,)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 3), st.integers(0, 3), st.data())
    def test_check_is_every_entry_and_row_sum_positive_and_finite(self, n, k, data):
        # the row sums' sign is tested only when rows have no columns;
        # positive entries already make every other sum positive
        values = st.sampled_from([0.0, -1.0, math.nan, math.inf, 5e-324, 1.0, 1e308])
        rows = np.array(data.draw(st.lists(values, min_size=n * k, max_size=n * k))).reshape(n, k)
        with np.errstate(over="ignore", invalid="ignore"):
            sums = rows.sum(axis=1)
        valid = bool(np.all((rows > 0.0) & (rows < math.inf))
                     and np.all((sums > 0.0) & (sums < math.inf)))
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                DirichletRows(rows)
        except ValueError:
            assert not valid
        else:
            assert valid

    def test_log_norm_sum(self):
        dirichlet = DirichletRows(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert dirichlet.log_norm_sum == dirichlet.log_norm.sum()
        assert dirichlet.log_norm_sum is dirichlet.log_norm_sum


class TestReduceLast:
    """reduce_last must give ``ufunc.reduce(x, axis=-1)`` bit for bit; it
    relies on numpy adding an axis of fewer than 8 entries in column order,
    so a numpy that changes that order fails here before any fit pin."""

    @staticmethod
    def _arrays(n):
        rng = np.random.default_rng(n)
        for shape in ((40, n), (3, 20, n), (1, n)):  # C-ordered, magnitudes 1e-8 to 1e8
            yield rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
        # the layout of the log-space responsibilities (the sweep's underflow
        # guard): N x T x M stored as N x M x T
        gamma, lam = (DirichletRows(rng.uniform(0.5, 50.0, shape)) for shape in ((9, n), (n, 14)))
        log_phi = lam.e_log.T + gamma.psi[:, None, :]
        yield log_phi
        yield np.exp(log_phi - reduce_last(np.maximum, log_phi)[:, :, None])

    @pytest.mark.parametrize("ufunc", [np.add, np.maximum])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_reduce_bitwise(self, ufunc, n):
        for x in self._arrays(n):
            assert np.array_equal(reduce_last(ufunc, x), ufunc.reduce(x, axis=-1)), x.shape

    def test_layout_of_the_responsibilities(self):
        *_, phi = self._arrays(2)
        assert phi.shape == (9, 14, 2) and phi.strides == (8 * 28, 8, 8 * 14)

    @pytest.mark.parametrize("ufunc", [np.add, np.maximum])
    def test_one_column_is_a_new_array(self, ufunc):
        x = np.arange(6.0).reshape(6, 1)
        out = reduce_last(ufunc, x)
        assert np.array_equal(out, x[:, 0]) and not np.shares_memory(out, x)

    def test_empty_axis_is_the_reduction(self):
        assert np.array_equal(reduce_last(np.add, np.ones((3, 0))), np.zeros(3))


class TestBetaSummary:
    def test_uniform(self):
        mean, mode = beta_summary(BetaShape(1.0, 1.0))
        assert mean == pytest.approx(0.5)
        assert mode is None

    def test_symmetric(self):
        mean, mode = beta_summary(BetaShape(2.0, 2.0))
        assert mean == pytest.approx(0.5)
        assert mode == pytest.approx(0.5)

    def test_concentrated_row(self):
        mean, mode = beta_summary(BetaShape(8978.75, 1021.15))
        assert mean == pytest.approx(8978.75 / (8978.75 + 1021.15), rel=1e-14)
        assert mean == pytest.approx(0.897885, abs=5e-5)
        assert mode is not None and 0.0 < mode < 1.0

    def test_boundary_modes_absent(self):
        assert beta_summary(BetaShape(0.5, 3.0)).mode is None
        assert beta_summary(BetaShape(3.0, 1.0)).mode is None

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=1e-3, max_value=1e5),
        st.floats(min_value=1e-3, max_value=1e5),
    )
    def test_mean_and_mode_ranges(self, a, b):
        mean, mode = beta_summary(BetaShape(a, b))
        assert 0.0 < mean < 1.0
        if mode is not None:
            assert 0.0 < mode < 1.0

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 2.0), (1.0, float("inf"))])
    def test_shape_validation(self, a, b):
        with pytest.raises(ValueError):
            BetaShape(a, b)


class TestBetaCdfQuantile:
    CASES = [
        (2.0, 2.0, 0.3),
        (0.5, 0.5, 0.7),
        (8978.75, 1021.15, 0.9),
        (1e-3, 5.0, 0.2),
        (300.0, 7.0, 0.99),
        (5.0, 300.0, 0.01),
        (40.0, 40.0, 0.5),
    ]

    @pytest.mark.parametrize("a,b,x", CASES)
    def test_cdf_matches_oracle(self, a, b, x):
        # the package has no Beta CDF, only its inverse: at the oracle's CDF
        # of x, beta_quantile returns x
        u = oracle_cdf(x, a, b)
        assert beta_quantile(u, BetaShape(a, b)) == pytest.approx(x, rel=1e-10)

    def test_cdf_edges(self):
        shape = BetaShape(3.0, 4.0)
        assert beta_quantile(0.0, shape) == 0.0
        assert beta_quantile(1.0, shape) == 1.0

    def test_quantile_round_trip(self):
        # the mass below each quantile, from mpmath's incomplete beta or,
        # where its series does not converge (one draw here, Beta(6734, 2356)),
        # from the quadrature oracle
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = float(10 ** rng.uniform(-0.3, 4.0))
            b = float(10 ** rng.uniform(-0.3, 4.0))
            u = float(rng.uniform(1e-4, 1.0 - 1e-4))
            x = beta_quantile(u, BetaShape(a, b))
            try:
                mass = oracle_cdf(x, a, b)
            except ValueError:
                mass, _ = beta_hpdi_check(0.0, x, a, b)
            assert mass == pytest.approx(u, abs=1e-10)

    @pytest.mark.parametrize("u", [-0.1, 1.5, math.nan])
    def test_level_outside_unit_interval_rejected(self, u):
        with pytest.raises(ValueError, match=r"quantile level must lie in \[0, 1\]"):
            beta_quantile(u, BetaShape(2.0, 3.0))

    def test_uniform_quantile_is_identity(self):
        shape = BetaShape(1.0, 1.0)
        for u in (0.025, 0.5, 0.975):
            assert beta_quantile(u, shape) == pytest.approx(u, abs=1e-12)


class TestBetaHpdi:
    def test_symmetric_about_half(self):
        ci = beta_hpdi(BetaShape(2.0, 2.0), 0.95)
        assert ci.lo + ci.hi == pytest.approx(1.0, abs=1e-6)
        assert not ci.equal_tailed

    def test_uniform_falls_back_to_centered(self):
        ci = beta_hpdi(BetaShape(1.0, 1.0), 0.95)
        assert ci.equal_tailed
        assert ci.lo == pytest.approx(0.025, abs=1e-9)
        assert ci.hi == pytest.approx(0.975, abs=1e-9)

    def test_large_shape_matches_normal_approximation(self):
        a, b = 8978.75, 1021.15
        ci = beta_hpdi(BetaShape(a, b), 0.95)
        mean = a / (a + b)
        sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))
        z = 1.959963984540054
        assert ci.lo == pytest.approx(mean - z * sd, abs=5e-4)
        assert ci.hi == pytest.approx(mean + z * sd, abs=5e-4)

    def test_contains_stated_mass(self):
        for a, b in [(2.0, 5.0), (30.0, 4.0), (8978.75, 1021.15)]:
            ci = beta_hpdi(BetaShape(a, b), 0.95)
            assert beta_interval_mass(ci.lo, ci.hi, a, b) == pytest.approx(0.95, abs=1e-6)

    def test_never_wider_than_equal_tailed(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            a = float(rng.uniform(1.01, 500.0))
            b = float(rng.uniform(1.01, 500.0))
            shape = BetaShape(a, b)
            ci = beta_hpdi(shape, 0.9)
            lo = beta_quantile(0.05, shape)
            hi = beta_quantile(0.95, shape)
            assert ci.width <= (hi - lo) + 1e-9

    def test_density_equal_at_endpoints(self):
        # defining property of the shortest interval for a unimodal density
        shape = BetaShape(3.0, 9.0)
        ci = beta_hpdi(shape, 0.9)
        _, log_density_gap = beta_hpdi_check(ci.lo, ci.hi, shape.a, shape.b)
        assert abs(log_density_gap) <= 1e-4

    def test_monotone_shapes_are_one_sided(self):
        # a monotone density's shortest interval starts at the end where it peaks
        falling, rising = BetaShape(0.8, 5.0), BetaShape(5.0, 0.8)
        ci = beta_hpdi(falling, 0.95)
        assert not ci.equal_tailed and (ci.lo, ci.hi) == (0.0, beta_quantile(0.95, falling))
        ci = beta_hpdi(rising, 0.95)
        assert not ci.equal_tailed and (ci.lo, ci.hi) == (beta_quantile(1.0 - 0.95, rising), 1.0)

    def test_mass_validation(self):
        with pytest.raises(ValueError):
            beta_hpdi(BetaShape(2.0, 2.0), 1.5)

    def test_interval_invariants(self):
        with pytest.raises(ValueError):
            CredibleInterval(lo=0.6, hi=0.4, mass=0.95)
        with pytest.raises(ValueError):
            CredibleInterval(lo=0.1, hi=0.2, mass=0.0)


def scalar_search_hpdi(a: float, b: float, mass: float) -> tuple[float, float]:
    """The bounded Brent search over the lower tail mass that beta_hpdi used
    before its Newton kernel, kept as the reference for the endpoints."""
    def ends(p):
        return special.betaincinv(a, b, [p, p + mass])

    best = minimize_scalar(lambda p: np.diff(ends(p))[0], bounds=(0.0, 1.0 - mass),
                           method="bounded", options={"xatol": 1e-10})
    lo, hi = ends(best.x)
    return float(lo), float(hi)


class TestBetaHpdisOracle:
    MASS = 0.95

    @pytest.fixture(scope="class")
    def shapes(self):
        # a or b in (1, 1.05], where an endpoint sits at 0 or 1; both
        # log-uniform up to 1e5; and a below 1, a falling density whose
        # interval starts at 0 (b below 1 too puts the equal-tailed upper
        # quantile closer to 1 than a double resolves)
        rng = np.random.default_rng(20)
        near_one = 1.05 - rng.uniform(0.0, 0.05, size=100)
        wide = 10.0 ** rng.uniform(0.0, 5.0, size=(3, 100))
        below_one = rng.uniform(0.05, 1.0, size=20)
        a = np.concatenate([near_one[:50], wide[0, :50], wide[1, :80], below_one])
        b = np.concatenate([wide[0, 50:], near_one[50:], wide[2, :80], wide[2, 80:]])
        return a, b

    @pytest.fixture(scope="class")
    def intervals(self, shapes):
        return beta_hpdis(*shapes, self.MASS)

    def test_batch_matches_scalar_bitwise(self, shapes, intervals):
        for a, b, ci in zip(*shapes, intervals):
            assert beta_hpdi(BetaShape(float(a), float(b)), self.MASS) == ci

    def test_mass_and_equal_density(self, shapes, intervals):
        for a, b, ci in zip(*shapes, intervals):
            mass, gap = beta_hpdi_check(ci.lo, ci.hi, a, b)
            assert mass == pytest.approx(self.MASS, abs=1e-10), (a, b)
            assert ci.equal_tailed == (a < 1.0 and b < 1.0 or a == b == 1.0)
            # a root within 1e-13 of tail mass from 0 or 1 - mass, or whose
            # upper endpoint would lie within a few ulps of 1, is beyond what the
            # search or a double resolves: the endpoint stays at 0 or 1
            tails = special.betainc(a, b, ci.lo), special.betaincc(a, b, ci.hi)
            if ci.equal_tailed or min(tails) <= 1e-13 or 1.0 - ci.hi <= 4 * np.spacing(1.0):
                continue
            # one ulp of each endpoint moves log f by this
            resolution = sum(abs((a - 1.0) / x - (b - 1.0) / (1.0 - x)) * np.spacing(x)
                             for x in (ci.lo, ci.hi))
            assert abs(gap) <= 1e-10 + 4.0 * resolution, (a, b, gap)

    def test_never_wider_than_equal_tailed(self, shapes, intervals):
        tail = 0.5 * (1.0 - self.MASS)
        for a, b, ci in zip(*shapes, intervals):
            equal = special.betaincinv(a, b, 1.0 - tail) - special.betaincinv(a, b, tail)
            assert ci.width <= equal + 1e-15, (a, b)

    def test_endpoints_match_scalar_search(self, shapes, intervals):
        for a, b, ci in zip(*shapes, intervals):
            if not ci.equal_tailed:
                lo, hi = scalar_search_hpdi(a, b, self.MASS)
                assert abs(ci.lo - lo) <= 1e-8 and abs(ci.hi - hi) <= 1e-8, (a, b)

    def test_stops_within_the_rounding_of_its_gap(self, monkeypatch):
        # a profile marginal of the both-known report, at its root after
        # three Newton steps; there its gap moves in steps of about 9e-13
        # (terms near 6e3 cancel), below which no step can be told apart
        a, b = 1198.2240155501418, 148110.6021513863
        inverses = []

        class CountingSpecial:
            def __getattr__(self, name):
                function = getattr(special, name)
                if name != "betaincinv":
                    return function
                return lambda *args: inverses.append(np.size(args[0])) or function(*args)

        monkeypatch.setattr(numerics, "special", CountingSpecial())
        ci = beta_hpdis([a], [b], self.MASS)[0]
        monkeypatch.undo()
        # each evaluation inverts the CDF at both endpoints; the equal-tailed
        # fallback inverts it for no shape here
        assert sum(inverses) / 2 <= 4
        mass, gap = beta_hpdi_check(ci.lo, ci.hi, a, b)
        assert mass == pytest.approx(self.MASS, abs=1e-10) and abs(gap) <= 1e-10

    def test_converged_root_is_kept(self):
        # for these symmetric shapes the log-density gap is exactly 0 at the
        # equal-tailed start, so the search must return that point's endpoints
        tail = 0.5 * (1.0 - self.MASS)
        for a in (1.5, 2.5, 100.0, 1e5):
            ci = beta_hpdis([a], [a], self.MASS)[0]
            assert (ci.lo, ci.hi) == (special.betaincinv(a, a, tail),
                                      special.betaincinv(a, a, tail + self.MASS))
