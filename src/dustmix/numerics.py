"""Special functions and Beta-distribution summaries.

``log_gamma`` and ``digamma`` are ``scipy.special.gammaln`` and ``psi``
behind a domain check: an argument that is not strictly positive and finite
raises ``ValueError`` instead of coming back as inf or nan.  They are the
checked public API; the engine evaluates special functions only through
:class:`DirichletRows`, which takes that check once, on the rows and their
sums when built, and then runs ``psi`` and ``gammaln`` unchecked, each at
most once per set of rows.  The Beta normaliser and quantile are
``betaln`` and ``betaincinv``.  The highest-density interval is the
shortest interval of the stated mass; :func:`beta_hpdis` finds it for many
shapes at once by a bracketed Newton search over the lower tail mass where
the density has an interior mode, and as a one-sided quantile where it is
monotone, on ``scipy.special`` alone.

The engine's arrays are short along their last axis: a mixing row has one
entry per source (2 or 3 in practice) and a profile row one per particle
type (14 in the bundled data).  A numpy reduction over such an axis costs
several times the elementwise pass that gives the same result, so
:func:`reduce_last` sums or maximises an axis of at most ``_SHORT_AXIS``
entries by one elementwise pass per column and hands a longer axis to
``ufunc.reduce``.  Its result has the same bits as ``ufunc.reduce(x,
axis=-1)``, hence the cutoff: numpy (2.4) adds a last axis of fewer than
8 entries in column order, one entry after another, but a longer one by
pairwise partial sums, which round differently.  ``tests/test_numerics.py``
checks both sides of the cutoff, so a numpy that changes its order fails
there first.

``scipy.special`` costs about 0.2 s and 26 MB at import (scipy 1.17,
2-core x86), and reading a corpus, validating it or printing a saved
report calls none of it.  So ``special`` stands in for the module: the
first read of one of its functions imports ``scipy.special``, copies its
public names into the handle and makes the handle a plain module, so every
later read is a module attribute look-up that runs no Python code, as
when the name was ``scipy.special`` itself.  Every module of the package
reads its special functions through it, which makes this module the one
place that decides when scipy loads: ``import dustmix`` loads none of it,
and a fit, a study or a new report's intervals load it once, at their
first special function.

All functions are pure; a :class:`DirichletRows` keeps only what its rows
determine.
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "BetaShape",
    "BetaSummary",
    "CredibleInterval",
    "DirichletRows",
    "beta_hpdi",
    "beta_hpdis",
    "beta_quantile",
    "beta_summary",
    "digamma",
    "log_gamma",
    "reduce_last",
]


class _DeferredSpecial(types.ModuleType):
    """``scipy.special``, imported at the first read of one of its functions."""

    def __getattr__(self, name: str):
        # reached only before the first load; a private name (an
        # introspection probe) imports nothing
        if name.startswith("_"):
            raise AttributeError(name)
        from scipy import special as module

        vars(self).update((key, value) for key, value in vars(module).items()
                          if not key.startswith("_"))
        # as importlib.util.LazyLoader does: no hook is left on later reads
        self.__class__ = types.ModuleType
        return getattr(self, name)


special = _DeferredSpecial("scipy.special")


def _positive(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    # NaN fails both comparisons, so this also rejects it
    if not np.all((arr > 0.0) & (arr < math.inf)):
        raise ValueError(f"{name} requires strictly positive, finite arguments")
    return arr


def _like_input(out: np.ndarray):
    return float(out) if np.ndim(out) == 0 else out


# The longest last axis that reduce_last reduces column by column.
_SHORT_AXIS = 7


def reduce_last(ufunc: np.ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(x, axis=-1)`` bit for bit, as a new array: by one
    elementwise ``ufunc`` pass per column when the last axis has 1 to
    ``_SHORT_AXIS`` entries, else by the reduction itself."""
    n = x.shape[-1]
    if not 0 < n <= _SHORT_AXIS:
        return ufunc.reduce(x, axis=-1)
    out = x[..., 0].copy() if n == 1 else ufunc(x[..., 0], x[..., 1])
    for j in range(2, n):
        ufunc(out, x[..., j], out=out)
    return out


def log_gamma(x):
    """Natural log of the Gamma function for x > 0 (scalar or array).

    scipy's ``gammaln``: relative error near machine precision across
    [1e-6, 1e6] (about 4e-16 against mpmath).
    """
    return _like_input(special.gammaln(_positive(x, "log_gamma")))


def digamma(x):
    """Digamma (psi) function for x > 0 (scalar or array).

    scipy's ``psi``: absolute error about 2e-16 against mpmath across
    [1e-6, 1e6].
    """
    return _like_input(special.psi(_positive(x, "digamma")))


class _lazy(cached_property):
    """``cached_property`` without its first-access lock (before Python 3.12)."""

    def __get__(self, rows, owner=None):
        if rows is None:
            return self
        value = rows.__dict__[self.attrname] = self.func(rows)
        return value


class DirichletRows:
    """Dirichlet parameters, one distribution per row, behind one domain check.

    Building it rejects, with the ``ValueError`` of :func:`digamma`, rows or
    row sums that are not strictly positive and finite (an empty set of rows
    passes).  Strictly positive entries make every sum of at least one entry
    positive, so the sums' sign is tested only when rows have no columns.
    The expectations are evaluated on first use and kept.
    """

    def __init__(self, rows) -> None:
        self.rows = np.asarray(rows, dtype=np.float64)
        self.sums = reduce_last(np.add, self.rows)
        # A NaN propagates into a minimum and fails its test, an infinite entry
        # makes its row sum infinite, and empty rows pass: each reduction
        # starts from its identity.
        if not (
            np.minimum.reduce(self.rows, axis=None, initial=math.inf) > 0.0
            and np.maximum.reduce(self.sums, initial=0.0) < math.inf
            and (self.rows.shape[1] or np.minimum.reduce(self.sums, initial=math.inf) > 0.0)
        ):
            raise ValueError("DirichletRows requires strictly positive, finite arguments")

    @_lazy
    def psi(self) -> np.ndarray:
        """digamma of every entry."""
        return special.psi(self.rows)

    @_lazy
    def e_log(self) -> np.ndarray:
        """E log x under each row: digamma(row) - digamma(row sum)."""
        return self.psi - special.psi(self.sums)[:, None]

    @_lazy
    def log_norm(self) -> np.ndarray:
        """Log normaliser of each row: log Gamma(row sum) - sum log Gamma(row)."""
        return special.gammaln(self.sums) - reduce_last(np.add, special.gammaln(self.rows))

    @_lazy
    def log_norm_sum(self) -> float:
        """The log normalisers summed over the rows."""
        return self.log_norm.sum()

    @_lazy
    def less_one(self) -> np.ndarray:
        """Every entry minus one: the weights of E log x in E log Dirichlet."""
        return self.rows - 1.0


@dataclass(frozen=True)
class BetaShape:
    """Shape pair (a, b) of a Beta distribution; both strictly positive."""

    a: float
    b: float

    def __post_init__(self) -> None:
        for name, value in (("a", self.a), ("b", self.b)):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"BetaShape.{name} must be positive and finite, got {value!r}")


class BetaSummary(NamedTuple):
    mean: float
    mode: float | None


@dataclass(frozen=True)
class CredibleInterval:
    """Interval [lo, hi] in [0, 1] carrying posterior probability ``mass``.

    ``equal_tailed`` is set when no shortest interval was returned: for a
    U-shaped or uniform density, which gets the equal-tailed interval
    instead.  A monotone density's shortest interval has one end at 0 or 1.
    """

    lo: float
    hi: float
    mass: float
    equal_tailed: bool = False

    def __post_init__(self) -> None:
        if not (0.0 <= self.lo <= self.hi <= 1.0):
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")
        if not (0.0 < self.mass < 1.0):
            raise ValueError(f"interval mass must lie in (0, 1), got {self.mass}")

    @property
    def width(self) -> float:
        return self.hi - self.lo


def beta_summary(shape: BetaShape) -> BetaSummary:
    """Mean and (interior) mode of a Beta distribution.

    The mode is ``None`` unless a > 1 and b > 1; boundary modes are reported
    as absent rather than fabricated.
    """
    mean = shape.a / (shape.a + shape.b)
    mode = None
    if shape.a > 1.0 and shape.b > 1.0:
        mode = (shape.a - 1.0) / (shape.a + shape.b - 2.0)
    return BetaSummary(mean=mean, mode=mode)


def beta_quantile(u: float, shape: BetaShape) -> float:
    """Inverse CDF of Beta(a, b)."""
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"quantile level must lie in [0, 1], got {u}")
    return float(special.betaincinv(shape.a, shape.b, u))


# A root closer to 0 than this fraction of 1 - mass is taken as 0; such
# roots, down to below the smallest double, come with a just above 1.
# Bisection gets that close in about 72 steps.
_HPDI_STEP_TOL = 1e-22
_HPDI_MAX_ITERS = 100


def beta_hpdis(a, b, mass: float) -> list[CredibleInterval]:
    """Highest-posterior-density intervals of Beta(a[i], b[i]), one per shape.

    The shortest interval of a given mass has equal density at its ends.
    Over the lower tail mass p in [0, 1 - mass], with lo = F^-1(p) and
    hi = F^-1(p + mass), the log-density gap
    g(p) = log f(hi) - log f(lo) falls from +inf to -inf through its one
    root, and g'(p) = (log f)'(hi) / f(hi) - (log f)'(lo) / f(lo).  Every
    shape takes Newton steps on g from the equal-tailed point, inside a
    bracket that each evaluation of g narrows; a step that leaves the
    bracket or is not finite bisects it instead.  A shape stops, with the
    endpoints of its last evaluated p, once |g| is within the rounding of
    the four terms (a - 1) log x, (b - 1) log(1 - x) that form it (epsilon
    times their summed magnitudes), or its next step would move neither
    endpoint by more than one ulp, or that step is at most
    ``_HPDI_STEP_TOL * (1 - mass)``.  So where the root lies closer to
    0 or 1 than the endpoints resolve, an endpoint ends there instead.
    The endpoints are quantiles, so each interval holds ``mass`` to
    quantile accuracy whatever the stopping point.  A monotone density's
    shortest interval starts at the end where it peaks: [0, F^-1(mass)]
    when a <= 1 <= b, [F^-1(1 - mass), 1] when b <= 1 <= a.  A U-shaped
    (a < 1 and b < 1) or uniform density gets the equal-tailed interval,
    flagged via ``equal_tailed`` (for the uniform, the centred one).  Each
    shape's arithmetic does not depend on the others, so a batch returns
    what one call per shape would.
    """
    if not (0.0 < mass < 1.0):
        raise ValueError(f"interval mass must lie in (0, 1), got {mass}")
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    tail = 0.5 * (1.0 - mass)
    interior, uniform = (a > 1.0) & (b > 1.0), (a == 1.0) & (b == 1.0)
    falling = (a <= 1.0) & (b >= 1.0) & ~uniform
    rising = (a >= 1.0) & (b <= 1.0) & ~uniform
    equal = ~(interior | falling | rising)  # U-shaped or uniform
    lo, hi = np.zeros_like(a), np.ones_like(a)
    lo[equal] = special.betaincinv(a[equal], b[equal], tail)
    hi[equal] = special.betaincinv(a[equal], b[equal], 1.0 - tail)
    hi[falling] = special.betaincinv(a[falling], b[falling], mass)
    lo[rising] = special.betaincinv(a[rising], b[rising], 1.0 - mass)

    active = np.flatnonzero(interior)
    a, b = a[active], b[active]
    log_beta = special.betaln(a, b)
    lower, upper = np.zeros(active.size), np.full(active.size, 1.0 - mass)
    p = np.full(active.size, tail)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_HPDI_MAX_ITERS):
            if not active.size:
                break
            x_lo = special.betaincinv(a, b, p)
            x_hi = special.betaincinv(a, b, p + mass)
            lo[active], hi[active] = x_lo, x_hi
            terms = [(special.xlogy(a - 1.0, x), special.xlog1py(b - 1.0, -x))
                     for x in (x_lo, x_hi)]
            log_f_lo, log_f_hi = (first + second - log_beta for first, second in terms)
            f_lo, f_hi = np.exp(log_f_lo), np.exp(log_f_hi)
            gap = log_f_hi - log_f_lo
            noise = np.finfo(np.float64).eps * sum(np.abs(t) for pair in terms for t in pair)
            slope = ((a - 1.0) / x_hi - (b - 1.0) / (1.0 - x_hi)) / f_hi - (
                (a - 1.0) / x_lo - (b - 1.0) / (1.0 - x_lo)
            ) / f_lo
            lower = np.where(gap > 0.0, p, lower)
            upper = np.where(gap < 0.0, p, upper)
            newton = p - gap / slope
            inside = (newton > lower) & (newton < upper)
            target = np.where(inside, newton, 0.5 * (lower + upper))
            step = np.abs(target - p)
            going = ~(
                (np.isfinite(gap) & (np.abs(gap) <= noise))
                | ((step <= f_lo * np.spacing(x_lo)) & (step <= f_hi * np.spacing(x_hi)))
                | (step <= _HPDI_STEP_TOL * (1.0 - mass))
            )
            active, a, b, log_beta = active[going], a[going], b[going], log_beta[going]
            lower, upper, p = lower[going], upper[going], target[going]
    return [
        CredibleInterval(lo=float(l), hi=float(h), mass=mass, equal_tailed=bool(e))
        for l, h, e in zip(lo, hi, equal)
    ]


def beta_hpdi(shape: BetaShape, mass: float) -> CredibleInterval:
    """Highest-posterior-density interval of one Beta distribution: the
    one-shape call of :func:`beta_hpdis`."""
    return beta_hpdis(shape.a, shape.b, mass)[0]
