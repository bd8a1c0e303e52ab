"""Special functions and Beta-distribution summaries.

``log_gamma`` and ``digamma`` are ``scipy.special.gammaln`` and ``psi``
behind a domain check: an argument that is not strictly positive and finite
raises ``ValueError`` instead of coming back as inf or nan.  The engine's
Dirichlet rows (:class:`DirichletRows`) take that check once, on the rows
and their sums when built; their ``psi`` and ``gammaln`` then run unchecked,
each at most once per set of rows.  The Beta normaliser, CDF and quantile
are ``betaln``, ``betainc`` and ``betaincinv``; the highest-density
interval is the shortest interval of the stated mass, found by a bounded
scalar search over its lower tail mass.

All functions are pure; a :class:`DirichletRows` keeps only what its rows
determine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy import special
from scipy.optimize import minimize_scalar

__all__ = [
    "BetaShape",
    "BetaSummary",
    "CredibleInterval",
    "DirichletRows",
    "beta_cdf",
    "beta_hpdi",
    "beta_log_pdf",
    "beta_pdf",
    "beta_quantile",
    "beta_summary",
    "digamma",
    "log_gamma",
]


def _positive(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    # NaN fails both comparisons, so this also rejects it
    if not np.all((arr > 0.0) & (arr < math.inf)):
        raise ValueError(f"{name} requires strictly positive, finite arguments")
    return arr


def _like_input(out: np.ndarray):
    return float(out) if np.ndim(out) == 0 else out


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


class DirichletRows:
    """Dirichlet parameters, one distribution per row, behind one domain check.

    Building it rejects, with the ``ValueError`` of :func:`digamma`, rows or
    row sums that are not strictly positive and finite (an empty set of rows
    passes).  The expectations are evaluated on first use and kept.
    """

    def __init__(self, rows) -> None:
        self.rows = np.asarray(rows, dtype=np.float64)
        self.sums = self.rows.sum(axis=1)
        # A NaN propagates into a minimum and fails its test, an infinite entry
        # makes its row sum infinite, and empty rows pass: each reduction
        # starts from its identity.
        if not (
            np.minimum.reduce(self.rows, axis=None, initial=math.inf) > 0.0
            and np.minimum.reduce(self.sums, initial=math.inf) > 0.0
            and np.maximum.reduce(self.sums, initial=0.0) < math.inf
        ):
            raise ValueError("DirichletRows requires strictly positive, finite arguments")

    @cached_property
    def psi(self) -> np.ndarray:
        """digamma of every entry."""
        return special.psi(self.rows)

    @cached_property
    def e_log(self) -> np.ndarray:
        """E log x under each row: digamma(row) - digamma(row sum)."""
        return self.psi - special.psi(self.sums)[:, None]

    @cached_property
    def log_norm(self) -> np.ndarray:
        """Log normaliser of each row: log Gamma(row sum) - sum log Gamma(row)."""
        return special.gammaln(self.sums) - special.gammaln(self.rows).sum(axis=1)


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

    ``equal_tailed`` is set when the shortest-interval search was not
    applicable (density without an interior mode) and the equal-tailed
    interval was returned instead.
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




def beta_log_pdf(x: float, shape: BetaShape) -> float:
    """Log density of Beta(a, b) at x; -inf outside [0, 1], and the limit
    (+inf, a finite value or -inf) at the endpoints."""
    if not 0.0 <= x <= 1.0:
        return -math.inf
    a, b = shape.a, shape.b
    return float(
        special.xlogy(a - 1.0, x) + special.xlog1py(b - 1.0, -x) - special.betaln(a, b)
    )


def beta_pdf(x: float, shape: BetaShape) -> float:
    return math.exp(beta_log_pdf(x, shape))


def beta_cdf(x: float, shape: BetaShape) -> float:
    """Regularized incomplete beta I_x(a, b), 0 below 0 and 1 above 1."""
    return float(special.betainc(shape.a, shape.b, min(max(x, 0.0), 1.0)))


def beta_quantile(u: float, shape: BetaShape) -> float:
    """Inverse CDF of Beta(a, b)."""
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"quantile level must lie in [0, 1], got {u}")
    return float(special.betaincinv(shape.a, shape.b, u))


def beta_hpdi(shape: BetaShape, mass: float) -> CredibleInterval:
    """Highest-posterior-density interval of a Beta distribution.

    The shortest interval containing ``mass`` is found by a bounded Brent
    search of the interval width over its lower tail mass; its endpoints
    are quantiles, so the interval holds ``mass`` to quantile accuracy
    whatever the search tolerance.  Shapes without an interior mode
    (a <= 1 or b <= 1) fall back to the equal-tailed interval, flagged via
    ``equal_tailed``; for the uniform case this tie-breaks to the centered
    interval.
    """
    if not (0.0 < mass < 1.0):
        raise ValueError(f"interval mass must lie in (0, 1), got {mass}")
    a, b = shape.a, shape.b
    if not (a > 1.0 and b > 1.0):
        tail = 0.5 * (1.0 - mass)
        lo, hi = special.betaincinv(a, b, [tail, 1.0 - tail])
        return CredibleInterval(lo=float(lo), hi=float(hi), mass=mass, equal_tailed=True)

    def ends(p: float) -> np.ndarray:
        return special.betaincinv(a, b, [p, p + mass])

    def width(p: float) -> float:
        lo, hi = ends(p)
        return hi - lo

    best = minimize_scalar(width, bounds=(0.0, 1.0 - mass), method="bounded",
                           options={"xatol": 1e-10})
    lo, hi = ends(best.x)
    return CredibleInterval(lo=float(lo), hi=float(hi), mass=mass, equal_tailed=False)
