"""Box-constrained maximization of the bound over Dirichlet hyperparameter rows.

Each profile row and each trace mixing row has a separable objective of the
form  S * (log Gamma(sum x) - sum log Gamma(x_j)) + <x, stat>,  where ``stat``
accumulates digamma differences of the matching variational block over
samples and S counts those samples.  The rows are maximized independently
under box constraints with a limited-memory quasi-Newton solver (L-BFGS-B,
via scipy); a row is never allowed to end below its starting value, which
keeps the outer bound monotone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.optimize import minimize

from .model import Corpus, DirichletMatrix, VariationalState
from .numerics import digamma, log_gamma

__all__ = [
    "BoxBounds",
    "MaximizeResult",
    "OptimizerConfig",
    "alpha_objective_and_gradient",
    "eta_objective_and_gradient",
    "maximize_box",
    "mstep",
]


@dataclass(frozen=True)
class BoxBounds:
    """Per-coordinate box; the defaults keep Dirichlet parameters strictly
    positive (away from the log Gamma singularity) and cap runaway
    concentration.  General boxes are allowed for generic maximization;
    :func:`mstep` insists on a positive lower edge."""

    lower: float = 1e-6
    upper: float = 1e6

    def __post_init__(self) -> None:
        if not self.lower < self.upper:
            raise ValueError(f"bounds must satisfy lower < upper, got [{self.lower}, {self.upper}]")


@dataclass(frozen=True)
class OptimizerConfig:
    """Limited-memory quasi-Newton settings.

    ``memory`` is the number of curvature pairs kept; ``grad_tol`` bounds the
    projected-gradient infinity norm at convergence.
    """

    memory: int = 10
    grad_tol: float = 1e-6
    max_iters: int = 200

    def __post_init__(self) -> None:
        if self.memory < 1:
            raise ValueError("memory must be at least 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.grad_tol <= 0.0:
            raise ValueError("grad_tol must be positive")


class MaximizeResult(NamedTuple):
    x: np.ndarray
    value: float
    iterations: int
    converged: bool


ObjectiveAndGradient = Callable[[np.ndarray], tuple[float, np.ndarray]]


def _row_objective_and_gradient(
    x: np.ndarray, stat: np.ndarray, n_samples: int
) -> tuple[float, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0.0) or not np.all(np.isfinite(x)):
        raise ValueError("Dirichlet parameters must be positive and finite")
    total = x.sum()
    value = n_samples * (log_gamma(total) - log_gamma(x).sum()) + float(x @ stat)
    grad = n_samples * (digamma(total) - digamma(x)) + stat
    return value, grad


def _digamma_stat(rows: np.ndarray) -> np.ndarray:
    """Sum over the rows of digamma(row) - digamma(row sum)."""
    return (digamma(rows) - digamma(rows.sum(axis=1))[:, None]).sum(axis=0)


def eta_objective_and_gradient(
    m: int, eta_row: np.ndarray, states: Sequence[VariationalState]
) -> tuple[float, np.ndarray]:
    """Bound contribution of profile row ``m`` and its gradient, summed over
    all samples' profile blocks."""
    eta_row = np.asarray(eta_row, dtype=np.float64)
    stat = _digamma_stat(np.array([state.lam[m] for state in states]).reshape(-1, eta_row.size))
    return _row_objective_and_gradient(eta_row, stat, len(states))


def alpha_objective_and_gradient(
    l: int,
    alpha_row: np.ndarray,
    states: Sequence[VariationalState],
    corpus: Corpus,
) -> tuple[float, np.ndarray]:
    """Bound contribution of the mixing row of trace location ``l`` and its
    gradient, summed over that location's samples."""
    if corpus.locations[l].role.is_known:
        raise ValueError(f"location {l} is pinned to a known source; its mixing row is frozen")
    alpha_row = np.asarray(alpha_row, dtype=np.float64)
    local = [s for s in states if s.location_id == l]
    stat = _digamma_stat(np.array([state.gamma for state in local]).reshape(-1, alpha_row.size))
    return _row_objective_and_gradient(alpha_row, stat, len(local))


def maximize_box(
    objective_and_gradient: ObjectiveAndGradient,
    x0: np.ndarray,
    bounds: BoxBounds,
    config: OptimizerConfig,
) -> MaximizeResult:
    """Maximize a smooth objective over a box.

    Returns a point whose projected-gradient infinity norm is below
    ``config.grad_tol`` or the best iterate after ``config.max_iters``; the
    objective is never evaluated outside the box and the returned value is
    never below the starting value.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if np.any(x0 < bounds.lower) or np.any(x0 > bounds.upper):
        raise ValueError("starting point lies outside the bounds")
    f0, g0 = objective_and_gradient(x0)
    if not np.isfinite(f0):
        raise ValueError(f"objective is non-finite at the starting point (value {f0})")

    def negated(x: np.ndarray) -> tuple[float, np.ndarray]:
        x = np.clip(x, bounds.lower, bounds.upper)
        value, grad = objective_and_gradient(x)
        return -value, -np.asarray(grad)

    result = minimize(
        negated,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=[(bounds.lower, bounds.upper)] * x0.shape[0],
        options={
            "maxcor": config.memory,
            "maxiter": config.max_iters,
            "gtol": config.grad_tol,
            "ftol": 1e-16,
        },
    )
    x_star = np.clip(result.x, bounds.lower, bounds.upper)
    value = -float(result.fun)
    if not np.isfinite(value) or value < f0:
        return MaximizeResult(x=x0, value=f0, iterations=int(result.nit), converged=False)
    return MaximizeResult(
        x=x_star,
        value=value,
        iterations=int(result.nit),
        converged=bool(result.status == 0),
    )


def mstep(
    H: DirichletMatrix,
    A: DirichletMatrix,
    states: Sequence[VariationalState],
    corpus: Corpus,
    bounds: BoxBounds,
    config: OptimizerConfig,
) -> tuple[DirichletMatrix, DirichletMatrix]:
    """Replace every profile row and every trace mixing row by its box
    maximizer; known mixing rows are returned untouched.

    Rows are processed in a fixed order (profiles first, then trace rows by
    location index) purely for reproducibility: the row objectives share no
    parameters, so any order yields the same result.
    """
    if bounds.lower <= 0.0:
        raise ValueError("Dirichlet rows need a strictly positive lower bound")
    n_sources, n_types = H.shape
    lams = np.array([state.lam for state in states]).reshape(-1, n_sources, n_types)
    count = len(states)
    new_h = np.array(H.values, dtype=np.float64)
    for m in range(n_sources):
        stat = _digamma_stat(lams[:, m])
        try:
            res = maximize_box(
                lambda x: _row_objective_and_gradient(x, stat, count),
                new_h[m],
                bounds,
                config,
            )
        except (ValueError, ArithmeticError) as exc:
            raise RuntimeError(f"profile-row update failed (matrix H, row {m}): {exc}") from exc
        new_h[m] = res.x

    gammas = np.array([state.gamma for state in states]).reshape(-1, n_sources)
    location_ids = np.array([state.location_id for state in states])
    new_a = np.array(A.values, dtype=np.float64)
    for l in corpus.trace_location_ids:
        local = gammas[location_ids == l]
        if not len(local):
            continue
        stat = _digamma_stat(local)
        count = len(local)
        try:
            res = maximize_box(
                lambda x: _row_objective_and_gradient(x, stat, count),
                new_a[l],
                bounds,
                config,
            )
        except (ValueError, ArithmeticError) as exc:
            raise RuntimeError(f"mixing-row update failed (matrix A, row {l}): {exc}") from exc
        new_a[l] = res.x

    return DirichletMatrix(new_h, role="H"), DirichletMatrix(new_a, role="A")
