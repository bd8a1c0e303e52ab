"""Exact maximization of the bound over Dirichlet hyperparameter rows.

Each profile row and each trace mixing row has a separable objective of the
form  S * (log Gamma(sum x) - sum log Gamma(x_j)) + <x, stat>,  where ``stat``
sums digamma differences of the matching variational block over S rows.

* Profile rows enter the bound once, through the one shared profile
  posterior ``lam``: S = 1 and ``stat = digamma(lam[m]) - digamma(sum
  lam[m])``.  The gradient vanishes at ``x = lam[m]`` and the objective is
  strictly concave, so the update is ``H = lam`` in closed form.  Only a row
  with an entry outside the box goes to the solver, started at ``clip(lam)``.
* Trace mixing rows sum the mixing posteriors of their location's samples
  and have no closed form.  One batched Newton solve covers them all; the
  Hessian is diagonal plus rank one, so a step costs O(sources) per row
  (Minka 2000, "Estimating a Dirichlet distribution").

No row ends below its starting value, so the outer bound stays monotone.
The box (:class:`BoxBounds`) and the solver settings
(:class:`OptimizerConfig`) are arguments so that tests can set them; the
fit always passes their defaults.

:func:`mstep` works on plain arrays and is called once per outer iteration
of the fit.  What does not change within a fit (the trace rows' location
indices, their sample membership and sample counts) comes in as
:class:`TraceRows`, built once per fit by :func:`trace_rows`.  H and A go in
and come out as float arrays with no check of their own: the caller's next
inference phase reads them through :class:`~dustmix.numerics.DirichletRows`,
which rejects entries that are not positive and finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import zeta

from .model import Corpus, VariationalState
from .numerics import DirichletRows, reduce_last

__all__ = [
    "BoxBounds",
    "OptimizerConfig",
    "RowSolve",
    "TraceRows",
    "alpha_objective_and_gradient",
    "eta_objective_and_gradient",
    "maximize_rows",
    "mstep",
    "trace_rows",
]


@dataclass(frozen=True)
class BoxBounds:
    """Per-coordinate box for Dirichlet rows; the defaults keep them strictly
    positive (away from the log Gamma singularity) and cap runaway
    concentration."""

    lower: float = 1e-6
    upper: float = 1e6

    def __post_init__(self) -> None:
        if not 0.0 < self.lower < self.upper:
            raise ValueError(f"bounds need 0 < lower < upper, got [{self.lower}, {self.upper}]")


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of the batched Newton solve (:func:`maximize_rows`): a row
    converges once its projected-gradient infinity norm is at most
    ``grad_tol``, and takes at most ``max_iters`` Newton steps."""

    grad_tol: float = 1e-6
    max_iters: int = 200

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.grad_tol <= 0.0:
            raise ValueError("grad_tol must be positive")


class RowSolve(NamedTuple):
    """Per-row outcome of :func:`maximize_rows`."""

    x: np.ndarray
    value: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    on_box: np.ndarray


def _objective(
    x: np.ndarray, stat: np.ndarray, n_samples: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Objective values and gradients of rows ``x`` (rows x dims)."""
    rows = DirichletRows(x)
    value = n_samples * rows.log_norm + reduce_last(np.add, x * stat)
    return value, stat - n_samples[:, None] * rows.e_log


def _row_objective_and_gradient(x: np.ndarray, rows: list[np.ndarray]) -> tuple[float, np.ndarray]:
    """Objective of one row ``x`` against the stacked posterior ``rows``."""
    x = np.asarray(x, dtype=np.float64)
    dg = DirichletRows(np.array(rows, dtype=np.float64).reshape(-1, x.size)).e_log
    value, grad = _objective(x[None], dg.sum(axis=0)[None], np.array([float(len(dg))]))
    return float(value[0]), grad[0]


def eta_objective_and_gradient(
    m: int, eta_row: np.ndarray, states: Sequence[VariationalState]
) -> tuple[float, np.ndarray]:
    """Bound contribution of profile row ``m`` and its gradient, summed over
    the distinct profile posteriors the states hold: the states of one
    corpus fit share one, which the bound counts once."""
    distinct = {id(state.lam): state.lam[m] for state in states}
    return _row_objective_and_gradient(eta_row, list(distinct.values()))


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
    return _row_objective_and_gradient(alpha_row, [s.gamma for s in states if s.location_id == l])


def _outward(x: np.ndarray, grad: np.ndarray, bounds: BoxBounds) -> np.ndarray:
    """Coordinates on a box edge whose gradient points out of the box."""
    return ((x <= bounds.lower) & (grad < 0.0)) | ((x >= bounds.upper) & (grad > 0.0))


def maximize_rows(
    stat: np.ndarray,
    n_samples: np.ndarray,
    x0: np.ndarray,
    bounds: BoxBounds,
    config: OptimizerConfig,
) -> RowSolve:
    """Maximize S * (log Gamma(sum x) - sum log Gamma(x)) + <x, stat> over
    the box for every row at once (``stat`` and ``x0`` are rows x dims,
    ``n_samples`` holds each row's S).

    Each Newton step is projected onto the box and halved until the value
    rose or the directional derivative at its end is non-negative; by
    concavity either means the value did not fall, whatever the rounding.
    The objective is never evaluated outside the box, and a row that would
    end below its value at ``x0`` is returned there, unconverged.  The box
    masks are built only while some coordinate of the batch sits on an
    edge; elsewhere they hold nothing, so each row's arithmetic is the same
    whichever rows share its batch.
    """
    x = np.array(x0, dtype=np.float64)
    if x.min(initial=np.inf) < bounds.lower or x.max(initial=-np.inf) > bounds.upper:
        raise ValueError("starting point lies outside the bounds")
    value, grad = _objective(x, stat, n_samples)
    if not (np.isfinite(value).all() and np.isfinite(grad).all()):
        raise ValueError("objective is non-finite at the starting point")
    x_start, start = x, value  # the loop rebinds x and value, never writes to them
    n_column = n_samples[:, None]
    iterations = np.zeros(len(x), dtype=np.int64)
    stalled = np.zeros(len(x), dtype=bool)
    for newton in range(config.max_iters + 1):  # the last pass only measures
        edge = x.min(initial=np.inf) <= bounds.lower or x.max(initial=-np.inf) >= bounds.upper
        outward = _outward(x, grad, bounds) if edge else None
        projected = np.where(outward, 0.0, grad) if edge else grad
        projected_norm = reduce_last(np.maximum, np.abs(projected))
        pending = ~stalled & (projected_norm > config.grad_tol)
        if not pending.any() or newton == config.max_iters:
            break
        # Newton step, zero where the box holds a coordinate.  The Hessian is
        # diag(q) + z 11^T with q = -S trigamma(x) and z = S trigamma(sum x), so
        # by Sherman-Morrison -H^-1 g = -(g - b) / q, b = sum(g/q) / (1/z + sum(1/q)).
        # trigamma is zeta(2, .), as scipy's polygamma(1, .) computes it.  Every
        # row takes the step; only the pending rows keep what it finds.
        inv_q = -1.0 / (n_column * zeta(2.0, x))
        if edge:
            inv_q = np.where(outward, 0.0, inv_q)
        z = n_samples * zeta(2.0, reduce_last(np.add, x))
        b = reduce_last(np.add, grad * inv_q) / (1.0 / z + reduce_last(np.add, inv_q))
        step = -(grad - b[:, None]) * inv_q
        iterations += pending
        for halving in range(40):  # then the row is given up as stalled
            trial = np.clip(x + 0.5**halving * step, bounds.lower, bounds.upper)
            trial_value, trial_grad = _objective(trial, stat, n_samples)
            slope = reduce_last(np.add, trial_grad * (trial - x))
            kept = pending & ((trial_value >= value) | (slope >= 0.0))
            if kept.all():
                x, value, grad = trial, trial_value, trial_grad
                break
            x = np.where(kept[:, None], trial, x)
            value = np.where(kept, trial_value, value)
            grad = np.where(kept[:, None], trial_grad, grad)
            pending &= ~kept
            if not pending.any():
                break
        else:
            stalled |= pending

    converged = projected_norm <= config.grad_tol
    worse = value < start
    if worse.any():
        x = np.where(worse[:, None], x_start, x)
        value = np.where(worse, start, value)
        converged &= ~worse
        edge = True  # x_start may sit on an edge
    on_box = np.zeros(len(x), dtype=bool)
    if edge:
        on_box = ((x <= bounds.lower) | (x >= bounds.upper)).any(axis=1)
    return RowSolve(x, value, iterations, converged, on_box)


class TraceRows(NamedTuple):
    """The trace mixing rows of one corpus as :func:`mstep` reads them:
    their location indices ``ids``, the rows x samples ``members`` (1 where
    the sample belongs to the row's location, else 0) and each row's sample
    count ``n_samples``.  :func:`trace_rows` builds them once per fit."""

    ids: np.ndarray
    members: np.ndarray
    n_samples: np.ndarray


def trace_rows(loc: np.ndarray, trace_ids: Sequence[int]) -> TraceRows:
    """The :class:`TraceRows` of the locations ``trace_ids``, given each
    sample's location index ``loc``."""
    ids = np.array(trace_ids, dtype=np.intp)
    members = (loc == ids[:, None]).astype(np.float64)
    return TraceRows(ids, members, members.sum(axis=1))


def mstep(
    H: np.ndarray,
    A: np.ndarray,
    lam: np.ndarray,
    e_log_theta: np.ndarray,
    trace: TraceRows,
    bounds: BoxBounds,
    config: OptimizerConfig,
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Replace every profile row and every trace mixing row by its box
    maximizer; known mixing rows are returned untouched.

    ``H`` and ``A`` are the current profile and mixing hyperparameters as
    arrays, ``lam`` the shared profile posterior, ``e_log_theta`` E log
    theta under each sample's mixing posterior (its digamma differences, one
    row per sample) and ``trace`` the corpus's :class:`TraceRows`.  Returns
    the new H and A as new arrays, unchecked (the caller's next inference
    phase reads both through :class:`DirichletRows`, which rejects entries
    that are not positive and finite), and a note for each row that ends
    unconverged or on a box edge.  A row keeps its previous value when the
    solve ends below it.
    """
    new_h, new_a = np.array(lam, dtype=np.float64), np.array(A, dtype=np.float64)
    notes: list[str] = []
    updates = [("A", new_a, A[trace.ids], trace.ids, trace.members @ e_log_theta,
                trace.n_samples)]
    if lam.min() < bounds.lower or lam.max() > bounds.upper:  # most fits clip no profile row
        clipped = np.flatnonzero(((lam < bounds.lower) | (lam > bounds.upper)).any(axis=1))
        updates.insert(0, ("H", new_h, H[clipped], clipped, DirichletRows(lam[clipped]).e_log,
                           np.ones(clipped.size)))
    for label, new, old, ids, stat, n_samples in updates:
        if not ids.size:
            continue
        try:
            x0 = np.clip(new[ids], bounds.lower, bounds.upper)
            solve = maximize_rows(stat, n_samples, x0, bounds, config)
            new[ids] = solve.x
            # a solve never ends below x0; where the box moved x0 off the old
            # rows, an old row that scores higher is kept
            if (x0 != old).any():
                keep = solve.value < _objective(old, stat, n_samples)[0]
                new[ids[keep]] = old[keep]
        except (ValueError, ArithmeticError) as exc:
            raise RuntimeError(f"row update failed (matrix {label}): {exc}") from exc
        if solve.converged.all() and not solve.on_box.any():
            continue
        for row, converged, on_box in zip(ids, solve.converged, solve.on_box):
            if not converged:
                notes.append(f"{label} row {row} unconverged")
            if on_box:
                notes.append(f"{label} row {row} on a box edge")
    return new_h, new_a, notes
