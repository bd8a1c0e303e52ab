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
  and have no closed form.  A Newton solve covers them; the Hessian is
  diagonal plus rank one, so a step costs O(sources) per row (Minka 2000,
  "Estimating a Dirichlet distribution").  A fit has few such rows (one or
  two in the bundled and study corpora), and on so few numpy's cost per
  call outweighs the arithmetic: up to ``_FLOAT_ROWS`` rows are solved one
  by one on Python floats, more in one batched solve on arrays.  Both paths
  take the same operations in the same order, so they give the same bits.

No row ends below its starting value, so the outer bound stays monotone.
Every row stays in the box [``_LOWER``, ``_UPPER``], which keeps it away
from the log Gamma singularity and caps runaway concentration.  A row
converges once its projected-gradient infinity norm is at most
``_GRAD_TOL``, and takes at most ``_MAX_ITERS`` Newton steps.

:func:`mstep` and both objectives work on plain arrays, never the corpus;
:func:`mstep` is called once per outer iteration of the fit.  What does
not change within a fit (the trace rows' location indices, their sample
membership and sample counts) comes in as :class:`TraceRows`, built once
per fit by :func:`trace_rows`.  H and A go in and come out as float arrays
with no check of their own: the caller's next inference phase reads them
through :class:`~dustmix.numerics.DirichletRows`, which rejects entries
that are not positive and finite.
"""

from __future__ import annotations

import logging
import math
from functools import reduce
from operator import add, mul
from typing import NamedTuple, Sequence

import numpy as np

from .numerics import _SHORT_AXIS, DirichletRows, reduce_last, special

__all__ = [
    "RowSolve",
    "TraceRows",
    "alpha_objective_and_gradient",
    "eta_objective_and_gradient",
    "maximize_rows",
    "mstep",
    "trace_rows",
]

logger = logging.getLogger(__name__)

# The most rows that maximize_rows solves one by one on floats.  On the
# two-source rows of a fit, a row costs about 25 us on floats and a batched
# call 110-155 us for 1 to 7 rows (numpy 2.4, scipy 1.17, 2-core x86): the
# float path takes 0.25 / 0.44 / 0.74 of the batched time at 1 / 2 / 4 rows
# and breaks even at 6-7.  The cutoff stays below that because a batch
# costs as much as its slowest row and the float path the sum of its rows.
_FLOAT_ROWS = 4

_NONFINITE_START = "objective is non-finite at the starting point"

# The box of every updated row, and the Newton solve's tolerance and step cap.
_LOWER, _UPPER = 1e-6, 1e6
_GRAD_TOL = 1e-6
_MAX_ITERS = 200


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


def _row_objective_and_gradient(x: np.ndarray, rows: np.ndarray) -> tuple[float, np.ndarray]:
    """Objective of one row ``x`` against the posterior ``rows``."""
    x = np.asarray(x, dtype=np.float64)
    dg = DirichletRows(np.array(rows, dtype=np.float64).reshape(-1, x.size)).e_log
    value, grad = _objective(x[None], dg.sum(axis=0)[None], np.array([float(len(dg))]))
    return float(value[0]), grad[0]


def eta_objective_and_gradient(
    m: int, eta_row: np.ndarray, lams: np.ndarray
) -> tuple[float, np.ndarray]:
    """Bound contribution of profile row ``m`` and its gradient, summed over
    the profile posteriors ``lams``: one (sources x types), as a corpus fit
    shares it and the bound counts it once, or a stack of them (one per
    sample that owns its own)."""
    return _row_objective_and_gradient(eta_row, np.asarray(lams)[..., m, :])


def alpha_objective_and_gradient(
    alpha_row: np.ndarray, gammas: np.ndarray
) -> tuple[float, np.ndarray]:
    """Bound contribution of a trace location's mixing row and its gradient,
    summed over the mixing posteriors ``gammas`` of that location's samples
    (one row per sample)."""
    return _row_objective_and_gradient(alpha_row, gammas)


def _outward(x: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Coordinates on a box edge whose gradient points out of the box."""
    return ((x <= _LOWER) & (grad < 0.0)) | ((x >= _UPPER) & (grad > 0.0))


def maximize_rows(stat: np.ndarray, n_samples: np.ndarray, x0: np.ndarray) -> RowSolve:
    """Maximize S * (log Gamma(sum x) - sum log Gamma(x)) + <x, stat> over
    the box for every row (``stat`` and ``x0`` are rows x dims,
    ``n_samples`` holds each row's S).

    Each Newton step is projected onto the box and halved until the value
    rose or the directional derivative at its end is non-negative; by
    concavity either means the value did not fall, whatever the rounding.
    The objective is never evaluated outside the box, and a row that would
    end below its value at ``x0`` is returned there, unconverged.

    Each row's arithmetic is the same whichever rows share its batch, so
    the rows may be solved either way, and both ways give the same bits.  A
    batch of at most ``_FLOAT_ROWS`` rows of at most ``_SHORT_AXIS`` entries
    is solved row by row on Python floats (:func:`_maximize_floats`), a
    larger one by one batched solve on arrays (:func:`_maximize_batch`).
    """
    x = np.array(x0, dtype=np.float64)
    low, high = x.min(initial=np.inf), x.max(initial=-np.inf)
    if low < _LOWER or high > _UPPER:
        raise ValueError("starting point lies outside the bounds")
    rows, dims = x.shape
    solve, path = None, "floats"
    # A NaN start fails ``low >= _LOWER`` and is left to the batched path,
    # whose DirichletRows check rejects it: the float path meets only
    # finite, positive rows.
    if 0 < rows <= _FLOAT_ROWS and 0 < dims <= _SHORT_AXIS and low >= _LOWER:
        try:
            solve = _maximize_floats(stat, n_samples, x)
        except ZeroDivisionError:  # which numpy rounds to an infinity instead
            pass
    if solve is None:
        solve, path = _maximize_batch(stat, n_samples, x), "arrays"
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug("solved %d rows on %s: %d Newton steps, %d unconverged, %d on the box",
                     rows, path, solve.iterations.sum(), rows - solve.converged.sum(),
                     solve.on_box.sum())
    return solve


def _maximize_batch(stat: np.ndarray, n_samples: np.ndarray, x: np.ndarray) -> RowSolve:
    """:func:`maximize_rows` on arrays, all rows at once.  The box masks are
    built only while some coordinate of the batch sits on an edge; elsewhere
    they hold nothing, so each row's arithmetic is the same whichever rows
    share its batch."""
    value, grad = _objective(x, stat, n_samples)
    if not (np.isfinite(value).all() and np.isfinite(grad).all()):
        raise ValueError(_NONFINITE_START)
    x_start, start = x, value  # the loop rebinds x and value, never writes to them
    n_column = n_samples[:, None]
    iterations = np.zeros(len(x), dtype=np.int64)
    stalled = np.zeros(len(x), dtype=bool)
    for newton in range(_MAX_ITERS + 1):  # the last pass only measures
        edge = x.min(initial=np.inf) <= _LOWER or x.max(initial=-np.inf) >= _UPPER
        outward = _outward(x, grad) if edge else None
        projected = np.where(outward, 0.0, grad) if edge else grad
        projected_norm = reduce_last(np.maximum, np.abs(projected))
        pending = ~stalled & (projected_norm > _GRAD_TOL)
        if not pending.any() or newton == _MAX_ITERS:
            break
        # Newton step, zero where the box holds a coordinate.  The Hessian is
        # diag(q) + z 11^T with q = -S trigamma(x) and z = S trigamma(sum x), so
        # by Sherman-Morrison -H^-1 g = -(g - b) / q, b = sum(g/q) / (1/z + sum(1/q)).
        # trigamma is zeta(2, .), as scipy's polygamma(1, .) computes it.  Every
        # row takes the step; only the pending rows keep what it finds.
        inv_q = -1.0 / (n_column * special.zeta(2.0, x))
        if edge:
            inv_q = np.where(outward, 0.0, inv_q)
        z = n_samples * special.zeta(2.0, reduce_last(np.add, x))
        b = reduce_last(np.add, grad * inv_q) / (1.0 / z + reduce_last(np.add, inv_q))
        step = -(grad - b[:, None]) * inv_q
        iterations += pending
        for halving in range(40):  # then the row is given up as stalled
            trial = np.clip(x + 0.5**halving * step, _LOWER, _UPPER)
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

    converged = projected_norm <= _GRAD_TOL
    worse = value < start
    if worse.any():
        x = np.where(worse[:, None], x_start, x)
        value = np.where(worse, start, value)
        converged &= ~worse
        edge = True  # x_start may sit on an edge
    on_box = np.zeros(len(x), dtype=bool)
    if edge:
        on_box = ((x <= _LOWER) | (x >= _UPPER)).any(axis=1)
    return RowSolve(x, value, iterations, converged, on_box)


def _row_objective(x: list, stat: list, n: float) -> tuple[float, list]:
    """:func:`_objective` of one row of floats, by the same operations in
    the same order (sums in column order, as :func:`reduce_last` adds)."""
    total = reduce(add, x)
    log_gammas = reduce(add, [float(special.gammaln(v)) for v in x])
    psi_total = float(special.psi(total))
    value = n * (float(special.gammaln(total)) - log_gammas) + reduce(add, map(mul, x, stat))
    return value, [s - n * (float(special.psi(v)) - psi_total) for v, s in zip(x, stat)]


def _maximize_floats(stat: np.ndarray, n_samples: np.ndarray, x: np.ndarray) -> RowSolve:
    """:func:`maximize_rows` row by row on Python floats, by the operations
    of :func:`_maximize_batch` in its order, calling ``scipy.special`` on
    scalars (``zeta`` on the row and its sum at once), so with its bits.  A
    division by zero raises where numpy would round to an infinity."""
    rows = list(zip(x.tolist(), stat.tolist(), n_samples.tolist()))
    starts = [_row_objective(*row) for row in rows]
    if not all(math.isfinite(value) and all(map(math.isfinite, grad)) for value, grad in starts):
        raise ValueError(_NONFINITE_START)
    solves = [_solve_row(*row, *start) for row, start in zip(rows, starts)]
    x, value, iterations, converged, on_box = zip(*solves)
    return RowSolve(np.array(x), np.array(value), np.array(iterations, dtype=np.int64),
                    np.array(converged), np.array(on_box))


def _solve_row(
    x: list, stat: list, n: float, value: float, grad: list
) -> tuple[list, float, int, bool, bool]:
    """One row of :func:`_maximize_floats`, started at ``x``, where the
    objective has ``value`` and ``grad``: the fields of its :class:`RowSolve`."""
    lower, upper, tol = _LOWER, _UPPER, _GRAD_TOL
    x_start, start = x, value
    iterations = 0
    for newton in range(_MAX_ITERS + 1):  # the last pass only measures
        # the box masks only a row on an edge, as in the batched solve
        outward = None if lower < min(x) and max(x) < upper else [
            (v <= lower and g < 0.0) or (v >= upper and g > 0.0) for v, g in zip(x, grad)]
        projected = grad if outward is None else [
            0.0 if out else g for out, g in zip(outward, grad)]
        norm = max(map(abs, projected))
        if not norm > tol or newton == _MAX_ITERS:
            break
        *trigamma, trigamma_total = special.zeta(2.0, [*x, reduce(add, x)]).tolist()
        inv_q = [-1.0 / (n * q) for q in trigamma]
        if outward is not None:
            inv_q = [0.0 if out else q for out, q in zip(outward, inv_q)]
        z = n * trigamma_total
        b = reduce(add, map(mul, grad, inv_q)) / (1.0 / z + reduce(add, inv_q))
        step = [-(g - b) * q for g, q in zip(grad, inv_q)]
        iterations += 1
        for halving in range(40):  # then the row is given up as stalled
            scale = 0.5**halving
            trial = [min(max(v + scale * d, lower), upper) for v, d in zip(x, step)]
            trial_value, trial_grad = _row_objective(trial, stat, n)
            if trial_value >= value or reduce(
                add, [g * (t - v) for g, t, v in zip(trial_grad, trial, x)]
            ) >= 0.0:
                x, value, grad = trial, trial_value, trial_grad
                break
        else:
            break  # stalled: x keeps its norm, above the tolerance

    converged = norm <= tol
    if value < start:
        x, value, converged = x_start, start, False
    return x, value, iterations, converged, any(v <= lower or v >= upper for v in x)


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
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Replace every profile row and every trace mixing row by its maximizer
    in the box [``_LOWER``, ``_UPPER``], found within ``_GRAD_TOL`` in at
    most ``_MAX_ITERS`` Newton steps; known mixing rows are returned
    untouched.

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
    if lam.min() < _LOWER or lam.max() > _UPPER:  # most fits clip no profile row
        clipped = np.flatnonzero(((lam < _LOWER) | (lam > _UPPER)).any(axis=1))
        updates.insert(0, ("H", new_h, H[clipped], clipped, DirichletRows(lam[clipped]).e_log,
                           np.ones(clipped.size)))
    for label, new, old, ids, stat, n_samples in updates:
        if not ids.size:
            continue
        x0 = np.clip(new[ids], _LOWER, _UPPER)
        solve = maximize_rows(stat, n_samples, x0)
        new[ids] = solve.x
        # a solve never ends below x0; where the box moved x0 off the old
        # rows, an old row that scores higher is kept
        if (x0 != old).any():
            keep = solve.value < _objective(old, stat, n_samples)[0]
            new[ids[keep]] = old[keep]
        if solve.converged.all() and not solve.on_box.any():
            continue
        for row, converged, on_box in zip(ids, solve.converged, solve.on_box):
            if not converged:
                notes.append(f"{label} row {row} unconverged")
            if on_box:
                notes.append(f"{label} row {row} on a box edge")
    return new_h, new_a, notes
