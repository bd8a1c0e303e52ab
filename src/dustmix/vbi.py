"""Variational EM engine: coordinate-ascent inference plus hyperparameter updates.

The generative story draws the profile matrix B once for the whole corpus,
so the fit keeps one shared Dirichlet posterior over the profile rows
(``lam``, sources x types), while mixing posteriors and responsibilities
stay per sample.  The state is arrays with one row per sample: ``counts``
(N x T) and ``gamma`` (N x M), next to the one ``lam``.  A sweep keeps
the responsibilities phi (N x T x M) in factored form
(:class:`_Responsibilities`), and phi is built only where it is read: for
the Newton points (whose phi the warm start's settle test reads too) and
the linear-response factor, once per fit from the last sweep for
``FitResult.phi``, and in the single-sample API.

One kernel, :func:`_sweep_rows`, runs an inference sweep over any set of
rows: responsibilities and mixing posteriors against the current profile
posterior, then the profile posterior from the counts every row allocates.
Since phi_ntm is proportional to exp E log theta_nm times exp E log
beta_mt, these follow from rows x sources, sources x types and rows x
types arrays, each row's values its own, bit for bit.  Each update is the
exact coordinate maximizer of the bound given the rest, so the bound is
non-decreasing sweep over sweep.  One function, :func:`_bound_terms`, sums
the seven bound terms over rows from phi, counting the profile block once.
:func:`estep_sample` runs both on one row (a sample that owns its profile
posterior outright), and a sample's bound is :func:`corpus_elbo` of its
row.  Right after a sweep the terms collapse (:func:`_collapsed_bound`),
with the responsibility entropy in closed form from the factors.  An
inference phase scores only the states its sweeps make, by that form, and
stops when two consecutive ones agree; the fixed point's acceptance of a
Newton step compares collapsed bounds; a single sample and
:func:`corpus_elbo` read the seven terms, which a fit evaluates only to
name a non-finite term.

Both kernels read a state (``gamma``, ``lam``) as :class:`DirichletRows`,
checked once and with its digammas and log Gammas evaluated at most once:
a sweep returns its new state in that form, with its responsibilities,
and every loop builds its priors ``a`` and ``eta`` once.
:func:`corpus_elbo` and :func:`elbo_terms` call the bound kernel on arrays.

The outer loop alternates inference phases with exact box-constrained updates
of the profile hyperparameters (closed form) and the trace mixing rows (a
Newton solve, on Python floats for a few rows and on arrays for more;
see :mod:`~dustmix.mstep`), warm-starting every phase from the previous
state, so the bound is monotone across phases too.  The box and the Newton
settings are constants of :mod:`~dustmix.mstep`.  The loop carries
H and A as float arrays and builds what the M-step needs of the corpus (the
trace rows' :class:`~dustmix.mstep.TraceRows`) once per fit.  Each phase
checks the H and A it is given when it reads them as :class:`DirichletRows`;
they are wrapped as :class:`DirichletMatrix` only for the :class:`FitResult`.

Before the first phase :func:`fit` stages its starting point
(:func:`_warm_start_profiles`): the known samples settle the profile
posterior, then, with that posterior frozen, each trace row settles at its
own fixed point by damped Newton steps on its block of the linear-response
precision (:func:`_settle_trace_rows`), the block the fixed point's Newton
solve factors too (:func:`_sample_whitening`).

:func:`fit` keeps its state in these arrays from the starting point that
:func:`initialize` returns to the :class:`FitResult`, and the single-sample
API (:func:`estep_sample`, :func:`elbo_terms`, :func:`corpus_elbo`) takes
and returns the same arrays, one row of them.

The trace mixing rows that :func:`fit` returns are the share posteriors the
report reads: each keeps its fitted mean and takes its concentration from
the linear-response variance of the location's share under the configured
priors (:func:`_linear_response_rows`), so the intervals carry the
uncertainty the factorised posterior leaves out.  That variance holds at
the fixed point of the sweeps under those priors.  The first inference
phase already runs under them, so :func:`_fixed_point` continues from the
state that phase returned, by damped Newton steps on the same
linear-response precision; both solve with it on its per-sample blocks and
their Schur complement over the profiles (:func:`_linear_response_factor`).
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from numbers import Real

import numpy as np
from scipy.special import zeta

from .model import (
    Corpus,
    CorpusValidationError,
    DirichletMatrix,
    FitResult,
    SampleCounts,
    validate_corpus,
)
from .mstep import mstep, trace_rows
from .numerics import DirichletRows, _lazy, reduce_last

__all__ = [
    "FitConfig",
    "NumericalFailure",
    "corpus_elbo",
    "elbo_terms",
    "estep_sample",
    "fit",
    "initialize",
]

logger = logging.getLogger(__name__)


class NumericalFailure(RuntimeError):
    """A bound term or update became non-finite.

    ``term`` names the offending bound term, ``iteration`` the coordinate
    sweep during which it appeared (when raised from a sweep loop).
    """

    def __init__(self, message: str, term: str | None = None, iteration: int | None = None):
        super().__init__(message)
        self.term = term
        self.iteration = iteration


def as_real(name: str, value) -> float:
    """``value`` as a float; a bool, a string or anything else that is not
    a real number raises a ``ValueError`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def as_integer(name: str, value) -> int:
    """``value`` as an int; a bool, a string or a non-integral number
    (NaN and infinities too) raises a ``ValueError`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, Real) or not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_count(name: str, value, least: int = 1) -> int:
    """``value`` as an int of at least ``least``, or a ``ValueError`` naming
    ``name``: the one integer rule of every count and cap."""
    count = as_integer(name, value)
    if count < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")
    return count


# A known location's prior weight on its own source, pinning its samples there.
_KNOWN_WEIGHT = 150.0
# The relative bound change between inference phases that ends :func:`fit`.
_OUTER_TOL = 1e-6


@dataclass(frozen=True)
class FitConfig:
    """Engine settings.

    ``flat_weight`` is the prior weight of every mixing-row entry but a
    known location's own source (which takes ``_KNOWN_WEIGHT``); trace rows
    start flat.  ``estep_tol`` is the relative bound change that ends a
    corpus inference phase and the relative parameter step that ends
    :func:`estep_sample`; ``estep_max_iters`` caps the sweeps of either, and
    ``outer_max_iters`` the outer loop of :func:`fit`, whose tolerance is
    ``_OUTER_TOL``.  The box of the hyperparameter rows and the Newton
    solve's tolerance and step cap are constants of :mod:`~dustmix.mstep`.
    The fit draws no random numbers, so it takes no seed.  Every field must
    be a real number (a bool or a string is rejected, naming the field);
    ``flat_weight`` and ``estep_tol`` must be positive and finite, and the
    two caps integral and at least 1 (stored as ``int``).
    """

    flat_weight: float = 1.0
    estep_tol: float = 1e-8
    estep_max_iters: int = 500
    outer_max_iters: int = 100

    def __post_init__(self) -> None:
        for name in ("flat_weight", "estep_tol", "estep_max_iters", "outer_max_iters"):
            as_real(name, getattr(self, name))
        for name in ("flat_weight", "estep_tol"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:  # NaN fails the range test too
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        for name in ("estep_max_iters", "outer_max_iters"):
            object.__setattr__(self, name, as_count(name, getattr(self, name)))


def initialize(
    corpus: Corpus, config: FitConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Validate the corpus and build the starting point as arrays.

    Returns the configured priors: the profile rows ``eta`` (flat, all ones)
    and the mixing rows ``A`` (each known location pinned to its source by
    ``_KNOWN_WEIGHT``, ``flat_weight`` elsewhere; trace rows flat); then each
    sample's location index ``loc``, the counts (samples x types) and the
    starting mixing posteriors ``gamma``: each sample's mixing row plus
    total_count / (n_sources * total_samples).  Samples are in corpus order.
    """
    violations = validate_corpus(corpus)
    if violations:
        raise CorpusValidationError(violations)
    A = np.full((corpus.n_locations, corpus.n_sources), config.flat_weight, dtype=np.float64)
    for i, location in enumerate(corpus.locations):
        if location.role.is_known:
            A[i, location.role.source_index] = _KNOWN_WEIGHT
    loc = np.array([loc_id for loc_id, _ in corpus.iter_samples()], dtype=np.intp)
    counts = np.array(
        [sample.counts for _, sample in corpus.iter_samples()], dtype=np.float64
    ).reshape(-1, corpus.n_types)
    gamma = A[loc] + counts.sum(axis=1, keepdims=True) / (corpus.n_sources * len(loc))
    return np.ones((corpus.n_sources, corpus.n_types)), A, loc, counts, gamma


# A row whose normaliser Z has an entry below this takes its responsibilities
# in log space.  That covers the zero and subnormal entries, and keeps c / Z
# and its sums over types and rows finite for count totals below 2^120.
_Z_FLOOR = 2.0**-900


class _Responsibilities:
    """The responsibilities of one sweep of the rows ``counts`` from
    (``gamma``, ``lam``), in factored form (Blei, Ng and Jordan 2003, JMLR
    3:993; Hoffman, Blei and Bach 2010).

    phi_ntm = e_theta_nm e_beta_mt / Z_nt, with e_theta = exp(psi(gamma) -
    row max) (rows x sources), e_beta = exp(E log beta - column max)
    (sources x types) and Z = sum_m e_theta e_beta (rows x types).  So
    ``allocated`` = e_theta * sum_t (c / Z) e_beta (rows x sources) and
    ``profile_counts`` = e_beta * sum_n e_theta (c / Z) (sources x types),
    the counts each row allocates to each source and each profile receives,
    need no rows x types x sources array; c / Z is taken as c * (1 / Z).  Z
    and the sum over types are ``np.einsum`` loops, so each row's values are
    its own, bit for bit, which a BLAS product does not promise; the sum
    over rows is a matrix product.  ``phi`` is built only when read.

    A row whose Z has an entry below ``_Z_FLOOR`` (or not finite) takes its
    responsibilities in log space instead, log e_theta + log e_beta
    normalised per type after subtracting the largest, and a DEBUG line says
    how many rows did; its c / Z is set to 0, so the other rows keep their
    bits.
    """

    def __init__(self, counts: np.ndarray, gamma: DirichletRows, lam: DirichletRows) -> None:
        self.counts = counts
        self.log_theta = gamma.psi - reduce_last(np.maximum, gamma.psi)[:, None]
        self.log_beta = lam.e_log - reduce_last(np.maximum, lam.e_log.T)
        self.e_theta, self.e_beta = np.exp(self.log_theta), np.exp(self.log_beta)
        self.z = np.einsum("nm,mt->nt", self.e_theta, self.e_beta)
        rows = None
        if not np.minimum.reduce(self.z, axis=None, initial=np.inf) >= _Z_FLOOR:
            rows = np.flatnonzero(~(self.z >= _Z_FLOOR).all(axis=1))
            self.z[rows] = 1.0  # a placeholder that keeps 1 / Z finite
            logger.debug("sweep: %d of %d rows took log-space responsibilities",
                         len(rows), len(counts))
        self.inv_z = 1.0 / self.z
        scaled = counts * self.inv_z
        if rows is not None:
            scaled[rows] = 0.0
        self.allocated = self.e_theta * np.einsum("nt,mt->nm", scaled, self.e_beta)
        self.profile_counts = self.e_beta * (self.e_theta.T @ scaled)
        self.guarded = None if rows is None else self._log_space(rows)

    def _log_space(self, rows: np.ndarray) -> tuple:
        """Take ``rows`` in log space: their responsibilities, allocations and
        profile counts, and their entropy summed directly (in closed form it
        would cancel log weights as low as psi(1e-6) = -1e6).  Returns the
        rows, their phi, the other rows' profile counts and that entropy."""
        log_phi = self.log_beta.T + self.log_theta[rows][:, None, :]
        log_phi -= reduce_last(np.maximum, log_phi)[:, :, None]
        phi = np.exp(log_phi)
        total = reduce_last(np.add, phi)
        phi /= total[:, :, None]
        weighted = self.counts[rows][:, :, None] * phi
        entropy = -float((weighted * (log_phi - np.log(total)[:, :, None])).sum())
        self.allocated[rows] = weighted.sum(axis=1)
        others = self.profile_counts
        self.profile_counts = others + weighted.sum(axis=0).T
        return rows, phi, others, entropy

    @_lazy
    def phi(self) -> np.ndarray:
        """The responsibilities, rows x types x sources."""
        phi = self.e_theta[:, None, :] * self.e_beta.T * self.inv_z[:, :, None]
        if self.guarded is not None:
            rows, guarded_phi, *_ = self.guarded
            phi[rows] = guarded_phi
        return phi

    @_lazy
    def entropy_z(self) -> float:
        """Count-weighted entropy of the responsibilities: since log phi = log
        e_theta + log e_beta - log Z and each (row, type) sums to one, it is
        sum c log Z - sum allocated log e_theta - sum profile_counts log e_beta,
        over the rows not taken in log space (whose Z placeholder has log 0),
        plus their entropy."""
        allocated, profile_counts, entropy = self.allocated, self.profile_counts, 0.0
        if self.guarded is not None:
            rows, _, profile_counts, entropy = self.guarded
            allocated = allocated.copy()
            allocated[rows] = 0.0
        # a scalar has no rows to keep apart, so BLAS may take its sums
        return float(np.vdot(self.counts, np.log(self.z)) - np.vdot(allocated, self.log_theta)
                     - np.vdot(profile_counts, self.log_beta)) + entropy


def _sweep_rows(
    counts: np.ndarray, a: np.ndarray, eta: np.ndarray, gamma: DirichletRows, lam: DirichletRows
) -> tuple[DirichletRows, DirichletRows, _Responsibilities]:
    """One inference sweep over sample rows (``counts``, mixing prior rows
    ``a`` and ``gamma``): the :class:`_Responsibilities` against the current
    profile posterior; each mixing posterior is its ``a`` row plus the
    counts it allocates; the profile posterior is ``eta`` plus the counts
    allocated from every row.  Returns the new gamma and lam, checked, and
    the responsibilities.
    """
    swept = _Responsibilities(counts, gamma, lam)
    return DirichletRows(a + swept.allocated), DirichletRows(eta + swept.profile_counts), swept


def _relative_step(
    gamma: np.ndarray, lam: np.ndarray, new_gamma: np.ndarray, new_lam: np.ndarray
) -> float:
    """Largest relative change of any mixing or profile parameter."""
    return max(np.abs(new_gamma / gamma - 1.0).max(), np.abs(new_lam / lam - 1.0).max())


def _expected_log_dirichlet(rows: DirichletRows, dg: np.ndarray) -> float:
    """E log Dirichlet(x | row), summed over rows, given E log x = ``dg``."""
    return float((rows.log_norm + reduce_last(np.add, rows.less_one * dg)).sum())


def _entropy_z(weighted_phi: np.ndarray, phi: np.ndarray) -> float:
    """Count-weighted entropy of the responsibilities (``weighted_phi``); 0 log 0 = 0.

    A responsibility that underflowed to 0 is logged as the smallest
    subnormal instead, which leaves its term finite: its weighted
    responsibility is 0 too, so the term is a signed zero and the sum has
    the bits of the sum that skips it.
    """
    return float(-(weighted_phi * np.log(np.maximum(phi, 5e-324))).sum())


def _bound_terms(
    counts: np.ndarray,
    a: DirichletRows,
    eta: DirichletRows,
    gamma: DirichletRows,
    phi: np.ndarray,
    lam: DirichletRows,
) -> dict[str, float]:
    """The seven bound terms, each summed over the sample rows; the profile
    block (``log_p_beta``, ``entropy_beta``) is counted once."""
    weighted_phi = phi * counts[:, :, None]
    return {
        "log_p_x": float((weighted_phi * lam.e_log.T).sum()),
        "log_p_theta": _expected_log_dirichlet(a, gamma.e_log),
        "log_p_z": float((weighted_phi.sum(axis=1) * gamma.e_log).sum()),
        "entropy_theta": -_expected_log_dirichlet(gamma, gamma.e_log),
        "entropy_z": _entropy_z(weighted_phi, phi),
        "log_p_beta": _expected_log_dirichlet(eta, lam.e_log),
        "entropy_beta": -_expected_log_dirichlet(lam, lam.e_log),
    }


def _collapsed_bound(
    a: DirichletRows, eta: DirichletRows, gamma: DirichletRows, lam: DirichletRows,
    swept: _Responsibilities,
) -> float:
    """The bound of a state (``gamma``, ``lam``) that :func:`_sweep_rows`
    just returned under priors ``a`` and ``eta``, with its responsibilities
    ``swept``, where every E log weight of the seven terms cancels (Blei, Ng
    and Jordan 2003, JMLR 3:993): the log normalisers l(a) - l(gamma) +
    l(eta) - l(lam), plus the closed-form ``entropy_z``.  It holds only for
    such a state, not for a state whose priors changed or that was not
    swept (a phase's start), so an inference phase scores only the states
    its sweeps make, and each entry of ``FitResult.elbo_trace`` is this
    bound of the state a phase returns."""
    log_norms = a.log_norm_sum - gamma.log_norm_sum + eta.log_norm_sum - lam.log_norm_sum
    return float(log_norms) + swept.entropy_z


def elbo_terms(
    counts: np.ndarray,
    a: np.ndarray,
    eta: np.ndarray,
    gamma: np.ndarray,
    phi: np.ndarray,
    lam: np.ndarray,
) -> dict[str, float]:
    """The seven bound terms of the sample rows (``counts``, mixing prior
    rows ``a``, ``gamma``, ``phi``) under the profile prior ``eta`` and the
    shared profile posterior ``lam``, keyed by their standard names; each is
    summed over the rows, and the profile block is counted once."""
    a, eta, gamma, lam = map(DirichletRows, (a, eta, gamma, lam))
    return _bound_terms(counts, a, eta, gamma, phi, lam)


def _check_terms(terms: dict[str, float], where: str = "", sweep: int | None = None) -> float:
    """The bound, the sum of ``terms``; raises naming a non-finite term, and
    ``where`` and ``sweep`` when given."""
    total = float(sum(terms.values()))
    if not np.isfinite(total):
        for name, value in terms.items():
            if not np.isfinite(value):
                message = f"bound term {name} is non-finite ({value})"
                raise NumericalFailure(f"{where}: {message}" if where else message,
                                       term=name, iteration=sweep)
    return total


def corpus_elbo(
    counts: np.ndarray,
    a: np.ndarray,
    eta: np.ndarray,
    gamma: np.ndarray,
    phi: np.ndarray,
    lam: np.ndarray,
) -> float:
    """The bound of the sample rows, the sum of their :func:`elbo_terms`
    (one row is one sample's bound); raises naming any non-finite term."""
    return _check_terms(elbo_terms(counts, a, eta, gamma, phi, lam))


def estep_sample(
    counts: SampleCounts,
    alpha_row: np.ndarray,
    eta: np.ndarray,
    gamma: np.ndarray,
    lam: np.ndarray,
    config: FitConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[float]]:
    """Coordinate-ascent sweeps for one sample that owns its profile posterior.

    ``alpha_row`` and ``eta`` are the sample's mixing and profile priors,
    ``gamma`` (sources) and ``lam`` (sources x types) the state to start
    from.  Each sweep is the one-row call of the corpus kernel
    :func:`_sweep_rows`: responsibilities from the current profile and
    mixing posteriors, then gamma and lambda from the new responsibilities
    (``lam = eta + count * phi``).  Stops once a sweep moves no gamma or
    lambda entry by more than a relative ``config.estep_tol``; at
    ``estep_max_iters`` it returns the state it has and logs a warning with
    the step left.  Returns gamma, lam, the responsibilities phi (types x
    sources) and each sweep's bound, the last that of the returned state.
    The stopping rule is the one difference from a corpus inference phase:
    near the fixed point the bound is flat, so consecutive bounds can agree
    to the last bit while the parameters still move.
    :func:`_inference_phase` keeps its bound-change stop, because changing
    it would move the stopping point of every fit.
    """
    c = counts.counts.astype(np.float64)[None]
    alpha = DirichletRows(np.asarray(alpha_row, dtype=np.float64)[None])
    eta = DirichletRows(eta)
    gamma, lam = DirichletRows(np.asarray(gamma, dtype=np.float64)[None]), DirichletRows(lam)

    bounds: list[float] = []
    for sweep in range(1, config.estep_max_iters + 1):
        new_gamma, new_lam, swept = _sweep_rows(c, alpha.rows, eta.rows, gamma, lam)
        moved = _relative_step(gamma.rows, lam.rows, new_gamma.rows, new_lam.rows)
        gamma, lam, phi = new_gamma, new_lam, swept.phi
        where = f"sweep {sweep} at location {counts.location_id}, sample {counts.sample_index}"
        bounds.append(_check_terms(_bound_terms(c, alpha, eta, gamma, phi, lam), where, sweep))
        if moved <= config.estep_tol:
            break
    else:
        logger.warning(
            "estep_sample at location %d, sample %d: still moving by %.1e after %d sweeps",
            counts.location_id,
            counts.sample_index,
            moved,
            config.estep_max_iters,
        )
    return gamma.rows[0], lam.rows, phi[0], bounds


# Each warm-start stage sweeps until its settle test holds, for at most
# _WARM_SWEEPS sweeps; the trace stage makes _WARM_PASSES passes, refreshing
# the frozen profile posterior between them.  The known stage runs to the
# cap on the bundled and benchmark corpora (lam still moves by about 1e-7
# relative).  Per-row Newton steps settle each trace-stage pass in 4-11
# sweeps there, where plain sweeps needed 57-126 for the first pass on the
# bundled and many-trace corpora, so for that stage the cap is a guard.
_WARM_SWEEPS = 50
_WARM_PASSES = 3


def _bootstrap_unknown_row(
    corpus: Corpus, lam: np.ndarray, trace_counts: np.ndarray
) -> tuple[np.ndarray, float] | None:
    """Residual-shaped starting row for a single unknown source's profile.

    Pooled trace counts (``trace_counts`` has one row per trace sample) are
    decomposed against the known profiles at the parsimony corner (knowns
    take the largest mixing weights that leave a non-negative residual);
    the residual, scaled to the trace mass it explains, seeds the unknown
    profile row.  Returns that row and the unknown share, or ``None`` when
    the corpus has no unknown source, no known source, or no trace samples.
    """
    n_known = corpus.n_known_sources
    if corpus.n_unknown_sources != 1 or n_known == 0 or len(trace_counts) == 0:
        return None
    pooled = trace_counts.sum(axis=0)
    total = pooled.sum()
    if total <= 0:
        return None
    p_hat = pooled / total
    known = lam[:n_known] / lam[:n_known].sum(axis=1, keepdims=True)
    weights = np.zeros(n_known)
    for _ in range(50):
        prev = weights.copy()
        for k in range(n_known):
            residual = p_hat - (weights @ known - weights[k] * known[k])
            ratios = residual[known[k] > 0] / known[k][known[k] > 0]
            weights[k] = max(0.0, float(ratios.min()))
        if np.abs(weights - prev).max() < 1e-12:
            break
    unknown_share = float(np.clip(1.0 - weights.sum(), 0.02, 0.98))
    residual = np.maximum(p_hat - weights @ known, 1e-8)
    residual /= residual.sum()
    return 1.0 + total * unknown_share * residual, unknown_share


def _warm_start_profiles(
    corpus: Corpus,
    counts: np.ndarray,
    a: np.ndarray,
    eta: np.ndarray,
    gamma: np.ndarray,
    known: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Stage the starting point: known samples shape the profile posterior
    before any trace sample commits its responsibilities.

    ``known`` marks the rows of known-location samples.  Starting the joint
    ascent from flat profiles lets an unidentified source lock onto a
    trace's own blend and absorb it wholesale, which is a measurably worse
    optimum; settling the pinned single-source samples first, then the
    trace responsibilities (from flat ones) against that frozen posterior,
    starts the ascent inside the right basin.  Each trace-stage pass settles
    every trace row at its own fixed point by per-row Newton steps
    (:func:`_settle_trace_rows`), and the profile posterior is then eta plus
    the counts the last sweeps of both stages allocate.  This only picks the
    starting point; the recorded bound sequence begins afterwards.  Returns
    gamma and lam, and logs at DEBUG what it chose: the known stage's sweeps
    and whether it settled; per trace-stage pass the sweeps, the Newton
    steps kept and reverted and whether it settled; and the bootstrap
    unknown share.
    """
    gamma = gamma.copy()
    known_counts, known_a = counts[known], a[known]
    known_gamma, lam = DirichletRows(gamma[known]), DirichletRows(eta)
    for known_sweeps in range(1, _WARM_SWEEPS + 1):
        known_gamma, new_lam, known_swept = _sweep_rows(
            known_counts, known_a, eta, known_gamma, lam)
        settled = np.all(np.abs(new_lam.rows - lam.rows) <= 1e-12 + 1e-10 * np.abs(lam.rows))
        lam = new_lam
        if settled:
            break
    gamma[known], lam = known_gamma.rows, lam.rows

    trace = ~known
    trace_counts, trace_a = counts[trace], a[trace]
    boot = _bootstrap_unknown_row(corpus, lam, trace_counts)
    if boot is not None:
        lam[-1] = boot[0]

    trace_gamma, trace_phi, passes = gamma[trace], 1.0 / a.shape[1], []
    for _ in range(_WARM_PASSES if trace.any() else 0):
        trace_gamma, trace_swept, sweeps, kept, reverted, done = _settle_trace_rows(
            trace_counts, trace_a, trace_gamma, trace_phi, DirichletRows(lam))
        trace_phi = trace_swept.phi
        passes.append(f"{sweeps} sweeps, {kept} Newton steps kept, {reverted} reverted, "
                      + ("settled" if done else "not settled"))
        gamma[trace] = trace_gamma
        lam = eta + known_swept.profile_counts + trace_swept.profile_counts
    logger.debug(
        "warm start: known stage %d sweeps (%s), trace stage per pass [%s], "
        "bootstrap unknown share %s", known_sweeps, "settled" if settled else "not settled",
        "; ".join(passes), "none" if boot is None else f"{boot[1]:.4g}",
    )
    return gamma, lam


def _settle_trace_rows(
    counts: np.ndarray, a: np.ndarray, gamma: np.ndarray, phi: np.ndarray | float,
    lam: DirichletRows,
) -> tuple[np.ndarray, _Responsibilities, int, int, int, bool]:
    """One pass of the warm start's trace stage: the trace rows (``counts``,
    mixing prior rows ``a``, ``gamma`` and ``phi``, which may be the flat
    1 / sources) swept against the frozen profile posterior ``lam`` until
    no responsibility moves by 1e-10 from one sweep to the next, or
    ``_WARM_SWEEPS`` sweeps.

    With ``lam`` frozen each row is its own fixed point gamma_n = a_n +
    allocated(phi(gamma_n)), whose Jacobian is K_n V_n, so the Newton step
    from gamma_n is V_n^-1 D_n^-1 r_n for the residual r_n = F(gamma_n) -
    gamma_n, on the per-sample blocks D_n of the linear-response precision
    (:func:`_sample_whitening`; the profile block drops out).  After each
    sweep that does not end the pass every row takes that step, damped to
    min(1, half the distance to the positive boundary along it) as
    :func:`_newton_point` damps (:func:`_row_newton_points`).  A row whose
    step is not finite takes its plain sweep instead, and so does every row
    when some D_n has no Cholesky factor.  So does a row whose Newton point
    has a larger residual (largest entry) than the point it stepped from:
    the next sweep shows it and is then made again from the plain sweeps of
    those rows (each row's sweep is its own, bit for bit, so the other rows
    repeat theirs).  The settle test reads the responsibilities that the
    Newton points need.  Returns the rows the last sweep allocates with its
    :class:`_Responsibilities`, the sweeps, the row steps kept and those
    reverted (by any of the three rules), and whether the pass settled.
    """
    def sweep(gamma):
        """The responsibilities at ``gamma``, its plain sweep and their residual."""
        swept = _Responsibilities(counts, DirichletRows(gamma), lam)
        new = a + swept.allocated
        return swept, new, reduce_last(np.maximum, np.abs(new - gamma))

    taken = grown = 0
    stepped, fallback, last_residual = np.zeros(len(gamma), dtype=bool), gamma, np.inf
    for sweeps in range(1, _WARM_SWEEPS + 1):
        swept, new, residual = sweep(gamma)
        worse = stepped & ~(residual <= last_residual)
        if worse.any():
            grown += int(worse.sum())
            gamma = np.where(worse[:, None], fallback, gamma)
            swept, new, residual = sweep(gamma)
        settled = np.abs(swept.phi - phi).max() < 1e-10
        phi = swept.phi
        if settled or sweeps == _WARM_SWEEPS:
            break
        point = _row_newton_points(counts, gamma, phi, new)
        stepped = np.isfinite(point).all(axis=1)
        taken += int(stepped.sum())
        fallback, last_residual = new, residual
        gamma = np.where(stepped[:, None], point, new)
    tried = (sweeps - 1) * len(gamma)
    return new, swept, sweeps, taken - grown, tried - taken + grown, bool(settled)


def _row_newton_points(
    counts: np.ndarray, gamma: np.ndarray, phi: np.ndarray, swept: np.ndarray
) -> np.ndarray:
    """Each row's damped Newton point for the trace stage
    (:func:`_settle_trace_rows`), from ``gamma`` with the ``phi`` computed
    there and its plain sweep ``swept``; every row is NaN when some row's
    block has no Cholesky factor, because the batched factorisation does
    not say which (from the flat start every row's fails)."""
    blocks = _dirichlet_log_precision(gamma)
    weighted = counts[:, :, None] * phi
    allocation = weighted.sum(axis=1)[:, :, None] * np.eye(gamma.shape[1]) - np.matmul(
        weighted.transpose(0, 2, 1), phi)
    try:
        whiten = _sample_whitening(blocks, allocation)
    except np.linalg.LinAlgError:
        return np.full_like(gamma, np.nan)
    u = np.einsum("nmk,nk->nm", whiten, swept - gamma)
    step = _sample_steps(blocks, whiten, u)
    t = np.minimum(1.0, 0.5 * _to_boundary(gamma, step))
    return gamma + t[:, None] * step


def _inference_phase(
    counts: np.ndarray,
    a: np.ndarray,
    eta: np.ndarray,
    gamma: DirichletRows,
    lam: DirichletRows,
    config: FitConfig,
) -> tuple[DirichletRows, DirichletRows, _Responsibilities, float, int]:
    """One full inference phase: sweep all sample rows and the shared
    profile posterior until the bounds of two consecutive sweeps agree to a
    relative ``estep_tol``, so at least two sweeps.  Only states a sweep has
    just made are scored, each by its :func:`_collapsed_bound`; one that is
    not finite is re-scored by the seven terms so that the failure names its
    term.  Returns gamma, lam, the last sweep's responsibilities, their
    bound and the sweep count; at ``estep_max_iters`` it returns what it has
    and logs a warning with the bound change left."""
    a, eta = DirichletRows(a), DirichletRows(eta)
    previous = None
    for sweep in range(1, config.estep_max_iters + 1):
        gamma, lam, swept = _sweep_rows(counts, a.rows, eta.rows, gamma, lam)
        current = _collapsed_bound(a, eta, gamma, lam, swept)
        if not math.isfinite(current):
            terms = _bound_terms(counts, a, eta, gamma, swept.phi, lam)
            current = _check_terms(terms, f"inference sweep {sweep}", sweep)
        if previous is not None:
            change, scale = abs(current - previous), max(abs(previous), 1e-12)
            if change <= config.estep_tol * scale:
                break
        previous = current
    else:
        if sweep == 1:
            logger.warning("inference phase: stopped at its cap after 1 sweep, "
                           "with no bound change to compare")
        else:
            logger.warning("inference phase: bound still changing by %.1e (relative) "
                           "after %d sweeps", change / scale, sweep)
    return gamma, lam, swept, current, sweep


def _fixed_point(
    counts: np.ndarray,
    a: np.ndarray,
    eta: np.ndarray,
    gamma: np.ndarray,
    lam: np.ndarray,
    tol: float,
    cap: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int, int]:
    """Sweeps of :func:`_sweep_rows` to its fixed point, accelerated by
    damped Newton steps on the linear-response precision.

    Each cycle runs a plain sweep from x, then one stabilising sweep from
    the :func:`_newton_point` of x.  That sweep's state is kept only if its
    corpus bound is finite and no lower than the plain sweep's, so the bound
    of the kept states never falls (both come straight out of a sweep, so
    that is their :func:`_collapsed_bound`); otherwise, and whenever the
    precision's block factorisation fails or the Newton step is not
    finite, the next cycle starts from the plain sweep.  Stops once a plain
    sweep moves no parameter by a relative ``tol``; ``cap`` counts every
    sweep, and reaching it logs a warning with the step left.  Returns
    gamma, lam, the responsibilities of the last sweep, the sweep count, and
    the numbers of Newton steps kept and rejected.
    """
    a, eta = DirichletRows(a), DirichletRows(eta)
    gamma, lam = DirichletRows(gamma), DirichletRows(lam)
    sweeps = accepted = rejected = 0
    while sweeps < cap:
        x = gamma, lam
        gamma, lam, swept = _sweep_rows(counts, a.rows, eta.rows, *x)
        sweeps += 1
        moved = _relative_step(x[0].rows, x[1].rows, gamma.rows, lam.rows)
        if moved < tol:
            break
        if sweeps == cap:
            continue
        try:
            point = _newton_point(counts, x, swept.phi, (gamma, lam))
        except (np.linalg.LinAlgError, ValueError):  # no Cholesky factor, or a non-finite step
            rejected += 1
            continue
        trial_gamma, trial_lam, trial = _sweep_rows(counts, a.rows, eta.rows, *point)
        sweeps += 1
        bound = _collapsed_bound(a, eta, gamma, lam, swept)
        trial_bound = _collapsed_bound(a, eta, trial_gamma, trial_lam, trial)
        if np.isfinite(trial_bound) and trial_bound >= bound:
            gamma, lam, swept = trial_gamma, trial_lam, trial
            accepted += 1
        else:
            rejected += 1
    else:
        logger.warning("fixed-prior phase still moving by %.1e after %d sweeps", moved, cap)
    return gamma.rows, lam.rows, swept.phi, sweeps, accepted, rejected


# The linear-response covariance holds at a fixed point of the fixed-prior
# bound, so the sweeps there stop on the parameter step, not on the bound:
# stopping on the inference phase's bound tolerance leaves the AT-known e2
# share's sd at 0.121 against the converged 0.111, while at a relative step
# of 1e-8 the sds agree with those at 1e-10 to 1e-5.  Plain sweeps contract
# along the mode where the unknown profile and the shares trade off by only
# about 0.997 per sweep on the criterion-8 corpora at n=1900 (up to 6,226
# sweeps to this tolerance); damped Newton steps reach it in 5-13 sweeps on
# the bundled, benchmark and criterion-8 corpora, so the cap is only a guard.
_LR_TOL = 1e-8
_LR_MAX_SWEEPS = 20000


def _dirichlet_log_precision(rows: np.ndarray) -> np.ndarray:
    """Inverse covariance of log x under Dirichlet(row), one matrix per row.

    The covariance is diag(trigamma(row)) - trigamma(row sum), so the
    Sherman-Morrison formula inverts it.
    """
    inv_d = 1.0 / zeta(2.0, rows)
    s = zeta(2.0, reduce_last(np.add, rows))
    scale = s / (1.0 - s * reduce_last(np.add, inv_d))
    return inv_d[:, :, None] * np.eye(rows.shape[1]) + scale[:, None, None] * (
        inv_d[:, :, None] * inv_d[:, None, :]
    )


def _sample_whitening(theta_blocks: np.ndarray, allocation: np.ndarray) -> np.ndarray:
    """W_n = L_n^-1 for each per-sample block D_n = V_n^-1 - K_n = L_n L_n^T
    of the linear-response precision, from the :func:`_dirichlet_log_precision`
    blocks V_n^-1 of gamma (``theta_blocks``) and the allocation terms K_n:
    each particle's allocation covariance diag(phi) - phi phi^T, weighted by
    its count and summed over the sample's types.  A ``LinAlgError`` says
    some D_n is not positive definite."""
    return np.linalg.inv(np.linalg.cholesky(theta_blocks - allocation))


def _sample_steps(theta_blocks: np.ndarray, whiten: np.ndarray, u: np.ndarray) -> np.ndarray:
    """V_n^-1 W_n^T u_n for each sample: with u_n = W_n r_n, the Newton step
    V_n^-1 D_n^-1 r_n in the mixing posterior (:func:`_sample_whitening`)."""
    return np.einsum("ijk,ik->ij", theta_blocks, np.einsum("nkm,nk->nm", whiten, u))


def _to_boundary(values: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Per row, the multiple of ``step`` that takes ``values`` to the
    positive boundary (infinite where no entry of the step is negative)."""
    return reduce_last(np.minimum, np.divide(
        values, -step, out=np.full_like(values, np.inf), where=step < 0.0))


def _linear_response_factor(
    counts: np.ndarray, theta_blocks: np.ndarray, beta_blocks: np.ndarray, phi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The linear-response precision P = V_g^-1 - B^T V_z B on its blocks.

    V_g is the block-diagonal mean-field covariance of E log theta of each
    sample and E log beta (index m*T + t), given as the
    :func:`_dirichlet_log_precision` blocks of gamma (``theta_blocks``) and
    lam (``beta_blocks``); B couples each particle's allocation (covariance
    diag(phi) - phi phi^T) to both, and the allocations are eliminated.  So
    P = [[D, -X], [-X^T, P_bb]] with one block D_n per sample
    (:func:`_sample_whitening`, with the terms ``w`` of each type kept for
    X and P_bb).  Returns W_n = L_n^-1 for each D_n = L_n
    L_n^T, the whitened cross blocks W_n X_n (samples x M x M*T) and the
    Cholesky factor L_S of S = P_bb - sum_n X_n^T D_n^-1 X_n.  P is
    positive definite exactly when every D_n and S are: a ``LinAlgError``
    from either factorisation says it is not.
    """
    (N, T, M) = phi.shape
    weighted = counts[:, :, None] * phi
    w = np.einsum("ntm,mk->ntmk", weighted, np.eye(M)) - np.einsum(
        "ntm,ntk->ntmk", weighted, phi
    )
    whiten = _sample_whitening(theta_blocks, w.sum(axis=1))
    cross = whiten @ w.transpose(0, 2, 3, 1).reshape(N, M, M * T)
    beta_beta = np.einsum("mtu,mk->mtku", beta_blocks, np.eye(M)) - np.einsum(
        "tmk,tu->mtku", w.sum(axis=0), np.eye(T))
    flat = cross.reshape(N * M, M * T)
    return whiten, cross, np.linalg.cholesky(beta_beta.reshape(M * T, M * T) - flat.T @ flat)


def _newton_point(
    counts: np.ndarray, x: tuple[DirichletRows, ...], phi: np.ndarray,
    swept: tuple[DirichletRows, ...],
) -> tuple[DirichletRows, ...]:
    """The damped Newton point for F(x) = x from x = (gamma, lam), given the
    plain sweep's F(x) (``swept``) and the ``phi`` it computed from x.

    F's Jacobian is K V (V the covariance of E log theta and E log beta, K
    the allocation term), so with P = V^-1 - K the Newton step is V^-1 s
    for P s = F(x) - x = r; on the :func:`_linear_response_factor` blocks,
    s_beta = S^-1 (r_beta + sum_n X_n^T D_n^-1 r_n) and s_n = D_n^-1 (r_n +
    X_n s_beta).  It is damped to min(1, half the distance to the positive
    boundary along it), so a finite step's point is strictly positive.  With
    the profiles frozen, s_beta = 0 and s_n = D_n^-1 r_n is the trace stage's
    per-row step (:func:`_row_newton_points`).
    """
    rows = [state.rows for state in x]
    blocks = [_dirichlet_log_precision(values) for values in rows]
    whiten, cross, s_factor = _linear_response_factor(counts, *blocks, phi)
    r_theta, r_beta = (new.rows - old for new, old in zip(swept, rows))
    u = np.einsum("nmk,nk->nm", whiten, r_theta)
    s_beta = np.linalg.solve(s_factor.T, np.linalg.solve(
        s_factor, r_beta.ravel() + np.einsum("nmb,nm->b", cross, u)))
    steps = (_sample_steps(blocks[0], whiten, u + cross @ s_beta),
             np.einsum("ijk,ik->ij", blocks[1], s_beta.reshape(r_beta.shape)))
    t = min(1.0, 0.5 * min(_to_boundary(values, step).min(initial=np.inf)
                           for values, step in zip(rows, steps)))
    return tuple(DirichletRows(values + t * step) for values, step in zip(rows, steps))


def _share_variances(
    counts: np.ndarray, gamma: np.ndarray, lam: np.ndarray, phi: np.ndarray,
    loc: np.ndarray, trace_ids: list[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Each trace location's share (its samples' mean) and that share's
    linear-response variance per source, for the ascending ``trace_ids``:
    sum_n g_n^T D_n^-1 g_n + |L_S^-1 sum_n X_n^T D_n^-1 g_n|^2 over the
    location's samples (:func:`_linear_response_factor`), with g_n its
    gradient in E log theta_n (theta = softmax(log theta))."""
    whiten, cross, s_factor = _linear_response_factor(
        counts, _dirichlet_log_precision(gamma), _dirichlet_log_precision(lam), phi)
    trace, n_traces, M = np.isin(loc, trace_ids), len(trace_ids), gamma.shape[1]
    number = np.searchsorted(trace_ids, loc[trace])
    sizes = np.bincount(number)
    shares = gamma[trace] / gamma[trace].sum(axis=1, keepdims=True)
    whitened = whiten[trace] @ (shares[:, :, None] * (np.eye(M) - shares[:, None, :])
                                / sizes[number, None, None])
    p_loc, var_share, coupled = (np.zeros((n_traces, *shape)) for shape in (
        (M,), (M,), (s_factor.shape[0], M)))
    np.add.at(p_loc, number, shares)
    np.add.at(var_share, number, (whitened**2).sum(axis=1))
    np.add.at(coupled, number, cross[trace].transpose(0, 2, 1) @ whitened)
    solved = np.linalg.solve(s_factor, coupled.transpose(1, 0, 2).reshape(-1, n_traces * M))
    return p_loc / sizes[:, None], var_share + (solved**2).sum(axis=0).reshape(n_traces, M)


def _linear_response_rows(
    corpus: Corpus, counts: np.ndarray, loc: np.ndarray, trace_ids: tuple[int, ...],
    A: np.ndarray, a: np.ndarray, eta: np.ndarray, gamma: np.ndarray, lam: np.ndarray,
) -> np.ndarray:
    """Trace mixing rows with their fitted means and linear-response
    concentrations.

    ``counts`` are the fit's sample rows, ``loc`` their location indices and
    ``trace_ids`` the ascending trace locations.  Of the fitted rows ``A``
    (an array) only the means of the trace rows are read: they are
    empirical-Bayes hyperparameters whose concentration grows with the outer
    iteration count, and a factorised posterior has no covariance along the
    line where the unknown profile and the shares trade off.  So the state
    (``gamma``, ``lam``) the fit's first inference phase returned under the
    configured priors (mixing rows ``a``, profiles ``eta``) is taken on to
    its :func:`_fixed_point` there, whose linear-response covariance
    (Giordano, Broderick and Jordan 2015, arXiv:1506.04088) gives the
    :func:`_share_variances`, and by the delta method their variances on the
    logit scale.  Each row keeps its fitted mean and takes the smallest
    concentration those imply across sources, or, with a warning naming the
    location, the flat row (concentration = number of sources) where P is
    not positive definite or the implied concentration falls below the
    number of sources.
    """
    M = corpus.n_sources
    trace_ids = list(trace_ids)
    fitted = A[trace_ids]
    means = fitted / fitted.sum(axis=1, keepdims=True)
    if M < 2 or not trace_ids:
        return fitted

    gamma, lam, phi, sweeps, accepted, rejected = _fixed_point(
        counts, a, eta, gamma, lam, _LR_TOL, _LR_MAX_SWEEPS)
    logger.debug("fixed-prior point: %d sweeps, %d Newton steps kept, %d rejected",
                 sweeps, accepted, rejected)

    try:
        p_loc, var_share = _share_variances(counts, gamma, lam, phi, loc, trace_ids)
    except np.linalg.LinAlgError:
        p_loc = var_share = np.nan
    with np.errstate(divide="ignore", invalid="ignore"):
        var_logit = var_share / (p_loc * (1.0 - p_loc)) ** 2
        implied = (1.0 / (means * (1.0 - means) * var_logit) - 1.0).min(axis=1)
    usable = np.isfinite(implied) & (implied >= M)
    for loc_id, concentration in zip(np.array(trace_ids)[~usable], implied[~usable]):
        logger.warning(
            "location %r: no usable linear-response variance of its shares "
            "(implied concentration %r); reporting the flat row with the fitted mean",
            corpus.locations[loc_id].name, float(concentration),
        )
    return means * np.where(usable, implied, M)[:, None]


def fit(corpus: Corpus, config: FitConfig | None = None) -> FitResult:
    """Alternate inference phases and hyperparameter updates to convergence.

    The state is held as arrays (one row per sample, one shared ``lam``)
    from :func:`initialize` to the returned :class:`FitResult`.
    Convergence is declared when the relative change of the corpus bound
    between consecutive inference phases is at most ``_OUTER_TOL``;
    hitting ``outer_max_iters`` first yields a result with
    ``converged=False`` rather than an error.
    The trace ids and the M-step's :class:`~dustmix.mstep.TraceRows` are
    built once, before the loop.  H and A pass through the loop as arrays:
    every pair the M-step returns is checked by the next inference phase
    (an M-step always has one after it), and the final H is checked again
    when it is wrapped for the result.
    The returned trace rows keep the fitted means and take linear-response
    concentrations: :func:`_linear_response_rows` continues from the state
    the first inference phase returned under the configured priors, and
    reads nothing else of the outer loop.  This last step never raises and
    adds nothing to ``elbo_trace``.  One warning at the end names each
    hyperparameter row that ended an M-step unconverged or on a box edge,
    and how often.
    """
    config = config or FitConfig()
    H, A, loc, counts, gamma = initialize(corpus, config)
    a, eta = A[loc], H  # the configured priors
    trace_ids = corpus.trace_location_ids
    trace = trace_rows(loc, trace_ids)
    known = np.array([corpus.locations[l].role.is_known for l in loc], dtype=bool)
    gamma, lam = map(DirichletRows, _warm_start_profiles(corpus, counts, a, eta, gamma, known))

    elbo_trace: list[float] = []
    flagged: Counter[str] = Counter()
    converged = False
    previous_total = None
    iterations = 0
    for outer in range(1, config.outer_max_iters + 1):
        iterations = outer
        gamma, lam, swept, total, sweeps = _inference_phase(counts, A[loc], H, gamma, lam, config)
        if outer == 1:
            first = gamma.rows, lam.rows  # the configured-prior state
        elbo_trace.append(total)
        logger.debug("outer %d: bound %.6f after %d sweeps", outer, total, sweeps)
        if previous_total is not None and abs(total - previous_total) <= _OUTER_TOL * max(
            abs(previous_total), 1e-12
        ):
            converged = True
            break
        previous_total = total
        if outer < config.outer_max_iters:
            H, A, notes = mstep(H, A, lam.rows, gamma.e_log, trace)
            flagged.update(notes)
    if flagged:
        steps = iterations - 1
        summary = "; ".join(f"{note} in {n} of {steps} M-steps" for note, n in flagged.items())
        logger.warning("M-step rows ended unconverged or on a box edge: %s", summary)

    return FitResult(
        H_converged=DirichletMatrix(H),
        A_converged=DirichletMatrix(
            _linear_response_rows(corpus, counts, loc, trace_ids, A, a, eta, *first)
        ),
        trace_locations=trace_ids,
        gamma=gamma.rows,
        phi=swept.phi,
        lam=lam.rows,
        elbo_trace=tuple(elbo_trace),
        converged=converged,
        iterations=iterations,
    )
