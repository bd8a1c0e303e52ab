"""Variational EM engine: coordinate-ascent inference plus hyperparameter updates.

The generative story draws the profile matrix B once for the whole corpus,
so the fit keeps one shared Dirichlet posterior over the profile rows
(``lam``, sources x types), while mixing posteriors and responsibilities
stay per sample.  The state is arrays with one row per sample: ``counts``
(N x T), ``gamma`` (N x M) and ``phi`` (N x T x M), next to the one ``lam``.

One kernel, :func:`_sweep_rows`, runs an inference sweep over any set of
rows: responsibilities and mixing posteriors against the current profile
posterior, then the profile posterior from the counts every row allocates.
Each update is the exact coordinate maximizer of the bound given the rest,
so the bound is non-decreasing sweep over sweep.  One function,
:func:`_bound_terms`, sums the seven bound terms over rows, counting the
profile block once.  :func:`estep_sample` and :func:`elbo_terms` are their
one-row calls (a sample that owns its profile posterior outright).  Right
after a sweep the terms collapse (:func:`_collapsed_bound`).  An inference
phase stops on that form and scores its start and returned states by the
seven terms, of which the next phase re-scores only the two prior terms;
the fixed point's acceptance of a Newton step compares collapsed bounds; a
single sample reads the seven terms.

Both kernels read a state (``gamma``, ``lam``) as :class:`DirichletRows`,
checked once and with its digammas and log Gammas evaluated at most once:
a sweep returns its new state in that form, with the count-weighted
responsibilities, and every loop builds its priors ``a`` and ``eta`` once.  :func:`_sweep`,
:func:`corpus_elbo` and :func:`elbo_terms` call the kernels on arrays.

The outer loop alternates inference phases with exact box-constrained updates
of the profile hyperparameters (closed form) and the trace mixing rows (one
batched Newton solve), warm-starting every phase from the previous state,
so the bound is monotone across phases too.  The box and the Newton
settings are the fixed defaults ``_BOX`` and ``_SOLVER``.  The loop carries
H and A as float arrays and builds what the M-step needs of the corpus (the
trace rows' :class:`~dustmix.mstep.TraceRows`) once per fit.  Each phase
checks the H and A it is given when it reads them as :class:`DirichletRows`;
they are wrapped as :class:`DirichletMatrix` only by :func:`_start` and for
the :class:`FitResult`.

:func:`fit` keeps its state in these arrays from the corpus to the
:class:`FitResult`; :func:`initialize` builds the same starting point as
per-sample :class:`VariationalState` objects, which serve only the
single-sample API (:func:`estep_sample`, :func:`elbo_sample`).

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
    VariationalState,
    validate_corpus,
)
from .mstep import BoxBounds, OptimizerConfig, mstep, trace_rows
from .numerics import DirichletRows, reduce_last

__all__ = [
    "FitConfig",
    "NumericalFailure",
    "corpus_elbo",
    "elbo_sample",
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


@dataclass(frozen=True)
class FitConfig:
    """Engine settings.

    ``known_weight``/``flat_weight`` build the initial mixing rows: a known
    location gets ``known_weight`` in its own source column and
    ``flat_weight`` elsewhere; trace rows start flat.  ``estep_tol`` is
    the relative bound change that ends a corpus inference phase and the
    relative parameter step that ends :func:`estep_sample`;
    ``estep_max_iters`` caps the sweeps of either.  ``outer_tol`` and
    ``outer_max_iters`` do the same for the outer loop of :func:`fit`.
    The box of the hyperparameter rows and the Newton solve's tolerance and
    step cap are fixed (``_BOX``, ``_SOLVER``).  The fit draws no random
    numbers, so it takes no seed.  Every field must be a real number (a
    bool or a string is rejected, naming the field); the two caps must be
    integral and are stored as ``int``.
    """

    known_weight: float = 150.0
    flat_weight: float = 1.0
    estep_tol: float = 1e-8
    estep_max_iters: int = 500
    outer_tol: float = 1e-6
    outer_max_iters: int = 100

    def __post_init__(self) -> None:
        for name in ("known_weight", "flat_weight", "estep_tol", "outer_tol",
                     "estep_max_iters", "outer_max_iters"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
        for name in ("known_weight", "flat_weight", "estep_tol", "outer_tol"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("estep_max_iters", "outer_max_iters"):
            value = getattr(self, name)
            if not float(value).is_integer():
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be at least 1")
            object.__setattr__(self, name, int(value))


# The box every updated hyperparameter row stays in, and the settings of the
# Newton solve that updates the trace mixing rows and any profile row the box
# clips.
_BOX = BoxBounds()
_SOLVER = OptimizerConfig()


def _start(
    corpus: Corpus, config: FitConfig
) -> tuple[DirichletMatrix, DirichletMatrix, np.ndarray, np.ndarray, np.ndarray]:
    """Validate the corpus and build the starting point as arrays.

    Returns the configured priors H and A (flat profiles, and mixing rows
    that pin each known location to its source and leave trace rows flat),
    each sample's location index ``loc``, the counts (samples x types) and
    the starting mixing posteriors ``gamma``: each sample's mixing row plus
    total_count / (n_sources * total_samples).  Samples are in corpus order.
    """
    violations = validate_corpus(corpus)
    if violations:
        raise CorpusValidationError(violations)
    a = np.full((corpus.n_locations, corpus.n_sources), config.flat_weight, dtype=np.float64)
    for i, location in enumerate(corpus.locations):
        if location.role.is_known:
            a[i, location.role.source_index] = config.known_weight
    loc = np.array([loc_id for loc_id, _ in corpus.iter_samples()], dtype=np.intp)
    counts = np.array(
        [sample.counts for _, sample in corpus.iter_samples()], dtype=np.float64
    ).reshape(-1, corpus.n_types)
    gamma = a[loc] + counts.sum(axis=1, keepdims=True) / (corpus.n_sources * len(loc))
    H = DirichletMatrix(np.ones((corpus.n_sources, corpus.n_types)), role="H")
    return H, DirichletMatrix(a, role="A"), loc, counts, gamma


def initialize(
    corpus: Corpus, config: FitConfig
) -> tuple[DirichletMatrix, DirichletMatrix, list[VariationalState]]:
    """The starting point of :func:`_start` as per-sample states, for the
    single-sample API (:func:`estep_sample`, :func:`elbo_sample`).

    Profiles start flat (all ones).  The mixing matrix pins each known
    location to its source via ``known_weight``; trace rows start flat.
    Each state's gamma is its row of the starting mixing posteriors,
    responsibilities start uniform, every state shares one profile
    posterior that starts at the profile matrix itself, and each ``elbo``
    is that sample's bound with the profile block counted in full.
    """
    H, A, loc, _, gamma = _start(corpus, config)
    M, T = corpus.n_sources, corpus.n_types
    lam = np.array(H.values, dtype=np.float64)
    states: list[VariationalState] = []
    for (loc_id, sample), gamma_row in zip(corpus.iter_samples(), gamma):
        state = VariationalState(
            location_id=loc_id,
            sample_index=sample.sample_index,
            gamma=gamma_row,
            lam=lam,
            phi=np.full((T, M), 1.0 / M),
        )
        state.elbo = elbo_sample(sample, A.values[loc_id], H, state)
        states.append(state)
    return H, A, states


def _allocated(counts: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Counts each sample row allocates to each source (rows x sources)."""
    return np.matmul(phi.transpose(0, 2, 1), counts[:, :, None])[:, :, 0]


def _responsibilities(gamma: DirichletRows, lam: DirichletRows) -> np.ndarray:
    """Profile plus mixing digammas, normalized per type in log space."""
    log_phi = lam.e_log.T + gamma.psi[:, None, :]
    log_phi -= reduce_last(np.maximum, log_phi)[:, :, None]
    phi = np.exp(log_phi)
    phi /= reduce_last(np.add, phi)[:, :, None]
    return phi


def _sweep_rows(
    counts: np.ndarray, a: np.ndarray, eta: np.ndarray, gamma: DirichletRows, lam: DirichletRows
) -> tuple[DirichletRows, DirichletRows, np.ndarray, np.ndarray]:
    """One inference sweep over sample rows (``counts``, mixing prior rows
    ``a`` and ``gamma``): the :func:`_responsibilities`; each mixing posterior
    is its ``a`` row plus the counts it allocates; the profile posterior is
    ``eta`` plus the counts allocated from every row.  Returns the new gamma
    and lam, checked, the responsibilities and the count-weighted ones.
    """
    phi = _responsibilities(gamma, lam)
    weighted = phi * counts[:, :, None]
    new_gamma, new_lam = a + _allocated(counts, phi), eta + weighted.sum(axis=0).T
    return DirichletRows(new_gamma), DirichletRows(new_lam), phi, weighted


def _sweep(
    counts: np.ndarray, a: np.ndarray, eta: np.ndarray, gamma: np.ndarray, lam: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_sweep_rows` on the state (``gamma``, ``lam``) as arrays: gamma, lam, phi."""
    gamma, lam, phi, _ = _sweep_rows(counts, a, eta, DirichletRows(gamma), DirichletRows(lam))
    return gamma.rows, lam.rows, phi


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
    a: DirichletRows, eta: DirichletRows, gamma: DirichletRows, phi: np.ndarray,
    lam: DirichletRows, weighted_phi: np.ndarray,
) -> float:
    """The bound of a state :func:`_sweep_rows` just returned under priors
    ``a`` and ``eta`` (with its responsibilities and their count-weighted
    form), where every E log weight of the seven terms cancels (Blei, Ng and
    Jordan 2003, JMLR 3:993): the log normalisers l(a) - l(gamma) + l(eta) -
    l(lam), plus ``entropy_z``.  It holds only for such a state, not for a
    state whose priors changed or that was not swept (a phase's start)."""
    log_norms = a.log_norm_sum - gamma.log_norm_sum + eta.log_norm_sum - lam.log_norm_sum
    return float(log_norms) + _entropy_z(weighted_phi, phi)


def elbo_terms(
    counts: SampleCounts,
    alpha_row: np.ndarray,
    H: DirichletMatrix,
    state: VariationalState,
) -> dict[str, float]:
    """The seven bound terms for one sample, keyed by their standard names."""
    a, eta, gamma, lam = map(DirichletRows, (
        np.asarray(alpha_row, dtype=np.float64)[None], H.values, state.gamma[None], state.lam
    ))
    c = counts.counts.astype(np.float64)[None]
    return _bound_terms(c, a, eta, gamma, state.phi[None], lam)


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


def elbo_sample(
    counts: SampleCounts,
    alpha_row: np.ndarray,
    H: DirichletMatrix,
    state: VariationalState,
) -> float:
    """Per-sample evidence lower bound; raises naming any non-finite term."""
    return _check_terms(elbo_terms(counts, alpha_row, H, state))


def corpus_elbo(
    counts: np.ndarray,
    a: np.ndarray,
    eta: np.ndarray,
    gamma: np.ndarray,
    phi: np.ndarray,
    lam: np.ndarray,
) -> float:
    """Bound of all sample rows (``counts``, mixing prior rows ``a``,
    ``gamma``, ``phi``) under the shared profile posterior ``lam``; raises
    naming any non-finite term."""
    a, eta, gamma, lam = map(DirichletRows, (a, eta, gamma, lam))
    return _check_terms(_bound_terms(counts, a, eta, gamma, phi, lam))


def estep_sample(
    counts: SampleCounts,
    alpha_row: np.ndarray,
    H: DirichletMatrix,
    state: VariationalState,
    config: FitConfig,
) -> VariationalState:
    """Coordinate-ascent sweeps for one sample that owns its profile posterior.

    Each sweep is the one-row call of the corpus kernel :func:`_sweep_rows`:
    responsibilities from the current profile and mixing posteriors, then
    gamma and lambda from the new responsibilities (``lam = eta + count *
    phi``).  Stops once a sweep moves no gamma or lambda entry by more than
    a relative ``config.estep_tol``; at ``estep_max_iters`` it returns the
    state it has and logs a warning with the step left.  Each sweep's bound
    is recorded in ``elbo_steps``.  The stopping rule is the one difference
    from a corpus inference phase: near the fixed point the bound is flat,
    so consecutive bounds can agree to the last bit while the parameters
    still move.  :func:`_inference_phase` keeps its bound-change stop,
    because changing it would move the stopping point of every fit.
    """
    c = counts.counts.astype(np.float64)[None]
    alpha = DirichletRows(np.asarray(alpha_row, dtype=np.float64)[None])
    eta = DirichletRows(H.values)
    gamma, lam = DirichletRows(state.gamma[None]), DirichletRows(state.lam)

    state.elbo_steps = []
    for sweep in range(1, config.estep_max_iters + 1):
        new_gamma, new_lam, phi, _ = _sweep_rows(c, alpha.rows, eta.rows, gamma, lam)
        moved = _relative_step(gamma.rows, lam.rows, new_gamma.rows, new_lam.rows)
        gamma, lam = new_gamma, new_lam

        state.gamma, state.lam, state.phi = gamma.rows[0], lam.rows, phi[0]
        where = f"sweep {sweep} at location {state.location_id}, sample {state.sample_index}"
        current = _check_terms(_bound_terms(c, alpha, eta, gamma, phi, lam), where, sweep)
        state.elbo = current
        state.elbo_steps.append(current)
        if moved <= config.estep_tol:
            break
    else:
        logger.warning(
            "estep_sample at location %d, sample %d: still moving by %.1e after %d sweeps",
            state.location_id,
            state.sample_index,
            moved,
            config.estep_max_iters,
        )
    return state


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
    phi: np.ndarray,
    known: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stage the starting point: known samples shape the profile posterior
    before any trace sample commits its responsibilities.

    ``known`` marks the rows of known-location samples.  Starting the joint
    ascent from flat profiles lets an unidentified source lock onto a
    trace's own blend and absorb it wholesale, which is a measurably worse
    optimum; settling the pinned single-source samples first, then the
    trace responsibilities against that frozen posterior, starts the ascent
    inside the right basin.  This only picks the starting point; the
    recorded bound sequence begins afterwards.  Returns gamma, phi and lam,
    and logs at DEBUG what it chose: the sweeps of each stage and the
    bootstrap unknown share.
    """
    gamma, phi = gamma.copy(), phi.copy()
    known_counts, known_a = counts[known], a[known]
    known_gamma, lam = DirichletRows(gamma[known]), DirichletRows(eta)
    for known_sweeps in range(1, _WARM_SWEEPS + 1):
        known_gamma, new_lam, known_phi, _ = _sweep_rows(
            known_counts, known_a, eta, known_gamma, lam)
        settled = np.all(np.abs(new_lam.rows - lam.rows) <= 1e-12 + 1e-10 * np.abs(lam.rows))
        lam = new_lam
        if settled:
            break
    gamma[known], phi[known], lam = known_gamma.rows, known_phi, lam.rows

    trace = ~known
    trace_counts, trace_a = counts[trace], a[trace]
    boot = _bootstrap_unknown_row(corpus, lam, trace_counts)
    if boot is not None:
        lam[-1] = boot[0]

    # the profile posterior is frozen within a pass, so its update is skipped
    trace_gamma, trace_phi, trace_sweeps = gamma[trace], phi[trace], []
    for _ in range(_WARM_PASSES if trace.any() else 0):
        frozen = DirichletRows(lam)
        for sweeps in range(1, _WARM_SWEEPS + 1):
            new_phi = _responsibilities(DirichletRows(trace_gamma), frozen)
            trace_gamma = trace_a + _allocated(trace_counts, new_phi)
            moved = np.abs(new_phi - trace_phi).max()
            trace_phi = new_phi
            if moved < 1e-10:
                break
        trace_sweeps.append(sweeps)
        gamma[trace], phi[trace] = trace_gamma, trace_phi
        lam = eta + (phi * counts[:, :, None]).sum(axis=0).T
    logger.debug(
        "warm start: known stage %d sweeps (%s), trace stage sweeps per pass %s, "
        "bootstrap unknown share %s", known_sweeps, "settled" if settled else "not settled",
        trace_sweeps, "none" if boot is None else f"{boot[1]:.4g}",
    )
    return gamma, phi, lam


def _inference_phase(
    counts: np.ndarray,
    a: np.ndarray,
    eta: np.ndarray,
    gamma: DirichletRows,
    phi: np.ndarray,
    lam: DirichletRows,
    config: FitConfig,
    terms: dict[str, float] | None = None,
) -> tuple[DirichletRows, np.ndarray, DirichletRows, dict[str, float], float, int]:
    """One full inference phase: sweep all sample rows and the shared
    profile posterior until the corpus bound stabilizes.  Returns gamma,
    phi, lam, their seven bound terms, the bound and the sweep count; at
    ``estep_max_iters`` it returns what it has and logs a warning with the
    bound change left.  ``terms`` are the seven terms of the start state
    under earlier priors (a previous phase's return), of which only the two
    prior terms are re-scored; without them all seven are.  The stop rule
    reads each swept state's :func:`_collapsed_bound`, re-scored by the
    seven terms when not finite so that the failure names its term."""
    a, eta = DirichletRows(a), DirichletRows(eta)
    terms = _bound_terms(counts, a, eta, gamma, phi, lam) if terms is None else {
        **terms, "log_p_theta": _expected_log_dirichlet(a, gamma.e_log),
        "log_p_beta": _expected_log_dirichlet(eta, lam.e_log)}
    previous = _check_terms(terms)
    for sweep in range(1, config.estep_max_iters + 1):
        gamma, lam, phi, weighted = _sweep_rows(counts, a.rows, eta.rows, gamma, lam)
        current = _collapsed_bound(a, eta, gamma, phi, lam, weighted)
        if not np.isfinite(current):
            terms = _bound_terms(counts, a, eta, gamma, phi, lam)
            current = _check_terms(terms, f"inference sweep {sweep}", sweep)
        change, scale = abs(current - previous), max(abs(previous), 1e-12)
        if change <= config.estep_tol * scale:
            break
        previous = current
    else:
        logger.warning(
            "inference phase: bound still changing by %.1e (relative) after %d sweeps",
            change / scale,
            config.estep_max_iters,
        )
    terms = _bound_terms(counts, a, eta, gamma, phi, lam)
    return gamma, phi, lam, terms, _check_terms(terms, f"inference sweep {sweep}", sweep), sweep


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
        gamma, lam, phi, weighted = _sweep_rows(counts, a.rows, eta.rows, *x)
        sweeps += 1
        moved = _relative_step(x[0].rows, x[1].rows, gamma.rows, lam.rows)
        if moved < tol:
            break
        if sweeps == cap:
            continue
        try:
            point = _newton_point(counts, x, phi, (gamma, lam))
        except (np.linalg.LinAlgError, ValueError):  # no Cholesky factor, or a non-finite step
            rejected += 1
            continue
        trial_gamma, trial_lam, trial_phi, trial_weighted = _sweep_rows(
            counts, a.rows, eta.rows, *point)
        sweeps += 1
        bound = _collapsed_bound(a, eta, gamma, phi, lam, weighted)
        trial_bound = _collapsed_bound(a, eta, trial_gamma, trial_phi, trial_lam, trial_weighted)
        if np.isfinite(trial_bound) and trial_bound >= bound:
            gamma, lam, phi = trial_gamma, trial_lam, trial_phi
            accepted += 1
        else:
            rejected += 1
    else:
        logger.warning("fixed-prior phase still moving by %.1e after %d sweeps", moved, cap)
    return gamma.rows, lam.rows, phi, sweeps, accepted, rejected


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


def _linear_response_factor(
    counts: np.ndarray, theta_blocks: np.ndarray, beta_blocks: np.ndarray, phi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The linear-response precision P = V_g^-1 - B^T V_z B on its blocks.

    V_g is the block-diagonal mean-field covariance of E log theta of each
    sample and E log beta (index m*T + t), given as the
    :func:`_dirichlet_log_precision` blocks of gamma (``theta_blocks``) and
    lam (``beta_blocks``); B couples each particle's allocation (covariance
    diag(phi) - phi phi^T) to both, and the allocations are eliminated.  So
    P = [[D, -X], [-X^T, P_bb]] with one block D_n per sample.  Returns W_n
    = L_n^-1 for each D_n = L_n L_n^T, the whitened cross blocks W_n X_n
    (samples x M x M*T) and the Cholesky factor L_S of S = P_bb - sum_n
    X_n^T D_n^-1 X_n.  P is positive definite exactly when every D_n and S
    are: a ``LinAlgError`` from either factorisation says it is not.
    """
    (N, T, M) = phi.shape
    weighted = counts[:, :, None] * phi
    w = np.einsum("ntm,mk->ntmk", weighted, np.eye(M)) - np.einsum(
        "ntm,ntk->ntmk", weighted, phi
    )
    whiten = np.linalg.inv(np.linalg.cholesky(theta_blocks - w.sum(axis=1)))
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
    boundary along it), so a finite step's point is strictly positive.
    """
    rows = [state.rows for state in x]
    blocks = [_dirichlet_log_precision(values) for values in rows]
    whiten, cross, s_factor = _linear_response_factor(counts, *blocks, phi)
    r_theta, r_beta = (new.rows - old for new, old in zip(swept, rows))
    u = np.einsum("nmk,nk->nm", whiten, r_theta)
    s_beta = np.linalg.solve(s_factor.T, np.linalg.solve(
        s_factor, r_beta.ravel() + np.einsum("nmb,nm->b", cross, u)))
    s_theta = np.einsum("nkm,nk->nm", whiten, u + cross @ s_beta)
    steps = [np.einsum("ijk,ik->ij", block, part)
             for block, part in zip(blocks, (s_theta, s_beta.reshape(r_beta.shape)))]
    t = min(1.0, 0.5 * min((values[step < 0.0] / -step[step < 0.0]).min(initial=np.inf)
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
    from :func:`_start` to the returned :class:`FitResult`; no per-sample
    state object is built.  Convergence is declared when the relative
    change of the corpus bound between consecutive inference phases drops
    below ``config.outer_tol``; hitting ``outer_max_iters`` first yields a
    result with ``converged=False`` rather than an error.
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
    H, A, loc, counts, gamma = _start(corpus, config)
    H, A = H.values, A.values  # the loop carries them as arrays
    a, eta = A[loc], H  # the configured priors
    trace_ids = corpus.trace_location_ids
    trace = trace_rows(loc, trace_ids)
    M, T = corpus.n_sources, corpus.n_types
    known = np.array([corpus.locations[l].role.is_known for l in loc], dtype=bool)
    phi = np.full((len(loc), T, M), 1.0 / M)
    gamma, phi, lam = _warm_start_profiles(corpus, counts, a, eta, gamma, phi, known)
    gamma, lam, terms = DirichletRows(gamma), DirichletRows(lam), None

    elbo_trace: list[float] = []
    flagged: Counter[str] = Counter()
    converged = False
    previous_total = None
    iterations = 0
    for outer in range(1, config.outer_max_iters + 1):
        iterations = outer
        gamma, phi, lam, terms, total, sweeps = _inference_phase(
            counts, A[loc], H, gamma, phi, lam, config, terms
        )
        if outer == 1:
            first = gamma.rows, lam.rows  # the configured-prior state
        elbo_trace.append(total)
        logger.debug("outer %d: bound %.6f after %d sweeps", outer, total, sweeps)
        if previous_total is not None and abs(total - previous_total) <= config.outer_tol * max(
            abs(previous_total), 1e-12
        ):
            converged = True
            break
        previous_total = total
        if outer < config.outer_max_iters:
            H, A, notes = mstep(H, A, lam.rows, gamma.e_log, trace, _BOX, _SOLVER)
            flagged.update(notes)
    if flagged:
        steps = iterations - 1
        summary = "; ".join(f"{note} in {n} of {steps} M-steps" for note, n in flagged.items())
        logger.warning("M-step rows ended unconverged or on a box edge: %s", summary)

    return FitResult(
        H_converged=DirichletMatrix(H, role="H"),
        A_converged=DirichletMatrix(
            _linear_response_rows(corpus, counts, loc, trace_ids, A, a, eta, *first), role="A"
        ),
        trace_locations=trace_ids,
        gamma=gamma.rows,
        phi=phi,
        lam=lam.rows,
        elbo_trace=tuple(elbo_trace),
        converged=converged,
        iterations=iterations,
    )
