"""Independent oracles used by the tests.

The fixed-point and Beta oracles are implemented directly on mpmath at 64
decimal digits; the exact-posterior sampler at the end is plain numpy.
Everything here deliberately shares no code with the package under test.
"""

from __future__ import annotations

import csv
from pathlib import Path

import mpmath as mp
import numpy as np

mp.mp.dps = 64


def fixed_point_2x2(max_sweeps: int = 100000):
    """Coordinate fixed point of the two-source/two-type instance.

    alpha=(1,1), profile hyperparameters ((2,1),(1,2)), counts (3,1);
    starting point: gamma = alpha + total/(sources * samples) with one
    sample, responsibilities uniform, profile posterior at the profile
    hyperparameters.  Returns (gamma, lam, phi, terms) as mpmath values.
    """
    alpha = [mp.mpf(1), mp.mpf(1)]
    eta = [[mp.mpf(2), mp.mpf(1)], [mp.mpf(1), mp.mpf(2)]]
    c = [mp.mpf(3), mp.mpf(1)]
    M, T = 2, 2
    gamma = [alpha[m] + mp.mpf(4) / (M * 1) for m in range(M)]
    lam = [[eta[m][t] for t in range(T)] for m in range(M)]
    phi = [[mp.mpf(1) / M for _ in range(M)] for _ in range(T)]

    prev = None
    for _ in range(max_sweeps):
        dg = [
            [mp.digamma(lam[m][t]) - mp.digamma(lam[m][0] + lam[m][1]) for t in range(T)]
            for m in range(M)
        ]
        new_phi = []
        for t in range(T):
            logp = [dg[m][t] + mp.digamma(gamma[m]) for m in range(M)]
            mx = max(logp)
            w = [mp.e ** (lp - mx) for lp in logp]
            s = sum(w)
            new_phi.append([wi / s for wi in w])
        phi = new_phi
        gamma = [alpha[m] + sum(c[t] * phi[t][m] for t in range(T)) for m in range(M)]
        lam = [[eta[m][t] + c[t] * phi[t][m] for t in range(T)] for m in range(M)]
        snap = tuple(gamma) + tuple(v for row in lam for v in row)
        if prev is not None and max(abs(a - b) for a, b in zip(snap, prev)) < mp.mpf(10) ** -50:
            break
        prev = snap

    dg_l = [
        [mp.digamma(lam[m][t]) - mp.digamma(lam[m][0] + lam[m][1]) for t in range(T)]
        for m in range(M)
    ]
    dg_g = [mp.digamma(gamma[m]) - mp.digamma(gamma[0] + gamma[1]) for m in range(M)]
    lg = mp.loggamma
    terms = {
        "log_p_x": sum(c[t] * phi[t][m] * dg_l[m][t] for t in range(T) for m in range(M)),
        "log_p_theta": lg(alpha[0] + alpha[1]) - lg(alpha[0]) - lg(alpha[1])
        + sum((alpha[m] - 1) * dg_g[m] for m in range(M)),
        "log_p_z": sum(c[t] * phi[t][m] * dg_g[m] for t in range(T) for m in range(M)),
        "log_p_beta": sum(
            lg(eta[m][0] + eta[m][1]) - lg(eta[m][0]) - lg(eta[m][1])
            + sum((eta[m][t] - 1) * dg_l[m][t] for t in range(T))
            for m in range(M)
        ),
        "entropy_theta": -lg(gamma[0] + gamma[1]) + lg(gamma[0]) + lg(gamma[1])
        - sum((gamma[m] - 1) * dg_g[m] for m in range(M)),
        "entropy_z": -sum(
            c[t] * phi[t][m] * mp.log(phi[t][m]) for t in range(T) for m in range(M)
        ),
        "entropy_beta": sum(
            -lg(lam[m][0] + lam[m][1]) + lg(lam[m][0]) + lg(lam[m][1])
            - sum((lam[m][t] - 1) * dg_l[m][t] for t in range(T))
            for m in range(M)
        ),
    }
    return gamma, lam, phi, terms


# Frozen fixed-point values from the oracle above (64-digit run, converged
# after 310 sweeps; regenerate with fixed_point_2x2()).
FROZEN_2X2 = {
    "gamma": (3.9675097783960888071, 2.0324902216039111929),
    "lam": ((4.5818196846497660704, 1.3856900937463227367),
            (1.4181803153502339296, 2.6143099062536772633)),
    "phi": ((0.86060656154992202347, 0.13939343845007797653),
            (0.38569009374632273665, 0.61430990625367726335)),
    "terms": {
        "log_p_x": -2.2958041787638473293,
        "log_p_theta": 0.0,
        "log_p_z": -2.6664819512238056161,
        "log_p_beta": 0.58752613757129914264,
        "entropy_theta": -0.35583713001553653413,
        "entropy_z": 1.8783637311871470146,
        "entropy_beta": -0.77308531905603561232,
    },
    "elbo": -3.6253187103007789346,
}


def beta_cdf(x: float, a: float, b: float) -> float:
    return float(mp.betainc(mp.mpf(a), mp.mpf(b), 0, mp.mpf(x), regularized=True))


def beta_interval_mass(lo: float, hi: float, a: float, b: float) -> float:
    """Probability mass of [lo, hi] at high precision.

    Direct quadrature loses mass on extremely peaked shapes, so the
    regularized incomplete beta difference is used instead (still fully
    independent of the package's incomplete-beta implementation).
    """
    a, b = mp.mpf(a), mp.mpf(b)
    return float(
        mp.betainc(a, b, 0, mp.mpf(hi), regularized=True)
        - mp.betainc(a, b, 0, mp.mpf(lo), regularized=True)
    )


def beta_hpdi_check(lo: float, hi: float, a: float, b: float) -> tuple[float, float]:
    """(mass of [lo, hi], log f(hi) - log f(lo)) under Beta(a, b).

    The mass is tanh-sinh quadrature of the density split at the mode, which
    stays accurate for shapes up to 1e5 where mpmath's incomplete beta
    series stops converging; for a < 1 it integrates over t = x^a, which
    takes out the x^(a-1) singularity.  20 digits suffice for a 1e-10
    check.  The gap is nan when an endpoint sits at 0 or 1.
    """
    with mp.workdps(20):
        a, b, lo, hi = mp.mpf(a), mp.mpf(b), mp.mpf(lo), mp.mpf(hi)
        log_norm = mp.loggamma(a + b) - mp.loggamma(a) - mp.loggamma(b)

        def log_density(x):
            return (a - 1) * mp.log(x) + (b - 1) * mp.log1p(-x) + log_norm

        if a < 1:
            mass = mp.quad(lambda t: (1 - t ** (1 / a)) ** (b - 1), [lo**a, hi**a])
            mass *= mp.exp(log_norm) / a
        else:
            points = [lo, hi]
            if a > 1 and b > 1 and lo < (a - 1) / (a + b - 2) < hi:
                points.insert(1, (a - 1) / (a + b - 2))
            mass = mp.quad(lambda x: mp.exp(log_density(x)), points)
        gap = log_density(hi) - log_density(lo) if 0 < lo and hi < 1 else mp.nan
        return float(mass), float(gap)


BUNDLED_CSV = Path(__file__).resolve().parents[1] / "src" / "dustmix" / "data" / "at_lq.csv"


def bundled_counts(path: Path = BUNDLED_CSV) -> dict[str, np.ndarray]:
    """Count matrix (samples x types) of each location in the bundled CSV."""
    rows: dict[str, list[list[int]]] = {}
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            rows.setdefault(row[0], []).append([int(v) for v in row[2:]])
    return {name: np.array(counts, dtype=np.int64) for name, counts in rows.items()}


def gibbs_trace_shares(
    known: list[np.ndarray],
    traces: list[np.ndarray],
    n_sources: int,
    sweeps: int,
    burn_in: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and sd of every trace sample's share of every source.

    The model is the package's with flat Dirichlet(1) priors on each share
    and each profile, and with the known samples pinned: every particle of
    ``known[k]`` (samples x types) comes from source k.  Sources from
    ``len(known)`` on are unknown.  ``traces`` holds one count vector per
    trace sample.  Blocked Gibbs: allocate each trace sample's particles of
    each type to sources, then draw the shares and the profiles given the
    allocation.
    """
    rng = np.random.default_rng(seed)
    x = np.stack(traces)
    pinned = np.zeros((n_sources, x.shape[1]))
    for k, counts in enumerate(known):
        pinned[k] = counts.sum(axis=0)
    theta = np.full((x.shape[0], n_sources), 1.0 / n_sources)
    beta = (pinned + 1.0) / (pinned + 1.0).sum(axis=1, keepdims=True)
    total = np.zeros_like(theta)
    total_sq = np.zeros_like(theta)
    for sweep in range(burn_in + sweeps):
        p = theta[:, None, :] * beta.T[None, :, :]
        alloc = rng.multinomial(x, p / p.sum(axis=2, keepdims=True))
        g = rng.standard_gamma(1.0 + alloc.sum(axis=1))
        theta = g / g.sum(axis=1, keepdims=True)
        g = rng.standard_gamma(1.0 + pinned + alloc.sum(axis=0).T)
        beta = g / g.sum(axis=1, keepdims=True)
        if sweep >= burn_in:
            total += theta
            total_sq += theta * theta
    mean = total / sweeps
    return mean, np.sqrt(total_sq / sweeps - mean * mean)


# Exact-posterior sd of the bundled traces' shares (with two sources, both
# shares of a trace have the same sd), keyed by scenario and trace.  Mean
# of three chains of gibbs_trace_shares (sweeps=200000, burn_in=2000,
# seeds 1-3); the chains agree to within 0.0024 on every value.  Posterior
# means of the unknown share: AT-known e2 0.774, LQ-known e1 0.919 and
# e2 0.205.
EXACT_SHARE_SD = {
    "both-known": {"e1": 0.0240, "e2": 0.0296},
    "at-known": {"e1": 0.0254, "e2": 0.0756},
    "lq-known": {"e1": 0.0423, "e2": 0.0325},
}

# Exact-posterior mean of the second source's share of each bundled trace
# (LQ when both sources are known, else the unknown source), keyed like
# EXACT_SHARE_SD and from the same three chains; they agree to within
# 0.0035 on AT-known e2 and to within 0.0006 on every other value.
EXACT_SHARE_MEAN = {
    "both-known": {"e1": 0.0991, "e2": 0.8007},
    "at-known": {"e1": 0.0960, "e2": 0.7731},
    "lq-known": {"e1": 0.9193, "e2": 0.2052},
}
