"""The pinned fits of ``tests/test_vbi.py``: their corpora, digests and recorder.

Four files pin fits: ``bundled_fits.json`` (the three bundled scenarios),
``study_grid_fits.json`` (the six fits of a serial ``run_study`` over the
pooled AT/LQ profiles), ``many_trace_fit.json`` and
``three_source_fit.json``.  Each pin holds the iteration count, the full
bound trace, sha256 digests of the float64 bytes of the EB-path arrays and
the linear-response trace rows.  The tests and the recorder build the
corpora and the digests here, so they cannot drift apart.

``python tests/_pins.py`` refits every pinned corpus and re-records the
bound traces alone, printing each file's largest relative move.  It writes
nothing when an iteration count or a digest moved, or a trace row moved by
more than the tests allow: those pin the fit's outputs, which a change to
how the bound is summed must leave alone.

``python tests/_pins.py --record-moved`` is for a change meant to move a
fit's outputs.  It re-records every pin in full (iterations, bound trace,
digests and trace rows) and prints each key whose iteration count, digests
or trace rows moved, with what moved and the largest relative move of the
trace rows and of the bound trace (over the iterations both have).
"""

import hashlib
import json
import sys
from pathlib import Path

if __name__ == "__main__":  # run from a checkout: the package is in src/
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from dustmix import simulator, vbi  # noqa: E402
from dustmix.datasets import at_lq_corpus, at_lq_point_profiles  # noqa: E402
from dustmix.model import ParticleCatalog  # noqa: E402
from dustmix.simulator import ScenarioSpec, StudySpec, generate_corpus, run_study  # noqa: E402
from dustmix.vbi import FitConfig, fit  # noqa: E402

PINS = Path(__file__).parent

# the linear-response rows come from a fixed point good to about 1e-6
A_RTOL = 2e-6


def digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def digests(result) -> dict[str, str]:
    """The :func:`digest` of each EB-path array of a fit."""
    arrays = {"H_converged": result.H_converged.values, "gamma": result.gamma,
              "phi": result.phi, "lam": result.lam}
    return {name: digest(values) for name, values in arrays.items()}


def bundled_corpus(scenario: str):
    """The bundled corpus of ``scenario``: both sources known, or one of
    them dropped to an unknown source."""
    dropped = {"both_known": None, "at_known": "LQ", "lq_known": "AT"}[scenario]
    return at_lq_corpus() if dropped is None else at_lq_corpus(unknown_sources=1,
                                                               drop_known=dropped)


def study_grid_fits() -> dict:
    """The six fits of a serial run_study over the pooled AT/LQ profiles
    (shares 0.1/0.5/0.9, n = 1900, 2 replications, seed 0), keyed like
    their pins, each with the sweep counts of its inference phases."""
    names, profiles = at_lq_point_profiles()
    spec = StudySpec(catalog=ParticleCatalog(names), true_profiles=profiles,
                     unknown_shares=(0.1, 0.5, 0.9), sample_sizes=(1900,), replications=2,
                     rng_seed=0)
    fits, sweeps = [], []
    original_fit, phase = simulator.fit, vbi._inference_phase

    def capture(corpus, config):
        sweeps.append([])
        fits.append(original_fit(corpus, config))
        return fits[-1]

    def counting(*args):
        result = phase(*args)
        sweeps[-1].append(result[-1])
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "fit", capture)
        mp.setattr(vbi, "_inference_phase", counting)
        cells = run_study(spec, FitConfig()).cells
    keys = [f"share {cell.unknown_share}, n {cell.sample_size}, replication {cell.replication}"
            for cell in cells]
    return dict(zip(keys, zip(fits, sweeps)))


def many_trace_corpus():
    """The many-traces design: AT known from 12 samples, LQ unknown; 24
    trace locations of 2 samples at 350 particles, the LQ share of location
    j drawn from the j-th of 24 equal strata of [0.05, 0.95];
    generate_corpus at seed 0."""
    names, profiles = at_lq_point_profiles()
    design = np.random.default_rng(0)
    shares = 0.05 + 0.9 * (np.arange(24) + design.uniform(size=24)) / 24
    spec = ScenarioSpec(catalog=ParticleCatalog(names), true_profiles=profiles,
                        trace_mixtures=tuple((1.0 - u, u) for u in shares),
                        particles_per_sample=350, samples_per_trace=2, known_sample_counts=(12,))
    return generate_corpus(spec, design)


def three_source_corpus():
    """Three sources: AT and LQ known from 6 samples each, a third unknown
    whose profile is the LQ row in reverse type order, renormalised; 3
    trace locations of 3 samples at 400 particles; generate_corpus at seed
    0."""
    names, profiles = at_lq_point_profiles()
    third = profiles[1, ::-1] / profiles[1, ::-1].sum()
    spec = ScenarioSpec(catalog=ParticleCatalog(names), true_profiles=np.vstack([profiles, third]),
                        trace_mixtures=((0.6, 0.1, 0.3), (0.2, 0.5, 0.3), (0.3, 0.3, 0.4)),
                        particles_per_sample=400, samples_per_trace=3, known_sample_counts=(6, 6))
    return generate_corpus(spec, np.random.default_rng(0))


def pinned_fits() -> dict:
    """Each pin file's name with its fits by pin key (``None`` for a file
    that pins one fit)."""
    return {
        "bundled_fits.json": {scenario: fit(bundled_corpus(scenario), FitConfig())
                              for scenario in ("both_known", "at_known", "lq_known")},
        "study_grid_fits.json": {key: result for key, (result, _) in study_grid_fits().items()},
        "many_trace_fit.json": {None: fit(many_trace_corpus(), FitConfig())},
        "three_source_fit.json": {None: fit(three_source_corpus(), FitConfig())},
    }


def _relative_move(new, old) -> float:
    """Largest relative difference of ``new`` from ``old`` over their
    common leading entries."""
    n = min(len(new), len(old))
    new, old = np.asarray(new[:n], dtype=np.float64), np.asarray(old[:n], dtype=np.float64)
    return float(np.max(np.abs(new / old - 1.0), initial=0.0))


def main(argv: list[str]) -> int:
    if argv not in ([], ["--record-moved"]):
        print("usage: python tests/_pins.py [--record-moved]", file=sys.stderr)
        return 2
    record_moved = bool(argv)
    recorded = {}
    for name, fits in pinned_fits().items():
        pins = json.loads((PINS / name).read_text())
        moved = 0.0
        for key, result in fits.items():
            pin = pins if key is None else pins[key]
            label = name if key is None else f"{name} [{key}]"
            rows = result.A_converged.values
            if record_moved:
                changed = [f"iterations {pin['iterations']} -> {result.iterations}"] \
                    if result.iterations != pin["iterations"] else []
                arrays = [array for array, value in digests(result).items()
                          if value != pin["sha256"][array]]
                if arrays:
                    changed.append("digests of " + ", ".join(arrays))
                if not np.array_equal(rows, pin["A_converged"]):
                    changed.append("A_converged")
                if changed:
                    print(f"{label}: moved {'; '.join(changed)}; largest relative move "
                          f"A_converged {_relative_move(rows, pin['A_converged']):.2g}, "
                          f"elbo_trace {_relative_move(result.elbo_trace, pin['elbo_trace']):.2g}")
                pin.update(iterations=result.iterations, sha256=digests(result),
                           A_converged=rows.tolist())
            elif result.iterations != pin["iterations"] or digests(result) != pin["sha256"]:
                print(f"{label}: iteration count or digests moved; nothing written",
                      file=sys.stderr)
                return 1
            elif not np.allclose(rows, pin["A_converged"], rtol=A_RTOL, atol=0):
                print(f"{label}: trace rows moved by more than {A_RTOL}; nothing written",
                      file=sys.stderr)
                return 1
            moved = max(moved, _relative_move(result.elbo_trace, pin["elbo_trace"]))
            pin["elbo_trace"] = list(result.elbo_trace)
        recorded[name] = pins
        print(f"{name}: largest relative elbo_trace move {moved:.2g}")
    for name, pins in recorded.items():
        (PINS / name).write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
