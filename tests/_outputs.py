"""The sha256 of every file that ``dustmix fit`` and ``dustmix simulate`` write.

``python tests/_outputs.py`` runs ``cmd_fit`` on the bundled AT/LQ corpus in
its three scenarios (both sources known, only AT known, only LQ known) and
``cmd_simulate`` on ``STUDY``, a small fixed spec with a second trace, in a
temporary directory.  It prints one ``<sha256>  <run>/<file>`` line per
output file.  ``manifest.json`` is left out: it holds the wall-clock time
and the input paths, which change from run to run.  Run it in two checkouts
and diff what it prints to show that a change keeps every output byte.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":  # run from a checkout: the package is in src/
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import yaml  # noqa: E402

from dustmix.cli import EXIT_ERROR, cmd_fit, cmd_simulate  # noqa: E402
from dustmix.datasets import fixture_path  # noqa: E402

# (run, known location demoted to an unknown source)
SCENARIOS = (("both-known", None), ("at-known", "LQ"), ("lq-known", "AT"))

STUDY = {
    "profiles": {"types": ["a", "b", "c"], "rows": [[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]]},
    "unknown_shares": [0.4],
    "sample_sizes": [200],
    "samples_per_trace": 3,
    "known_samples": 4,
    "second_trace": [0.7, 0.3],
    "replications": 2,
    "seed": 3,
}


def write_outputs(root: Path) -> dict[str, str]:
    """Run the three fits and the study in ``root``; the sha256 of each file
    they write but the manifests, keyed by ``<run>/<file>`` in name order."""
    lines = [line for line in fixture_path().read_text().splitlines() if line.strip()]
    config = root / "unknown_sources_1.yaml"
    config.write_text("unknown_sources: 1\n")
    codes = {}
    for run, demoted in SCENARIOS:
        corpus = root / f"{run}.csv"
        corpus.write_text("\n".join(ln for ln in lines if ln.split(",", 1)[0] != demoted) + "\n")
        codes[run] = cmd_fit(corpus, None if demoted is None else config, root / run)
    spec = root / "study.yaml"
    spec.write_text(yaml.safe_dump(STUDY))
    codes["simulate"] = cmd_simulate(spec, None, root / "simulate")
    failed = [run for run, code in codes.items() if code == EXIT_ERROR]
    if failed:
        raise RuntimeError(f"runs failed: {', '.join(failed)}")
    return {f"{run}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
            for run in codes for path in sorted((root / run).iterdir())
            if path.name != "manifest.json"}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in write_outputs(Path(tmp)).items():
            print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
