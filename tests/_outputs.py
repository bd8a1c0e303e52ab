"""The sha256 of every file that ``dustmix fit`` and ``dustmix simulate`` write,
and of what ``dustmix report`` prints.

``python tests/_outputs.py`` runs ``cmd_fit`` on the bundled AT/LQ corpus in
its three scenarios (both sources known, only AT known, only LQ known) and
``cmd_simulate`` on ``STUDY``, a small fixed spec with a second trace, in a
temporary directory.  It saves the text ``cmd_report`` prints on each fit
run as ``<run>/report.txt``, and prints one ``<sha256>  <run>/<file>`` line
per file.  A ``manifest.json`` is hashed without its ``wall_clock_s``
line and with each input path cut to its file name, the two things in it
that change from run to run.

``tests/outputs.sha256`` holds the listing it prints, and
``test_outputs_tool_digests_every_written_file`` compares a fresh run with
it, so a change that alters an output byte fails that test.  A change meant
to alter outputs re-records the listing with
``python tests/_outputs.py > tests/outputs.sha256`` and says which lines
moved.
"""

import contextlib
import hashlib
import json
import re
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":  # run from a checkout: the package is in src/
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import yaml  # noqa: E402

from dustmix.cli import EXIT_ERROR, EXIT_OK, cmd_fit, cmd_report, cmd_simulate  # noqa: E402
from dustmix.datasets import fixture_path  # noqa: E402

RECORDED = Path(__file__).with_name("outputs.sha256")

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


def digest(path: Path) -> str:
    """The sha256 of a written file; of a manifest without its wall-clock
    time and with its input paths cut to file names."""
    if path.name != "manifest.json":
        return hashlib.sha256(path.read_bytes()).hexdigest()
    text = path.read_text()
    for item in json.loads(text)["inputs"]:
        text = text.replace(json.dumps(item["path"]), json.dumps(Path(item["path"]).name))
    text = re.sub(r'\n *"wall_clock_s": [^\n]*', "", text)
    return hashlib.sha256(text.encode()).hexdigest()


def write_outputs(root: Path) -> dict[str, str]:
    """Run the three fits and the study in ``root``, and save what
    ``cmd_report`` prints on each fit run; the digest of each file, keyed by
    ``<run>/<file>`` in name order."""
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
    for run, _ in SCENARIOS:
        with (root / run / "report.txt").open("w") as text, contextlib.redirect_stdout(text):
            if cmd_report(root / run) != EXIT_OK:
                raise RuntimeError(f"report failed: {run}")
    return {f"{run}/{path.name}": digest(path)
            for run in codes for path in sorted((root / run).iterdir())}


def listing(digests: dict[str, str]) -> str:
    """One ``<sha256>  <run>/<file>`` line per digest, as ``main`` prints."""
    return "".join(f"{digest}  {name}\n" for name, digest in digests.items())


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        print(listing(write_outputs(Path(tmp))), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
