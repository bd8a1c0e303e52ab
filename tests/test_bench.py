"""The benchmark in ``bench/`` still runs against ``src/``.

The benchmark calls ``cmd_fit`` and ``run_study`` with ``threads=1``, builds
corpora from ``Corpus``, ``Location`` and ``SampleCounts`` by hand and reads
``FitResult.A_converged`` and ``trace_locations``.  One pass of each
workload at its smoke size shows a change that breaks any of these here,
not first in a benchmark run.  ``atlq-cli`` makes its pass at its own size,
about 0.2 s, so each of its three bundled scenarios must reach its
reference bound here too: the smoke size fits both-known alone.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_workload_runs_one_clean_pass(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads
    from hooks import Hooks

    for name, workload in workloads.WORKLOADS.items():
        pass_dir = tmp_path / name / "pass"
        pass_dir.mkdir(parents=True)
        size = workload.size if name == "atlq-cli" else workloads.SMOKE_SIZES[name]
        inputs = workload.setup(1, pass_dir.parent, size)
        result = workload.run_pass(inputs, pass_dir, Hooks())
        assert result.outcomes, name
        if name == "atlq-cli":
            # the AT-known and LQ-known gates keep 3.0e-6 and 1.7e-6
            # relative above their references, both-known 1.5e-8
            assert [o.label for o in result.outcomes] == list(workloads.REFERENCE_BOUND)
        assert {o.label: o.problems for o in result.outcomes if o.problems} == {}, name
        assert all(o.fit_s > 0 for o in result.outcomes), name

