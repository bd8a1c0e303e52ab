"""The benchmark in ``bench/`` still runs against ``src/``.

The benchmark calls ``cmd_fit`` and ``run_study`` with ``threads=1``, builds
corpora from ``Corpus``, ``Location`` and ``SampleCounts`` by hand and reads
``FitResult.A_converged`` and ``trace_locations``.  One pass of each
workload at its smoke size shows a change that breaks any of these here,
not first in a benchmark run.
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
        inputs = workload.setup(1, pass_dir.parent, workloads.SMOKE_SIZES[name])
        result = workload.run_pass(inputs, pass_dir, Hooks())
        assert result.outcomes, name
        assert {o.label: o.problems for o in result.outcomes if o.problems} == {}, name
        assert all(o.fit_s > 0 for o in result.outcomes), name
