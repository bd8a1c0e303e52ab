import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import dustmix
from dustmix.mstep import BoxBounds, OptimizerConfig
from dustmix.vbi import FitConfig, NumericalFailure
import dustmix.cli as cli
from dustmix.cli import (
    IngestError,
    build_fit_config,
    cmd_fit,
    cmd_report,
    cmd_simulate,
    ingest_csv,
    load_config,
    load_study_spec,
    main,
)
from dustmix.datasets import fixture_path

HEADER = "location,role,a,b,c"


def write_csv(tmp_path, rows, header=HEADER):
    path = tmp_path / "corpus.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    return path


class TestIngest:
    def test_bundled_fixture(self):
        corpus = ingest_csv(fixture_path())
        assert corpus.n_locations == 4
        assert corpus.n_samples == 26
        assert corpus.catalog.n_types == 14
        assert corpus.source_names == ("AT", "LQ")
        trace_rows = [corpus.locations[i] for i in corpus.trace_location_ids]
        assert [l.name for l in trace_rows] == ["e1", "e2"]
        assert trace_rows[0].samples[0].counts.tolist() == [
            312, 31, 5, 12, 5, 16, 9, 7, 1, 32, 12, 151, 1, 17,
        ]

    def test_unknown_sources_forwarded(self):
        corpus = ingest_csv(fixture_path(), unknown_sources=0)
        assert corpus.n_sources == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="cannot read"):
            ingest_csv(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(IngestError, match="empty"):
            ingest_csv(path)

    def test_bad_header(self, tmp_path):
        path = write_csv(tmp_path, ["x,known:s,1,1,1"], header="loc,role,a,b,c")
        with pytest.raises(IngestError, match="header"):
            ingest_csv(path)

    def test_column_count_mismatch(self, tmp_path):
        path = write_csv(tmp_path, ["k,known:s,1,2"])
        with pytest.raises(IngestError, match=":2"):
            ingest_csv(path)

    def test_negative_count_coordinates(self, tmp_path):
        path = write_csv(tmp_path, ["k,known:s,1,-2,0"])
        with pytest.raises(IngestError, match=r":2: column 4"):
            ingest_csv(path)

    def test_non_integer_count(self, tmp_path):
        path = write_csv(tmp_path, ["k,known:s,1,x,0"])
        with pytest.raises(IngestError, match="not an integer"):
            ingest_csv(path)

    def test_unknown_role(self, tmp_path):
        path = write_csv(tmp_path, ["k,mystery,1,1,1"])
        with pytest.raises(IngestError, match="role"):
            ingest_csv(path)

    def test_conflicting_roles(self, tmp_path):
        path = write_csv(tmp_path, ["k,known:s,1,1,1", "k,trace,1,1,1"])
        with pytest.raises(IngestError, match="conflicting roles"):
            ingest_csv(path)

    def test_duplicate_source_claim(self, tmp_path):
        path = write_csv(tmp_path, ["k1,known:s,1,1,1", "k2,known:s,2,2,2"])
        with pytest.raises(IngestError, match="claimed by both"):
            ingest_csv(path)

    def test_empty_sample_row(self, tmp_path):
        path = write_csv(tmp_path, ["k,known:s,0,0,0"])
        with pytest.raises(IngestError, match="no particles"):
            ingest_csv(path)


class TestConfig:
    def test_defaults_without_file(self):
        config = load_config(None)
        fit_config = build_fit_config(config)
        assert fit_config.known_weight == 150.0
        assert fit_config.outer_tol == 1e-6
        assert fit_config == FitConfig()
        assert set(config) == {"unknown_sources", "fit", "report"}
        assert config["report"]["hpdi_mass"] == 0.95

    def test_empty_file_means_defaults(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("")
        assert load_config(path) == load_config(None)

    def test_overrides(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump({
            "unknown_sources": 1,
            "fit": {"outer_max_iters": 7, "known_weight": 99.0},
        }))
        config = load_config(path)
        fit_config = build_fit_config(config)
        assert config["unknown_sources"] == 1
        assert fit_config.outer_max_iters == 7
        assert fit_config.known_weight == 99.0

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("fit:\n  typo_key: 3\n")
        with pytest.raises(ValueError, match="typo_key"):
            load_config(path)
        path.write_text("mystery: 1\n")
        with pytest.raises(ValueError, match="mystery"):
            load_config(path)
        # settings that never reached the engine were removed, not ignored
        for section, key in (("fit", "scale_updates_by_count"),
                             ("fit", "rng_seed"),
                             ("report", "sample_diagnostics")):
            path.write_text(yaml.safe_dump({section: {key: 1}}))
            with pytest.raises(ValueError, match=f"unknown keys in config section.*{key}"):
                load_config(path)

    def test_solver_sections_rejected(self, tmp_path):
        # the M-step box and Newton settings are fixed, not configurable
        path = tmp_path / "config.yaml"
        for section, block in (("optimizer", {"max_iters": 4}), ("bounds", {"upper": 50.0})):
            path.write_text(yaml.safe_dump({section: block}))
            with pytest.raises(ValueError, match=f"unknown config keys: {section}"):
                load_config(path)
        with pytest.raises(TypeError):
            FitConfig(bounds=BoxBounds())
        with pytest.raises(TypeError):
            FitConfig(optimizer=OptimizerConfig())

    def test_seed_override(self, tmp_path, quick_config):
        # the fit draws no random numbers; the seed is provenance only
        out = tmp_path / "run"
        cmd_fit(fixture_path(), quick_config, out, seed=42)
        assert json.loads((out / "manifest.json").read_text())["seed"] == 42


@pytest.fixture(scope="module")
def quick_config(tmp_path_factory):
    # deliberately truncated run: fast and exercises the non-converged path
    path = tmp_path_factory.mktemp("cfg") / "quick.yaml"
    path.write_text(yaml.safe_dump({"fit": {"outer_max_iters": 2}}))
    return path


class TestCmdFit:
    def test_exit_codes_and_outputs(self, tmp_path, quick_config):
        out = tmp_path / "run"
        code = cmd_fit(fixture_path(), quick_config, out)
        assert code == 2  # truncated run does not converge
        for name in ("report.json", "summary.csv", "elbo_trace.csv", "manifest.json"):
            assert (out / name).exists(), name
        assert (out / "theta_e1_at.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert manifest["converged"] is False
        assert len(manifest["inputs"]) == 2
        assert all(len(item["sha256"]) == 64 for item in manifest["inputs"])

    def test_missing_file_is_error(self, tmp_path, capsys):
        code = cmd_fit(tmp_path / "absent.csv", None, tmp_path / "out")
        assert code == 1
        assert "absent.csv" in capsys.readouterr().err

    def test_output_dir_protected(self, tmp_path, quick_config):
        out = tmp_path / "run"
        out.mkdir()
        (out / "keep.txt").write_text("old")
        code = cmd_fit(fixture_path(), quick_config, out)
        assert code == 1
        assert (out / "keep.txt").read_text() == "old"
        code = cmd_fit(fixture_path(), quick_config, out, force=True)
        assert code == 2

    def test_numerical_failure_is_error(self, tmp_path, monkeypatch, capsys):
        def failing_fit(corpus, config):
            raise NumericalFailure("bound term entropy_z is not finite", term="entropy_z")

        monkeypatch.setattr(cli, "fit", failing_fit)
        code = cmd_fit(fixture_path(), None, tmp_path / "run")
        assert code == 1
        assert capsys.readouterr().err == "error: bound term entropy_z is not finite\n"

    def test_unknown_source_without_trace_sample_is_error(self, tmp_path, capsys):
        corpus = write_csv(tmp_path, ["k0,known:s,5,1,1", "k1,known:r,1,5,1"])
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump({"unknown_sources": 1}))
        code = cmd_fit(corpus, config, tmp_path / "run")
        assert code == cli.EXIT_ERROR
        assert "[unknown-without-trace]" in capsys.readouterr().err
        assert not (tmp_path / "run" / "report.json").exists()

    @pytest.mark.parametrize("text, field", [
        ("fit: {outer_max_iters: 2.5}\n", "outer_max_iters"),
        ("fit: {estep_tol: 1e-8}\n", "estep_tol"),  # PyYAML reads 1e-8 as a string
        ("unknown_sources: 1.7\n", "unknown_sources"),
    ])
    def test_mistyped_config_value_is_error(self, tmp_path, capsys, text, field):
        config = tmp_path / "config.yaml"
        config.write_text(text)
        code = cmd_fit(fixture_path(), config, tmp_path / "run")
        assert code == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not (tmp_path / "run").exists()

    def test_report_subcommand(self, tmp_path, quick_config, capsys):
        out = tmp_path / "run"
        cmd_fit(fixture_path(), quick_config, out)
        assert cmd_report(out) == 0
        text = capsys.readouterr().out
        assert "e1" in text and "AT" in text
        assert cmd_report(tmp_path / "nowhere") == 1


@pytest.fixture(scope="module")
def tiny_study_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("spec") / "study.yaml"
    path.write_text(yaml.safe_dump({
        "profiles": {
            "types": ["a", "b", "c", "d"],
            "rows": [[0.7, 0.2, 0.05, 0.05], [0.05, 0.1, 0.25, 0.6]],
        },
        "unknown_shares": [0.3],
        "sample_sizes": [60],
        "samples_per_trace": 2,
        "known_samples": 3,
        "replications": 1,
        "seed": 5,
    }))
    return path


class TestCmdSimulate:
    def test_runs_and_writes(self, tmp_path, tiny_study_spec):
        out = tmp_path / "study"
        code = cmd_simulate(tiny_study_spec, None, out)
        assert code in (0, 2)
        assert (out / "study_cells.csv").exists()
        assert (out / "study_aggregate.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 5

    def test_seed_contract(self, tmp_path, tiny_study_spec):
        out1, out2, out3 = (tmp_path / n for n in ("s1", "s2", "s3"))
        cmd_simulate(tiny_study_spec, None, out1, seed=7)
        cmd_simulate(tiny_study_spec, None, out2, seed=7)
        cmd_simulate(tiny_study_spec, None, out3, seed=8)
        first = (out1 / "study_cells.csv").read_text()
        assert first == (out2 / "study_cells.csv").read_text()
        assert first != (out3 / "study_cells.csv").read_text()

    def test_spec_validation(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("unknown_key: 1\n")
        with pytest.raises(ValueError, match="unknown_key"):
            load_study_spec(path)
        path.write_text("replications: 0\n")
        with pytest.raises(ValueError, match="replications"):
            load_study_spec(path)

    @pytest.mark.parametrize("text, key", [
        ("replications: 1.5\n", "replications"),
        ("replications: true\n", "replications"),
        ("sample_sizes: [1e2]\n", "sample_sizes"),  # PyYAML reads 1e2 as a string
        ("sample_sizes: [100, 700.5]\n", "sample_sizes"),
        ("sample_sizes: 100\n", "sample_sizes"),
        ("samples_per_trace: '5'\n", "samples_per_trace"),
        ("known_samples: 2.5\n", "known_samples"),
        ("known_sample_size: 300.5\n", "known_sample_size"),
        ("seed: 0.5\n", "seed"),
    ])
    def test_mistyped_integer_is_error(self, tmp_path, text, key):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        with pytest.raises(ValueError, match=key):
            load_study_spec(path)

    def test_integral_floats_are_read_as_integers(self, tmp_path):
        path = tmp_path / "study.yaml"
        path.write_text("sample_sizes: [100.0]\nreplications: 2.0\nknown_sample_size: 300\n")
        study = load_study_spec(path)
        assert study.sample_sizes == (100,) and study.replications == 2
        assert type(study.replications) is int and study.known_particles_per_sample == 300

    def test_at_lq_profile_shortcut(self, tmp_path):
        path = tmp_path / "study.yaml"
        path.write_text(yaml.safe_dump({"unknown_shares": [0.5], "sample_sizes": [100]}))
        study = load_study_spec(path)
        assert study.true_profiles.shape == (2, 14)
        assert study.catalog.n_types == 14


class TestMain:
    def test_import_leaves_out_scipy_stats(self):
        # scipy.stats adds about 22 MB of resident memory and 0.3 s at import;
        # PyYAML is read only with a config file or a study spec
        env = {**os.environ, "PYTHONPATH": str(Path(dustmix.__file__).resolve().parents[1])}
        code = ("import sys, dustmix, dustmix.cli; "
                "print(sorted(m for m in ('scipy.stats', 'yaml') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.strip() == "[]"

    def test_fit_imports_no_optimize_linalg_or_stats(self, tmp_path):
        # scipy.optimize and scipy.linalg cost about 0.26 s and 23 MB at start-up
        env = {**os.environ, "PYTHONPATH": str(Path(dustmix.__file__).resolve().parents[1])}
        code = (
            "import sys, dustmix, dustmix.cli\n"
            "from dustmix.datasets import fixture_path\n"
            f"dustmix.cli.cmd_fit(fixture_path(), None, {str(tmp_path / 'run')!r})\n"
            "print(sorted(m for m in ('scipy.optimize', 'scipy.linalg', 'scipy.stats')"
            " if m in sys.modules))"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip() == "[]"
        assert (tmp_path / "run" / "report.json").exists()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_fit_dispatch(self, tmp_path, quick_config):
        out = tmp_path / "cli-run"
        code = main(["fit", str(fixture_path()), "--config", str(quick_config),
                     "--out", str(out)])
        assert code == 2
        assert (out / "report.json").exists()
