import csv
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import pytest
import yaml

import dustmix
from dustmix.vbi import FitConfig, NumericalFailure
import dustmix.cli as cli
from dustmix.cli import (
    IngestError,
    cmd_fit,
    cmd_report,
    cmd_simulate,
    ingest_csv,
    load_config,
    load_study_spec,
    main,
)
from dustmix.datasets import fixture_path
from dustmix.simulator import StudySpec
import _outputs

HEADER = "location,role,a,b,c"

MANIFEST_KEYS = ["tool", "version", "command", "inputs", "config", "seed", "wall_clock_s",
                 "iterations", "converged"]


# the keys that ``dustmix report`` reads of a report.json, with no marginals
LEAST_REPORT = {"provenance": {"converged": True, "iterations": 3}, "mass": 0.95,
                "theta": {}, "beta": {}}


def write_csv(tmp_path, rows, header=HEADER):
    path = tmp_path / "corpus.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    return path


def read_manifest(out, inputs):
    """``out/manifest.json``, after checking its keys in order and that it
    records each of ``inputs`` with the sha256 of its bytes."""
    manifest = json.loads((out / "manifest.json").read_text())
    assert list(manifest) == MANIFEST_KEYS
    assert manifest["inputs"] == [
        {"path": str(path), "sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest()}
        for path in inputs]
    return manifest


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

    @pytest.mark.parametrize("cell", ["1_0", "+1", "\u0661\u0662", "-", "1e3"])
    def test_count_is_ascii_decimal_digits(self, tmp_path, cell):
        # int() reads the first three as 10, 1 and 12
        path = write_csv(tmp_path, [f"k,known:s,1,{cell},0"])
        with pytest.raises(IngestError, match=r":2: column 4 \('b'\): not an integer"):
            ingest_csv(path)

    def test_count_fits_in_int64(self, tmp_path, capsys):
        largest = 2**63 - 1
        path = write_csv(tmp_path, [f"k,known:s,0,{largest},0"])
        assert ingest_csv(path).locations[0].samples[0].counts.tolist() == [0, largest, 0]
        for value in (2**63, 2**64):
            path = write_csv(tmp_path, [f"k,known:s,1,{value},0"])
            with pytest.raises(IngestError,
                               match=rf":2: column 4 \('b'\): count {value} does not fit"):
                ingest_csv(path)
        assert cmd_fit(path, None, tmp_path / "run") == cli.EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"error: {path}:2: column 4")

    def test_total_fits_in_int64(self, tmp_path, capsys):
        # both counts fit; their int64 sum would wrap to a negative total
        largest = 2**63 - 1
        path = write_csv(tmp_path, [f"k,known:s,1,{largest},0"])
        with pytest.raises(IngestError,
                           match=rf":2: total count {largest + 1} does not fit in a 64-bit"):
            ingest_csv(path)
        assert cmd_fit(path, None, tmp_path / "run") == cli.EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"error: {path}:2: total count")

    def test_errors_name_the_file_line(self, tmp_path):
        # blank lines are skipped but still counted
        path = tmp_path / "corpus.csv"
        path.write_text(f"{HEADER}\n\nk,known:s,1,1,1\n\nt,trace,1,x,1\n")
        with pytest.raises(IngestError, match=rf"^{path}:5: column 4 \('b'\): not an integer"):
            ingest_csv(path)

    @pytest.mark.parametrize("separator", ["\u2028", "\x85"])
    def test_unicode_line_separator_stays_in_its_field(self, tmp_path, separator):
        # only \n and \r end a CSV line; str.splitlines also breaks at these
        path = tmp_path / "corpus.csv"
        path.write_text(f"{HEADER}\nk{separator}1,known:s,1,1,1\nk2,known:r,1,3,1\n"
                        "t,trace,1,2,1\n", encoding="utf-8")
        assert [l.name for l in ingest_csv(path).locations] == [f"k{separator}1", "k2", "t"]

    def test_quoted_line_break_stays_in_its_field(self, tmp_path):
        path = write_csv(tmp_path, ['"e\n1",known:s,1,1,1', "k2,known:r,1,3,1", "t,trace,1,2,1"])
        assert [l.name for l in ingest_csv(path).locations] == ["e\n1", "k2", "t"]
        # the record after it starts on file line 4
        path = write_csv(tmp_path, ['"e\n1",known:s,1,1,1', "t,trace,x,2,1"])
        with pytest.raises(IngestError, match=rf"^{path}:4: column 3 \('a'\)"):
            ingest_csv(path)

    def test_utf8_byte_order_mark(self, tmp_path):
        # the "CSV UTF-8" that spreadsheet programs save starts with one
        path = write_csv(tmp_path, ["k,known:s,1,2,0", "k2,known:r,0,2,1", "t,trace,3,1,1"])
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        corpus = ingest_csv(path)
        assert corpus.catalog.type_names == ("a", "b", "c")
        assert [(l.name, l.samples[0].counts.tolist()) for l in corpus.locations] == [
            ("k", [1, 2, 0]), ("k2", [0, 2, 1]), ("t", [3, 1, 1])]

    def test_not_utf8(self, tmp_path, capsys):
        path = write_csv(tmp_path, ["k,known:s,1,2,0"])
        path.write_bytes(path.read_bytes().replace(b"k,", "\u00e9,".encode("latin-1")))
        with pytest.raises(IngestError, match=f"^{path}: not UTF-8 text"):
            ingest_csv(path)
        assert cmd_fit(path, None, tmp_path / "run") == cli.EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8 text")

    def test_field_over_csv_limit(self, tmp_path, capsys):
        # the csv module refuses a field of more than 131,072 characters
        path = write_csv(tmp_path, ["x" * 200_000 + ",known:s,1,2,0", "t,trace,1,2,1"])
        with pytest.raises(IngestError, match=rf"^{path}:2: field larger than field limit"):
            ingest_csv(path)
        assert cmd_fit(path, None, tmp_path / "run") == cli.EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"error: {path}:2: field larger than")

    def test_duplicate_type_names(self, tmp_path):
        path = write_csv(tmp_path, ["k,known:s,1,1,1"], header="location,role,a,b,a")
        with pytest.raises(IngestError, match=f"^{path}: catalog type names must be unique"):
            ingest_csv(path)

    def test_blank_type_name(self, tmp_path):
        # a blank type once became a report label '' and a file beta_a_.csv
        path = write_csv(tmp_path, ["k,known:s,1,1"], header="location,role, ,b")
        with pytest.raises(IngestError, match=f"^{path}: catalog type names must not be blank"):
            ingest_csv(path)

    def test_empty_location_name(self, tmp_path):
        path = write_csv(tmp_path, [" ,known:s,1,1,1"])
        with pytest.raises(IngestError, match=f"^{path}:2: empty location name"):
            ingest_csv(path)

    def test_empty_source_name(self, tmp_path):
        path = write_csv(tmp_path, ["k,known: ,1,1,1"])
        with pytest.raises(IngestError, match=f"^{path}: location 'k' claims an empty source"):
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
        fit_config = FitConfig(**config["fit"])
        assert list(config["fit"]) == ["flat_weight", "estep_tol", "estep_max_iters",
                                       "outer_max_iters"]
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
            "fit": {"outer_max_iters": 7, "flat_weight": 2.5},
        }))
        config = load_config(path)
        fit_config = FitConfig(**config["fit"])
        assert config["unknown_sources"] == 1
        assert fit_config.outer_max_iters == 7
        assert fit_config.flat_weight == 2.5

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("fit:\n  typo_key: 3\n")
        with pytest.raises(ValueError, match="typo_key"):
            load_config(path)
        path.write_text("mystery: 1\n")
        with pytest.raises(ValueError, match="mystery"):
            load_config(path)
        # settings that never reached the engine were removed, not ignored, and
        # the control-pinning weight and the outer tolerance are engine constants
        for section, key in (("fit", "scale_updates_by_count"),
                             ("fit", "rng_seed"),
                             ("report", "sample_diagnostics"),
                             ("fit", "known_weight"),
                             ("fit", "outer_tol")):
            path.write_text(yaml.safe_dump({section: {key: 1}}))
            with pytest.raises(ValueError,
                               match=f"config section '{section}' holds unknown keys: {key}$"):
                load_config(path)

    def test_every_unknown_key_is_named_by_one_rule(self, tmp_path, capsys):
        # the top level, a section and a study spec refuse unknown keys alike,
        # and name every one, a key that is not a string too (it once raised a
        # TypeError out of cmd_fit)
        path = tmp_path / "config.yaml"
        path.write_text("zeta: 1\n1: 2\nfit: {alpha: 1, outer_max_iters: 3}\n")
        with pytest.raises(ValueError) as refused:
            load_config(path)
        assert str(refused.value) == f"{path}: config holds unknown keys: 1, zeta"
        assert cmd_fit(fixture_path(), path, tmp_path / "run") == cli.EXIT_ERROR
        assert capsys.readouterr().err == f"error: {refused.value}\n"
        path.write_text("fit: {2: 1, alpha: 1, outer_max_iters: 3}\n")
        with pytest.raises(ValueError) as refused:
            load_config(path)
        assert str(refused.value) == "config section 'fit' holds unknown keys: 2, alpha"
        path.write_text("replications: 1\n3: 1\ntypo: 1\n")
        with pytest.raises(ValueError) as refused:
            load_study_spec(path)
        assert str(refused.value) == f"{path}: study spec holds unknown keys: 3, typo"

    def test_solver_sections_rejected(self, tmp_path):
        # the M-step box and Newton settings are fixed, not configurable
        path = tmp_path / "config.yaml"
        for section, block in (("optimizer", {"max_iters": 4}), ("bounds", {"upper": 50.0})):
            path.write_text(yaml.safe_dump({section: block}))
            with pytest.raises(ValueError, match=f"config holds unknown keys: {section}$"):
                load_config(path)
        with pytest.raises(TypeError):
            FitConfig(bounds=None)
        with pytest.raises(TypeError):
            FitConfig(optimizer=None)

    def test_seed_override(self, tmp_path):
        # only a study draws random numbers: the seed argument (``--seed``)
        # overrides its spec's seed, and the fit takes no seed
        path = tmp_path / "study.yaml"
        path.write_text(yaml.safe_dump(TINY_STUDY))
        assert load_study_spec(path).rng_seed == 5
        assert load_study_spec(path, seed=9).rng_seed == 9
        with pytest.raises(TypeError):
            cmd_fit(fixture_path(), None, tmp_path / "run", seed=9)

    @pytest.mark.parametrize("text, message", [
        ("- 1\n- 2\n", "config must be a mapping"),
        ("fit: 3\n", "config section 'fit' must be a mapping"),
        ("unknown_sources: -1\n", "unknown_sources must be a non-negative integer, got -1"),
    ])
    def test_malformed_config_is_named(self, tmp_path, text, message):
        path = tmp_path / "config.yaml"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_config(path)


@pytest.fixture(scope="module")
def quick_config(tmp_path_factory):
    # deliberately truncated run: fast and exercises the non-converged path
    path = tmp_path_factory.mktemp("cfg") / "quick.yaml"
    path.write_text(yaml.safe_dump({"fit": {"outer_max_iters": 2}}))
    return path


class TestCmdFit:
    def test_converged_fit_exits_ok(self, tmp_path):
        out = tmp_path / "run"
        assert cmd_fit(fixture_path(), None, out) == cli.EXIT_OK
        manifest = read_manifest(out, [fixture_path()])  # no config file to record
        assert manifest["converged"] is True
        assert manifest["seed"] is None  # the fit draws no random numbers

    def test_config_not_utf8_is_named(self, tmp_path, capsys):
        # and a config that is not valid YAML, whose PyYAML error is no ValueError
        config = tmp_path / "config.yaml"
        for data, message in (
                ("# caf\u00e9\nfit: {outer_max_iters: 2}\n".encode("latin-1"), "not UTF-8 text"),
                (b"fit: [unclosed\n", "not valid YAML")):
            config.write_bytes(data)
            assert cmd_fit(fixture_path(), config, tmp_path / "run") == cli.EXIT_ERROR
            assert capsys.readouterr().err.startswith(f"error: {config}: {message}")

    def test_output_path_is_a_file(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.write_text("")
        assert cmd_fit(fixture_path(), None, out) == cli.EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: output path {out} exists and is not a directory\n")

    def test_exit_codes_and_outputs(self, tmp_path, quick_config):
        out = tmp_path / "run"
        code = cmd_fit(fixture_path(), quick_config, out)
        assert code == 2  # truncated run does not converge
        for name in ("report.json", "summary.csv", "elbo_trace.csv", "manifest.json"):
            assert (out / name).exists(), name
        assert (out / "theta_e1_at.csv").exists()
        manifest = read_manifest(out, [fixture_path(), quick_config])
        assert manifest["command"] == "fit"
        assert manifest["converged"] is False

    def test_manifest_records_the_one_thread_the_fit_ran_on(self, tmp_path, quick_config):
        # every run is on one thread, so the manifest records no thread count
        out = tmp_path / "run"
        assert cmd_fit(fixture_path(), quick_config, out, threads=4) == cli.EXIT_NOT_CONVERGED
        assert "threads" not in read_manifest(out, [fixture_path(), quick_config])

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

    def test_row_solve_error_is_error(self, tmp_path, monkeypatch, capsys):
        # a ValueError from the M-step's row solve reaches cmd_fit as itself;
        # it was once re-raised as a RuntimeError that ended in a traceback
        def failing_solve(stat, n_samples, x0):
            raise ValueError("row solve failed")

        monkeypatch.setattr("dustmix.mstep.maximize_rows", failing_solve)
        assert cmd_fit(fixture_path(), None, tmp_path / "run") == cli.EXIT_ERROR
        assert capsys.readouterr().err == "error: row solve failed\n"

    def test_unknown_source_without_trace_sample_is_error(self, tmp_path, capsys):
        corpus = write_csv(tmp_path, ["k0,known:s,5,1,1", "k1,known:r,1,5,1"])
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump({"unknown_sources": 1}))
        code = cmd_fit(corpus, config, tmp_path / "run")
        assert code == cli.EXIT_ERROR
        assert "[unknown-without-trace]" in capsys.readouterr().err
        assert not (tmp_path / "run" / "report.json").exists()

    @pytest.mark.parametrize("dropped, unknown_sources", [(("LQ",), 0), (("AT", "LQ"), 1)])
    def test_one_source_with_a_trace_is_refused(self, tmp_path, monkeypatch, capsys, dropped,
                                                unknown_sources):
        # the share row of a lone source gives Beta(w, 0): ingest_csv refuses
        # such a corpus, so cmd_fit neither fits it nor makes the directory
        def no_fit(corpus, config):
            raise AssertionError("cmd_fit fitted a corpus it refuses")

        monkeypatch.setattr(cli, "fit", no_fit)
        lines = fixture_path().read_text().splitlines()
        corpus = tmp_path / "corpus.csv"
        corpus.write_text("\n".join(ln for ln in lines if ln.split(",", 1)[0] not in dropped))
        config = tmp_path / "config.yaml"
        config.write_text(f"unknown_sources: {unknown_sources}\n")
        assert cmd_fit(corpus, config, tmp_path / "run") == cli.EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: {corpus}: corpus failed validation: [single-source-trace] a trace "
            "location's shares need at least two sources, the corpus has one\n")
        assert not (tmp_path / "run").exists()

    def test_report_names_each_source_by_its_location(self, tmp_path, quick_config):
        # the name after "known:" only has to be unique: the report names a
        # source by its location, here site1 and site2, never AT and LQ
        corpus = write_csv(tmp_path, [
            "site1,known:AT,5,1,1", "site1,known:AT,6,1,2", "site2,known:LQ,1,5,1",
            "site2,known:LQ,1,6,2", "t,trace,3,3,1"])
        assert ingest_csv(corpus).source_names == ("site1", "site2")
        out = tmp_path / "run"
        assert cmd_fit(corpus, quick_config, out) == cli.EXIT_NOT_CONVERGED  # truncated
        report = json.loads((out / "report.json").read_text())
        assert list(report["beta"]) == ["site1", "site2"]
        assert [row["label"] for row in report["theta"]["t"]] == ["site1", "site2"]

    @pytest.mark.parametrize("text, field", [
        ("fit: {outer_max_iters: 2.5}\n", "outer_max_iters"),
        ("fit: {estep_tol: 1e-8}\n", "estep_tol"),  # PyYAML reads 1e-8 as a string
        ("unknown_sources: 1.7\n", "unknown_sources"),
        ("report: {hpdi_mass: '0.9'}\n", "report.hpdi_mass"),
        ("report: {hpdi_mass: 1.5}\n", "report.hpdi_mass"),
        ("report: {hpdi_mass: 0}\n", "report.hpdi_mass"),
        ("report: {hpdi_mass: true}\n", "report.hpdi_mass"),
        ("report: {hpdi_mass: .nan}\n", "report.hpdi_mass"),
        ("fit: {estep_tol: .inf}\n", "estep_tol"),
        ("fit: {outer_tol: .inf}\n", "outer_tol"),  # an engine constant: an unknown key
        ("fit: {flat_weight: .inf}\n", "flat_weight"),
        ("fit: {known_weight: .inf}\n", "known_weight"),  # likewise
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
        # the base of the malformed payloads below prints as it is
        (tmp_path / "report.json").write_text(json.dumps(LEAST_REPORT))
        assert cmd_report(tmp_path) == cli.EXIT_OK
        assert capsys.readouterr().out.startswith("converged: True   iterations: 3\n")

    @pytest.mark.parametrize("payload", [
        [],
        {**LEAST_REPORT, "theta": []},
        {**LEAST_REPORT, "theta": {"e1": [{"label": "AT", "hpdi_lo": 0.1, "hpdi_hi": 0.3}]}},
        {**LEAST_REPORT, "beta": {"AT": [{"label": "a"}]}},
        {**LEAST_REPORT, "mass": "0.95"},
        {},
        {"beta": {}},
    ], ids=["list", "theta-list", "row-without-mean", "profile-without-mean", "mass-string",
            "empty", "beta-only"])
    def test_malformed_report_is_error(self, tmp_path, capsys, payload):
        # a missing key was once read as a default: {} printed "converged: None"
        path = tmp_path / "report.json"
        path.write_text(json.dumps(payload))
        assert cmd_report(tmp_path) == cli.EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: malformed {path}: ")


TINY_STUDY = {
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
}


@pytest.fixture(scope="module")
def tiny_study_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("spec") / "study.yaml"
    path.write_text(yaml.safe_dump(TINY_STUDY))
    return path


@pytest.fixture(scope="module")
def converging_study_spec(tmp_path_factory):
    # the tiny study with larger samples, whose one cell converges
    path = tmp_path_factory.mktemp("spec") / "study.yaml"
    path.write_text(yaml.safe_dump(
        {**TINY_STUDY, "sample_sizes": [200], "samples_per_trace": 3, "known_samples": 4}))
    return path


class TestCmdSimulate:
    def test_runs_and_writes(self, tmp_path, tiny_study_spec):
        out = tmp_path / "study"
        code = cmd_simulate(tiny_study_spec, None, out)
        assert code in (0, 2)
        assert (out / "study_cells.csv").exists()
        assert (out / "study_aggregate.csv").exists()
        manifest = read_manifest(out, [tiny_study_spec])
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 5
        # only the section a study reads, without a study_seed that repeated the seed
        assert manifest["config"] == {"fit": asdict(FitConfig())}

    @pytest.mark.parametrize("text, key", [
        ("unknown_sources: 1\n", "unknown_sources"),
        ("report: {hpdi_mass: 0.9}\n", "report"),
    ])
    def test_config_sections_a_study_does_not_read_are_refused(
            self, tmp_path, tiny_study_spec, capsys, text, key):
        # a study fits one unknown source and builds no report
        config = tmp_path / "config.yaml"
        config.write_text(text)
        assert cmd_simulate(tiny_study_spec, config, tmp_path / "out") == cli.EXIT_ERROR
        assert capsys.readouterr().err == f"error: {config}: config holds unknown keys: {key}\n"
        assert not (tmp_path / "out").exists()

    def test_fit_section_is_read(self, tmp_path, tiny_study_spec):
        config = tmp_path / "config.yaml"
        config.write_text("fit: {outer_max_iters: 3}\n")
        out = tmp_path / "study"
        assert cmd_simulate(tiny_study_spec, config, out) in (cli.EXIT_OK, cli.EXIT_NOT_CONVERGED)
        manifest = read_manifest(out, [tiny_study_spec, config])
        assert manifest["config"] == {"fit": asdict(FitConfig(outer_max_iters=3))}
        assert all(int(row["iterations"]) <= 3 for row in
                   csv.DictReader((out / "study_cells.csv").read_text().splitlines()))

    def test_converged_study_exits_ok(self, tmp_path, converging_study_spec):
        out = tmp_path / "study"
        assert cmd_simulate(converging_study_spec, None, out) == cli.EXIT_OK
        assert json.loads((out / "manifest.json").read_text())["converged"] is True

    def test_spec_not_utf8_is_named(self, tmp_path, capsys):
        # and a spec that is not valid YAML, whose PyYAML error is no ValueError
        path = tmp_path / "study.yaml"
        for data, message in (("# caf\u00e9\nreplications: 1\n".encode("latin-1"), "not UTF-8 text"),
                              (b"unknown_shares: [0.5\n", "not valid YAML")):
            path.write_bytes(data)
            assert cmd_simulate(path, None, tmp_path / "out") == cli.EXIT_ERROR
            assert capsys.readouterr().err.startswith(f"error: {path}: {message}")

    @pytest.mark.parametrize("text, message", [
        ("- 1\n", "study spec must be a mapping"),
        ("profiles: pooled\n", "profiles must be 'at_lq' or a mapping with 'types' and 'rows'"),
        ("profiles: {types: [a, b], rows: [[1, 2], [2, 1]], typo: 1}\n", "and no other key"),
        ("profiles: {types: 3, rows: [[1, 2]]}\n", "profiles.types must be a list of names"),
        ("profiles: {types: ab, rows: [[1, 2], [2, 1]]}\n", "profiles.types must be a list"),
        ("profiles: {types: [[1], [2]], rows: [[1, 2], [2, 1]]}\n", "profiles.types must be"),
        ("profiles: {types: [a, b], rows: {x: 1}}\n", "profiles.rows must be a list of lists"),
        ("profiles: {types: [a, ' '], rows: [[1, 2], [2, 1]]}\n", "names must not be blank"),
        ("profiles: {types: [a, b], rows: [[1, 2], [0, 0]]}\n", "positive sum, got \\[0, 0\\]"),
        # aggregate() matches cells by value, so a repeat once gave two
        # identical rows with negative failure counts
        ("unknown_shares: [0.4, 0.4]\n", "unknown_shares repeats a value: \\[0.4, 0.4\\]"),
        ("sample_sizes: [100, 70, 100]\n", "sample_sizes repeats a value: \\[100, 70, 100\\]"),
    ])
    def test_malformed_spec_is_named(self, tmp_path, text, message, capsys):
        # a malformed profiles block once raised a TypeError, a RuntimeWarning
        # or nothing at all; simulate now exits 1 with one error line
        path = tmp_path / "study.yaml"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_study_spec(path)
        assert cmd_simulate(path, None, tmp_path / "out") == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

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
        with pytest.raises(ValueError, match="study spec holds unknown keys: unknown_key$"):
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

    @pytest.mark.parametrize("text, key", [
        ("unknown_shares: 0.5\n", "unknown_shares"),
        ("unknown_shares: ['0.5']\n", "unknown_shares"),
        ("unknown_shares: [true]\n", "unknown_shares"),
        ("second_trace: 0.5\n", "second_trace"),
        ("second_trace: [true, false]\n", "second_trace"),
        ("second_trace: ['0.5', '0.5']\n", "second_trace"),
    ])
    def test_mistyped_share_is_error(self, tmp_path, text, key, capsys):
        # shares are lists of real numbers; a bare number, a bool or a
        # string is refused by name, and simulate exits 1 without a traceback
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        with pytest.raises(ValueError, match=key):
            load_study_spec(path)
        assert cmd_simulate(path, None, tmp_path / "out") == cli.EXIT_ERROR
        assert key in capsys.readouterr().err

    def test_zero_known_sample_size_is_error(self, tmp_path):
        # 0 once read as "not given", so the control samples silently took
        # the trace samples' particle count
        path = tmp_path / "bad.yaml"
        path.write_text("known_sample_size: 0\n")
        with pytest.raises(ValueError, match="known_sample_size must be at least 1"):
            load_study_spec(path)

    def test_integral_floats_are_read_as_integers(self, tmp_path):
        path = tmp_path / "study.yaml"
        path.write_text("sample_sizes: [100.0]\nreplications: 2.0\nknown_sample_size: 300\n")
        study = load_study_spec(path)
        assert study.sample_sizes == (100,) and study.replications == 2
        assert type(study.replications) is int and study.known_sample_size == 300

    def test_keys_are_the_fields_of_their_name(self, tmp_path):
        # the keys are StudySpec's fields less the two that profiles resolves
        # and rng_seed, which seed maps; each value lands on its field
        defaults = {f.name: f.default for f in fields(StudySpec)}
        spec = {"unknown_shares": [0.2, 0.6], "sample_sizes": [50, 80], "samples_per_trace": 3,
                "known_samples": 4, "known_sample_size": 90, "second_trace": [0.25, 0.75],
                "replications": 2}
        assert set(spec) == set(defaults) - {"catalog", "true_profiles", "rng_seed"}
        path = tmp_path / "study.yaml"
        path.write_text(yaml.safe_dump({**spec, "profiles": TINY_STUDY["profiles"], "seed": 3}))
        study = load_study_spec(path)
        for key, value in spec.items():
            value = tuple(value) if isinstance(value, list) else value
            assert getattr(study, key) == value != defaults[key]
        assert study.rng_seed == 3 != defaults["rng_seed"]
        assert study.catalog.type_names == ("a", "b", "c", "d")
        for key in ("catalog", "true_profiles", "rng_seed"):
            path.write_text(f"{key}: 1\n")
            with pytest.raises(ValueError, match=f"study spec holds unknown keys: {key}$"):
                load_study_spec(path)

    def test_at_lq_profile_shortcut(self, tmp_path):
        path = tmp_path / "study.yaml"
        path.write_text(yaml.safe_dump({"unknown_shares": [0.5], "sample_sizes": [100]}))
        study = load_study_spec(path)
        assert study.true_profiles.shape == (2, 14)
        assert study.catalog.n_types == 14


def test_outputs_tool_digests_every_written_file(tmp_path):
    # tests/_outputs.py: each fit's report, tables, manifest, 4 + 28 density
    # curves and printed report, and the study's two tables and manifest
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    digests = _outputs.write_outputs(first)
    fit_files = {"report.json", "summary.csv", "elbo_trace.csv", "manifest.json", "report.txt"}
    for run, _ in _outputs.SCENARIOS:
        names = [key.split("/")[1] for key in digests if key.startswith(f"{run}/")]
        assert fit_files <= set(names) and len(names) == 5 + 32
        assert sum(name.startswith("theta_") for name in names) == 4
        assert sum(name.startswith("beta_") for name in names) == 28
    assert [key for key in digests if key.startswith("simulate/")] == [
        "simulate/manifest.json", "simulate/study_aggregate.csv", "simulate/study_cells.csv"]
    assert len(digests) == 3 * 37 + 3
    assert all(len(digest) == 64 for digest in digests.values())
    # a manifest's digest leaves out its wall-clock time and where the run was
    assert _outputs.write_outputs(second) == digests
    # every output byte is as recorded
    assert _outputs.listing(digests) == _outputs.RECORDED.read_text()


class TestMain:
    def test_import_leaves_out_scipy_stats(self):
        # scipy.stats adds about 22 MB of resident memory and 0.3 s at import;
        # PyYAML is read only with a config file or a study spec; a study
        # runs its cells on one thread, with no thread pool
        env = {**os.environ, "PYTHONPATH": str(Path(dustmix.__file__).resolve().parents[1])}
        code = ("import sys, dustmix, dustmix.cli; "
                "print(sorted(m for m in ('scipy.stats', 'yaml', 'concurrent.futures.thread')"
                " if m in sys.modules))")
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

    def test_scipy_loads_at_the_first_fit(self, tmp_path):
        # scipy.special costs about 0.2 s and 26 MB at import: reading,
        # refusing and reporting need none of it, a fit loads it
        run = tmp_path / "run"
        assert cli.cmd_fit(fixture_path(), None, run) == cli.EXIT_OK
        refused = tmp_path / "refused.csv"
        refused.write_text("location,role,a,b\nt1,trace,1,2\n")
        env = {**os.environ, "PYTHONPATH": str(Path(dustmix.__file__).resolve().parents[1])}
        code = (
            "import contextlib, io, sys, dustmix, dustmix.cli\n"
            "from dustmix.datasets import fixture_path\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    dustmix.cli.ingest_csv(fixture_path())\n"
            f"    refused = dustmix.cli.main(['fit', {str(refused)!r}, "
            f"'--out', {str(tmp_path / 'none')!r}])\n"
            f"    reported = dustmix.cli.cmd_report({str(run)!r})\n"
            "    try:\n"
            "        dustmix.cli.main(['--version'])\n"
            "    except SystemExit as exc:\n"
            "        version = exc.code\n"
            "print(refused, reported, version)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            f"dustmix.cli.cmd_fit(fixture_path(), None, {str(tmp_path / 'again')!r})\n"
            "print('scipy.special' in sys.modules)"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.splitlines() == [f"{cli.EXIT_ERROR} {cli.EXIT_OK} 0", "[]", "True"]

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

    def test_fit_takes_no_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", str(fixture_path()), "--out", "run", "--seed", "0"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 0" in capsys.readouterr().err

    def test_options_that_changed_nothing_are_refused(self, capsys):
        # a fit and a study run on one thread, and a report logs nothing
        for argv, option in ((["fit", str(fixture_path()), "--out", "run", "--threads", "2"],
                              "--threads 2"),
                             (["simulate", "spec.yaml", "--out", "run", "--threads", "2"],
                              "--threads 2"),
                             (["report", "run", "--verbose"], "--verbose")):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert f"unrecognized arguments: {option}" in capsys.readouterr().err

    def test_simulate_and_report_dispatch(self, tmp_path, converging_study_spec, capsys):
        out = tmp_path / "study"
        assert main(["simulate", str(converging_study_spec), "--out", str(out),
                     "--seed", "5"]) == cli.EXIT_OK
        assert json.loads((out / "manifest.json").read_text())["seed"] == 5
        run = tmp_path / "fit"
        assert main(["fit", str(fixture_path()), "--out", str(run)]) == cli.EXIT_OK
        capsys.readouterr()
        assert main(["report", str(run)]) == cli.EXIT_OK
        assert capsys.readouterr().out.startswith("converged: True")
