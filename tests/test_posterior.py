import csv
import io
import json

import numpy as np
import pytest

from dustmix.datasets import TRACE_TRUTH
from dustmix.numerics import BetaShape, beta_hpdi
from dustmix.posterior import (
    MarginalSummary,
    PosteriorReport,
    build_report,
    density_grid,
    report_to_dict,
    theta_marginal,
    write_plot_csvs,
    write_report_json,
    write_summary_csv,
    write_table,
)

from _oracles import beta_hpdi_check
from conftest import theta_interval


class TestThetaMarginal:
    def test_concentrated_row(self):
        shape = theta_marginal(np.array([8978.75, 1021.15]), 0)
        assert shape.a == pytest.approx(8978.75)
        assert shape.b == pytest.approx(1021.15)

    def test_flat_row(self):
        shape = theta_marginal(np.array([1.0, 1.0]), 0)
        assert (shape.a, shape.b) == (1.0, 1.0)

    def test_pinned_row_mean(self):
        shape = theta_marginal(np.array([150.0, 1.0]), 0)
        assert shape.a / (shape.a + shape.b) == pytest.approx(150.0 / 151.0, rel=1e-12)

    def test_means_sum_to_one(self):
        row = np.array([3.0, 11.0, 6.0])
        means = [theta_marginal(row, m).a / row.sum() for m in range(3)]
        assert sum(means) == pytest.approx(1.0, rel=1e-14)


class TestProfileMarginal:
    # a profile row's marginals are read like a mixing row's
    def test_published_row(self):
        row = np.array([2315.42, 227.43, 17.50, 79.56, 33.14, 25.33, 70.77,
                        41.80, 7.76, 230.05, 45.80, 922.44, 1.98, 121.65])
        shape = theta_marginal(row, 0)
        assert shape.a == pytest.approx(2315.42)
        assert shape.b == pytest.approx(row.sum() - 2315.42)

    def test_flat_row(self):
        shape = theta_marginal(np.ones(14), 3)
        assert (shape.a, shape.b) == (1.0, 13.0)
        assert shape.a / (shape.a + shape.b) == pytest.approx(1.0 / 14.0)

    def test_one_hot_dominant(self):
        row = np.full(14, 1e-6)
        row[5] = 1e6
        shape = theta_marginal(row, 5)
        assert shape.a / (shape.a + shape.b) == pytest.approx(1.0, abs=1e-10)


class TestBuildReport:
    @pytest.fixture()
    def report(self, fit_both_known, corpus_both_known):
        result, _ = fit_both_known
        return build_report(result, corpus_both_known)

    def test_structure(self, report, corpus_both_known):
        assert set(report.theta) == {"e1", "e2"}
        assert set(report.beta) == {"AT", "LQ"}
        assert all(len(v) == 2 for v in report.theta.values())
        assert all(len(v) == 14 for v in report.beta.values())
        assert report.provenance["converged"] is True

    def test_truths_covered(self, fit_both_known, corpus_both_known):
        result, _ = fit_both_known
        for loc, truths in TRACE_TRUTH.items():
            for m, truth in enumerate(truths):
                mean, ci = theta_interval(result, corpus_both_known, loc, m)
                assert ci.lo <= truth <= ci.hi

    def test_theta_means_sum_to_one(self, report):
        for summaries in report.theta.values():
            assert sum(s.mean for s in summaries) == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("scenario", ["both_known", "at_known", "lq_known"])
    def test_intervals_are_shortest(self, scenario, request):
        # every marginal of a bundled report holds its mass on its shortest
        # interval: equal density at both ends around an interior mode, one
        # end at 0 or 1 for a monotone density; only a U-shaped or uniform
        # density may take the flagged equal-tailed interval
        result = request.getfixturevalue(f"fit_{scenario}")
        result = result[0] if isinstance(result, tuple) else result
        report = build_report(result, request.getfixturevalue(f"corpus_{scenario}"))
        for summary in (s for block in (report.theta, report.beta)
                        for summaries in block.values() for s in summaries):
            a, b, ci = summary.shape.a, summary.shape.b, summary.interval
            mass, gap = beta_hpdi_check(ci.lo, ci.hi, a, b)
            assert mass == pytest.approx(report.mass, abs=1e-10), summary
            assert ci.equal_tailed == (a < 1.0 and b < 1.0 or a == b == 1.0), summary
            if a > 1.0 and b > 1.0:
                # one ulp of each endpoint moves log f by this
                resolution = sum(abs((a - 1.0) / x - (b - 1.0) / (1.0 - x)) * np.spacing(x)
                                 for x in (ci.lo, ci.hi))
                assert abs(gap) <= 1e-10 + 4.0 * resolution, summary
            elif not ci.equal_tailed:
                assert ci.lo == 0.0 if a <= 1.0 else ci.hi == 1.0, summary

    def test_deterministic(self, fit_both_known, corpus_both_known):
        result, _ = fit_both_known
        first = report_to_dict(build_report(result, corpus_both_known))
        second = report_to_dict(build_report(result, corpus_both_known))
        assert first == second


class TestDensityGrid:
    def test_grid_size_and_finiteness(self):
        x, dens = density_grid(BetaShape(0.5, 3.0))
        assert x.shape == (512,) and dens.shape == (512,)
        assert np.all(np.isfinite(dens))

    @pytest.mark.parametrize("a,b", [(2.0, 2.0), (5.0, 30.0), (40.0, 40.0)])
    def test_integrates_to_one_when_resolved(self, a, b):
        x, dens = density_grid(BetaShape(a, b))
        assert np.trapezoid(dens, x) == pytest.approx(1.0, abs=1e-3)


class TestWriteTable:
    def test_fields_as_csv_writer_gives_them_formatted(self, tmp_path):
        # None empty, a bool as 0/1, a float (numpy's too) by its repr, and
        # anything else as csv writes it, quoted where it must be
        rows = [[None, True, 0.1, -0.0, 1e-300, 7, "a,b"],
                [None, False, np.float64(0.25), float("nan"), -1.5e300, -7, "c"]]
        formatted = [["", 1, "0.1", "-0.0", "1e-300", 7, "a,b"],
                     ["", 0, "0.25", "nan", "-1.5e+300", -7, "c"]]
        header = ["none", "bool", "float", "zero", "tiny", "int", "text"]
        write_table(tmp_path / "table.csv", header, rows)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(header)
        writer.writerows(formatted)
        assert (tmp_path / "table.csv").read_bytes() == expected.getvalue().encode()


class TestSerialization:
    def test_report_json_round_trip(self, tmp_path, fit_both_known, corpus_both_known):
        result, _ = fit_both_known
        report = build_report(result, corpus_both_known)
        path = tmp_path / "report.json"
        write_report_json(report, path)
        payload = json.loads(path.read_text())
        assert payload["theta"]["e1"][0]["label"] == "AT"
        assert payload["provenance"]["iterations"] == result.iterations

    def test_plot_and_summary_csvs(self, tmp_path, fit_both_known, corpus_both_known):
        result, _ = fit_both_known
        report = build_report(result, corpus_both_known)
        written = write_plot_csvs(report, tmp_path)
        assert len(written) == 2 * 2 + 2 * 14
        assert (tmp_path / "theta_e1_at.csv").exists()
        assert (tmp_path / "beta_lq_quartz.csv").exists()
        header = (tmp_path / "theta_e1_at.csv").read_text().splitlines()[0]
        assert header == "x,density"

        write_summary_csv(report, tmp_path / "summary.csv")
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(lines) == 1 + 4 + 28
        # each row is its report.json entry after its kind and group, every
        # float exactly, a missing mode empty and a flag as 0/1 (here with a
        # marginal that has no mode and an equal-tailed interval)
        shape = BetaShape(0.5, 0.5)
        report = PosteriorReport(
            theta={**report.theta, "edge": (
                MarginalSummary("s", shape, 0.5, None, beta_hpdi(shape, 0.95)),)},
            beta=report.beta, mass=report.mass, provenance=report.provenance,
        )
        assert report.theta["edge"][0].interval.equal_tailed
        write_summary_csv(report, tmp_path / "summary.csv")
        write_report_json(report, tmp_path / "report.json")
        payload = json.loads((tmp_path / "report.json").read_text())
        entries = [(kind, group, entry) for kind in ("theta", "beta")
                   for group, block in payload[kind].items() for entry in block]
        with (tmp_path / "summary.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(entries)
        for row, (kind, group, entry) in zip(rows, entries):
            assert list(row) == ["kind", "group", *entry]
            assert (row["kind"], row["group"]) == (kind, group)
            for key, value in entry.items():
                if value is None:
                    assert row[key] == ""
                elif isinstance(value, bool):
                    assert row[key] == str(int(value))
                elif isinstance(value, float):
                    assert float(row[key]) == value
                else:
                    assert row[key] == value

    def test_plot_csvs_match_csv_writer(self, tmp_path, fit_both_known, corpus_both_known):
        def reference(path, shape):
            x, dens = density_grid(shape)
            with path.open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["x", "density"])
                for xi, di in zip(x, dens):
                    writer.writerow([repr(float(xi)), repr(float(di))])

        result, _ = fit_both_known
        report = build_report(result, corpus_both_known)
        # densities U-shaped (unbounded at both ends), flat, and 0 on most of
        # the grid: at both ends, at the upper end only and at the lower end only
        extra = [BetaShape(0.3, 0.7), BetaShape(0.5, 0.5), BetaShape(1.0, 1.0),
                 BetaShape(2e5, 1e5), BetaShape(8e4, 6e4), BetaShape(1.0, 3e3),
                 BetaShape(2.0, 800.0), BetaShape(3e3, 1.0)]
        report = PosteriorReport(
            theta={**report.theta, "edge": tuple(
                MarginalSummary(f"s{i}", shape, 0.5, None, beta_hpdi(shape, 0.95))
                for i, shape in enumerate(extra))},
            beta=report.beta, mass=report.mass, provenance=report.provenance,
        )
        summaries = [s for block in (report.theta, report.beta) for g in block.values() for s in g]
        written = write_plot_csvs(report, tmp_path)
        assert len(written) == len(summaries)
        for path, summary in zip(written, summaries):
            reference(tmp_path / "reference.csv", summary.shape)
            assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes(), path.name

    def test_plot_csvs_of_labels_that_slug_alike(self, tmp_path):
        # "Fe oxide" and "fe-oxide" are distinct catalog names with one slug;
        # "fe oxide 2" slugs to the name the second would take with a suffix
        shapes = [BetaShape(2.0, 9.0), BetaShape(3.0, 3.0), BetaShape(9.0, 2.0),
                  BetaShape(4.0, 5.0)]
        labels = ["Fe oxide", "fe-oxide", "fe oxide 2", "FE_OXIDE"]
        summaries = tuple(MarginalSummary(label, shape, 0.5, None, beta_hpdi(shape, 0.95))
                          for label, shape in zip(labels, shapes))
        report = PosteriorReport(theta={}, beta={"AT": summaries}, mass=0.95, provenance={})
        written = write_plot_csvs(report, tmp_path)
        assert len(set(written)) == len(summaries)
        assert [path.name for path in written] == [
            "beta_at_fe_oxide.csv", "beta_at_fe_oxide_3.csv", "beta_at_fe_oxide_2.csv",
            "beta_at_fe_oxide_4.csv"]
        for path, shape in zip(written, shapes):
            rows = list(csv.reader(path.open(newline="")))[1:]
            assert np.array_equal([float(d) for _, d in rows], density_grid(shape)[1])
