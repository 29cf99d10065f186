"""Tests for the experiment registry, the CLI entry point and report building."""

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    PAPER_CLAIMS,
    available_experiments,
    build_report,
    run,
    run_all,
    write_report,
)
from tests.test_public_api import fresh_python


class TestRegistry:
    def test_all_figures_and_extensions_registered(self):
        assert available_experiments() == (
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "cluster",
            "overload",
            "autoscale",
        )

    def test_the_cli_imports_only_the_driver_it_runs(self):
        loaded = fresh_python(
            "import contextlib, io, json, runpy, sys\n"
            "sys.argv = ['repro.experiments', '--preset', 'quick', '--only', 'fig2']\n"
            "try:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        runpy.run_module('repro.experiments', run_name='__main__')\n"
            "except SystemExit as exit:\n"
            "    assert not exit.code, exit.code\n"
            "print(json.dumps(sorted(sys.modules)))"
        )
        modules = sorted({driver.module for driver in EXPERIMENTS.values()})
        assert len(modules) == 7
        drivers = [name for name in modules if f"repro.experiments.{name}" in loaded]
        assert drivers == ["effectiveness"]

    def test_every_experiment_has_a_paper_claim(self):
        assert set(PAPER_CLAIMS) == set(EXPERIMENTS)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError):
            run("fig99", preset="quick")

    def test_unknown_subset_rejected(self):
        with pytest.raises(ExperimentError):
            run_all(preset="quick", only=["fig2", "nope"])


class TestReportBuilding:
    def fake_results(self):
        result = ExperimentResult("fig2", "demo", columns=("load", "value"))
        result.add_row(load=0.5, value=1.23)
        result.notes.append("qualitative shape holds")
        return [result]

    def test_build_report_contains_sections(self):
        text = build_report(self.fake_results())
        assert "# EXPERIMENTS" in text
        assert "FIG2" in text
        assert "**Paper:**" in text
        assert "| load | value |" in text
        assert "qualitative shape holds" in text

    def test_write_report_creates_file(self, tmp_path):
        path = tmp_path / "sub" / "EXPERIMENTS.md"
        out = write_report(self.fake_results(), str(path))
        assert path.exists()
        assert out == str(path)
        assert "FIG2" in path.read_text()


class TestCommandLine:
    def test_main_prints_tables(self, capsys):
        from repro.experiments.__main__ import main

        code = main(["--preset", "quick", "--only", "fig7"])
        captured = capsys.readouterr()
        assert code == 0
        assert "fig7" in captured.out
        assert "completed 1 experiments" in captured.out

    def test_main_writes_report(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        out_file = tmp_path / "EXPERIMENTS.md"
        code = main(["--preset", "quick", "--only", "fig7", "--output", str(out_file)])
        assert code == 0
        assert out_file.exists()
        assert "FIG7" in out_file.read_text()

    def test_main_profile_prints_hotspots(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        stats_file = tmp_path / "fig7.pstats"
        code = main(
            [
                "--preset",
                "quick",
                "--only",
                "fig7",
                "--profile",
                "10",
                "--profile-out",
                str(stats_file),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        # The table still lands on stdout; the profile goes to stderr.
        assert "completed 1 experiments" in captured.out
        assert "cumulative" in captured.err
        assert stats_file.exists()
        import pstats

        assert pstats.Stats(str(stats_file)).total_calls > 0

    def test_main_profile_out_requires_profile(self, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["--preset", "quick", "--only", "fig7", "--profile-out", "x.pstats"])

    def test_main_overload_with_admission_flags(self, capsys):
        from repro.experiments.__main__ import main

        code = main(
            [
                "--preset",
                "quick",
                "--only",
                "overload",
                "--admission",
                "quota",
                "--admission-args",
                "quota_shares=0.4,0.4",
                "target_utilisation=0.9",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "overload" in captured.out
        assert "admission=quota" in captured.out

    def test_main_admission_args_require_admission(self, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["--preset", "quick", "--only", "overload", "--admission-args", "x=1"])

    def test_main_bad_admission_args_fail_loudly(self, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(
                [
                    "--preset",
                    "quick",
                    "--only",
                    "overload",
                    "--admission",
                    "quota",
                    "--admission-args",
                    "quota_shares=house",
                ]
            )
