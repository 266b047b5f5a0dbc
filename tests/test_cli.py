"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.experiments.report import FIGURES, SCALES


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figures_registered(self):
        for fig in ("fig1", "fig2", "fig3", "fig8", "fig12", "fig13",
                    "fig14", "fig15", "fig16", "fig17", "fig18",
                    "redundancy", "latency", "channel-keying"):
            assert fig in FIGURES


class TestCommands:
    def test_figures_lists(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "fig18" in out

    def test_unknown_figure_fails(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure", "fig99"])
        assert excinfo.value.code == 2

    def test_predict(self, capsys):
        assert main(["predict", "--tags", "80"]) == 0
        out = capsys.readouterr().out
        assert "break-even" in out

    def test_rospec(self, capsys):
        assert main(["rospec", "--targets", "2", "--population", "20"]) == 0
        out = capsys.readouterr().out
        assert "<ROSpec" in out
        assert "C1G2TagInventoryMask" in out

    def test_figure_smoke_fig3(self, capsys):
        assert main(["figure", "fig3"]) == 0
        assert "TrackPoint" in capsys.readouterr().out

    def test_demo_small(self, capsys):
        assert (
            main(
                [
                    "demo", "--tags", "8", "--mobile", "1",
                    "--cycles", "2", "--warmup", "8", "--phase2", "0.5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Tagwatch demo" in out


class TestFigureRegistry:
    """``figures``, ``figure`` and ``reproduce`` read one table."""

    @pytest.fixture
    def driver_calls(self, monkeypatch):
        """Swap every registry driver for a recorder of its kwargs."""
        calls = []

        def fake_run(**kwargs):
            calls.append(kwargs)
            return kwargs

        for figure in FIGURES.values():
            monkeypatch.setattr(figure.driver, figure.runner, fake_run)
            monkeypatch.setattr(figure.driver, figure.formatter, repr)
        return calls

    def test_figures_lists_every_id(self, capsys):
        assert main(["figures"]) == 0
        rows = capsys.readouterr().out.splitlines()[3:]
        assert [row.split()[0] for row in rows] == list(FIGURES)

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("fig_id", list(FIGURES))
    def test_figure_and_reproduce_run_the_same_driver_call(
        self, fig_id, scale, driver_calls, capsys
    ):
        assert main(["figure", fig_id, "--scale", scale]) == 0
        assert main(["reproduce", "--only", fig_id, "--scale", scale]) == 0
        figure_call, reproduce_call = driver_calls
        assert figure_call == reproduce_call == FIGURES[fig_id].kwargs(scale)

    def test_commands_import_drivers_only_when_a_figure_runs(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        probe = (
            "import sys\n"
            "def loaded():\n"
            "    return [m for m in sorted(sys.modules)\n"
            "            if m.startswith('repro.experiments.')]\n"
            "import repro.experiments.harness\n"
            "print(loaded())\n"
            "import repro.cli\n"
            "print(loaded())\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
        ).stdout.splitlines()
        assert out == [
            "['repro.experiments.harness']",
            "['repro.experiments.harness', 'repro.experiments.report']",
        ]


class TestObservabilityWiring:
    def test_figure_trace_out_writes_valid_chrome_trace(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        path = tmp_path / "trace.json"
        assert main(["figure", "fig2", "--trace-out", str(path)]) == 0
        document = json.loads(path.read_text())
        assert validate_chrome_trace(document) == []
        names = {e["name"] for e in document["traceEvents"]}
        assert {"round", "frame", "inventory_round"} <= names

    def test_figure_trace_out_jsonl_and_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            assert (
                main(
                    ["figure", "fig2",
                     "--trace-out", str(path), "--trace-format", "jsonl"]
                )
                == 0
            )
        assert a.read_bytes() == b.read_bytes()

    def test_demo_metrics_out_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "metrics.json"
        assert (
            main(
                ["demo", "--tags", "8", "--mobile", "1", "--cycles", "2",
                 "--warmup", "6", "--phase2", "0.5",
                 "--metrics-out", str(path)]
            )
            == 0
        )
        metrics = json.loads(path.read_text())
        assert metrics["tagwatch.cycles"]["value"] == 2
        assert metrics["tagwatch.cycle_s"]["count"] == 2

    def test_demo_metrics_out_prometheus(self, tmp_path, capsys):
        path = tmp_path / "metrics.prom"
        assert (
            main(
                ["demo", "--tags", "8", "--mobile", "1", "--cycles", "1",
                 "--warmup", "6", "--phase2", "0.5",
                 "--metrics-out", str(path)]
            )
            == 0
        )
        text = path.read_text()
        assert "# TYPE tagwatch_cycles_total counter" in text
        assert "tagwatch_cycles_total 1" in text


class TestHealthCommand:
    def test_fault_free_report_is_ok(self, tmp_path, capsys):
        import json

        out = tmp_path / "health.json"
        assert (
            main(["health", "--cycles", "15", "--out", str(out)]) == 0
        )
        report = json.loads(out.read_text())
        assert report["status"] == "ok"
        assert report["n_alerts"] == 0
        assert report["slo"]["irr_floor"]["observations"] == 15

    def test_blackout_cuts_exactly_one_valid_bundle(self, tmp_path, capsys):
        from repro.obs.health import list_bundles, validate_bundle

        bundles = tmp_path / "bundles"
        window = ["--blackout", "0:15:45", "--blackout", "1:15:45",
                  "--blackout", "2:15:45", "--blackout", "3:15:45"]
        assert (
            main(["health", "--cycles", "40", "--bundle-dir", str(bundles)]
                 + window)
            == 0
        )
        cut = list_bundles(bundles)
        assert len(cut) == 1  # one unhealthy episode -> one bundle
        assert validate_bundle(cut[0]) == []
        out = capsys.readouterr().out
        assert '"status": "alerting"' in out
        assert "1 incident bundle(s)" in out

    def test_watch_streams_status_lines(self, capsys):
        assert main(["health", "--cycles", "3", "--watch"]) == 0
        out = capsys.readouterr().out
        assert out.count("status=ok") >= 3


class TestSiteChaosCommand:
    ARGS = [
        "site", "--chaos", "--readers", "3", "--tags", "24",
        "--epochs", "12", "--outages", "2", "--mobile", "2",
        "--seed", "11",
    ]

    def test_chaos_run_converges(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "rejoins" in out
        assert "ok" in out

    def test_chaos_bundles_and_differential(self, tmp_path, capsys):
        bundle_dir = tmp_path / "bundles"
        out_file = tmp_path / "chaos.json"
        assert (
            main(
                self.ARGS
                + [
                    "--workers", "4", "--check-differential",
                    "--bundle-dir", str(bundle_dir),
                    "--out", str(out_file),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "byte-identical" in out
        assert "incident bundle(s)" in out
        bundles = list(bundle_dir.iterdir())
        assert bundles and all(b.is_dir() for b in bundles)
        assert out_file.read_bytes().startswith(b"{")


class TestSiteCommand:
    ARGS = [
        "site", "--layout", "line", "--readers", "6", "--tags", "300",
        "--workers", "2", "--check-differential",
    ]

    def test_differential_is_byte_identical(self, capsys):
        assert main(self.ARGS) == 0
        captured = capsys.readouterr()
        assert "byte-identical" in captured.out + captured.err

    def test_differential_catches_a_diverging_reference(
        self, monkeypatch, capsys
    ):
        """A reference leg whose unculled summaries differ fails the check."""
        import repro.site

        real = repro.site.simulate_site

        def diverging(config, workers=None, *, cull=True):
            run = real(config, workers=workers, cull=cull)
            if not cull:
                summary = next(
                    s for s in run.reader_summaries if s["reports"]
                )
                summary["reports"] = summary["reports"][:-1]
            return run

        monkeypatch.setattr(repro.site, "simulate_site", diverging)
        assert main(self.ARGS) == 1
        captured = capsys.readouterr()
        assert "differential check FAILED" in captured.out + captured.err

    def test_mobile_flag_reaches_one_shot_config(self, tmp_path):
        """``site --mobile N`` puts N orbiting tags into the one-shot run."""
        import json

        base = ["site", "--layout", "line", "--readers", "3", "--tags",
                "120", "--duration", "0.1"]
        mobile_out = tmp_path / "mobile.json"
        still_out = tmp_path / "still.json"
        assert main(base + ["--mobile", "5", "--out", str(mobile_out)]) == 0
        assert main(base + ["--out", str(still_out)]) == 0
        mobile = json.loads(mobile_out.read_text())
        still = json.loads(still_out.read_text())
        assert mobile["config"]["n_mobile"] == 5
        assert "n_mobile" not in still["config"]
        assert mobile["fusion"] != still["fusion"]


class TestCleanFailures:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["faults", "--loss", "1.5"], "report_loss must be a probability"),
            (["faults", "--sweep", "0,2"], "report_loss must be a probability"),
            (["health", "--loss", "3"], "report_loss must be a probability"),
            (["site", "--chaos", "--outages", "-1"], "must be non-negative"),
            (["site", "--readers", "0"], "need at least one reader"),
            (["site", "--loss", "1.5"], "read loss must be a probability"),
            (["site", "--tags", "10", "--mobile", "11"],
             "mobile tag count must lie within the population"),
            (["soak", "--cycles", "0"], "need at least one cycle"),
            (["demo", "--tags", "0"], "more mobile tags than tags"),
            (["demo", "--tags", "5", "--mobile", "9"],
             "more mobile tags than tags"),
            (["predict", "--tags", "0"], "need 0 <= n_targets <= n_tags"),
            (["health", "--flight-capacity", "0"],
             "flight recorder needs capacity >= 1 cycle"),
            (["health", "--tags", "0"], "more mobile tags than tags"),
            (["faults", "--tags", "0"], "more mobile tags than tags"),
            (["faults", "--cycles", "0"], "need at least one cycle"),
            (["faults", "--sweep", "0.1", "--cycles", "0"],
             "need at least one cycle"),
            (["demo", "--cycles", "0"], "need at least one cycle"),
            (["demo", "--warmup", "0"], "warm-up duration must be positive"),
            (["reproduce", "--only", "bogus"], "no figures matched"),
            (["soak", "--runs", "0"], "need at least one run"),
            (["figure", "fig99"], "unknown figure 'fig99'"),
        ],
    )
    def test_rejected_plan_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = [ln for ln in err.splitlines() if "error:" in ln]
        assert f"{argv[0]}: " in line and message in line

    def test_closed_stdout_exits_quietly(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "predict"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        # Close the read end before the child has printed anything, as
        # ``| head -0`` would: every write then hits a broken pipe.
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == ""
