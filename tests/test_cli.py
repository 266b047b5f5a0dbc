"""Tests for the command-line interface."""

import argparse

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
                    "redundancy", "latency", "channel-keying",
                    "vote-rule", "phase2-sweep"):
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

    def test_demo_accepts_any_positive_phase2(self, capsys):
        argv = ["demo", "--tags", "8", "--mobile", "1", "--cycles", "1",
                "--warmup", "4", "--phase2", "0.3"]
        assert main(argv) == 0
        assert "Tagwatch demo" in capsys.readouterr().out


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


class TestTemporaryCheckpoints:
    """Without ``--checkpoint-dir``, ``soak`` and ``health`` keep their
    checkpoints in a temporary directory that is gone when they exit, and
    print nothing that depends on where it was."""

    # Cycle 24's kill restarts warm from the checkpoint written at cycle 20.
    SOAK = ["soak", "--cycles", "50", "--tags", "12", "--kill-every", "25",
            "--seed", "5"]

    @pytest.fixture
    def temp_root(self, tmp_path, monkeypatch):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        return tmp_path

    def test_no_checkpoint_directory_left_behind(self, temp_root, capsys):
        assert main(self.SOAK) == 0
        assert main(["health", "--cycles", "3"]) == 0
        assert list(temp_root.glob("repro-*-ckpt-*")) == []

    def test_same_seed_soak_prints_the_same(self, temp_root, capsys):
        outputs = []
        for _ in range(2):
            assert main(self.SOAK) == 0
            outputs.append(capsys.readouterr().out)
        assert "warm restart from soak.ckpt (cycle 20, t=33.0s)\n" in outputs[0]
        assert outputs[0] == outputs[1]


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


#: ``(argv, rule, message)``: a rejected invocation, the rule it breaks
#: and the text its one ``error:`` line must hold.  A row's test id is
#: ``argv<index>-<rule>``; the older rows first quoted the rule as their
#: message, so their ids outlive the move of a check to parse time, where
#: the message names the flag instead.
REJECTED = [
    (["faults", "--loss", "1.5"], "report_loss must be a probability",
     "argument --loss: must be a probability"),
    (["faults", "--sweep", "0,2"], "report_loss must be a probability",
     "argument --sweep: must be a probability"),
    (["health", "--loss", "3"], "report_loss must be a probability",
     "argument --loss: must be a probability"),
    (["site", "--chaos", "--outages", "-1"], "must be non-negative",
     "argument --outages: must be a non-negative integer"),
    (["site", "--readers", "0"], "need at least one reader",
     "argument --readers: must be a positive integer"),
    (["site", "--loss", "1.5"], "read loss must be a probability",
     "argument --loss: must be a probability"),
    (["site", "--tags", "10", "--mobile", "11"],
     "mobile tag count must lie within the population",
     "mobile tag count must lie within the population"),
    (["soak", "--cycles", "0"], "need at least one cycle",
     "argument --cycles: must be a positive integer"),
    (["demo", "--tags", "0"], "more mobile tags than tags",
     "argument --tags: must be a positive integer"),
    (["demo", "--tags", "5", "--mobile", "9"], "more mobile tags than tags",
     "more mobile tags than tags"),
    (["predict", "--tags", "0"], "need 0 <= n_targets <= n_tags",
     "argument --tags: must be a positive integer"),
    (["health", "--flight-capacity", "0"],
     "flight recorder needs capacity >= 1 cycle",
     "argument --flight-capacity: must be a positive integer"),
    (["health", "--tags", "0"], "more mobile tags than tags",
     "argument --tags: must be a positive integer"),
    (["faults", "--tags", "0"], "more mobile tags than tags",
     "argument --tags: must be a positive integer"),
    (["faults", "--cycles", "0"], "need at least one cycle",
     "argument --cycles: must be a positive integer"),
    (["faults", "--sweep", "0.1", "--cycles", "0"], "need at least one cycle",
     "argument --cycles: must be a positive integer"),
    (["demo", "--cycles", "0"], "need at least one cycle",
     "argument --cycles: must be a positive integer"),
    (["demo", "--warmup", "0"], "warm-up duration must be positive",
     "argument --warmup: must be a positive number"),
    (["reproduce", "--only", "bogus"], "no figures matched",
     "argument --only: unknown figure 'bogus'"),
    (["soak", "--runs", "0"], "need at least one run",
     "argument --runs: must be a positive integer"),
    (["figure", "fig99"], "unknown figure 'fig99'",
     "argument id: unknown figure 'fig99'"),
    (["site", "--chaos", "--epochs", "1"], "outages need three epochs",
     "n_epochs must be >= 3 when n_outages > 0"),
    (["site", "--chaos", "--epoch", "0"], "epoch must be positive",
     "argument --epoch: must be a positive number"),
    (["rospec", "--targets", "-1"], "targets must be positive",
     "argument --targets: must be a positive integer"),
    (["rospec", "--targets", "50", "--population", "5"],
     "targets within the population", "need targets <= population"),
    (["demo", "--mobile", "-1"], "mobile must be non-negative",
     "argument --mobile: must be a non-negative integer"),
    (["health", "--cycles", "-1"], "cycles must be positive",
     "argument --cycles: must be a positive integer"),
    (["demo", "--phase2", "0"], "phase2 must be positive",
     "argument --phase2: must be a positive number"),
    (["faults", "--phase2", "0"], "phase2 must be positive",
     "argument --phase2: must be a positive number"),
    (["faults", "--sweep", "0.1", "--tags", "5", "--mobile", "9"],
     "sweep mobile within tags", "more mobile tags than tags"),
    (["demo", "--warmup", "inf"], "warmup must be finite",
     "argument --warmup: must be a positive number"),
]


def assert_usage_error(argv, message, capsys):
    """``main(argv)`` exits 2 with one ``error:`` line holding ``message``;
    returns that line."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = [ln for ln in err.splitlines() if "error:" in ln]
    assert f"{argv[0]}: " in line and message in line
    return line


class TestCleanFailures:
    @pytest.mark.parametrize(
        "argv, message",
        [(argv, message) for argv, _, message in REJECTED],
        ids=[f"argv{i}-{rule}" for i, (_, rule, _) in enumerate(REJECTED)],
    )
    def test_rejected_plan_is_a_usage_error(self, argv, message, capsys):
        assert_usage_error(argv, message, capsys)

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "No such file or directory"),
            ("{not json", "Expecting property name"),
            ('{"report_loss": 2}', "report_loss must be a probability"),
            ('{"typo": 1}', "unknown fault plan keys"),
        ],
        ids=["missing", "malformed", "invalid", "unknown-key"],
    )
    def test_unloadable_plan_file_is_a_usage_error(
        self, content, message, tmp_path, capsys
    ):
        path = tmp_path / "plan.json"
        if content is not None:
            path.write_text(content)
        line = assert_usage_error(
            ["faults", "--plan", str(path)],
            "argument --plan: cannot load a fault plan: ",
            capsys,
        )
        assert message in line

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


class TestValidationLayer:
    """Flags are checked when parsed; a run's ``ValueError`` is a bug."""

    #: Numeric flags argparse may parse as bare ``int``, because every
    #: int has a meaning (``resolve_workers``).
    UNCHECKED = {"--workers"}

    def test_every_numeric_flag_has_a_checked_type(self):
        parser = build_parser()
        (commands,) = [
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        unchecked = [
            f"{name} {'/'.join(action.option_strings) or action.dest}"
            for name, sub in commands.choices.items()
            for action in sub._actions
            if not self.UNCHECKED & set(action.option_strings)
            and (
                action.type in (int, float)
                or action.type is None
                and type(action.default) in (int, float)
            )
        ]
        assert not unchecked, f"flags without a checked type: {unchecked}"

    def test_health_warmup_zero_stays_valid(self):
        args = build_parser().parse_args(["health", "--warmup", "0"])
        assert args.warmup == 0.0

    @pytest.mark.parametrize(
        "target, argv",
        [
            ("repro.core.tagwatch.Tagwatch.warm_up", ["demo"]),
            ("repro.core.tagwatch.Tagwatch.run",
             ["demo", "--tags", "8", "--warmup", "1"]),
            ("repro.core.tagwatch.Tagwatch.warm_up", ["faults"]),
            ("repro.core.tagwatch.Tagwatch.run",
             ["faults", "--tags", "8", "--warmup", "1"]),
            ("repro.experiments.fault_sweep.run", ["faults", "--sweep", "0.1"]),
            ("repro.experiments.soak.run_many", ["soak", "--runs", "2"]),
            ("repro.experiments.report.run", ["reproduce"]),
        ],
    )
    def test_value_error_in_a_run_propagates(self, target, argv, monkeypatch):
        def modelling_bug(*args, **kwargs):
            raise ValueError("modelling bug")

        monkeypatch.setattr(target, modelling_bug)
        with pytest.raises(ValueError, match="modelling bug"):
            main(argv)

    def test_value_error_in_a_run_exits_1_with_its_traceback(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "import sys\n"
            "from repro.experiments import report\n"
            "def modelling_bug(*args, **kwargs):\n"
            "    raise ValueError('modelling bug')\n"
            "report.run = modelling_bug\n"
            "sys.argv = ['repro', 'reproduce']\n"
            "from repro.cli import run\n"
            "run()\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert proc.returncode == 1
        assert "Traceback" in proc.stderr
        assert "ValueError: modelling bug" in proc.stderr
