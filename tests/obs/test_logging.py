"""Structured logger: print-compatible plain format, JSON lines, levels."""

import io
import json

import pytest

from repro.obs.logging import LEVELS, configure, get_logger, reset


@pytest.fixture(autouse=True)
def _clean_config():
    reset()
    yield
    reset()


def test_plain_info_is_byte_identical_to_print(capsys):
    log = get_logger("repro.test")
    messages = ["warming up (15 s)...", "", "a | table | row", "wrote x.json"]
    for msg in messages:
        log.info(msg)
    logged = capsys.readouterr().out
    for msg in messages:
        print(msg)
    printed = capsys.readouterr().out
    assert logged == printed


def test_plain_fields_append_sorted(capsys):
    get_logger("t").info("cycle done", targets=2, cycle=3)
    assert capsys.readouterr().out == "cycle done [cycle=3 targets=2]\n"
    get_logger("t").info("", only="fields")
    assert capsys.readouterr().out == "[only=fields]\n"


def test_error_goes_to_stderr(capsys):
    get_logger("t").error("boom")
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "boom\n"


def test_level_filtering(capsys):
    log = get_logger("t")
    configure(level="warning")
    log.info("hidden")
    assert capsys.readouterr().out == ""
    configure(level="info")
    log.info("shown")
    assert capsys.readouterr().out == "shown\n"
    configure(level="error")
    log.info("hidden again")
    assert capsys.readouterr().out == ""


def test_json_format_is_sorted_and_timestamp_free(capsys):
    configure(format="json")
    get_logger("repro.x").info("hello", n=1)
    line = capsys.readouterr().out.strip()
    record = json.loads(line)
    assert record == {
        "fields": {"n": 1},
        "level": "info",
        "logger": "repro.x",
        "msg": "hello",
    }
    assert line == json.dumps(record, sort_keys=True)


def test_json_timestamps_opt_in(capsys):
    configure(format="json", timestamps=True)
    get_logger("t").info("x")
    record = json.loads(capsys.readouterr().out)
    assert isinstance(record["ts"], float)


def test_explicit_streams():
    out, err = io.StringIO(), io.StringIO()
    configure(stream=out, err_stream=err)
    log = get_logger("t")
    log.info("to out")
    log.error("to err")
    assert out.getvalue() == "to out\n"
    assert err.getvalue() == "to err\n"


def test_env_level_applies_on_reset(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_LOG_LEVEL", "error")
    reset()
    log = get_logger("repro.test")
    log.info("hidden")
    log.error("shown")
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "shown\n"


def test_env_level_invalid_falls_back_to_info(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_LOG_LEVEL", "chatty")
    reset()
    log = get_logger("repro.test")
    log.info("shown")
    assert capsys.readouterr().out == "shown\n"


def test_explicit_configure_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_LOG_LEVEL", "error")
    reset()
    configure(level="info")
    get_logger("repro.test").info("shown")
    assert capsys.readouterr().out == "shown\n"


def test_configure_rejects_unknown_values():
    with pytest.raises(ValueError):
        configure(format="xml")
    with pytest.raises(ValueError):
        configure(level="loud")


def test_logger_cache_and_levels_table():
    assert get_logger("same") is get_logger("same")
    assert LEVELS["debug"] < LEVELS["info"] < LEVELS["warning"] < LEVELS["error"]
