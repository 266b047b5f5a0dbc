"""Named loggers: output byte-identical to print, filtered by level."""

import pytest

from repro.obs.logging import ENV_LEVEL, LEVELS, get_logger


@pytest.fixture(autouse=True)
def _default_level(monkeypatch):
    monkeypatch.delenv(ENV_LEVEL, raising=False)


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


def test_error_goes_to_stderr(capsys):
    get_logger("t").error("boom")
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "boom\n"


def test_level_filtering(capsys, monkeypatch):
    """The level is read per record, so a change applies to the next one."""
    log = get_logger("t")
    monkeypatch.setenv(ENV_LEVEL, "warning")
    log.info("hidden")
    log.warning("warned")
    assert capsys.readouterr().out == "warned\n"
    monkeypatch.setenv(ENV_LEVEL, "info")
    log.info("shown")
    assert capsys.readouterr().out == "shown\n"
    monkeypatch.setenv(ENV_LEVEL, "error")
    log.info("hidden again")
    log.error("shown")
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "shown\n"


def test_env_level_invalid_falls_back_to_info(capsys, monkeypatch):
    monkeypatch.setenv(ENV_LEVEL, "chatty")
    log = get_logger("repro.test")
    log.info("shown")
    assert capsys.readouterr().out == "shown\n"


def test_logger_cache_and_levels_table():
    assert get_logger("same") is get_logger("same")
    assert LEVELS["info"] < LEVELS["warning"] < LEVELS["error"]
