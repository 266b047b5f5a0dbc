"""Tests for Tagwatch configuration and the concerned-tags file."""

import pytest

from repro.core.config import (
    TagwatchConfig,
    load_concerned_epcs,
    save_concerned_epcs,
)
from repro.gen2.epc import EPC, random_epc_population


class TestValidation:
    def test_defaults_match_paper(self):
        config = TagwatchConfig()
        assert config.phase2_duration_s == 5.0
        assert config.fallback_fraction == 0.2
        assert config.gmm.max_modes == 8

    def test_phase2_positive(self):
        with pytest.raises(ValueError):
            TagwatchConfig(phase2_duration_s=0.0)

    def test_fallback_fraction_bounds(self):
        with pytest.raises(ValueError):
            TagwatchConfig(fallback_fraction=0.0)
        TagwatchConfig(fallback_fraction=1.0)

    def test_selection_method_checked(self):
        with pytest.raises(ValueError):
            TagwatchConfig(selection_method="optimal")

    @pytest.mark.parametrize("max_len", [0, 64, 96])
    def test_max_mask_length_bounds(self, max_len):
        with pytest.raises(ValueError, match=r"max_mask_length must be in \[1, 63\]"):
            TagwatchConfig(max_mask_length=max_len)

    def test_max_mask_length_63_accepted(self):
        assert TagwatchConfig(max_mask_length=63).max_mask_length == 63

    def test_vote_rule_checked(self):
        with pytest.raises(ValueError):
            TagwatchConfig(vote_rule="unanimous")


class TestConcerned:
    def test_with_concerned_accepts_epcs_and_ints(self):
        epcs = random_epc_population(2, rng=1)
        config = TagwatchConfig().with_concerned([epcs[0], epcs[1].value])
        assert epcs[0].value in config.concerned_epc_values
        assert epcs[1].value in config.concerned_epc_values

    def test_with_concerned_preserves_other_fields(self):
        base = TagwatchConfig(phase2_duration_s=2.0, selection_method="naive")
        extended = base.with_concerned([1])
        assert extended.phase2_duration_s == 2.0
        assert extended.selection_method == "naive"

    def test_file_round_trip(self, tmp_path):
        epcs = random_epc_population(3, rng=2)
        path = tmp_path / "concerned.conf"
        save_concerned_epcs(path, epcs)
        loaded = load_concerned_epcs(path)
        assert loaded == {e.value for e in epcs}

    def test_file_supports_comments_and_binary(self, tmp_path):
        path = tmp_path / "concerned.conf"
        path.write_text(
            "# pinned tags\n"
            "0b1010  # binary form\n"
            "\n"
            "ff\n"
        )
        loaded = load_concerned_epcs(path)
        assert loaded == {0b1010, 0xFF}

    def test_file_bad_line_reports_location(self, tmp_path):
        path = tmp_path / "concerned.conf"
        path.write_text("zz-not-hex\n")
        with pytest.raises(ValueError, match="1"):
            load_concerned_epcs(path)
