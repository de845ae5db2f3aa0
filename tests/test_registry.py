"""Tests for the mitigation/tracker registry."""

import pytest

from repro.cli import build_parser
from repro.core.mitigation import BaselineMitigation, Mitigation
from repro.core.rrs import RandomizedRowSwap
from repro.core.scale_srs import ScaleSecureRowSwap
from repro.registry import (
    MITIGATIONS,
    TRACKERS,
    mitigation_names,
    register_mitigation,
    register_tracker,
    tracker_names,
)
from repro.trackers.hydra import HydraTracker
from repro.trackers.misra_gries import MisraGriesTracker


class TestBuiltins:
    def test_builtin_mitigations_registered(self):
        names = mitigation_names()
        for expected in ("baseline", "rrs", "rrs-no-unswap", "srs",
                         "scale-srs", "aqua", "blockhammer"):
            assert expected in names

    def test_builtin_trackers_registered(self):
        names = tracker_names()
        for expected in ("misra-gries", "hydra", "exact"):
            assert expected in names

    def test_info_carries_class_and_metadata(self):
        rrs = MITIGATIONS.get("rrs")
        assert rrs.cls is RandomizedRowSwap
        assert rrs.default_swap_rate == 6.0
        assert rrs.uses_tracker
        assert not rrs.is_baseline
        scale = MITIGATIONS.get("scale-srs")
        assert scale.cls is ScaleSecureRowSwap
        assert scale.default_swap_rate == 3.0
        base = MITIGATIONS.get("baseline")
        assert base.cls is BaselineMitigation
        assert base.is_baseline and not base.uses_tracker

    def test_default_swap_rates_view(self):
        assert MITIGATIONS.get("rrs").default_swap_rate == 6.0
        assert MITIGATIONS.get("scale-srs").default_swap_rate == 3.0
        assert MITIGATIONS.get("baseline").default_swap_rate is None

    def test_tracker_info(self):
        assert TRACKERS.get("misra-gries").cls is MisraGriesTracker
        assert TRACKERS.get("hydra").cls is HydraTracker

    def test_unknown_name_lists_options(self):
        with pytest.raises(ValueError, match="options"):
            MITIGATIONS.get("nope")
        with pytest.raises(ValueError, match="options"):
            TRACKERS.get("nope")

    def test_contains_and_len(self):
        assert "rrs" in MITIGATIONS
        assert "nope" not in MITIGATIONS
        assert len(MITIGATIONS) >= 7
        assert len(TRACKERS) >= 3


class TestRegistration:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            register_mitigation("rrs", builder=lambda ctx: None)(object)

    def test_duplicate_tracker_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            register_tracker("hydra", builder=lambda ts, timing: None)(object)

    def test_decorator_returns_class_and_registers(self):
        @register_mitigation(
            "test-dummy-mitigation",
            description="a test-only design",
            default_swap_rate=5.0,
            builder=lambda ctx: BaselineMitigation(ctx.bank),
        )
        class Dummy(Mitigation):
            def on_activation(self, time, row):
                return time

        try:
            assert Dummy.__name__ == "Dummy"  # decorator is transparent
            info = MITIGATIONS.get("test-dummy-mitigation")
            assert info.cls is Dummy
            assert info.default_swap_rate == 5.0
            assert "test-dummy-mitigation" in mitigation_names()
        finally:
            MITIGATIONS.remove("test-dummy-mitigation")


class TestCLIDerivation:
    def test_cli_choices_track_registry(self):
        """A newly registered mitigation appears in CLI choices without
        any CLI change."""
        register_mitigation(
            "test-cli-mitigation",
            builder=lambda ctx: BaselineMitigation(ctx.bank),
        )(BaselineMitigation)
        try:
            parser = build_parser()
            args = parser.parse_args(
                ["run", "gcc", "--mitigations", "test-cli-mitigation"]
            )
            assert args.mitigations == ["test-cli-mitigation"]
        finally:
            MITIGATIONS.remove("test-cli-mitigation")

    def test_cli_rejects_unregistered_mitigation(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "gcc", "--mitigations", "not-registered"])

    def test_cli_tracker_choices_track_registry(self):
        parser = build_parser()
        for tracker in tracker_names():
            args = parser.parse_args(["run", "gcc", "--tracker", tracker])
            assert args.tracker == tracker
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "gcc", "--tracker", "not-registered"])
