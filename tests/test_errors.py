"""Tests for the structured error hierarchy."""

import pytest

from repro.errors import (
    EngineError,
    InputError,
    ReproError,
    ServiceOverloaded,
    ServiceUnavailable,
)

ERRORS = (InputError, EngineError, ServiceOverloaded, ServiceUnavailable)


class TestHierarchy:
    def test_all_subclass_repro_error(self):
        for cls in ERRORS:
            assert issubclass(cls, ReproError)

    def test_input_error_is_value_error(self):
        # legacy callers catching ValueError keep working
        assert issubclass(InputError, ValueError)

    def test_engine_error_is_runtime_error(self):
        # legacy callers catching RuntimeError keep working
        assert issubclass(EngineError, RuntimeError)

    def test_catching_base_catches_all(self):
        for cls in ERRORS:
            with pytest.raises(ReproError):
                raise cls("boom")


class TestExitCodes:
    def test_distinct_exit_codes(self):
        codes = {cls("x").exit_code for cls in (ReproError,) + ERRORS}
        assert codes == {1, 2, 5, 6, 7}

    def test_kind_labels(self):
        assert InputError("x").kind == "input"
        assert EngineError("x").kind == "engine"
        assert ServiceOverloaded("x").kind == "overloaded"
        assert ServiceUnavailable("x").kind == "unavailable"


class TestContext:
    def test_default_context_empty_dict(self):
        err = ReproError("plain")
        assert err.context == {}
        assert str(err) == "plain"

    def test_context_rendered_in_str(self):
        err = ServiceOverloaded(
            "queue full", context={"queue_depth": 16, "deadline_s": 2.0}
        )
        text = str(err)
        assert text.startswith("queue full")
        assert "deadline_s=2.0" in text and "queue_depth=16" in text

    def test_to_dict_machine_readable(self):
        err = EngineError("bug", context={"problem": "n1"})
        payload = err.to_dict()
        assert payload["kind"] == "engine"
        assert payload["message"] == "bug"
        assert payload["exit_code"] == 5
        assert payload["context"] == {"problem": "n1"}

    def test_context_is_copied(self):
        ctx = {"a": 1}
        err = ReproError("x", context=ctx)
        ctx["b"] = 2
        assert err.context == {"a": 1}
