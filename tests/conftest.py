"""Shared fixtures for the test suite (helpers live in tests/helpers.py)."""

from __future__ import annotations

import pytest

from tests.helpers import TreeHarness


@pytest.fixture
def harness():
    return TreeHarness()


@pytest.fixture(params=["orjson", "stdlib"])
def json_codec(request, monkeypatch):
    """Run a test under each JSON codec of ``repro.events.wire``: the
    orjson path (skipped where orjson is not installed) and the
    standard-library path every installation can fall back to."""
    from repro.events import wire
    if request.param == "stdlib":
        monkeypatch.setattr(wire, "_fastjson", None)
    elif wire._fastjson is None:
        pytest.skip("orjson is not installed")
    return request.param
