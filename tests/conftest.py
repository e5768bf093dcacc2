"""Fixtures shared by every test module."""

import pytest

from indefinite_bvp import shooting


@pytest.fixture(autouse=True)
def cold_screen(monkeypatch):
    """Start each test with no grid screen to continue, so that a spy on
    ``screen_flow`` sees every period a search flows, whatever ran
    before."""
    monkeypatch.setattr(shooting, "_last_screen", (None, {}))
