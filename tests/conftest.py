"""Shared fixtures."""

import pytest

from faberzeros import faber, rootfind


@pytest.fixture
def no_coefficient_route(monkeypatch):
    """Make every entry into the coefficient route raise, so that a test
    passes only if the seeded solver never reaches it."""
    def refuse(*args, **kwargs):
        raise AssertionError("the seeded solver reached the coefficient route")

    for mod, name in ((rootfind, "roots_simultaneous"), (rootfind, "_aberth_double"),
                      (rootfind, "_aberth_polish_mp"), (rootfind, "faber_coeffs_mp"),
                      (faber, "faber_closed"), (faber, "faber_coeffs_mp")):
        monkeypatch.setattr(mod, name, refuse)
