"""Fixtures shared across the test modules."""

from __future__ import annotations

import functools
from types import SimpleNamespace

import pytest

from tattooing import cli, search


@pytest.fixture(scope="session")
def memoised_searches() -> SimpleNamespace:
    """``best_index`` and ``best_index_for_orientation``, each memoised on
    its arguments for the whole test session."""
    return SimpleNamespace(
        best_index=functools.cache(search.best_index),
        best_index_for_orientation=functools.cache(
            search.best_index_for_orientation
        ),
    )


@pytest.fixture
def shared_searches(monkeypatch, memoised_searches) -> None:
    """Serve ``cli``'s searches from the session's memoised ones, so the
    tests that each run the paper-anchors suite search its instances
    once between them."""
    for name, searcher in vars(memoised_searches).items():
        monkeypatch.setattr(cli, name, searcher)
