import sys

import pytest


@pytest.fixture
def shallow_stack(monkeypatch):
    """Run at a recursion limit of 200 that the code under test cannot
    raise, so a search whose depth grows with n fails."""
    def refuse(limit):
        raise AssertionError("library code changed the recursion limit")

    set_limit = sys.setrecursionlimit
    old = sys.getrecursionlimit()
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    set_limit(200)
    yield
    set_limit(old)
