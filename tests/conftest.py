import os
import sys

import pytest

from waveclust.parallel import split_map


@pytest.fixture
def forks(monkeypatch):
    """Records each split that forks children, once however many it
    forks: a fork made from the same ``split_map`` call as the one before
    it adds nothing, and one made outside ``split_map`` is not counted."""
    opened, last = [], [None]
    fork = os.fork

    def counting():
        split = sys._getframe(1)
        while split is not None and split.f_code is not split_map.__code__:
            split = split.f_back
        if split is not None and split is not last[0]:
            opened.append("fork")
            last[0] = split
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return opened
