import multiprocessing

import pytest


@pytest.fixture
def forks(monkeypatch):
    """Records each split that forks children: ``split_map`` asks
    ``multiprocessing`` for its fork context once per split."""
    opened = []
    get_context = multiprocessing.get_context

    def counting(method=None):
        opened.append(method)
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", counting)
    return opened
