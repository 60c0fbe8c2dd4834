"""Fixtures shared by the test modules."""
from collections import Counter

import numpy as np
import pytest

from varden import dbscan, neighborhood


@pytest.fixture
def work(monkeypatch):
    """A Counter of the library's work while the test runs.

    "entries": d2 entries, the size of every array neighborhood._axis_d2
    returns, through which every d2 of the neighbor search passes;
    "grids": neighborhood._Grid builds, one per tile sweep;
    "brackets": dbscan.EpsBracket builds; "labelings": EpsBracket.labeling calls;
    "narrows": EpsBracket._narrow calls, one at the end of each sweep;
    "ties": dbscan._tie calls, each a pass over a bracket's waiting pairs.
    """
    counts = Counter()

    def counted(key, fn, size=lambda result: 1):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += size(result)
            return result

        return wrapper

    monkeypatch.setattr(neighborhood, "_axis_d2", counted("entries", neighborhood._axis_d2, np.size))
    monkeypatch.setattr(neighborhood._Grid, "__init__", counted("grids", neighborhood._Grid.__init__))
    monkeypatch.setattr(dbscan.EpsBracket, "__init__", counted("brackets", dbscan.EpsBracket.__init__))
    monkeypatch.setattr(dbscan.EpsBracket, "labeling", counted("labelings", dbscan.EpsBracket.labeling))
    monkeypatch.setattr(dbscan.EpsBracket, "_narrow", counted("narrows", dbscan.EpsBracket._narrow))
    monkeypatch.setattr(dbscan, "_tie", counted("ties", dbscan._tie))
    return counts
