from __future__ import annotations

from collections import OrderedDict

import pytest

from permclass import engine, relation


@pytest.fixture(autouse=True)
def fresh_class_of_cache(monkeypatch):
    """Each test starts with no class_of query asked and no decomposition kept."""
    monkeypatch.setattr(engine, "_class_of_cache", OrderedDict())


@pytest.fixture(params=["numpy"])
def backend(request):
    """The one enumeration engine, as a parameter so that case IDs name it."""
    assert engine.active_backend() == request.param
    return request.param


@pytest.fixture
def knuth_like():
    return relation.parse_partition("{123,321}{132,231}")


@pytest.fixture
def single_part():
    return relation.parse_partition("{123,132,231}")
