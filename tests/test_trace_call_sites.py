"""The benchmark tracer wraps functions by the name a module looks them up
under (``perfbench/tracing.py`` ``CALL_SITES``). A renamed or dropped
function leaves the tier-1 suite green but breaks a traced run, so each
call site is checked here without running the benchmark."""

import importlib
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("tracing")


def test_every_call_site_resolves(tracing):
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.CALL_SITES
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    assert missing == []
