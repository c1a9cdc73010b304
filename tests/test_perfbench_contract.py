"""The benchmark's tracer wraps prefpipe functions and methods by name from
outside (``perfbench/tracing.py``). A rename or a move in ``src/`` would make
``--trace 1`` fail at install time, or stop timing a layer without a word;
this test catches that in the ordinary test run."""

import importlib
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("tracing")


def test_every_traced_function_exists_on_its_module(monkeypatch):
    tracing = _tracing(monkeypatch)
    missing = [
        f"{module.__name__}.{name}"
        for module, name, _, _ in tracing.FUNCTIONS
        if not callable(vars(module).get(name))
    ]
    assert not missing


def test_every_traced_method_is_defined_on_its_class(monkeypatch):
    tracing = _tracing(monkeypatch)
    missing = [
        f"{cls.__qualname__}.{name}"
        for cls, name, _, _ in tracing.METHODS
        if not callable(cls.__dict__.get(name))
    ]
    assert not missing
