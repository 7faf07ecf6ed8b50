"""The benchmark's tracer wraps cfspectra functions by name; a renamed or
deleted hooked name would crash every traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.HOOKS


@pytest.mark.parametrize("module, attr", [hook[:2] for hook in _hooks()])
def test_tracer_hook_resolves(module, attr):
    target = importlib.import_module("cfspectra." + module)
    for name in attr.split("."):
        target = getattr(target, name)
    assert callable(target)
