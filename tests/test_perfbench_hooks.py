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


def test_sigma_enumerate_sends_every_survivor_through_membership(monkeypatch):
    """The tracer counts verdicts by wrapping lang.membership, so
    sigma_enumerate must call it by that name for every survivor."""
    from cfspectra import lang

    seen = []
    inner = lang.membership

    def counted(w, *args, **kwargs):
        seen.append(str(w))
        return inner(w, *args, **kwargs)

    monkeypatch.setattr(lang, "membership", counted)
    th = lang.Threshold.of("3+6^-6")
    got = lang.sigma_enumerate(th, 12)
    survivors = [b[0] for b in lang._enumerate_survivors(th, 12, lang._word_tables(th, 12))]
    assert sorted(seen) == sorted(survivors) and len(set(seen)) == len(seen)
    assert set(got.words) | set(got.unresolved) <= set(seen)
