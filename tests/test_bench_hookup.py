"""The benchmark's per-layer tracer must find every function it wraps.

``perfbench/layertrace.py`` looks up each ``SPANS`` entry by name, so a
deleted or renamed library function breaks every traced benchmark run.
The tracer is loaded from its file, installed and uninstalled here."""

import importlib
import importlib.util
import inspect
import pathlib
import sys

import logdiv
from logdiv import grammar

LAYERTRACE = (pathlib.Path(__file__).resolve().parent.parent
              / "perfbench" / "layertrace.py")


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owners():
    """Every logdiv module and every logdiv class they bind."""
    modules = [m for k, m in sorted(sys.modules.items())
               if k == "logdiv" or k.startswith("logdiv.")]
    owners = list(modules)
    for m in modules:
        owners.extend(v for v in vars(m).values()
                      if inspect.isclass(v) and v.__module__.startswith("logdiv"))
    return list(dict.fromkeys(owners))


def test_every_span_is_wrapped_and_restored():
    lt = _load_layertrace()
    for layer in lt.LAYERS:
        importlib.import_module(f"logdiv.{layer}")
    before = {(owner, key): value for owner in _owners()
              for key, value in vars(owner).items()}
    tracer = lt.Tracer()
    tracer.install()
    try:
        rebound = {}
        for owner, key, fn in tracer._saved:
            rebound.setdefault(fn, []).append((owner, key))
        for layer, path in lt.SPANS:
            holder = importlib.import_module(f"logdiv.{layer}")
            *outer, attr = path.split(".")
            for part in outer:
                holder = getattr(holder, part)
            wrapper = vars(holder)[attr]
            original = wrapper.__wrapped__
            assert before[(holder, attr)] is original, (layer, path)
            assert rebound.get(original), (layer, path)
        assert logdiv.parse_polynomial("x*y", 2) == grammar.parse_polynomial(
            "y*x", 2)
        assert tracer.stats["grammar.parse_polynomial"][0] == 2
    finally:
        tracer.uninstall()
    after = {(owner, key): value for owner in _owners()
             for key, value in vars(owner).items()}
    assert tracer._saved == []
    for binding, value in before.items():
        assert after[binding] is value, binding
