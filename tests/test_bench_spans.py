"""The bench span tracer patches renydiv by name: every name it lists must exist."""
import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_traced_names_resolve():
    spans = _load_spans()
    for module, attr, _span in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"renydiv.{module}"), attr, None)), (
            f"renydiv.{module}.{attr}")
    for module, cls_name in spans.CLASSES:
        cls = getattr(importlib.import_module(f"renydiv.{module}"), cls_name)
        assert "__post_init__" in vars(cls), f"renydiv.{module}.{cls_name}.__post_init__"
