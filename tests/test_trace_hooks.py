"""The benchmark's layer tracer wraps package functions by module attribute
(``perfbench/tracer.py``); a renamed or moved function fails every traced
run, so each wrapped attribute must resolve."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_wraps():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPS


def test_every_traced_attribute_resolves():
    wraps = load_wraps()
    assert wraps
    for module_name, attr, _, _, is_generator in wraps:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert callable(fn), f"{module_name}.{attr} is missing"
        assert inspect.isgeneratorfunction(fn) == is_generator, f"{module_name}.{attr}"
