"""Names looked up from outside the package: every one must resolve.

Console scripts name their targets in pyproject.toml, and the benchmark's
tracer (perfbench/tracer.py) wraps functions by module and attribute name,
so deleting or renaming one of them breaks those callers without an
ImportError anywhere in the package.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
TRACER = ROOT / "perfbench" / "tracer.py"


def resolve(module, path):
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def test_console_scripts_import():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(resolve(module, attr)), name


def test_tracer_spans_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, path, *_ in tracer.FUNCTION_SPANS:
        assert callable(resolve(module, path)), (module, path)
    assert tracer.GENERATOR_SPANS
    for module, path, _ in tracer.GENERATOR_SPANS:
        assert inspect.isgeneratorfunction(resolve(module, path)), (module, path)
