"""The benchmark's per-layer metrics name homdom functions; each must exist.

``perfbench/run.py --trace 1`` reports ``<module>.<function>.*`` and
``<module>.<Class>.<method>.*`` for every name listed in BENCHMARK.json and
stops with a KeyError when one of them is not a traced function. This reads
the list without editing it and checks every name against the package.
"""
import importlib
import inspect
import json
from pathlib import Path

import pytest

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
NAMES = sorted({m["name"].rsplit(".", 1)[0] for m in json.loads(SPEC.read_text())["per_layer"]}
               - {"trace"})


@pytest.mark.parametrize("name", NAMES)
def test_per_layer_name_resolves(name):
    module, *path = name.split(".")
    mod = importlib.import_module(f"homdom.{module}")
    if not path:
        return  # a module's total self time
    # the tracer wraps public functions, and public methods of public
    # classes, that are defined in the module itself
    owner = mod
    for part in path[:-1]:
        owner = vars(owner).get(part)
        assert inspect.isclass(owner) and owner.__module__ == mod.__name__, name
    obj = vars(owner).get(path[-1])
    obj = getattr(obj, "__func__", obj)  # a classmethod or staticmethod
    assert inspect.isfunction(obj) and obj.__module__ == mod.__name__, name
