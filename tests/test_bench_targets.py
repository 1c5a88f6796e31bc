"""The benchmark tracer's targets must name functions that exist.

The tracer reports a renamed or moved target only as `tracer_missing` and
reads its layer metrics as 0, so a refactor of the package could silently
blank them. This imports bench/tracer.py without installing it.
"""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("modname, attr, name", TARGETS, ids=[t[2] for t in TARGETS])
def test_tracer_target_resolves(modname, attr, name):
    *cls_path, key = attr.split(".")
    owner = importlib.import_module(modname)
    for part in cls_path:
        owner = vars(owner)[part]
        assert inspect.isclass(owner)
    assert key in vars(owner), f"{modname}.{attr} ({name}) is gone"
    assert callable(getattr(owner, key))
