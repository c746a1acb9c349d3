"""Every demo imports against the current library, without running main."""

import glob
import importlib.util
import os

import pytest

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "demos", "*.py")))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: os.path.basename(p)[:-3])
def test_demo_imports(path):
    spec = importlib.util.spec_from_file_location(os.path.basename(path)[:-3], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
