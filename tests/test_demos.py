"""Every demo imports against the current library, without running main, and
the README's library quick start runs as written."""

import glob
import importlib.util
import os
import re

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: os.path.basename(p)[:-3])
def test_demo_imports(path):
    spec = importlib.util.spec_from_file_location(os.path.basename(path)[:-3], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_readme_library_quick_start_runs(capsys):
    with open(os.path.join(ROOT, "README.md")) as fh:
        section = fh.read().split("## Quick start (library)", 1)[1]
    code = re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md: Quick start (library)", "exec"), {})
    table = capsys.readouterr().out
    assert "vanilla" in table and "fairrf" in table
