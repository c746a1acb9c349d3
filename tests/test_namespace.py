"""The package namespace is lazy: a process loads only the modules it uses."""

import importlib
import json

import pytest

import relfair
from _fresh_python import run_python


def loaded_after(code):
    """The relfair modules, numpy and concurrent.futures loaded by ``code``."""
    probe = (
        "import json, sys\n"
        f"{code}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'relfair'"
        " or m in ('numpy', 'concurrent.futures'))))\n"
    )
    return json.loads(run_python(["-c", probe]))


class TestFreshProcess:
    def test_import_loads_no_submodule_and_not_numpy(self):
        assert loaded_after("import relfair") == ["relfair"]

    def test_loading_a_dataset_loads_only_the_data_module(self):
        # the benchmark's setup import
        code = "import relfair\nfrom relfair.data import builtin_config, load_from_config"
        assert [m for m in loaded_after(code) if m != "numpy"] == ["relfair", "relfair.data"]

    def test_the_cli_loads_neither_stats_synthetic_nor_a_pool(self):
        loaded = loaded_after("import relfair.cli")
        assert "relfair.training" in loaded
        for module in ("relfair.stats", "relfair.synthetic", "concurrent.futures"):
            assert module not in loaded


class TestNamespace:
    def test_every_public_name_is_its_submodules_object(self):
        for name in relfair.__all__:
            module = importlib.import_module(f"relfair.{relfair._SOURCE[name]}")
            assert getattr(relfair, name) is getattr(module, name)

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from relfair import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(relfair.__all__)

    def test_dir_covers_all_and_the_submodules(self):
        listed = dir(relfair)
        assert set(relfair.__all__) <= set(listed)
        assert {"cli", "data", "training"} <= set(listed)

    def test_submodules_are_attributes(self):
        from relfair import cli, training

        assert relfair.cli is cli and relfair.training is training
        assert relfair.data is importlib.import_module("relfair.data")

    def test_an_unknown_name_raises_attribute_error_naming_it(self):
        with pytest.raises(AttributeError, match="'relfair' has no attribute 'TrainConfg'"):
            relfair.TrainConfg
        with pytest.raises(ImportError, match="TrainConfg"):
            exec("from relfair import TrainConfg", {})
