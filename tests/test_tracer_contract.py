"""The benchmark's span tracer and the library agree on names.

``perfbench/tracer.py`` wraps every function its ``TARGETS`` lists, each on
its ``relfair.<layer>`` module, and reads ``Dataset.rows``,
``cli._seed_job`` and ``cli.build_parser``.  A refactor that renames one of
them fails here rather than in a traced benchmark run.  ``TARGETS`` is read
from the tracer itself, so the list has one home.
"""

import importlib
import importlib.util
import pathlib

import pytest

from relfair import cli
from relfair.data import Dataset

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    # the tracer's module-level imports are all stdlib
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS


@pytest.mark.parametrize(
    "layer, qualname",
    [(layer, name) for layer, names in TARGETS.items() for name in names],
)
def test_every_traced_target_resolves(layer, qualname):
    owner = importlib.import_module(f"relfair.{layer}")
    for attr in qualname.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)


def test_tracer_reads_rows_and_cli_hooks():
    assert isinstance(Dataset.rows, property)
    assert callable(cli._seed_job)
    assert callable(cli.build_parser)
