"""The benchmark tracer's counters name functions and parameters of the package.

``benchmarks/tracing.py`` reads work counts from the bound arguments of a
few calls and sums the spans of the ``ple`` drivers. A rename here would not
fail the benchmark; it would silently zero a per-layer metric. This test
loads the tracer by path and checks every name it relies on.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(dotted: str):
    layer, *attrs = dotted.split(".")
    obj = importlib.import_module(f"plelidar.{layer}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


class _ArgReader(dict):
    """Bound-arguments stand-in that records the one name a counter reads."""

    def __missing__(self, key):
        self.read = key
        raise KeyError(key)


def _parameter_read_by(counter):
    """The argument name `counter` reads, or None when it reads only the result."""
    args = _ArgReader()
    try:
        counter(args, None)
    except (KeyError, TypeError):  # TypeError: len(None) of the absent result
        pass
    return getattr(args, "read", None)


COUNTERS = _load_tracing().COUNTERS


@pytest.mark.parametrize("name", sorted(COUNTERS))
def test_counter_reads_an_existing_parameter(name):
    params = inspect.signature(_resolve(name)).parameters
    read = _parameter_read_by(COUNTERS[name])
    assert read is None or read in params, f"{name} has no parameter {read!r}"


def test_counters_cover_the_expected_parameters():
    reads = {_parameter_read_by(counter) for counter in COUNTERS.values()}
    assert {"points", "queries", "references", "path", "gt"} <= reads


@pytest.mark.parametrize(
    "name", ["ple.run_naive", "ple.run_progressive", "ssl_mini.assemble_training_data"]
)
def test_spanned_functions_exist(name):
    assert inspect.isfunction(_resolve(name))
