"""The benchmark's span targets (``perfbench/spans.py``) still name live
functions of the package, so a rename shows here and not only when the
benchmark runs; and, marked ``slow``, the benchmark's own self-check."""

import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize(
    "module,qual,kind", TARGETS, ids=[f"{m}.{q}" for m, q, _ in TARGETS]
)
def test_target_resolves(module, qual, kind):
    home = importlib.import_module(f"coneideal.{module}")
    if "." in qual:
        cls_name, attr = qual.split(".")
        assert attr in vars(getattr(home, cls_name)), qual
        fn = vars(getattr(home, cls_name))[attr]
    else:
        fn = getattr(home, qual)
    assert callable(fn)
    if kind == "gen":
        assert inspect.isgeneratorfunction(fn), qual


@pytest.mark.slow
def test_benchmark_selftest_passes():
    # every workload's toy run, traced and untraced, and its result line
    root = SPANS.parents[1]
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "selftest.py")],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
