"""The benchmark's traced run rebinds module globals listed in
bench/tracing.py; every one must still exist, or `--trace 1` crashes."""

import importlib
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
_write_bytecode = sys.dont_write_bytecode
sys.dont_write_bytecode = True  # leave no __pycache__ under bench/
import tracing  # noqa: E402

sys.dont_write_bytecode = _write_bytecode


def test_traced_functions_resolve():
    assert tracing.WRAPPED
    for module_name, attr, _ in tracing.WRAPPED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
