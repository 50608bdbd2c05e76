"""No module of the package holds writable arrays: every module-level
array is read-only, and no module global is a dict of arrays, so no
buffer is shared between calls, graphs or threads."""
import importlib
import pkgutil

import numpy as np
import pytest

import structrel

MODULES = sorted(info.name for info in
                 pkgutil.iter_modules(structrel.__path__, "structrel."))


def test_every_module_is_found():
    assert {"structrel.autodiff", "structrel.batching",
            "structrel.encoder"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_arrays_are_read_only(name):
    module = importlib.import_module(name)
    for attr, value in vars(module).items():
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable, f"{name}.{attr}"
        if isinstance(value, dict):
            assert not any(isinstance(v, np.ndarray)
                           for v in value.values()), f"{name}.{attr}"
