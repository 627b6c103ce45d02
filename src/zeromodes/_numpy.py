"""The package's one numpy binding, which loads numpy on first use.

Counting, the sweeps, the index and the Berry-Mondragon sweep are rational
arithmetic, yet importing numpy was about half of ``import zeromodes.cli``.
Every module that needs numpy imports ``np`` from here, so ``count``,
``sweep``, ``index`` and ``bm`` sweep processes never load numpy.

``np`` is numpy itself if numpy was already imported, else a module
registered as ``sys.modules["numpy"]`` that runs numpy's import when an
attribute is first read (``importlib.util.LazyLoader``, the recipe under
"Implementing lazy imports" in the ``importlib`` docs). Either way the
process holds one numpy: a later ``import numpy`` returns this same object.

The package itself stays eager: ``import zeromodes`` imports every submodule,
and there is no module ``__getattr__``. The benchmark's tracer
(``perfbench/tracer.py``) finds each function it wraps through
``sys.modules[module]``, so every module must be loaded once ``zeromodes.cli``
is.

``verify`` and ``bm`` verify load numpy for the finite-difference oracle.
``eta`` loads it too, because ``eta_series`` sums thousands of terms as an
array. That ends once the series has a short exact tail (ROADMAP, the eta
series item).
"""

from __future__ import annotations

import importlib.util
import sys
from types import ModuleType


def _lazy(name: str) -> ModuleType:
    """The module ``name``: as imported, or bound now and executed on first use."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy("numpy")
