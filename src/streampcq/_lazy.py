"""numpy, executed at its first attribute access rather than at import.

`extract`, `synth`, `--help` and argument errors never touch numpy, so a
process that runs only them starts without paying for it (most of an
`import streampcq.cli`).  Every package module still imports, and the
modules that compute take `np` from here.  Where numpy is already loaded,
`np` is that very module.  The first load runs inside whichever attribute
access comes first; on Python 3.11 `importlib.util.LazyLoader` does not lock
it, so that first access should not race across threads.
"""

import importlib.util
import sys


def _lazy(name: str):
    """`sys.modules[name]` if loaded, else a module that executes on first use
    (the lazy-import recipe of the `importlib` documentation)."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")
