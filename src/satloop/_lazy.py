"""Modules imported on first use.

single-loop and validate run on Python floats, so the numpy that the array
forms need is executed only when one of them first reads an attribute of it
(importlib.util.LazyLoader; the recipe in the importlib documentation).
"""
import importlib.util
import sys


def lazy_import(name: str):
    """The module name, found now and executed at its first attribute access.

    A module already imported is returned as it is. A module that cannot be
    found raises ModuleNotFoundError here, at import, not at first use.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module
