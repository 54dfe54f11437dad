"""Package attributes that import their module when first read (PEP 562)."""

import importlib
import sys


def lazy_getattr(package: str, sources: dict[str, tuple[str, ...]]):
    """A module ``__getattr__`` for ``package``: a name imports its module on first read.

    ``sources`` maps each module, relative to ``package`` (``".core"``), to
    the public names read from it; a name that is the module's own
    (``"core"`` of ``".core"``) is the module itself.  A resolved name is set
    on the package, so each import runs once, and ``__all__`` / ``from
    package import *`` give what the eager imports gave.
    """
    where = {name: module for module, names in sources.items() for name in names}

    def __getattr__(name: str):
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        loaded = importlib.import_module(module, package)
        value = loaded if loaded.__name__ == f"{package}.{name}" else getattr(loaded, name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
