"""Package attributes that import their module when first read (PEP 562)."""

import importlib
import sys
from types import ModuleType


def _defines_own_name(module: ModuleType, name: str) -> bool:
    """Whether ``module`` holds a non-module attribute ``name`` (``core.reconstruct``)."""
    return not isinstance(vars(module).get(name, module), ModuleType)


class _LazyPackage(ModuleType):
    """A package some of whose public names live in same-named submodules.

    Importing ``package.name`` sets the submodule on the package under
    ``name``; where the submodule defines ``name`` itself (the function
    ``reconstruct`` of ``repro.core.reconstruct``), the package's name is
    that, as an eager ``from .name import name`` made it, so the module is
    not set in its place and ``__getattr__`` resolves the name on first read.
    """

    def __setattr__(self, name, value):
        own = name in self.__all__ and isinstance(value, ModuleType)
        if own and _defines_own_name(value, name):
            return
        super().__setattr__(name, value)


def lazy_getattr(package: str, sources: dict[str, tuple[str, ...]]):
    """A module ``__getattr__`` for ``package``: a name imports its module on first read.

    ``sources`` maps each module, relative to ``package`` (``".core"``), to
    the public names read from it; a name that is the module's own
    (``"core"`` of ``".core"``) is the module itself, unless the module
    defines that name (``"reconstruct"`` of ``".reconstruct"``).  A resolved
    name is set on the package, so each import runs once, and ``__all__`` /
    ``from package import *`` give what the eager imports gave.
    """
    where = {name: module for module, names in sources.items() for name in names}
    sys.modules[package].__class__ = _LazyPackage

    def __getattr__(name: str):
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        loaded = importlib.import_module(module, package)
        own = loaded.__name__ == f"{package}.{name}" and not _defines_own_name(loaded, name)
        value = loaded if own else getattr(loaded, name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
