"""Every name a module lists in ``__all__`` exists, and every public name
of the package is one of them or an error class, so an export a deletion
leaves behind fails here."""

import importlib
import pkgutil
import types

import tpcurves
from tpcurves import errors

MODULES = [importlib.import_module(f"tpcurves.{info.name}")
           for info in pkgutil.iter_modules(tpcurves.__path__)]


def public(namespace):
    """The names and values ``namespace`` exports, modules left out."""
    return {name: value for name, value in vars(namespace).items()
            if not name.startswith("_")
            and not isinstance(value, types.ModuleType)}


def missing_exports(modules):
    """(module, name) for each name in a module's ``__all__`` it lacks."""
    return [(m.__name__, name) for m in modules
            for name in getattr(m, "__all__", ()) if not hasattr(m, name)]


def stray_exports(package, modules, errors_module):
    """The public names of ``package`` whose value is neither the one of
    that name in some module's ``__all__`` nor in ``errors_module``,
    sorted."""
    allowed = list(public(errors_module).items())
    allowed += [(name, getattr(m, name, None)) for m in modules
                for name in getattr(m, "__all__", ())]
    return sorted(name for name, value in public(package).items()
                  if not any(n == name and v is value for n, v in allowed))


def test_module_exports_exist():
    assert len(MODULES) >= 10
    assert missing_exports(MODULES) == []


def test_package_exports_come_from_modules():
    assert stray_exports(tpcurves, MODULES, errors) == []


def test_stale_exports_are_found():
    module = types.ModuleType("mod")
    module.kept = object()
    module.__all__ = ["kept", "deleted"]
    package = types.SimpleNamespace(kept=module.kept, deleted=object(),
                                    copied=object(), GeometryError=None,
                                    mod=module, _private=1)
    assert missing_exports([module]) == [("mod", "deleted")]
    assert stray_exports(package, [module], errors) == [
        "GeometryError", "copied", "deleted"]
