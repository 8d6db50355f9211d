import importlib
import pkgutil

import cubefill


def test_public_names_resolve():
    modules = [cubefill] + [
        importlib.import_module(f"cubefill.{info.name}")
        for info in pkgutil.iter_modules(cubefill.__path__)
    ]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
