import importlib
import os
import pkgutil
import subprocess
import sys

import cubefill

MODULES = [
    importlib.import_module(f"cubefill.{info.name}")
    for info in pkgutil.iter_modules(cubefill.__path__)
]
EXPORTING = [module for module in MODULES if hasattr(module, "__all__")]


def test_public_names_resolve():
    for module in [cubefill] + MODULES:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_no_name_is_exported_by_two_modules():
    owners: dict[str, str] = {}
    for module in EXPORTING:
        for name in module.__all__:
            assert name not in owners, (name, owners.get(name), module.__name__)
            owners[name] = module.__name__


def test_package_reexports_each_module_name_itself():
    exported = {name: module for module in EXPORTING for name in module.__all__}
    assert sorted(cubefill.__all__) == sorted(exported)
    for name, module in exported.items():
        assert getattr(cubefill, name) is getattr(module, name), (name, module.__name__)


def test_cli_starts_without_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize: ~12 ms of every CLI
    # start; typing, for NamedTuple alone, another ~4 ms
    parent = os.path.dirname(os.path.dirname(os.path.abspath(cubefill.__file__)))
    probe = "import cubefill.cli; print(sorted({'dataclasses', 'typing'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", f"import sys; sys.path.insert(0, {parent!r}); {probe}"],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"
