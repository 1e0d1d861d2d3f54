"""The package root: one list of public names, read from the submodules."""

import importlib
import pkgutil
import subprocess
import sys

import pytest

import johnellip


def listing_modules():
    """Each submodule that declares ``__all__``, by name."""
    modules = {}
    for info in pkgutil.iter_modules(johnellip.__path__):
        module = importlib.import_module(f"johnellip.{info.name}")
        if hasattr(module, "__all__"):
            modules[info.name] = module
    return modules


def test_light_names_load_no_numerical_stack():
    # Submodule names, private names and dunders are left to the import
    # system, so probing for them imports nothing either.
    code = (
        "import sys\n"
        "import johnellip\n"
        "johnellip.DomainError, johnellip.RunRequest\n"
        "from johnellip import cli, errors\n"
        "assert not hasattr(johnellip, 'certification')\n"
        "assert not hasattr(johnellip, '_driver')\n"
        "assert not hasattr(johnellip, '__wrapped__')\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_every_public_name_is_its_submodule_object():
    owners = {name: module for module in listing_modules().values() for name in module.__all__}
    assert sorted(johnellip.__all__) == sorted([*owners, "__version__"])
    assert sorted(dir(johnellip)) == sorted(johnellip.__all__)
    for name, module in owners.items():
        assert getattr(johnellip, name) is getattr(module, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from johnellip import *", namespace)
    assert set(johnellip.__all__) <= set(namespace)
    for name in johnellip.__all__:
        assert namespace[name] is getattr(johnellip, name)


def test_no_name_is_listed_twice():
    seen = {}
    for module_name, module in listing_modules().items():
        for name in module.__all__:
            assert name not in seen, f"{name} is in {seen.get(name)} and {module_name}"
            seen[name] = module_name


@pytest.mark.parametrize("name", ["main", "no_such_name"])
def test_names_outside_the_lists_are_missing(name):
    with pytest.raises(AttributeError, match=name):
        getattr(johnellip, name)
