"""Approximate maximum-volume inscribed ellipsoids of symmetric polytopes.

Given an m-by-n matrix A of full column rank describing the polytope
``{x : -1 <= A x <= 1}``, this package computes nonnegative row weights w
such that ``{x : x^T A^T diag(w) A x <= 1}`` is a provably good inscribed
ellipsoid, via an exact leverage-score fixed-point iteration or a
Gaussian-sketched variant, and certifies the result independently.

The public names are those listed in the submodules' ``__all__``; the
package root re-exports them and adds ``__version__``.  Submodules are
imported lazily, on first access to one of their names, and ``errors`` and
``cli`` are searched first, so that ``johnellip --help``, the command
line's usage errors and ``johnellip.DomainError`` load neither numpy nor
scipy (see ``cli``).
"""

from __future__ import annotations

__version__ = "0.1.0"

# Searched in this order for a public name; the first two import nothing heavy.
_SUBMODULES = ("errors", "cli", "core", "fixed_point", "sketched", "certification",
               "mmio", "generators", "reports", "_driver")


def _modules():
    import importlib

    return (importlib.import_module(f".{name}", __name__) for name in _SUBMODULES)


def __getattr__(name: str):
    if name == "__all__":
        return __dir__()
    # Submodule, private and dunder names are left to the import system
    # (`from johnellip import cli` probes with hasattr first), so they
    # import nothing here.
    if not name.startswith("_") and name not in _SUBMODULES:
        for module in _modules():
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(name for module in _modules() for name in module.__all__) + ["__version__"]
