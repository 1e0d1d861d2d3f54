"""Every dense BLAS/LAPACK call of the kernel goes through numpy.

numpy and scipy each bundle their own OpenBLAS with its own thread pool.
Alternating calls between the two pools inside a sweep costs far more than
the arithmetic on small problems, so ``scipy.linalg`` is allowed in exactly
one place: the one-time ``lapack.dpstrf`` rank check in ``core.py``.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "johnellip").glob("*.py"))
ALLOWED = {("core.py", "lapack")}


def scipy_linalg_imports(tree):
    """Yield the name each import takes from ``scipy.linalg``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "scipy.linalg" or alias.name.startswith("scipy.linalg."):
                    yield alias.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "scipy":
                yield from (a.name for a in node.names if a.name == "linalg")
            elif module == "scipy.linalg":
                yield from (a.name for a in node.names)
            elif module.startswith("scipy.linalg."):
                yield module


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"core.py", "sketched.py", "certification.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_scipy_linalg_outside_the_rank_check(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    names = [name for name in scipy_linalg_imports(tree) if (path.name, name) not in ALLOWED]
    assert names == [], f"{path.name} imports {names} from scipy.linalg"
