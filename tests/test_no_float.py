"""The library computes exactly: no floating point in ``src/sppreserve``.

On ints a stray ``/`` or ``math`` call silently returns a float, and a
float loses the strictness gaps the constructions depend on.  This test
parses every module and rejects float literals, ``float()`` and ``round()``
calls, and every ``math`` function but the integer ones.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sppreserve"
MATH_ALLOWED = {"gcd", "lcm"}


def float_uses(source: str) -> list[str]:
    """``line: what`` for every float construct in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{node.lineno}: literal {node.value!r}")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "round")
        ):
            found.append(f"{node.lineno}: {node.func.id}()")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in MATH_ALLOWED
        ):
            found.append(f"{node.lineno}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [
                f"{node.lineno}: from math import {a.name}"
                for a in node.names
                if a.name not in MATH_ALLOWED
            ]
        elif isinstance(node, ast.Import):
            found += [
                f"{node.lineno}: import math as {a.asname}"
                for a in node.names
                if a.name == "math" and a.asname
            ]
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_library_module_has_no_float(module):
    assert float_uses((SRC / module).read_text()) == []


@pytest.mark.parametrize(
    "snippet",
    [
        "x = 1e-9",
        "x = 0.5 * y",
        "x = float(y)",
        "x = round(y, 3)",
        "import math\nx = math.sqrt(y)",
        "import math\nx = math.log2(y)",
        "from math import floor",
        "import math as m",
    ],
)
def test_float_guard_catches(snippet):
    assert float_uses(snippet)


def test_float_guard_allows_integer_math():
    assert float_uses("import math\nfrom math import gcd\nx = math.lcm(a, b) // gcd(c, d)") == []
