"""The python examples of README.md run and show the values their comments give."""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def run_readme_blocks():
    """Run every python block of the README in one namespace, in order.

    Returns the namespace and the values of the bare expression statements,
    the lines whose results the README shows in a comment below them.
    """
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    ns, shown = {}, []
    for block in blocks:
        for stmt in ast.parse(block).body:
            if isinstance(stmt, ast.Expr):
                shown.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), ns))
            else:
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
    return ns, shown


def test_readme_examples_show_their_values():
    ns, shown = run_readme_blocks()
    assert len(shown) == 5
    verdict, nearest, distance = shown[0]
    assert (verdict, nearest) == ("well_posed", 0.25)
    assert distance == pytest.approx(0.01, rel=1e-12)
    assert shown[1] == pytest.approx([0.909606, 0.0, -0.118364, 0.0], abs=5e-7)
    value, deriv, saturated = shown[2]
    assert (value, deriv) == pytest.approx((0.65704238, -1.07229772), abs=5e-9)
    assert not saturated
    assert shown[3] == "complex_pair"
    assert shown[4] == (0.0625, 0.1111111111111111, 0.25, 1.0)
