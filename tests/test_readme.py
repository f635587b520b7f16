"""The README's python blocks run as written, from the repository root, and
give the values their comments show."""

import ast
import re
from fractions import Fraction

import pytest

from piforge.core import format_magnitude
from piforge.exactlin import QMatrix

from support import ROOT

README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)

# (expression as the README writes it, the start of its comment, its value)
SHOWN = [
    ("basis.groups[0].exponents", "(-1, 1, 2)", (-1, 1, 2)),
    ("sb.base.groups[0].exponents", "(-1/2, 1/2, 1)", (Fraction(-1, 2), Fraction(1, 2), 1)),
    ("transition(basis, sb.base).matrix", "[[1/2]]", QMatrix.from_rows([["1/2"]])),
    ("pi_values(basis, xs).values", "(36.0,)", (36.0,)),
]


@pytest.fixture(scope="module")
def tour():
    """Every block run in one namespace, in order; `results` holds the value
    of each block's final expression."""
    namespace, results = {}, []
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(ROOT)
        for block in BLOCKS:
            tree = ast.parse(block)
            last = tree.body.pop() if isinstance(tree.body[-1], ast.Expr) else None
            exec(compile(tree, "README.md", "exec"), namespace)
            if last is not None:
                results.append(eval(compile(ast.Expression(last.value), "README.md", "eval"), namespace))
    return namespace, results


def test_there_are_blocks_to_run():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("expression,comment,value", SHOWN, ids=[s[0] for s in SHOWN])
def test_commented_values(tour, expression, comment, value):
    namespace, _ = tour
    lines = [line for block in BLOCKS for line in block.splitlines()]
    shown = [line.split("#", 1)[1].strip() for line in lines
             if "#" in line and line.split("#", 1)[0].strip() == expression]
    assert len(shown) == 1 and shown[0].startswith(comment), shown
    assert eval(expression, namespace) == value


def test_consistency_example(tour):
    _, results = tour
    report = results[-1]
    assert "ConsistencyReport(consistent=False, witness=ClashWitness(combo=(-1, 1, 1)," in README
    assert "log_clash_factor=12.129...))   — knot*hr/cm = 185200" in README
    assert report.consistent is False
    assert report.witness.combo.exponents == (-1, 1, 1)
    assert f"{report.witness.log_clash_factor:.3f}" == "12.129"
    assert format_magnitude(report.witness.log_clash_factor) == "185200"
