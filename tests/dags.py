"""Shared hypothesis strategies for the tests."""

from fractions import Fraction

from hypothesis import strategies as st

from qpweyl.expr import ExprError, add, div, mul, num, pow_, sub, sym

# Constants with denominators 2, 3 and p - 1 for p = 2^61 - 1, which 2, 3, 5
# and 7 divide: a lane run keeps a constant's denominator only when it is
# not 1, and gives up on every point when p divides it.
DAG_LEAVES = (sym("f"), sym("g"), sym("q"), num(2), num(Fraction(1, 2)), num(Fraction(1, 3)),
               num(Fraction(-1, (1 << 61) - 2)), num(-1))


@st.composite
def small_dags(draw):
    """Random small DAGs built as straight-line programs, so later nodes share
    earlier ones; a step the factories reject is skipped."""
    nodes = list(DAG_LEAVES)
    for _ in range(draw(st.integers(1, 12))):
        op = draw(st.sampled_from("+-*/^"))
        # Operands lean to recent nodes, so the DAG grows deep and wide.
        a = nodes[-draw(st.integers(1, len(nodes)))]
        b = nodes[-draw(st.integers(1, len(nodes)))]
        try:
            if op == "^":
                node = pow_(a, draw(st.integers(-3, 3)))
            else:
                node = {"+": add, "-": sub, "*": mul, "/": div}[op](a, b)
        except ExprError:
            continue
        nodes.append(node)
    return nodes[-1]
