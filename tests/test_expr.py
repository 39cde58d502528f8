"""Expression core: parsing, printing, interning, substitution, evaluation."""

import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qpweyl.expr import (
    DivisionByZero,
    ExprError,
    ExprSyntaxError,
    UnknownSymbolError,
    add,
    dag_size,
    div,
    evaluate,
    mul,
    neg,
    num,
    parse,
    pow_,
    sub,
    substitute,
    sym,
    to_latex,
    to_string,
)


def test_parse_product_of_symbols():
    e = parse("nu3*nu4")
    assert e.kind == "mul"
    assert [c.name for c in e.children] == ["nu3", "nu4"]


def test_parse_constraint_replacement():
    e = parse("kappa1^2*kappa2^2/(q*nu1*nu2*nu3*nu4*nu5*nu6*nu7)")
    assert e.kind == "div"
    assert e.free == {"kappa1", "kappa2", "q", "nu1", "nu2", "nu3", "nu4",
                      "nu5", "nu6", "nu7"}


def test_parse_quadratic_factor():
    e = parse("(g - nu5/kappa2)*(g - nu6/kappa2)")
    assert e.kind == "mul"
    assert len(e.children) == 2
    assert all(c.kind == "add" for c in e.children)


def test_interning_gives_identical_nodes():
    a = parse("f*(g - 1/nu1)")
    b = mul(sym("f"), sub(sym("g"), div(num(1), sym("nu1"))))
    assert a is b


def test_rational_literal_folds():
    assert parse("3/4") is num(Fraction(3, 4))
    assert parse("-3/4") is num(Fraction(-3, 4))


def test_nested_inverse_collapses():
    e = div(num(1), div(num(1), sym("nu7")))
    assert e is sym("nu7")


ROUND_TRIP_CASES = [
    "nu3*nu4",
    "kappa1^2*kappa2^2/(q*nu1*nu2*nu3*nu4*nu5*nu6*nu7)",
    "(g - nu5/kappa2)*(g - nu6/kappa2)",
    "f*(g - 1/nu1)/(g - nu5/kappa2)",
    "1/(kappa2*g)",
    "-3*f + 2/7",
    "q^-1",
    "(f - z)^2/(q*(q*f - z))",
    "z*(g*nu1 - 1)*(g*nu2 - 1)/(q*g) - nu1*nu2*nu3*nu4*(g - nu5/kappa2)*(g - nu6/kappa2)/(f*g)",
    "g*nu7*(nu1 - f)/(kappa1 - nu7*f + (nu1*nu7 - kappa1)*f*g)",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CASES)
def test_print_parse_round_trip(text):
    e = parse(text)
    assert parse(to_string(e)) is e


def _random_expr(rng, depth=4):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return num(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        return sym(rng.choice(["q", "nu1", "nu5", "kappa2", "f", "g", "z"]))
    op = rng.choice(["add", "mul", "div", "pow", "neg"])
    a = _random_expr(rng, depth - 1)
    b = _random_expr(rng, depth - 1)
    if op == "add":
        return add(a, b)
    if op == "mul":
        return mul(a, b)
    if op == "div":
        try:
            return div(a, b)
        except ExprError:
            return a
    if op == "pow":
        try:
            return pow_(a, rng.choice([-2, -1, 2, 3]))
        except ExprError:
            return a
    return neg(a)


def test_round_trip_on_random_expressions():
    rng = random.Random(20240)
    for _ in range(300):
        e = _random_expr(rng)
        assert parse(to_string(e)) is e, to_string(e)


def test_syntax_error_carries_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("nu1 + * nu2")
    assert err.value.offset == 6


def test_unknown_symbol_lists_name():
    with pytest.raises(UnknownSymbolError) as err:
        parse("nu1 + bogus")
    assert err.value.name == "bogus"
    # pi1/pi2 are word-only names, never expression symbols
    with pytest.raises(UnknownSymbolError):
        parse("pi1")


def test_declared_fresh_symbols_are_accepted():
    e = parse("fbar*g - 1", extra_symbols=("fbar",))
    assert "fbar" in e.free


def test_zero_denominator_rejected():
    with pytest.raises(ExprError):
        parse("f/0")


def test_eval_exact_cancellation():
    e = parse("q*nu1/nu1")
    assert evaluate(e, {"q": Fraction(3), "nu1": Fraction(5)}) == 3


def test_eval_constraint_point():
    # a point satisfying kappa1^2 kappa2^2 = q nu1...nu8 kills the residual
    vals = {f"nu{i}": Fraction(i + 1) for i in range(1, 8)}
    vals["q"] = Fraction(2)
    vals["kappa1"] = Fraction(3)
    vals["kappa2"] = Fraction(5)
    prod = Fraction(2)
    for i in range(1, 8):
        prod *= vals[f"nu{i}"]
    vals["nu8"] = Fraction(9 * 25) / prod
    residual = parse("kappa1^2*kappa2^2 - q*nu1*nu2*nu3*nu4*nu5*nu6*nu7*nu8")
    assert evaluate(residual, vals) == 0


def test_eval_prime_field_matches_exact():
    p = (1 << 61) - 1
    e = parse("(f - nu1)*(f - nu2)/(q*(f - nu3))")
    vals = {"f": 10, "nu1": 3, "nu2": 4, "nu3": 7, "q": 2}
    exact = evaluate(e, {k: Fraction(v) for k, v in vals.items()})
    modp = evaluate(e, vals, p)
    assert (exact.numerator * pow(exact.denominator, p - 2, p)) % p == modp


def test_eval_division_by_zero_carries_node():
    e = parse("1/(f - nu3)")
    with pytest.raises(DivisionByZero) as err:
        evaluate(e, {"f": Fraction(7), "nu3": Fraction(7)})
    assert err.value.node is e


def _reference_evaluate(e, values, p=None):
    """The plain post-order walk with one dict memo and one inverse per
    quotient: the reference the compiled projective evaluation must match,
    down to the node a DivisionByZero names."""
    memo = {}
    stack = [e]
    while stack:
        node = stack[-1]
        if node in memo:
            stack.pop()
            continue
        pending = [ch for ch in node.children if ch not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()

        def inverse(v):
            if (v % p if p else v) == 0:
                raise DivisionByZero(node)
            return pow(v, -1, p) if p else 1 / v

        kids = [memo[ch] for ch in node.children]
        if node.kind == "num":
            v = node.value
            value = v if p is None else v.numerator * inverse(v.denominator) % p
        elif node.kind == "sym":
            v = values[node.name]
            value = Fraction(v) if p is None else v % p
        elif node.kind == "add":
            value = sum(kids, Fraction(0)) if p is None else sum(kids) % p
        elif node.kind == "mul":
            value = Fraction(1) if p is None else 1
            for v in kids:
                value = value * v if p is None else value * v % p
        elif node.kind == "pow":
            base, n = kids[0], node.exp
            if n < 0:
                base, n = inverse(base), -n
            value = base ** n if p is None else pow(base, n, p)
        else:
            value = kids[0] * inverse(kids[1])
            value = value if p is None else value % p
        memo[node] = value
    return memo[e]


_DAG_LEAVES = (sym("f"), sym("g"), sym("q"), num(2), num(Fraction(1, 3)), num(-1))


@st.composite
def small_dags(draw):
    """Random small DAGs built as straight-line programs, so later nodes share
    earlier ones; a step the factories reject is skipped."""
    nodes = list(_DAG_LEAVES)
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


@settings(max_examples=300, deadline=None)
@given(small_dags(), st.sampled_from([2, 3, 5, 7, (1 << 61) - 1]),
       st.tuples(*[st.integers(-2, 3)] * 3))
def test_evaluation_matches_reference_walk(e, p, point):
    # Small primes and small values make zero divisors, zero negative-power
    # bases and constants with denominator 3 vanishing mod p all frequent.
    values = dict(zip(("f", "g", "q"), point))
    for prime in (None, p):
        try:
            expected = _reference_evaluate(e, values, prime)
        except DivisionByZero as err:
            with pytest.raises(DivisionByZero) as got:
                evaluate(e, values, prime)
            assert got.value.node is err.node
        else:
            assert evaluate(e, values, prime) == expected
    try:
        over_q = evaluate(e, values)
        over_fp = evaluate(e, values, p)
    except DivisionByZero:
        return
    assert over_fp == over_q.numerator * pow(over_q.denominator, -1, p) % p


def test_interning_is_thread_safe():
    # Racing builders of the same fresh keys must get one node per key, and
    # distinct keys distinct uids (add keys are built from child uids).
    workers, keys = 8, 3000
    built = [None] * workers
    barrier = threading.Barrier(workers, timeout=30)

    def build(slot):
        barrier.wait()
        built[slot] = [add(sym("f"), num(Fraction(k, 1_000_003))) for k in range(1, keys + 1)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i,)) for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for nodes in built[1:]:
        assert all(x is y for x, y in zip(nodes, built[0]))
    assert len({n.uid for n in built[0]}) == keys
    assert len({n.children[1].uid for n in built[0]}) == keys


def test_substitute_simultaneous():
    # simultaneous, not sequential: nu1 -> nu2 while nu2 -> nu1
    e = parse("nu1/nu2")
    out = substitute(e, {"nu1": sym("nu2"), "nu2": sym("nu1")})
    assert out is parse("nu2/nu1")


def test_substitute_prunes_untouched_subtrees():
    e = parse("(f - nu3)*(g - nu5/kappa2)")
    out = substitute(e, {"z": sym("u")})
    assert out is e


def test_substitution_is_homomorphism():
    rng = random.Random(99)
    images = {"nu1": parse("kappa2/nu5"), "f": parse("f*(g - 1/nu1)/(g - nu5/kappa2)")}
    for _ in range(60):
        a = _random_expr(rng, 3)
        b = _random_expr(rng, 3)
        lhs = substitute(add(mul(a, b), a), images)
        ga, gb = substitute(a, images), substitute(b, images)
        assert lhs is add(mul(ga, gb), ga)


def test_dag_size_counts_shared_nodes_once():
    x = parse("(f + g)")
    e = mul(x, x)
    assert dag_size(e) == dag_size(x) + 1


def test_latex_subscripts():
    assert to_latex(parse("nu1")) == r"\nu_{1}"
    assert to_latex(parse("kappa2^2")) == r"{\kappa_{2}}^{2}"
    s = to_latex(parse("kappa1*kappa2/(nu3*nu7)"))
    assert s.count("{") == s.count("}")
    assert r"\frac" in s
