"""Expression core: parsing, printing, interning, substitution, evaluation."""

import random
import sys
import threading
import tracemalloc
from fractions import Fraction

import pytest
from dags import small_dags
from hypothesis import given, settings, strategies as st

import qpweyl.expr as expr_module
from qpweyl.evolution import time_evolution
from qpweyl.expr import (
    _LATEX_SYMBOLS,
    MAX_NESTING,
    MINUS_ONE,
    ONE,
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
from qpweyl.weyl import make_family, word_to_transform


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


@settings(max_examples=300, deadline=None)
@given(small_dags())
def test_print_parse_round_trip_on_dags(e):
    assert parse(to_string(e)) is e


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


def test_constant_folds_have_a_bit_budget():
    # a power is refused before it is computed: 2^3000000000 takes 20 s
    for text in ("2^3000000000", "2^30000000000", "(1/3)^-1048577", "3^1048577",
                 "2^1048576", "2^1048575*2", "(1/2^600000)*(1/3^400000)"):
        with pytest.raises(ExprError, match="folds to more than"):
            parse(text)
    assert expr_module.MAX_FOLD_BITS > 20001  # 2^20000, the largest constant in use
    assert parse("2^1048575").value == 2 ** 1048575
    assert parse("2^1048575/2").value == 2 ** 1048574
    assert parse("(-1)^300000000000000000000") is ONE
    assert parse("1^-300000000000000000000") is ONE


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


def test_eval_zero_to_a_negative_power_over_q_carries_node():
    e = parse("(f - nu3)^-2")
    with pytest.raises(DivisionByZero) as err:
        evaluate(e, {"f": Fraction(7), "nu3": Fraction(7)})
    assert err.value.node is e


def test_parse_unary_plus():
    assert parse("+f") is parse("f")
    assert parse("+f - g") is parse("f - g")
    assert parse("(+g)*f") is parse("g*f")


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


@settings(max_examples=300, deadline=None)
@given(small_dags(), st.sampled_from([2, 3, 5, 7, (1 << 61) - 1]), st.data())
def test_lanes_match_one_point_runs(e, p, data):
    # Values from {1, 2, 3, p - 1} make poles frequent; a lane is None exactly
    # where the one-point run raises, and zero exactly where its numerator is.
    values = st.sampled_from([1 % p, 2 % p, 3 % p, p - 1])
    m = data.draw(st.integers(1, 12))
    columns = {n: data.draw(st.lists(values, min_size=m, max_size=m)) for n in "fgq"}
    code, nodes = expr_module._compile(e)
    lanes = expr_module._run_lanes(code, columns, m, p)
    assert len(lanes) == m
    for i, lane in enumerate(lanes):
        point = {n: column[i] for n, column in columns.items()}
        try:
            numer, _ = expr_module._run_projective(code, nodes, point, p)
        except DivisionByZero:
            assert lane is None
        else:
            assert lane is not None and (lane == 0) == (numer == 0)


def test_lanes_name_a_missing_symbol():
    code, _ = expr_module._compile(parse("f + g"))
    with pytest.raises(ExprError, match="no value for symbol 'g'"):
        expr_module._run_lanes(code, {"f": [1, 2]}, 2, 7)


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


_P = (1 << 61) - 1
_IMAGES = {"f": add(sym("g"), sym("q")), "g": mul(sym("f"), sym("q"))}
_OPS = {"+": (add, lambda x, y: (x + y) % _P),
        "-": (sub, lambda x, y: (x - y) % _P),
        "*": (mul, lambda x, y: x * y % _P),
        "/": (div, lambda x, y: x * pow(y, -1, _P) % _P)}


@settings(max_examples=300, deadline=None)
@given(small_dags(), small_dags(), st.sampled_from(sorted(_OPS)),
       st.tuples(*[st.integers(1, _P - 1)] * 3))
def test_substitute_is_a_ring_homomorphism_over_fp(a, b, op, point):
    # The image of a o b evaluates like the o of the images; points where a
    # denominator vanishes (or the factories reject a o b) say nothing.
    build, combine = _OPS[op]
    values = dict(zip(("f", "g", "q"), point))
    try:
        composite = build(a, b)
        lhs = evaluate(substitute(composite, _IMAGES), values, _P)
        va = evaluate(substitute(a, _IMAGES), values, _P)
        vb = evaluate(substitute(b, _IMAGES), values, _P)
    except (ExprError, DivisionByZero):
        return
    if op == "/" and vb == 0:
        return
    assert lhs == combine(va, vb)


def test_dag_size_counts_shared_nodes_once():
    x = parse("(f + g)")
    e = mul(x, x)
    assert dag_size(e) == dag_size(x) + 1


def _distinct_nodes(e) -> int:
    seen, stack = set(), [e]
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(node.children)
    return len(seen)


@given(small_dags())
def test_dag_size_counts_distinct_reachable_nodes(e):
    assert dag_size(e) == _distinct_nodes(e)


def test_latex_subscripts():
    assert to_latex(parse("nu1")) == r"\nu_{1}"
    assert to_latex(parse("kappa2^2")) == r"{\kappa_{2}}^{2}"
    s = to_latex(parse("kappa1*kappa2/(nu3*nu7)"))
    assert s.count("{") == s.count("}")
    assert r"\frac" in s


# ---------------------------------------------------------------------------
# printers against the tree-recursive reference

def _reference_to_string(e):
    """The tree-recursive printer the post-order printer replaced, kept as
    the reference it must match byte for byte."""
    if e.kind == "num":
        return str(e.value)
    if e.kind == "sym":
        return e.name
    if e.kind == "add":
        parts = []
        for i, ch in enumerate(e.children):
            s = _reference_to_string(ch)
            if i == 0:
                parts.append(s)
            elif s.startswith("-"):
                parts.append(" - " + s[1:])
            else:
                parts.append(" + " + s)
        return "".join(parts)
    if e.kind == "mul":
        children = e.children
        lead = ""
        if children[0].kind == "num" and children[0].value == -1 and len(children) > 1:
            lead = "-"
            children = children[1:]
        parts = []
        for i, ch in enumerate(children):
            s = _reference_to_string(ch)
            if ch.kind == "add" or (ch.kind == "div" and i > 0):
                s = "(" + s + ")"
            parts.append(s)
        return lead + "*".join(parts)
    if e.kind == "pow":
        base = e.children[0]
        s = _reference_to_string(base)
        if base.kind != "sym":
            s = "(" + s + ")"
        return f"{s}^{e.exp}"
    n, d = e.children
    ns = _reference_to_string(n)
    if n.kind in ("add", "mul", "div"):
        ns = "(" + ns + ")"
    ds = _reference_to_string(d)
    if d.kind in ("add", "mul", "div"):
        ds = "(" + ds + ")"
    return f"{ns}/{ds}"


def _reference_to_latex(e):
    if e.kind == "num":
        v = e.value
        if v.denominator == 1:
            return str(v.numerator)
        s = r"\frac{%d}{%d}" % (abs(v.numerator), v.denominator)
        return "-" + s if v < 0 else s
    if e.kind == "sym":
        return _LATEX_SYMBOLS.get(e.name, e.name)
    if e.kind == "add":
        parts = []
        for i, ch in enumerate(e.children):
            s = _reference_to_latex(ch)
            if i == 0:
                parts.append(s)
            elif s.startswith("-"):
                parts.append(" - " + s[1:])
            else:
                parts.append(" + " + s)
        return "".join(parts)
    if e.kind == "mul":
        parts = []
        for ch in e.children:
            s = _reference_to_latex(ch)
            if ch.kind == "add":
                s = r"\left(" + s + r"\right)"
            parts.append(s)
        return r" \cdot ".join(parts)
    if e.kind == "pow":
        base = e.children[0]
        s = _reference_to_latex(base)
        if base.kind != "sym":
            s = r"\left(" + s + r"\right)"
        return "{%s}^{%d}" % (s, e.exp)
    n, d = e.children
    return r"\frac{%s}{%s}" % (_reference_to_latex(n), _reference_to_latex(d))


@settings(max_examples=500, deadline=None)
@given(small_dags())
def test_printers_match_tree_recursion_on_dags(e):
    assert to_string(e) == _reference_to_string(e)
    assert to_latex(e) == _reference_to_latex(e)


def test_printers_match_tree_recursion_on_sign_edge_cases():
    # Negative constants and -1 leads in every slot where a sign is handed
    # up, wrapped or written as " - ".
    f, g = sym("f"), sym("g")
    half = num(Fraction(-1, 2))
    cases = [
        num(-3), half, neg(f), mul(num(-3), f), add(f, neg(g)), add(neg(f), g),
        add(half, f), add(f, half), add(f, mul(half, g)), mul(neg(f), g),
        mul(MINUS_ONE, div(f, g)), mul(MINUS_ONE, add(f, g)),
        mul(MINUS_ONE, add(neg(f), g)), mul(f, div(neg(g), f), add(neg(f), g)),
        div(neg(f), add(g, ONE)), div(add(neg(f), g), neg(g)),
        pow_(add(neg(f), g), -2), pow_(neg(f), 3), pow_(div(f, g), 2),
        add(neg(add(f, g)), mul(MINUS_ONE, pow_(g, 2))),
    ]
    for e in cases:
        assert to_string(e) == _reference_to_string(e), _reference_to_string(e)
        assert to_latex(e) == _reference_to_latex(e), _reference_to_latex(e)


@pytest.mark.parametrize("family", ["D5", "E6", "E7"])
def test_printers_match_tree_recursion_on_family_images(family):
    fam = make_family(family)
    maps = [fam.generators[name] for name in fam.s_names + fam.pi_names]
    maps.append(time_evolution(fam))
    for t in maps:
        for name in ("f", "g", "kappa1", "nu8"):
            image = t.image(name)
            assert to_string(image) == _reference_to_string(image)
            assert to_latex(image) == _reference_to_latex(image)


def test_printers_finish_on_deep_dags():
    # 1,500 levels: the tree recursion raises RecursionError here.
    f, g = sym("f"), sym("g")
    e, text, latex = f, "f", "f"
    for i in range(1500):
        e = add(mul(e, g), ONE)
        if i == 0:
            text, latex = "f*g + 1", r"f \cdot g + 1"
        else:
            text = "(" + text + ")*g + 1"
            latex = r"\left(" + latex + r"\right) \cdot g + 1"
    assert to_string(e) == text
    assert to_latex(e) == latex


def test_to_string_memory_stays_near_its_output():
    # Each text is built once and dropped after its last parent: the peak
    # is the output plus the children it is joined from, about twice its
    # length; keeping every text and copying children reached 5.6 times.
    image = word_to_transform(make_family("D5"), "(s2 s3 s1 s4)^6")(parse("f"))
    tracemalloc.start()
    try:
        text = to_string(image)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) == 1_452_297
    assert peak <= 2.5 * len(text)


def test_division_by_zero_message_is_unchanged():
    e = parse("f + 1/(g - nu3)")
    with pytest.raises(DivisionByZero) as err:
        evaluate(e, {"f": 1, "g": 5, "nu3": 5}, (1 << 61) - 1)
    assert str(err.value) == "division by zero in " + _reference_to_string(err.value.node)
    assert str(err.value) == "division by zero in 1/(g - nu3)"


def test_raising_division_by_zero_prints_nothing(monkeypatch):
    calls = []
    real = expr_module.to_string
    monkeypatch.setattr(expr_module, "to_string", lambda e: calls.append(e) or real(e))
    image = word_to_transform(make_family("D5"), "(s2 s3 s1 s4)^6")(parse("f"))
    caught = []
    for p in (2, 3, 5, 7):
        for point in [(a, b) for a in range(p) for b in range(p)]:
            values = {name: 1 + k % (p - 1) for k, name in enumerate(sorted(image.free))}
            values["f"], values["g"] = point
            try:
                evaluate(image, values, p)
            except DivisionByZero as err:
                caught.append(err)
    assert caught and not calls
    assert str(caught[0]).startswith("division by zero in ")
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# parser nesting

def test_parser_accepts_nesting_up_to_the_cap():
    assert parse("(" * MAX_NESTING + "f" + ")" * MAX_NESTING) is sym("f")
    assert parse("-" * (MAX_NESTING + 1) + "f") is neg(sym("f"))


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 1200, 5000])
def test_parser_rejects_deeper_nesting_with_offset(depth):
    with pytest.raises(ExprSyntaxError) as err:
        parse("(" * depth + "f" + ")" * depth)
    assert err.value.offset == MAX_NESTING
    assert "nesting deeper than" in str(err.value)
    with pytest.raises(ExprSyntaxError) as err:
        parse("f + " + "-" * (depth + 1) + "g")
    assert err.value.offset == 4 + MAX_NESTING
