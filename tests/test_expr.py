"""Expression core: parsing, printing, interning, substitution, evaluation."""

import random
import re
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import pytest
from dags import DAG_LEAVES, small_dags
from expr_reference import (
    ref_add,
    ref_compile,
    ref_div,
    ref_mul,
    ref_num,
    ref_parse,
    ref_pow,
    ref_substitute,
    ref_sym,
)
from hypothesis import given, settings, strategies as st

import qpweyl.expr as expr_module
from qpweyl.evolution import time_evolution
from qpweyl.expr import (
    _LATEX_SYMBOLS,
    _compile,
    MAX_NESTING,
    MINUS_ONE,
    ONE,
    DivisionByZero,
    Expr,
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
from qpweyl.identity import DEFAULT_PRIME
from qpweyl.lax import build_L1
from qpweyl.weyl import FAMILY_NAMES, make_family, word_to_transform


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


def test_intern_keys_hold_the_nodes_children():
    # A node is built from its intern key, which names its children by the
    # nodes themselves.  After the families, T and L1 are built, every key
    # holds its node's own fields, and no node sits under two keys.
    for name in FAMILY_NAMES:
        fam = make_family(name)
        time_evolution(fam)
        build_L1(fam)
    table = list(expr_module._INTERN.items())
    for key, node in table:
        assert key[0] == node.kind
        if node.kind == "num":
            assert key == ("num", node.value) and type(node.value) is Fraction
        elif node.kind == "sym":
            assert key == ("sym", node.name)
        elif node.kind == "pow":
            assert key[1:] == (node.children[0], node.exp) and len(node.children) == 1
        else:
            assert key[1:] == node.children
    assert len({id(node) for _, node in table}) == len(table)


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


def _chains(operands):
    """Texts "[sign] x op x op ... x" of the operands, any of + - * /."""
    rest = st.lists(st.tuples(st.sampled_from("+-*/"), operands), max_size=12)
    return st.builds(lambda sign, first, pairs: sign + first + "".join(op + x for op, x in pairs),
                     st.sampled_from(["", "-", "+"]), operands, rest)


_CHAIN_OPERANDS = st.recursive(
    st.sampled_from(["f", "g", "q", "0", "1", "2", "3", "-f", "f^2", "g^-1", "2^3", "(1/2)"]),
    lambda inner: _chains(inner).map(lambda text: f"({text})"), max_leaves=16)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_chains(_CHAIN_OPERANDS))
def test_operand_chains_parse_to_the_left_fold(text):
    # A sum and a run of factors are built once from all their operands;
    # the node, or the error, is the one the left fold builds.
    try:
        want = ref_parse(text)
    except ExprError as err:
        with pytest.raises(type(err), match=f"^{re.escape(str(err))}$"):
            parse(text)
    else:
        assert parse(text) is want


@pytest.mark.parametrize("op", "+-*/")
def test_long_sums_and_products_parse_in_linear_time(op):
    # Folding one operand at a time copies the partial node's children on
    # every step: a 4,000-term sum took 0.48 s, and a 4,000-factor quotient
    # chain, whose left fold is f/(f*f*...*f), 0.86 s.
    text = op.join(["f"] * 50_000)
    start = time.monotonic()
    e = parse(text)
    assert time.monotonic() - start < 1
    if op == "/":
        assert e.kind == "div" and e.children[0] is sym("f")
        e = e.children[1]
    assert len(e.children) == 50_000 - (op == "/")
    assert e.children[-1] is (sym("f") if op != "-" else neg(sym("f")))


@pytest.mark.parametrize("text, message, offset", [
    ("nu1 + * nu2", "unexpected token '*'", 6),
    ("f $ g", "unexpected character '$'", 2),
    ("(f + g", "expected ')'", 6),
    ("f^g", "expected integer exponent", 2),
    ("2^-x", "expected integer exponent", 3),
    ("f g", "trailing input 'g'", 2),
    ("f)", "trailing input ')'", 1),
])
def test_syntax_error_carries_offset(text, message, offset):
    with pytest.raises(ExprSyntaxError) as err:
        parse(text)
    assert err.value.offset == offset
    assert str(err.value) == f"{message} at offset {offset}"


def test_unknown_symbol_lists_name():
    with pytest.raises(UnknownSymbolError) as err:
        parse("nu1 + bogus")
    assert err.value.name == "bogus"
    # pi1/pi2 are word-only names, never expression symbols
    with pytest.raises(UnknownSymbolError):
        parse("pi1")


def test_parse_memo_returns_the_same_node_and_never_keeps_an_error():
    # parse keeps results by (text, frozenset(extra_symbols)); a text that
    # raises raises the same message on every call and is not kept.
    expr_module._parse.cache_clear()
    for text in ("f*(g - 1/nu1)/(g - nu5/kappa2)", "kappa1^2*kappa2^2/(q*nu1)"):
        assert parse(text) is parse(text)
    assert parse("fbar*g", ("fbar",)) is parse("fbar*g", ["fbar", "fbar"])
    kept = expr_module._parse.cache_info().currsize
    for text, extra, error in (("f +", (), ExprSyntaxError), ("f*(g", (), ExprSyntaxError),
                               ("nu1 + bogus", (), UnknownSymbolError),
                               ("fbar*g", ("gbar",), UnknownSymbolError)):
        messages = []
        for _ in range(2):
            with pytest.raises(error) as err:
                parse(text, extra)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
    assert expr_module._parse.cache_info().currsize == kept


def test_parse_memo_is_bounded():
    expr_module._parse.cache_clear()
    bound = expr_module.PARSE_CACHE_SIZE
    for k in range(bound + 8):
        parse(f"z + {k}")
    info = expr_module._parse.cache_info()
    assert info.maxsize == bound and info.currsize == bound


def test_declared_fresh_symbols_are_accepted():
    e = parse("fbar*g - 1", extra_symbols=("fbar",))
    assert "fbar" in e.free


def test_zero_denominator_rejected():
    with pytest.raises(ExprError):
        parse("f/0")


@pytest.mark.parametrize("exponent", [2.0, Fraction(1, 2), "2"])
def test_a_non_integer_exponent_is_refused(exponent):
    with pytest.raises(ExprError, match="^exponent must be an integer$"):
        pow_(sym("f"), exponent)


@pytest.mark.parametrize("text", ["0^-1", "0^-2", "(1 - 1)^-3"])
def test_zero_to_a_negative_power_is_a_zero_denominator(text):
    with pytest.raises(ExprError, match="^syntactically zero denominator$"):
        parse(text)


@pytest.mark.parametrize("base", ["f", "(f + g)", "(f*g)", "(f/g)", "(f^2)"],
                         ids=["symbol", "sum", "product", "quotient", "power"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_negative_power_is_the_quotient(base, k):
    assert parse(f"{base}^-{k}") is parse(f"1/{base}^{k}")


@settings(max_examples=300, deadline=None)
@given(small_dags())
def test_every_power_has_an_exponent_of_at_least_2(e):
    # A negative power is built as a quotient, so only a quotient divides.
    assert all(arg[1] >= 2 for kind, arg in _compile(e)[0] if kind == "pow")


def test_a_product_of_large_constants_is_refused_at_once():
    # Folded all at once, the 64 constants took about 100 s to multiply.
    start = time.monotonic()
    for fold, big in ((add, num(2 ** 1048575)), (mul, num(3 ** 660000))):
        with pytest.raises(ExprError, match="folds to more than"):
            fold(*[big] * 64)
    assert time.monotonic() - start < 1


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


#: Small primes make poles frequent; the large ones are 2^61 - 1 and the
#: default modulus, 2^89 - 1.
_FIELD_PRIMES = [2, 3, 5, 7, (1 << 61) - 1, DEFAULT_PRIME]


@settings(max_examples=300, deadline=None)
@given(small_dags(), st.sampled_from(_FIELD_PRIMES),
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
@given(small_dags(), st.sampled_from(_FIELD_PRIMES),
       st.tuples(*[st.fractions(-3, 3, max_denominator=7)] * 3))
def test_rational_values_over_fp_reduce_the_value_over_q(e, p, point):
    # A value n/d is n d^-1 mod p.  Denominators up to 7 make values that p
    # divides frequent: the run stops at the node of such a symbol, unless
    # an earlier node in post-order is a pole.
    values = dict(zip(("f", "g", "q"), point))
    try:
        over_fp = evaluate(e, values, p)
    except DivisionByZero as err:
        if err.node.kind == "sym":
            assert values[err.node.name].denominator % p == 0
        return
    assert all(values[name].denominator % p for name in e.free)
    over_q = evaluate(e, values)
    assert over_fp == over_q.numerator * pow(over_q.denominator, -1, p) % p
    assert 0 <= over_fp < p


def test_rational_and_float_values_over_fp():
    assert evaluate(parse("f"), {"f": Fraction(1, 2)}, (1 << 61) - 1) == 1 << 60
    assert evaluate(parse("f + 1"), {"f": 0.5}, 7) == 5
    assert evaluate(parse("1/f"), {"f": Fraction(1, 2)}, 7) == 2
    with pytest.raises(DivisionByZero) as err:
        evaluate(parse("g + f"), {"f": Fraction(3, 14), "g": 1}, 7)
    assert err.value.node is sym("f")


@settings(max_examples=300, deadline=None)
@given(small_dags(), st.sampled_from(_FIELD_PRIMES), st.data())
def test_lanes_match_one_point_runs(e, p, data):
    # Values from {1, 2, 3, p - 1} make poles frequent; a lane is None exactly
    # where the one-point run raises, and zero exactly where its numerator is.
    values = st.sampled_from([1 % p, 2 % p, 3 % p, p - 1])
    m = data.draw(st.integers(1, 12))
    columns = {n: data.draw(st.lists(values, min_size=m, max_size=m)) for n in "fgq"}
    _assert_lanes_match_one_point_runs(e, columns, m, p)


def _assert_lanes_match_one_point_runs(e, columns, m, p):
    code, nodes = expr_module._compile(e)
    lanes = expr_module._run_lanes(code, nodes, columns, m, p)
    assert len(lanes) == m
    for i, lane in enumerate(lanes):
        point = {n: column[i] for n, column in columns.items()}
        try:
            numer, _ = expr_module._run_projective(code, nodes, point, p)
        except DivisionByZero:
            assert lane is None
        else:
            assert lane is not None and (lane == 0) == (numer == 0)
        assert lane is None or 0 <= lane < p


@pytest.mark.parametrize("p", _FIELD_PRIMES)
@pytest.mark.parametrize("c", [leaf.value for leaf in DAG_LEAVES if leaf.kind == "num"],
                         ids=str)
def test_lanes_of_f_plus_each_constant_leaf(c, p):
    # f + c vanishes at f = -c, which the columns hold whenever p does not
    # divide c's denominator; a lane run that misreads the denominator, or
    # p's dividing it, puts that zero elsewhere or at no lane.
    f = sorted({v % p for v in (0, 1, 2, 3, -1)}
               | ({-c.numerator * pow(c.denominator, -1, p) % p} if c.denominator % p else set()))
    _assert_lanes_match_one_point_runs(add(sym("f"), num(c)), {"f": f}, len(f), p)


def _projective_outcome(code, nodes, point, p, memo=None):
    """_run_projective's pair, or the node it raises DivisionByZero on."""
    try:
        return expr_module._run_projective(code, nodes, point, p, memo)
    except DivisionByZero as err:
        return err.node


@settings(max_examples=300, deadline=None)
@given(st.lists(small_dags(), min_size=1, max_size=4), small_dags(),
       st.sampled_from(_FIELD_PRIMES), st.booleans(), st.data())
def test_a_filled_memo_gives_each_program_its_fresh_result(fillers, b, p, poles, data):
    # Programs A1..Ak fill one probe memo and one lane memo at the same
    # points; B, built on one of them so that it reuses its nodes, then
    # gives what it gives alone: the same lanes, the same dead lanes, and
    # the same pair or the same node raising.
    if poles and p > 3:
        # A pole wherever f is a square mod p: dead lanes in most batches.
        pole = pow_(sub(pow_(sym("f"), (p - 1) // 2), num(1)), -1)
        fillers = [div(mul(a, pole), pole) for a in fillers]
    combine = data.draw(st.sampled_from([add, mul, div, lambda x, y: y]))
    try:
        b = combine(data.draw(st.sampled_from(fillers)), b)
    except ExprError:
        pass
    values = st.sampled_from([1 % p, 2 % p, 3 % p, p - 1])
    m = data.draw(st.integers(1, 8))
    columns = {n: data.draw(st.lists(values, min_size=m, max_size=m)) for n in "fgq"}
    point = {n: column[0] for n, column in columns.items()}
    lanes, probe = {}, {}
    for a in fillers:
        code, nodes = _compile(a)
        expr_module._run_lanes(code, nodes, columns, m, p, lanes)
        _projective_outcome(code, nodes, point, p, probe)
    code, nodes = _compile(b)
    assert (expr_module._run_lanes(code, nodes, columns, m, p, lanes)
            == expr_module._run_lanes(code, nodes, columns, m, p))
    assert (_projective_outcome(code, nodes, point, p, probe)
            == _projective_outcome(code, nodes, point, p))


@pytest.mark.parametrize("p", _FIELD_PRIMES)
def test_a_constant_p_divides_kills_every_lane_of_each_program_reusing_it(p):
    shared = add(sym("f"), num(Fraction(1, p)))
    columns = {"f": [1 % p, 2 % p, p - 1], "g": [2 % p, 1 % p, 3 % p]}
    point = {"f": 1 % p, "g": 2 % p}
    lanes, probe = {}, {}
    for e in (sym("g"), shared, mul(sym("g"), shared), div(sym("g"), shared),
              add(shared, sym("g")), sub(sym("g"), shared)):
        code, nodes = _compile(e)
        got = expr_module._run_lanes(code, nodes, columns, 3, p, lanes)
        outcome = _projective_outcome(code, nodes, point, p, probe)
        if e is sym("g"):
            assert got == columns["g"] and outcome == (point["g"], 1)
        else:
            assert got == [None] * 3
            assert outcome is num(Fraction(1, p))


def test_lanes_name_a_missing_symbol():
    code, nodes = expr_module._compile(parse("f + g"))
    with pytest.raises(ExprError, match="no value for symbol 'g'"):
        expr_module._run_lanes(code, nodes, {"f": [1, 2]}, 2, 7)
    for p in (None, 7):
        with pytest.raises(ExprError, match="no value for symbol 'g'"):
            evaluate(parse("f + g"), {"f": 1}, p)


def test_interning_is_thread_safe():
    # Racing builders of the same fresh keys must get one node per key, and
    # distinct keys distinct nodes (sum, product, quotient and power keys
    # hold the child nodes themselves).  Every factory probes the table
    # before it reaches _intern's lock, and a constant is probed by the value
    # it is given: half the builders name each fresh integer constant first
    # by its int and half first by the equal Fraction, and all must get one
    # node holding the Fraction.
    workers, keys, big = 8, 3000, 10**15
    built = [None] * workers
    barrier = threading.Barrier(workers, timeout=30)

    def build(slot):
        barrier.wait()
        rows = []
        for k in range(1, keys + 1):
            a = add(sym("f"), num(Fraction(k, 1_000_003)))
            ints = (big + k, Fraction(big + k))
            i, j = (num(v) for v in (ints if slot % 2 else ints[::-1]))
            rows.append((a, mul(a, sym("g")), div(sym("q"), a), pow_(a, 2), i, j))
        built[slot] = rows

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
    rows = built[0]
    for other in built[1:]:
        assert all(x is y for row, ref in zip(other, rows) for x, y in zip(row, ref))
    assert all(i is j and type(i.value) is Fraction for *_, i, j in rows)
    assert len({id(n) for row in rows for n in row[:5]}) == 5 * keys
    assert len({id(a.children[1]) for a, *_ in rows}) == keys


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


def _outcomes(calls, new_first):
    """Each call's node, or its ExprError as (type, message); the calls run
    in the order given or reversed, so either side may build a fresh node
    and the other must find it."""
    out = []
    for fn, args in calls if new_first else calls[::-1]:
        try:
            out.append(fn(*args))
        except ExprError as err:
            out.append((type(err), str(err)))
    return out if new_first else out[::-1]


def _assert_same(new, ref, args, new_first):
    got, want = _outcomes([(new, args), (ref, args)], new_first)
    assert got is want or (type(want) is tuple and got == want), (new.__name__, args)


@settings(max_examples=300, deadline=None)
@given(small_dags(), small_dags(),
       st.one_of(st.integers(-10**30, 10**30), st.fractions()),
       st.from_regex(r"[a-z]{1,3}[0-9]?", fullmatch=True),
       st.integers(-4, 4), st.booleans())
def test_factories_match_the_reference(a, b, value, name, k, new_first):
    # A constant by its int, by its Fraction, and as a child that the
    # factories fold; a fresh value or name reaches the miss path.
    _assert_same(num, ref_num, (value,), new_first)
    _assert_same(num, ref_num, (Fraction(value),), not new_first)
    _assert_same(sym, ref_sym, (name,), new_first)
    c = num(value)
    for new, ref, args in [
        (add, ref_add, (a, b)), (add, ref_add, (a, c, b)), (add, ref_add, (c, c)),
        (mul, ref_mul, (a, b)), (mul, ref_mul, (c, a, b)), (mul, ref_mul, (a, c, c)),
        (div, ref_div, (a, b)), (div, ref_div, (c, a)), (div, ref_div, (a, c)),
        (pow_, ref_pow, (a, k)), (pow_, ref_pow, (c, k)),
    ]:
        _assert_same(new, ref, args, new_first)


_IMAGE_NAMES = ("f", "g", "q", "z")


@settings(max_examples=300, deadline=None)
@given(small_dags(), st.dictionaries(st.sampled_from(_IMAGE_NAMES), small_dags(), max_size=4),
       st.booleans())
def test_walks_match_the_reference(e, images, new_first):
    got, want = _outcomes([(substitute, (e, images)), (ref_substitute, (e, images))],
                          new_first)
    assert got is want or (type(want) is tuple and got == want)
    for node in (e, got) if isinstance(got, Expr) else (e,):
        assert _compile.__wrapped__(node) == ref_compile(node)


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


def test_latex_leading_minus_one_is_a_bare_minus_sign():
    assert to_latex(parse("f - nu3")) == r"f - \nu_{3}"
    assert to_latex(parse("-f*g")) == r"-f \cdot g"
    assert to_latex(parse("-3*f")) == r"-3 \cdot f"


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
        children = e.children
        lead = ""
        if children[0].kind == "num" and children[0].value == -1 and len(children) > 1:
            lead = "-"
            children = children[1:]
        parts = []
        for ch in children:
            s = _reference_to_latex(ch)
            if ch.kind == "add":
                s = r"\left(" + s + r"\right)"
            parts.append(s)
        return lead + r" \cdot ".join(parts)
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
