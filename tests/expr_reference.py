"""The expression core's factories, walks, parser and compose as they were
before each hit became one probe and each sum one node, kept as the
reference the fast versions must match node for node.

They intern through the same table, so a node either side builds is the
node the other side finds: a difference in structure shows as a pair of
nodes that are not `is`-identical.
"""

from fractions import Fraction

from qpweyl.expr import (
    MAX_FOLD_BITS,
    MINUS_ONE,
    ONE,
    RESERVED_SYMBOLS,
    ZERO,
    Expr,
    ExprError,
    _bits,
    _intern,
    _Parser,
    _tokenize,
    add,
    div,
    mul,
    neg,
)
from qpweyl.weyl import Transformation


def ref_num(value) -> Expr:
    v = value if isinstance(value, Fraction) else Fraction(value)
    return _intern(("num", v))


def ref_sym(name: str) -> Expr:
    return _intern(("sym", name))


def ref_add(*terms: Expr) -> Expr:
    flat: list[Expr] = []
    const = Fraction(0)
    for t in terms:
        if t.kind == "add":
            for ch in t.children:
                if ch.kind == "num":
                    const += ch.value
                else:
                    flat.append(ch)
        elif t.kind == "num":
            const += t.value
        else:
            flat.append(t)
    if const != 0:
        flat.append(ref_num(const))
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return _intern(("add", *flat))


def ref_mul(*factors: Expr) -> Expr:
    flat: list[Expr] = []
    const = Fraction(1)
    for fct in factors:
        if fct.kind == "mul":
            for ch in fct.children:
                if ch.kind == "num":
                    const *= ch.value
                else:
                    flat.append(ch)
        elif fct.kind == "num":
            const *= fct.value
        else:
            flat.append(fct)
    if const == 0:
        return ZERO
    if const != 1:
        flat.insert(0, ref_num(const))
    if not flat:
        return ONE
    if len(flat) == 1:
        return flat[0]
    return _intern(("mul", *flat))


def ref_pow(base: Expr, exponent: int) -> Expr:
    if not isinstance(exponent, int):
        raise ExprError("exponent must be an integer")
    if exponent < 0:
        return ref_div(ONE, ref_pow(base, -exponent))
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if base.kind == "num":
        v = base.value
        if v == 0 and exponent < 0:
            raise ExprError("zero base with negative exponent")
        if (_bits(v) - 1) * abs(exponent) > MAX_FOLD_BITS:
            raise ExprError(f"constant folds to more than {MAX_FOLD_BITS} bits")
        return ref_num(v ** exponent)
    if base.kind == "pow":
        return ref_pow(base.children[0], base.exp * exponent)
    return _intern(("pow", base, exponent))


def ref_div(numer: Expr, denom: Expr) -> Expr:
    if denom.kind == "num":
        if denom.value == 0:
            raise ExprError("syntactically zero denominator")
        return ref_mul(ref_num(1 / denom.value), numer)
    if denom.kind == "div":
        return ref_div(ref_mul(numer, denom.children[1]), denom.children[0])
    if numer.kind == "div":
        return ref_div(numer.children[0], ref_mul(numer.children[1], denom))
    if numer is ZERO:
        return ZERO
    if numer.kind == "num" and numer.value < 0:
        return ref_mul(MINUS_ONE, ref_div(ref_num(-numer.value), denom))
    return _intern(("div", numer, denom))


def ref_substitute(e: Expr, images, memo: dict | None = None) -> Expr:
    if memo is None:
        memo = {}
    keys = images.keys()
    stack = [e]
    while stack:
        node = stack[-1]
        if node in memo:
            stack.pop()
            continue
        if not (node.free & keys):
            memo[node] = node
            stack.pop()
            continue
        if node.kind == "sym":
            memo[node] = images.get(node.name, node)
            stack.pop()
            continue
        pending = [ch for ch in node.children if ch not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        kids = [memo[ch] for ch in node.children]
        if node.kind == "add":
            memo[node] = ref_add(*kids)
        elif node.kind == "mul":
            memo[node] = ref_mul(*kids)
        elif node.kind == "pow":
            memo[node] = ref_pow(kids[0], node.exp)
        else:
            memo[node] = ref_div(kids[0], kids[1])
    return memo[e]


def ref_compile(e: Expr) -> tuple[tuple, tuple[Expr, ...]]:
    slot: dict[Expr, int] = {}
    code: list[tuple] = []
    nodes: list[Expr] = []
    stack = [e]
    while stack:
        node = stack[-1]
        if node in slot:
            stack.pop()
            continue
        pending = [ch for ch in node.children if ch not in slot]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        kind = node.kind
        if kind == "num":
            arg = node.value
        elif kind == "sym":
            arg = node.name
        elif kind == "pow":
            arg = (slot[node.children[0]], node.exp)
        else:
            arg = tuple(slot[ch] for ch in node.children)
        slot[node] = len(code)
        code.append((kind, arg))
        nodes.append(node)
    return tuple(code), tuple(nodes)


def ref_compose(outer: Transformation, inner: Transformation) -> Transformation:
    memo: dict = {}
    names = set(outer.images) | set(inner.images)
    return Transformation({n: ref_substitute(inner.image(n), outer.images, memo)
                           for n in names})


class _LeftFoldParser(_Parser):
    """The parser as it folded sums and products left, one operand at a time."""

    def parse_expr(self) -> Expr:
        kind, text, _ = self.peek()
        negated = False
        if kind == "OP" and text == "-":
            self.next()
            negated = True
        elif kind == "OP" and text == "+":
            self.next()
        e = self.parse_term()
        if negated:
            e = neg(e)
        while True:
            kind, text, _ = self.peek()
            if kind == "OP" and text in "+-":
                self.next()
                rhs = self.parse_term()
                e = add(e, rhs if text == "+" else neg(rhs))
            else:
                return e

    def parse_term(self) -> Expr:
        e = self.parse_factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "OP" and text in "*/":
                self.next()
                rhs = self.parse_factor()
                e = mul(e, rhs) if text == "*" else div(e, rhs)
            else:
                return e


def ref_parse(text: str) -> Expr:
    """The left fold's node for a text over the reserved symbols."""
    parser = _LeftFoldParser(_tokenize(text), frozenset(RESERVED_SYMBOLS))
    e = parser.parse_expr()
    assert parser.peek()[0] == "END", text
    return e
