"""Exact rational-expression trees with hash-consing.

Expressions are immutable nodes over arbitrary-precision rationals and named
symbols, closed under +, -, *, / and integer powers.  Every node is interned,
so structurally equal expressions are literally the same object: `is`
comparison, per-node caches and substitution pruning all come for free.

The symbol universe is closed: q, nu1..nu8, kappa1, kappa2, f, g, z, u,
delta, c, s, plus any names a caller declares explicitly when parsing.
The names pi1, pi2, pi are reserved for Weyl words and never appear inside
expressions.
"""

from __future__ import annotations

import functools
import re
import threading
from fractions import Fraction
from typing import Iterable, Mapping

RESERVED_SYMBOLS: tuple[str, ...] = (
    "q",
    "nu1", "nu2", "nu3", "nu4", "nu5", "nu6", "nu7", "nu8",
    "kappa1", "kappa2",
    "f", "g", "z", "u",
    "delta", "c", "s",
)

PARAM_SYMBOLS: tuple[str, ...] = (
    "q",
    "nu1", "nu2", "nu3", "nu4", "nu5", "nu6", "nu7", "nu8",
    "kappa1", "kappa2",
)

#: Parameters plus the dependent pair (f, g): the symbols a family
#: transformation may move.
ACTION_SYMBOLS: tuple[str, ...] = PARAM_SYMBOLS + ("f", "g")


class ExprError(ValueError):
    """Malformed expression construction (e.g. a syntactically zero denominator)."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class UnknownSymbolError(ExprError):
    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown symbol '{name}' at offset {offset}")
        self.name = name
        self.offset = offset


class DivisionByZero(ArithmeticError):
    """Evaluation hit a zero denominator; carries the offending subexpression."""

    def __init__(self, node: "Expr"):
        super().__init__(f"division by zero in {node}")
        self.node = node


class Expr:
    """One interned expression node.  Construct only via the factory functions."""

    __slots__ = ("kind", "value", "name", "children", "exp", "free", "uid")

    def __init__(self, kind, value=None, name=None, children=(), exp=0):
        self.kind = kind
        self.value = value          # Fraction, for 'num'
        self.name = name            # str, for 'sym'
        self.children = children    # tuple[Expr, ...]
        self.exp = exp              # int, for 'pow'
        if kind == "num":
            self.free = frozenset()
        elif kind == "sym":
            self.free = frozenset((name,))
        else:
            fs: frozenset[str] = frozenset()
            for ch in children:
                fs = fs | ch.free
            self.free = fs
        self.uid = 0                # assigned by the intern table

    def __repr__(self):
        return f"Expr({to_string(self)})"

    def __str__(self):
        return to_string(self)


# The intern table never evicts: a node lives as long as the process.
_INTERN: dict[tuple, Expr] = {}
_INTERN_LOCK = threading.Lock()
_NEXT_UID = 1


def _intern(key: tuple, build) -> Expr:
    """The node for key, built on a miss.  A hit takes no lock; a miss checks
    again under the lock, so racing builders share one node and one uid."""
    global _NEXT_UID
    node = _INTERN.get(key)
    if node is not None:
        return node
    with _INTERN_LOCK:
        node = _INTERN.get(key)
        if node is None:
            node = build()
            node.uid = _NEXT_UID
            _NEXT_UID += 1
            _INTERN[key] = node
    return node


def num(value) -> Expr:
    v = value if isinstance(value, Fraction) else Fraction(value)
    return _intern(("num", v), lambda: Expr("num", value=v))


def sym(name: str) -> Expr:
    return _intern(("sym", name), lambda: Expr("sym", name=name))


ZERO = num(0)
ONE = num(1)
MINUS_ONE = num(-1)


def add(*terms: Expr) -> Expr:
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
        flat.append(num(const))
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    key = ("add",) + tuple(ch.uid for ch in flat)
    children = tuple(flat)
    return _intern(key, lambda: Expr("add", children=children))


def mul(*factors: Expr) -> Expr:
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
        flat.insert(0, num(const))
    if not flat:
        return ONE
    if len(flat) == 1:
        return flat[0]
    key = ("mul",) + tuple(ch.uid for ch in flat)
    children = tuple(flat)
    return _intern(key, lambda: Expr("mul", children=children))


def pow_(base: Expr, exponent: int) -> Expr:
    if not isinstance(exponent, int):
        raise ExprError("exponent must be an integer")
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if base.kind == "num":
        if base.value == 0 and exponent < 0:
            raise ExprError("zero base with negative exponent")
        return num(base.value ** exponent)
    if base.kind == "pow":
        return pow_(base.children[0], base.exp * exponent)
    key = ("pow", base.uid, exponent)
    return _intern(key, lambda: Expr("pow", children=(base,), exp=exponent))


def div(numer: Expr, denom: Expr) -> Expr:
    if denom.kind == "num":
        # Fold constant denominators into a product; keeps every remaining
        # quotient node's denominator symbolic.
        if denom.value == 0:
            raise ExprError("syntactically zero denominator")
        return mul(num(1 / denom.value), numer)
    # Flatten nested quotients so inverses collapse: 1/(1/x) is x.
    if denom.kind == "div":
        return div(mul(numer, denom.children[1]), denom.children[0])
    if numer.kind == "div":
        return div(numer.children[0], mul(numer.children[1], denom))
    if numer is ZERO:
        return ZERO
    if numer.kind == "num" and numer.value < 0:
        return mul(MINUS_ONE, div(num(-numer.value), denom))
    key = ("div", numer.uid, denom.uid)
    children = (numer, denom)
    return _intern(key, lambda: Expr("div", children=children))


def neg(e: Expr) -> Expr:
    return mul(MINUS_ONE, e)


def sub(a: Expr, b: Expr) -> Expr:
    return add(a, neg(b))


def dag_size(e: Expr) -> int:
    """Number of distinct nodes reachable from e."""
    seen: set[Expr] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(node.children)
    return len(seen)


# ---------------------------------------------------------------------------
# substitution

def substitute(e: Expr, images: Mapping[str, Expr], memo: dict | None = None) -> Expr:
    """Replace every symbol occurrence simultaneously by its image.

    Symbols absent from `images` map to themselves.  Substitution rebuilds
    through the factory functions, so it is a ring homomorphism by
    construction.  Nodes whose free symbols are disjoint from the mapping are
    returned unchanged (shared).
    """
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
            memo[node] = add(*kids)
        elif node.kind == "mul":
            memo[node] = mul(*kids)
        elif node.kind == "pow":
            memo[node] = pow_(kids[0], node.exp)
        elif node.kind == "div":
            memo[node] = div(kids[0], kids[1])
        else:
            memo[node] = node
    return memo[e]


# ---------------------------------------------------------------------------
# evaluation
#
# A residual is evaluated at many sampled points, so it is compiled once into
# a straight-line program (Kaltofen 1988): one instruction per DAG node in
# post-order, each referring to its children by slot.  Over F_p the program
# runs projectively on (numerator, denominator) pairs.  Every denominator
# stays nonzero because a quotient or negative power first checks that its
# divisor's numerator is nonzero, so a run needs no modular inverse until the
# final pair becomes a value.

@functools.lru_cache(maxsize=8)
def _compile(e: Expr) -> tuple[tuple, tuple[Expr, ...]]:
    """The post-order program of e and the node behind each slot.

    An instruction is (kind, arg): arg is the Fraction of a constant, the
    name of a symbol, the child slots of a sum, product or quotient, and
    (base slot, exponent) of a power.  The cache is bounded because the
    intern table keeps every node alive and programs are as large as DAGs.
    """
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


def _run_rational(code, nodes, values: Mapping[str, object]) -> Fraction:
    vals: list = []
    for i, (kind, arg) in enumerate(code):
        if kind == "mul":
            v = Fraction(1)
            for k in arg:
                v *= vals[k]
        elif kind == "add":
            v = sum((vals[k] for k in arg), Fraction(0))
        elif kind == "sym":
            try:
                v = Fraction(values[arg])
            except KeyError:
                raise ExprError(f"no value for symbol '{arg}'") from None
        elif kind == "pow":
            v = vals[arg[0]]
            if v == 0 and arg[1] < 0:
                raise DivisionByZero(nodes[i])
            v = v ** arg[1]
        elif kind == "div":
            v = vals[arg[1]]
            if v == 0:
                raise DivisionByZero(nodes[i])
            v = vals[arg[0]] / v
        else:
            v = arg
        vals.append(v)
    return vals[-1]


def _run_projective(code, nodes, values: Mapping[str, object], p: int) -> tuple[int, int]:
    """Run the program over F_p; returns the pair (n, d) with d != 0 mod p.

    Pairs are stored reduced mod p.  A sum adds numerators while the
    denominators agree, and a product skips denominators of 1.
    """
    size = len(code)
    nums = [0] * size
    dens = [1] * size
    for i, (kind, arg) in enumerate(code):
        if kind == "mul":
            x = y = 1
            for k in arg:
                x = x * nums[k] % p
                d = dens[k]
                if d != 1:
                    y = y * d % p
            nums[i] = x
            dens[i] = y
        elif kind == "add":
            x = 0
            y = 1
            for k in arg:
                d = dens[k]
                if d == y:
                    x += nums[k]
                else:
                    x = (x * d + nums[k] * y) % p
                    y = y * d % p
            nums[i] = x % p
            dens[i] = y
        elif kind == "sym":
            try:
                nums[i] = values[arg] % p
            except KeyError:
                raise ExprError(f"no value for symbol '{arg}'") from None
        elif kind == "pow":
            k, n = arg
            x, y = nums[k], dens[k]
            if n < 0:
                if x == 0:
                    raise DivisionByZero(nodes[i])
                x, y, n = y, x, -n
            nums[i] = pow(x, n, p)
            if y != 1:
                dens[i] = pow(y, n, p)
        elif kind == "div":
            a, b = arg
            x = nums[b]
            if x == 0:
                raise DivisionByZero(nodes[i])
            nums[i] = nums[a] * dens[b] % p
            dens[i] = dens[a] * x % p
        else:
            d = arg.denominator % p
            if d == 0:
                raise DivisionByZero(nodes[i])
            nums[i] = arg.numerator % p
            dens[i] = d
    return nums[-1], dens[-1]


def evaluate(e: Expr, values: Mapping[str, object], p: int | None = None):
    """Evaluate over the exact rationals (p=None) or the prime field F_p.

    `values` must cover every free symbol of e.  Raises DivisionByZero with
    the offending subexpression when a denominator vanishes: the first node
    in post-order that divides by zero or raises zero to a negative power,
    or, over F_p, a constant whose denominator p divides.  The caller is
    expected to resample.
    """
    code, nodes = _compile(e)
    if p is None:
        return _run_rational(code, nodes, values)
    n, d = _run_projective(code, nodes, values, p)
    # A zero residual, the common case, needs no inverse at all.
    return n if n == 0 or d == 1 else n * pow(d, -1, p) % p


# ---------------------------------------------------------------------------
# printing

def to_string(e: Expr) -> str:
    if e.kind == "num":
        return str(e.value)
    if e.kind == "sym":
        return e.name
    if e.kind == "add":
        parts: list[str] = []
        for i, ch in enumerate(e.children):
            s = to_string(ch)
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
            s = to_string(ch)
            # A quotient after the first slot must be wrapped: * and / are
            # left-associative, so a*b/c reparses as (a*b)/c.
            if ch.kind == "add" or (ch.kind == "div" and i > 0):
                s = "(" + s + ")"
            parts.append(s)
        return lead + "*".join(parts)
    if e.kind == "pow":
        base = e.children[0]
        s = to_string(base)
        if base.kind != "sym":
            s = "(" + s + ")"
        return f"{s}^{e.exp}"
    if e.kind == "div":
        n, d = e.children
        ns = to_string(n)
        if n.kind in ("add", "mul", "div"):
            ns = "(" + ns + ")"
        ds = to_string(d)
        if d.kind in ("add", "mul", "div"):
            ds = "(" + ds + ")"
        return f"{ns}/{ds}"
    raise ExprError(f"unprintable node kind {e.kind}")


_LATEX_SYMBOLS = {
    "kappa1": r"\kappa_{1}", "kappa2": r"\kappa_{2}", "delta": r"\delta",
    "fbar": r"\overline{f}", "gbar": r"\overline{g}",
}
for _i in range(1, 9):
    _LATEX_SYMBOLS[f"nu{_i}"] = r"\nu_{%d}" % _i


def to_latex(e: Expr) -> str:
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
            s = to_latex(ch)
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
            s = to_latex(ch)
            if ch.kind == "add":
                s = r"\left(" + s + r"\right)"
            parts.append(s)
        return r" \cdot ".join(parts)
    if e.kind == "pow":
        base = e.children[0]
        s = to_latex(base)
        if base.kind != "sym":
            s = r"\left(" + s + r"\right)"
        return "{%s}^{%d}" % (s, e.exp)
    if e.kind == "div":
        n, d = e.children
        return r"\frac{%s}{%s}" % (to_latex(n), to_latex(d))
    raise ExprError(f"unprintable node kind {e.kind}")


# ---------------------------------------------------------------------------
# parsing
#
# Grammar: integers, rationals p/q, symbols, + - * / ^ and parentheses.
# ^ takes an integer literal exponent (optionally negated).

_TOKEN_RE = re.compile(
    r"(?P<INT>\d+)|(?P<NAME>[A-Za-z_][A-Za-z0-9_]*)|(?P<OP>[-+*/^()])|(?P<WS>\s+)"
)


def _tokenize(text: str):
    pos = 0
    tokens: list[tuple[str, str, int]] = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "WS":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("END", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, allowed: frozenset[str]):
        self.tokens = tokens
        self.i = 0
        self.allowed = allowed

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.next()
        if kind != "OP" or text != op:
            raise ExprSyntaxError(f"expected '{op}'", pos)

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

    def parse_factor(self) -> Expr:
        e = self.parse_atom()
        kind, text, _ = self.peek()
        if kind == "OP" and text == "^":
            self.next()
            e = pow_(e, self.parse_int_literal())
        return e

    def parse_int_literal(self) -> int:
        kind, text, pos = self.next()
        signum = 1
        if kind == "OP" and text == "-":
            signum = -1
            kind, text, pos = self.next()
        if kind != "INT":
            raise ExprSyntaxError("expected integer exponent", pos)
        return signum * int(text)

    def parse_atom(self) -> Expr:
        kind, text, pos = self.next()
        if kind == "INT":
            return num(int(text))
        if kind == "NAME":
            if text not in self.allowed:
                raise UnknownSymbolError(text, pos)
            return sym(text)
        if kind == "OP" and text == "(":
            e = self.parse_expr()
            self.expect_op(")")
            return e
        if kind == "OP" and text == "-":
            return neg(self.parse_atom())
        raise ExprSyntaxError(f"unexpected token {text!r}", pos)


def parse(text: str, extra_symbols: Iterable[str] = ()) -> Expr:
    """Parse an expression string.

    Only the reserved symbol set plus `extra_symbols` is accepted; anything
    else raises UnknownSymbolError with the offending name.
    """
    allowed = frozenset(RESERVED_SYMBOLS) | frozenset(extra_symbols)
    parser = _Parser(_tokenize(text), allowed)
    e = parser.parse_expr()
    kind, text_, pos = parser.peek()
    if kind != "END":
        raise ExprSyntaxError(f"trailing input {text_!r}", pos)
    return e
