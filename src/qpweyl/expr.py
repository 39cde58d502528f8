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
    """Evaluation hit a zero denominator; carries the offending subexpression.

    The message prints the node only when asked for: a sampler that
    resamples at a pole raises and catches this many times and reads none.
    """

    def __init__(self, node: "Expr"):
        super().__init__(node)
        self.node = node

    def __str__(self):
        return f"division by zero in {self.node}"


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


#: Bits a constant's numerator or denominator may have: far above the
#: largest constant the tables or the tests build (2^20000), and small
#: enough that folding two such constants takes milliseconds.
MAX_FOLD_BITS = 1 << 20


def _bits(v: Fraction) -> int:
    return max(v.numerator.bit_length(), v.denominator.bit_length())


def _num_node(v: Fraction) -> Expr:
    if _bits(v) > MAX_FOLD_BITS:
        raise ExprError(f"constant folds to more than {MAX_FOLD_BITS} bits")
    return Expr("num", value=v)


def num(value) -> Expr:
    v = value if isinstance(value, Fraction) else Fraction(value)
    return _intern(("num", v), lambda: _num_node(v))


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
        v = base.value
        if v == 0 and exponent < 0:
            raise ExprError("zero base with negative exponent")
        # v^n has at least (_bits(v) - 1) |n| bits: refuse before computing it.
        if (_bits(v) - 1) * abs(exponent) > MAX_FOLD_BITS:
            raise ExprError(f"constant folds to more than {MAX_FOLD_BITS} bits")
        return num(v ** exponent)
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
    """Number of distinct nodes reachable from e: one per program slot."""
    return len(_compile(e)[1])


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
# final pair becomes a value.  Where only the zero test matters, one run
# carries many points at once, one lane per point, and needs no inverse.

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


def _run_lanes(code, columns: Mapping[str, list], m: int, p: int) -> list:
    """Run the program over F_p at m points at once, lane i of each symbol's
    column being point i; returns each lane's final numerator, or None where
    _run_projective would raise DivisionByZero.

    Column values must lie in [0, p).  Only whether a lane's value is zero
    matters, so no lane is ever inverted, and a value may be kept as its
    negative: every stored value lies strictly between -p and p.  A lane
    whose divisor numerator is 0 is marked and left to run on; its other
    lanes keep nonzero denominators.  A denominator column of ones is kept
    as None, and a product takes its constant factor as one scalar.
    """
    nums: list[list] = []
    dens: list = []
    consts: dict[int, int] = {}     # slot -> numerator of a constant
    dead: set[int] = set()
    for i, (kind, arg) in enumerate(code):
        y = None
        if kind == "mul":
            x = None
            c = 1
            for k in arg:
                if k in consts:
                    c = c * consts[k] % p
                elif x is None:
                    x = nums[k]
                else:
                    x = [a * b % p for a, b in zip(x, nums[k])]
            if x is None:
                x = [c] * m
            elif c == p - 1:
                x = [-a for a in x]
            elif c != 1:
                x = [c * a % p for a in x]
            for k in arg:
                d = dens[k]
                if d is not None:
                    y = d if y is None else [a * b % p for a, b in zip(y, d)]
        elif kind == "add":
            x, y = nums[arg[0]], dens[arg[0]]
            for k in arg[1:]:
                n, d = nums[k], dens[k]
                if d is None:
                    if y is None:
                        x = [(a + b) % p for a, b in zip(x, n)]
                    else:
                        x = [(a + b * c) % p for a, b, c in zip(x, n, y)]
                elif y is None:
                    x, y = [(a * c + b) % p for a, b, c in zip(x, n, d)], d
                else:
                    x = [(a * c + b * e) % p for a, b, c, e in zip(x, n, d, y)]
                    y = [a * b % p for a, b in zip(y, d)]
        elif kind == "sym":
            try:
                x = columns[arg]
            except KeyError:
                raise ExprError(f"no value for symbol '{arg}'") from None
        elif kind == "pow":
            k, n = arg
            x, y = nums[k], dens[k]
            if n < 0:
                if 0 in x:
                    dead.update(j for j, a in enumerate(x) if a == 0)
                x, y, n = [1] * m if y is None else y, x, -n
            if n != 1:
                x = [pow(a, n, p) for a in x]
                if y is not None:
                    y = [pow(a, n, p) for a in y]
        elif kind == "div":
            a, b = arg
            x, y = nums[a], dens[a]
            n, d = nums[b], dens[b]
            if 0 in n:
                dead.update(j for j, c in enumerate(n) if c == 0)
            if d is not None:
                x = [c * e % p for c, e in zip(x, d)]
            y = n if y is None else [c * e % p for c, e in zip(y, n)]
        else:
            if arg.denominator % p == 0:
                return [None] * m
            consts[i] = arg.numerator % p
            x = [consts[i]] * m
            if arg.denominator != 1:
                y = [arg.denominator % p] * m
        nums.append(x)
        dens.append(y)
    if not dead:
        return nums[-1]
    return [None if j in dead else v for j, v in enumerate(nums[-1])]


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
#
# Both printers expand the DAG into a tree, yet build each distinct node's
# text once, from its children's texts, in the post-order of the compiled
# program.  A text is kept as (negative, body), its printed form being
# "-" + body when negative, so a parent joins a child's body as it is and
# never slices or wraps a copy of it.  A child's text leaves the memo once
# its last parent is built, so memory stays near twice the output and time
# grows with the bytes printed, not with the tree.

_PAREN = ("(", ")")
_LATEX_PAREN = (r"\left(", r"\right)")


def _put(out: list, text: tuple[bool, str], wrap=None) -> None:
    """Append a child's printed form to out, inside the pair wrap if given."""
    neg, body = text
    if wrap:
        out.append(wrap[0])
    if neg:
        out.append("-")
    out.append(body)
    if wrap:
        out.append(wrap[1])


def _first(out: list, text: tuple[bool, str], wrap=None) -> bool:
    """Append the first child of a node; returns whether the node's printed
    form starts with a minus sign, which an unwrapped child hands up."""
    if wrap:
        _put(out, text, wrap)
        return False
    out.append(text[1])
    return text[0]


def _sum_rule(arg, texts) -> tuple[bool, list]:
    out: list = []
    neg = _first(out, texts[arg[0]])
    for k in arg[1:]:
        n, body = texts[k]
        out += (" - " if n else " + ", body)
    return neg, out


def _string_rule(kind, arg, code, texts) -> tuple[bool, list]:
    out: list = []
    if kind == "mul":
        # A leading -1 factor prints as a bare minus sign.
        minus = len(arg) > 1 and code[arg[0]] == ("num", -1)
        neg = minus
        for j, k in enumerate(arg[1:] if minus else arg):
            # A quotient after the first slot must be wrapped: * and / are
            # left-associative, so a*b/c reparses as (a*b)/c.
            child = code[k][0]
            wrap = _PAREN if child == "add" or (child == "div" and j) else None
            if j:
                out.append("*")
            if j or minus:
                _put(out, texts[k], wrap)
            else:
                neg = _first(out, texts[k], wrap)
        return neg, out
    if kind == "pow":
        base, exp = arg
        neg = _first(out, texts[base], None if code[base][0] == "sym" else _PAREN)
        out += ("^", str(exp))
        return neg, out
    if kind == "div":
        n, d = arg
        neg = _first(out, texts[n], _PAREN if code[n][0] in ("add", "mul", "div") else None)
        out.append("/")
        _put(out, texts[d], _PAREN if code[d][0] in ("add", "mul", "div") else None)
        return neg, out
    raise ExprError(f"unprintable node kind {kind}")


def _latex_rule(kind, arg, code, texts) -> tuple[bool, list]:
    out: list = []
    if kind == "mul":
        neg = False
        for j, k in enumerate(arg):
            wrap = _LATEX_PAREN if code[k][0] == "add" else None
            if j:
                out.append(r" \cdot ")
                _put(out, texts[k], wrap)
            else:
                neg = _first(out, texts[k], wrap)
        return neg, out
    if kind == "pow":
        base, exp = arg
        out.append("{")
        _put(out, texts[base], None if code[base][0] == "sym" else _LATEX_PAREN)
        out += ("}^{", str(exp), "}")
        return False, out
    if kind == "div":
        n, d = arg
        out.append(r"\frac{")
        _put(out, texts[n])
        out.append("}{")
        _put(out, texts[d])
        out.append("}")
        return False, out
    raise ExprError(f"unprintable node kind {kind}")


def _print(e: Expr, leaf, rule) -> str:
    """The printed form of e: leaf(arg) gives the text of a constant's
    Fraction or a symbol's name, and rule(kind, arg, code, texts) the sign and the pieces
    of the body of a product, power or quotient; both printers write sums
    alike."""
    code, _ = _compile(e)
    uses = [0] * len(code)
    for kind, arg in code:
        if kind != "num" and kind != "sym":
            for k in arg[:1] if kind == "pow" else arg:
                uses[k] += 1
    texts: list = [None] * len(code)
    last = len(code) - 1
    for i, (kind, arg) in enumerate(code):
        if kind == "num" or kind == "sym":
            s = leaf(arg)
            if i == last:
                return s
            neg = s.startswith("-")
            texts[i] = (neg, s[1:] if neg else s)
            continue
        if kind == "add":
            neg, out = _sum_rule(arg, texts)
        else:
            neg, out = rule(kind, arg, code, texts)
        for k in arg[:1] if kind == "pow" else arg:
            uses[k] -= 1
            if not uses[k]:
                texts[k] = None
        if i == last:
            if neg:
                out.insert(0, "-")
            return "".join(out)
        texts[i] = (neg, "".join(out))


def to_string(e: Expr) -> str:
    return _print(e, str, _string_rule)


_LATEX_SYMBOLS = {
    "kappa1": r"\kappa_{1}", "kappa2": r"\kappa_{2}", "delta": r"\delta",
    "fbar": r"\overline{f}", "gbar": r"\overline{g}",
}
for _i in range(1, 9):
    _LATEX_SYMBOLS[f"nu{_i}"] = r"\nu_{%d}" % _i


def _latex_leaf(arg) -> str:
    if isinstance(arg, str):
        return _LATEX_SYMBOLS.get(arg, arg)
    if arg.denominator == 1:
        return str(arg.numerator)
    s = r"\frac{%d}{%d}" % (abs(arg.numerator), arg.denominator)
    return "-" + s if arg < 0 else s


def to_latex(e: Expr) -> str:
    return _print(e, _latex_leaf, _latex_rule)


# ---------------------------------------------------------------------------
# parsing
#
# Grammar: integers, rationals p/q, symbols, + - * / ^ and parentheses.
# ^ takes an integer literal exponent (optionally negated).  The parser is
# recursive descent, four Python frames per parenthesis, so nesting is
# capped well inside the default recursion limit.

MAX_NESTING = 100

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
        self.depth = 0      # parentheses and unary minus signs now open

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
        if kind == "OP" and text in ("(", "-"):
            if self.depth == MAX_NESTING:
                raise ExprSyntaxError(f"nesting deeper than {MAX_NESTING} levels", pos)
            self.depth += 1
            if text == "(":
                e = self.parse_expr()
                self.expect_op(")")
            else:
                e = neg(self.parse_atom())
            self.depth -= 1
            return e
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
