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
import operator
import re
import threading
from fractions import Fraction
from typing import Iterable, Mapping

PARAM_SYMBOLS: tuple[str, ...] = (
    "q",
    "nu1", "nu2", "nu3", "nu4", "nu5", "nu6", "nu7", "nu8",
    "kappa1", "kappa2",
)

#: Parameters plus the dependent pair (f, g): the symbols a family
#: transformation may move.
ACTION_SYMBOLS: tuple[str, ...] = PARAM_SYMBOLS + ("f", "g")

RESERVED_SYMBOLS: tuple[str, ...] = ACTION_SYMBOLS + ("z", "u", "delta", "c", "s")


def shown(value) -> str:
    """repr(value) as an error message quotes user input: past 24 characters
    it keeps the first 20 and "...", so a long input gives a short line."""
    if isinstance(value, str):
        return repr(value if len(value) <= 24 else value[:20] + "...")
    text = repr(value)
    return text if len(text) <= 24 else text[:20] + "..."


class ExprError(ValueError):
    """Malformed expression construction (e.g. a syntactically zero denominator)."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class UnknownSymbolError(ExprError):
    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown symbol {shown(name)} at offset {offset}")
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

    __slots__ = ("kind", "value", "name", "children", "exp", "free", "monomial")

    def __init__(self, key: tuple):
        kind = self.kind = key[0]
        self.value = self.name = None   # Fraction for 'num'; str for 'sym'
        self.children = ()              # tuple[Expr, ...]
        self.exp = 0                    # int, for 'pow'
        # monomial: the sorted (symbol, exponent) pairs of a Laurent monomial
        # with coefficient 1, else None (any sum, any other constant).
        if kind == "num":
            value = self.value = key[1]
            if _bits(value) > MAX_FOLD_BITS:
                raise ExprError(f"constant folds to more than {MAX_FOLD_BITS} bits")
            self.free = frozenset()
            self.monomial = () if value == 1 else None
        elif kind == "sym":
            name = self.name = key[1]
            self.free = frozenset((name,))
            self.monomial = ((name, 1),)
        else:
            children = self.children = key[1:2] if kind == "pow" else key[1:]
            exp = self.exp = key[2] if kind == "pow" else 0
            fs: frozenset[str] = frozenset()
            for ch in children:
                fs = fs | ch.free
            self.free = fs
            mono = None if kind == "add" else children[0].monomial
            if mono is not None:
                powers = ((exp,) if kind == "pow" else (1, -1) if kind == "div"
                          else (1,) * len(children))
                mono = monomial_product(zip([ch.monomial for ch in children], powers))
            self.monomial = mono

    def __repr__(self):
        return f"Expr({to_string(self)})"

    def __str__(self):
        return to_string(self)


def monomial_product(factors) -> tuple | None:
    """The product of m^k over the (m, k) in factors, m a monomial tuple of
    Expr.monomial; None when some m is None."""
    exps: dict[str, int] = {}
    for m, k in factors:
        if m is None:
            return None
        for name, j in m:
            exps[name] = exps.get(name, 0) + k * j
    return tuple(sorted([item for item in exps.items() if item[1]]))


# The intern table never evicts: a node lives as long as the process, so its
# identity is a stable key.  Keys are ("num", Fraction), ("sym", name),
# ("add", *children), ("mul", *children), ("pow", base, exp) and
# ("div", numer, denom), and Expr(key) builds the node a key names.
_INTERN: dict[tuple, Expr] = {}
_INTERN_LOCK = threading.Lock()


def _intern(key: tuple) -> Expr:
    """The node for key, built on a miss after a factory's lock-free probe;
    a second look under the lock, which no other code takes, makes racing
    builders share one node."""
    with _INTERN_LOCK:
        node = _INTERN.get(key)
        if node is None:
            node = _INTERN[key] = Expr(key)
    return node


#: Bits a constant's numerator or denominator may have: far above the
#: largest constant the tables or the tests build (2^20000), and small
#: enough that folding two such constants takes milliseconds.
MAX_FOLD_BITS = 1 << 20


def _bits(v: Fraction) -> int:
    return max(v.numerator.bit_length(), v.denominator.bit_length())


def _fold(op, consts: list[Expr]) -> Fraction:
    """op folded over the constants' values from the left, each partial
    result refused past MAX_FOLD_BITS before the next is computed."""
    acc = consts[0].value
    for ch in consts[1:]:
        acc = op(acc, ch.value)
        if _bits(acc) > MAX_FOLD_BITS:
            raise ExprError(f"constant folds to more than {MAX_FOLD_BITS} bits")
    return acc


# Each factory below ends in `_INTERN.get(key) or _intern(key)` (an Expr is
# never false): a hit costs the key tuple and one lock-free probe.

def num(value) -> Expr:
    """The constant value.  A number equals, and hashes as, the Fraction it
    names, so its probe finds that Fraction's node with no conversion."""
    return _INTERN.get(("num", value)) or _intern(("num", Fraction(value)))


def sym(name: str) -> Expr:
    return _INTERN.get(("sym", name)) or _intern(("sym", name))


ZERO = num(0)
ONE = num(1)
MINUS_ONE = num(-1)


def add(*terms: Expr) -> Expr:
    """The flattened sum; constants fold into one last child.  A lone
    constant is kept as the node it is, so a sum with at most one constant
    term does no Fraction arithmetic."""
    flat: list[Expr] = []
    consts: list[Expr] = []
    for t in terms:
        kind = t.kind
        if kind == "add":
            for ch in t.children:
                (consts if ch.kind == "num" else flat).append(ch)
        elif kind == "num":
            consts.append(t)
        else:
            flat.append(t)
    if consts:
        # Interned, a constant node is ZERO (or ONE) exactly when its value is.
        c = consts[0] if len(consts) == 1 else num(_fold(operator.add, consts))
        if c is not ZERO:
            flat.append(c)
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    key = ("add", *flat)
    return _INTERN.get(key) or _intern(key)


def mul(*factors: Expr) -> Expr:
    """The flattened product; constants fold into one first child.  A lone
    constant is kept as the node it is, so a product with at most one
    constant factor does no Fraction arithmetic."""
    flat: list[Expr] = []
    consts: list[Expr] = []
    for fct in factors:
        kind = fct.kind
        if kind == "mul":
            for ch in fct.children:
                (consts if ch.kind == "num" else flat).append(ch)
        elif kind == "num":
            consts.append(fct)
        else:
            flat.append(fct)
    if consts:
        c = consts[0] if len(consts) == 1 else num(_fold(operator.mul, consts))
        if c is ZERO:
            return ZERO
        if c is not ONE:
            flat.insert(0, c)
    if not flat:
        return ONE
    if len(flat) == 1:
        return flat[0]
    key = ("mul", *flat)
    return _INTERN.get(key) or _intern(key)


def pow_(base: Expr, exponent: int) -> Expr:
    if not isinstance(exponent, int):
        raise ExprError("exponent must be an integer")
    # A negative power is a quotient, so a pow node's exponent is at least 2.
    if exponent < 0:
        return div(ONE, pow_(base, -exponent))
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if base.kind == "num":
        v = base.value
        # v^n has at least (_bits(v) - 1) n bits: refuse before computing it.
        if (_bits(v) - 1) * exponent > MAX_FOLD_BITS:
            raise ExprError(f"constant folds to more than {MAX_FOLD_BITS} bits")
        return num(v ** exponent)
    if base.kind == "pow":
        return pow_(base.children[0], base.exp * exponent)
    key = ("pow", base, exponent)
    return _INTERN.get(key) or _intern(key)


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
    key = ("div", numer, denom)
    return _INTERN.get(key) or _intern(key)


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
        if keys.isdisjoint(node.free):
            memo[node] = node
            stack.pop()
            continue
        if node.kind == "sym":
            memo[node] = images.get(node.name, node)
            stack.pop()
            continue
        # One list per visit: the children's images, None for each child
        # not yet visited, which is then pushed in order.
        kids = [memo.get(ch) for ch in node.children]
        if None in kids:
            stack.extend([ch for ch, k in zip(node.children, kids) if k is None])
            continue
        stack.pop()
        if node.kind == "add":
            memo[node] = add(*kids)
        elif node.kind == "mul":
            memo[node] = mul(*kids)
        elif node.kind == "pow":
            memo[node] = pow_(kids[0], node.exp)
        else:
            memo[node] = div(kids[0], kids[1])
    return memo[e]


# ---------------------------------------------------------------------------
# evaluation
#
# A residual is evaluated at many sampled points, so it is compiled once into
# a straight-line program (Kaltofen 1988): one instruction per DAG node in
# post-order, each referring to its children by slot.  Over F_p the program
# runs projectively on (numerator, denominator) pairs reduced into [0, p),
# with one rule per instruction kind.  Only a quotient divides (a power's
# exponent is at least 2), and it first checks that its divisor's numerator
# is nonzero, so no denominator is zero and a run needs no modular inverse
# until the final pair becomes a value.  Where only the zero test matters,
# one run carries many points at once, one lane per point, and needs no
# inverse.

@functools.lru_cache(maxsize=256)
def _compile(e: Expr) -> tuple[tuple, tuple[Expr, ...]]:
    """The post-order program of e and the node behind each slot.

    An instruction is (kind, arg): arg is the Fraction of a constant, the
    name of a symbol, the child slots of a sum, product or quotient, and
    (base slot, exponent) of a power.  The cache is bounded because the
    intern table keeps every node alive and programs are as large as DAGs.
    256 programs hold a benchmark pass, so a process serving requests
    compiles each residual once: one pass needs 79 (`sampled`), 45
    (`exact`) or 117 (`refute`) programs, 7,022 instructions at most.
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
        kind = node.kind
        if kind == "num":
            arg = node.value
        elif kind == "sym":
            arg = node.name
        else:
            # The children's slots, None for each child not yet placed,
            # which is then pushed in order.
            slots = [slot.get(ch) for ch in node.children]
            if None in slots:
                stack.extend([ch for ch, k in zip(node.children, slots) if k is None])
                continue
            arg = (slots[0], node.exp) if kind == "pow" else tuple(slots)
        stack.pop()
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
            v = vals[arg[0]] ** arg[1]
        elif kind == "div":
            v = vals[arg[1]]
            if v == 0:
                raise DivisionByZero(nodes[i])
            v = vals[arg[0]] / v
        else:
            v = arg
        vals.append(v)
    return vals[-1]


def _run_projective(code, nodes, values: Mapping[str, object], p: int,
                    memo: dict | None = None) -> tuple[int, int]:
    """Run the program over F_p; returns the pair (n, d) with d != 0 mod p.

    Pairs are stored reduced mod p, and each instruction kind has one rule:
    a sum of n/d and n'/d' is (n d' + n' d, d d'), a product multiplies
    numerators and denominators, and a power raises both.  memo maps a node
    to its pair at the point `values` gives: a node found there is not run
    again, and each node run is added.  A node that raises is never added.
    """
    if memo is None:
        memo = {}
    size = len(code)
    nums = [0] * size
    dens = [1] * size
    for i, node in enumerate(nodes):
        hit = memo.get(node)
        if hit is not None:
            nums[i], dens[i] = hit
            continue
        kind, arg = code[i]
        if kind == "mul":
            x = y = 1
            for k in arg:
                x = x * nums[k] % p
                y = y * dens[k] % p
            nums[i] = x
            dens[i] = y
        elif kind == "add":
            x = 0
            y = 1
            for k in arg:
                d = dens[k]
                x = (x * d + nums[k] * y) % p
                y = y * d % p
            nums[i] = x
            dens[i] = y
        elif kind == "sym":
            try:
                v = values[arg]
            except KeyError:
                raise ExprError(f"no value for symbol '{arg}'") from None
            if isinstance(v, int):
                nums[i] = v % p
            else:  # a rational n/d is the pair (n, d), as over Q
                v = Fraction(v)
                d = v.denominator % p
                if d == 0:
                    raise DivisionByZero(node)
                nums[i] = v.numerator % p
                dens[i] = d
        elif kind == "pow":
            k, n = arg
            nums[i] = pow(nums[k], n, p)
            dens[i] = pow(dens[k], n, p)
        elif kind == "div":
            a, b = arg
            x = nums[b]
            if x == 0:
                raise DivisionByZero(node)
            nums[i] = nums[a] * dens[b] % p
            dens[i] = dens[a] * x % p
        else:
            d = arg.denominator % p
            if d == 0:
                raise DivisionByZero(node)
            nums[i] = arg.numerator % p
            dens[i] = d
        memo[node] = nums[i], dens[i]
    return nums[-1], dens[-1]


def _run_lanes(code, nodes, columns: Mapping[str, list], m: int, p: int,
               memo: dict | None = None) -> list:
    """Run the program over F_p at m points at once, lane i of each symbol's
    column being point i; returns each lane's final numerator, or None where
    _run_projective would raise DivisionByZero.

    Column values must lie in [0, p), and so does every stored value.  Only
    whether a lane's value is zero matters, so no lane is ever inverted.  A
    lane whose quotient divisor has numerator 0 is dead: it is marked and
    left to run on, and its other lanes keep nonzero denominators.  A
    constant is a column, as a symbol is, and a product multiplies its
    children's columns in order.  A denominator column of ones is kept as
    None.  memo maps a node to its (numerators, denominators, dead lanes)
    at these columns, the dead lanes being those at which the node's own
    subtree divides by zero, as a frozenset, or None: a node found there is
    not run again and brings its dead lanes, and each node run is added.
    A constant whose denominator p divides kills every lane and ends the run.
    """
    if memo is None:
        memo = {}
    nums: list[list] = []
    dens: list = []
    deads: list = []
    # Until a dead lane appears, every node's dead lanes are None.
    poles = False
    for (kind, arg), node in zip(code, nodes):
        hit = memo.get(node)
        if hit is not None:
            x, y, dead = hit
            poles = poles or dead is not None
            nums.append(x)
            dens.append(y)
            deads.append(dead)
            continue
        y = dead = None
        if kind == "mul":
            x = nums[arg[0]]
            for k in arg[1:]:
                x = [a * b % p for a, b in zip(x, nums[k])]
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
            x = [pow(a, n, p) for a in nums[k]]
            if dens[k] is not None:
                y = [pow(a, n, p) for a in dens[k]]
        elif kind == "div":
            a, b = arg
            x, y = nums[a], dens[a]
            n, d = nums[b], dens[b]
            if 0 in n:
                poles = True
                dead = frozenset([j for j, c in enumerate(n) if c == 0])
            if d is not None:
                x = [c * e % p for c, e in zip(x, d)]
            y = n if y is None else [c * e % p for c, e in zip(y, n)]
        else:
            if arg.denominator % p == 0:
                return [None] * m
            x = [arg.numerator % p] * m
            if arg.denominator != 1:
                y = [arg.denominator % p] * m
        if poles and kind != "sym" and kind != "num":
            for k in arg[:1] if kind == "pow" else arg:
                d = deads[k]
                if d is not None:
                    dead = d if dead is None else dead | d
        memo[node] = x, y, dead
        nums.append(x)
        dens.append(y)
        deads.append(dead)
    dead = deads[-1]
    if dead is None:
        return nums[-1]
    return [None if j in dead else v for j, v in enumerate(nums[-1])]


def evaluate(e: Expr, values: Mapping[str, object], p: int | None = None, *,
             memo: dict | None = None):
    """Evaluate over the exact rationals (p=None) or the prime field F_p.

    `values` must cover every free symbol of e.  Over F_p a value that is
    not an int is read as Fraction(value) n/d and taken as n d^-1 mod p.
    Raises DivisionByZero with the offending subexpression when a
    denominator vanishes: the first quotient in post-order whose divisor is
    zero (a negative power is built as a quotient), or, over F_p, a
    constant or a symbol's value whose denominator p divides.  The caller
    is expected to resample.  Over F_p, memo (see _run_projective) keeps
    the pair of every node run, for later calls at the same values and p.
    """
    code, nodes = _compile(e)
    if p is None:
        return _run_rational(code, nodes, values)
    n, d = _run_projective(code, nodes, values, p, memo)
    # A zero residual, the common case, needs no inverse at all.
    return n if n == 0 or d == 1 else n * pow(d, -1, p) % p


# ---------------------------------------------------------------------------
# printing
#
# Both printers expand the DAG into a tree, yet build each distinct node's
# text once, from its children's texts, in the post-order of the compiled
# program.  They share one rule per instruction kind, `_rule`; a format is
# only its tokens, a style tuple.  A text is kept as (negative, body), its
# printed form being "-" + body when negative, so a parent joins a child's
# body as it is and never slices or wraps a copy of it.  A child's text
# leaves the memo once its last parent is built, so memory stays near twice
# the output and time grows with the bytes printed, not with the tree.

#: A style is the parenthesis pair, the product sign, the pieces around a
#: power's base and exponent, those around a quotient's operands, and
#: whether a sum, product or quotient is wrapped as a quotient operand, as
#: is a quotient after a product's first factor.  An empty piece is never
#: appended.
_TEXT_STYLE = (("(", ")"), "*", ("", "^", ""), ("", "/", ""), True)
_LATEX_STYLE = ((r"\left(", r"\right)"), r" \cdot ", ("{", "}^{", "}"),
                (r"\frac{", "}{", "}"), False)


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


def _rule(style, kind, arg, code, texts) -> tuple[bool, list]:
    """The sign and the pieces of the body of a sum, product, power or
    quotient, spelled in style's tokens."""
    out: list = []
    if kind == "add":
        neg = _first(out, texts[arg[0]])
        for k in arg[1:]:
            n, body = texts[k]
            out += (" - " if n else " + ", body)
        return neg, out
    paren, times, power, quotient, wrap_ops = style
    if kind == "mul":
        # A leading -1 factor prints as a bare minus sign.
        minus = len(arg) > 1 and code[arg[0]] == ("num", -1)
        neg = minus
        for j, k in enumerate(arg[1:] if minus else arg):
            # A text quotient after the first slot must be wrapped: * and /
            # are left-associative, so a*b/c reparses as (a*b)/c.
            child = code[k][0]
            wrap = paren if child == "add" or (wrap_ops and j and child == "div") else None
            if j:
                out.append(times)
            if j or minus:
                _put(out, texts[k], wrap)
            else:
                neg = _first(out, texts[k], wrap)
        return neg, out
    # A power's base and a quotient's operands are a symbol, a power, a
    # positive constant or wrapped (div keeps a negative constant out of a
    # numerator), so neither hands a sign up.
    if kind == "pow":
        base, exp = arg
        pre, mid, post = power
        if pre:
            out.append(pre)
        _put(out, texts[base], None if code[base][0] == "sym" else paren)
        out.append(f"{mid}{exp}{post}")
        return False, out
    n, d = arg      # a quotient: _print hands over no other kind
    pre, mid, post = quotient
    if pre:
        out.append(pre)
    _put(out, texts[n], paren if wrap_ops and code[n][0] in ("add", "mul", "div") else None)
    out.append(mid)
    _put(out, texts[d], paren if wrap_ops and code[d][0] in ("add", "mul", "div") else None)
    if post:
        out.append(post)
    return False, out


def _print(e: Expr, leaf, style) -> str:
    """The printed form of e: leaf(arg) gives the text of a constant's
    Fraction or a symbol's name, and _rule in style's tokens the sign and
    the pieces of the body of every other node."""
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
        neg, out = _rule(style, kind, arg, code, texts)
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
    return _print(e, str, _TEXT_STYLE)


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
    return _print(e, _latex_leaf, _LATEX_STYLE)


# ---------------------------------------------------------------------------
# parsing
#
# Grammar: integers, rationals p/q, symbols, + - * / ^ and parentheses.
# ^ takes an integer literal exponent (optionally negated).  The parser is
# recursive descent, four Python frames per parenthesis, so nesting is
# capped well inside the default recursion limit.

MAX_NESTING = 100

_TOKEN_RE = re.compile(
    r"(?P<INT>\d+)|(?P<NAME>[A-Za-z_][A-Za-z0-9_]*)|(?P<OP>[-+*/^()])|(?P<WS>\s+)|(?P<BAD>.)",
    re.DOTALL,
)


def _tokenize(text: str):
    tokens: list[tuple[str, str, int]] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "BAD":
            raise ExprSyntaxError(f"unexpected character {m.group()!r}", m.start())
        if kind != "WS":
            tokens.append((kind, m.group(), m.start()))
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

    def accept(self, ops: str) -> str | None:
        """The next token's text, consumed, if it is one of the operators ops."""
        kind, text, _ = self.tokens[self.i]
        if kind == "OP" and text in ops:
            self.i += 1
            return text
        return None

    # A sum, and a run of factors, is built once from all its operands, as
    # the node the left fold builds.  A constant factor folds as it comes, so
    # an oversized product is refused before the factors after it are parsed.
    # A quotient folds left, as batching changes its node: f/2/g is
    # (1/2*f)/g, where div(f, mul(2, g)) is f/(2*g).  Only a quotient n/d
    # divided by a factor that is neither a constant nor a quotient keeps
    # its shape, as n/(d*rhs): such a run of divisors is collected and its
    # product built once, where folding copies the growing product each time.

    def parse_expr(self) -> Expr:
        terms, sign = [], self.accept("+-") or "+"
        while sign:
            term = self.parse_term()
            terms.append(neg(term) if sign == "-" else term)
            sign = self.accept("+-")
        return add(*terms)

    def parse_term(self) -> Expr:
        const, factors, op = ONE, [], "*"
        over: list[Expr] = []   # when set, the term so far is factors[0] / mul(*over)
        while op:
            rhs = self.parse_factor()
            if over and op == "/" and rhs.kind not in ("num", "div"):
                over.append(rhs)
            else:
                if over:
                    factors, over = [div(factors[0], mul(*over))], []
                if op == "/":
                    q = div(mul(const, *factors), rhs)
                    const, factors = ONE, [q]
                    if q.kind == "div":
                        factors, over = [q.children[0]], [q.children[1]]
                elif rhs.kind == "num":
                    const = mul(const, rhs)
                else:
                    factors.append(rhs)
            op = self.accept("*/")
        if over:
            factors = [div(factors[0], mul(*over))]
        return mul(const, *factors)

    def parse_factor(self) -> Expr:
        e = self.parse_atom()
        if self.accept("^"):
            e = pow_(e, self.parse_int_literal())
        return e

    def parse_int_literal(self) -> int:
        signum = -1 if self.accept("-") else 1
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
                if not self.accept(")"):
                    raise ExprSyntaxError("expected ')'", self.peek()[2])
            else:
                e = neg(self.parse_atom())
            self.depth -= 1
            return e
        raise ExprSyntaxError(f"unexpected token {shown(text)}", pos)


def parse(text: str, extra_symbols: Iterable[str] = ()) -> Expr:
    """Parse an expression string.

    Only the reserved symbol set plus `extra_symbols` is accepted; anything
    else raises UnknownSymbolError with the offending name.  The node depends
    only on the text and the symbol set, so the last PARSE_CACHE_SIZE are
    kept by (text, frozenset(extra_symbols)); a text that raises is parsed,
    and raises, again on every call.
    """
    return _parse(text, frozenset(extra_symbols))


#: Parses kept: a benchmark pass parses at most 58 distinct texts.
PARSE_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def _parse(text: str, extra_symbols: frozenset[str]) -> Expr:
    parser = _Parser(_tokenize(text), frozenset(RESERVED_SYMBOLS) | extra_symbols)
    e = parser.parse_expr()
    kind, text_, pos = parser.peek()
    if kind != "END":
        raise ExprSyntaxError(f"trailing input {shown(text_)}", pos)
    return e
