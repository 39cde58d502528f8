"""Time evolution of the q-Painleve families: symbolic theorems and orbits.

The time-evolution map is T = xi o (evolution word)^2, where xi is the
family's adjustment rescaling.  Verification checks, modulo the family
constraint, that T fixes nu1..nu8, sends kappa1 to kappa1/q and kappa2 to
q kappa2, and that the pair of coupled nonlinear relations holds with
(fbar, gbar) = (T(f), T(g)).  The rescaling decomposition of xi is checked
generator by generator.

Orbits iterate the nonlinear system in exact rational arithmetic: one
forward step solves the first relation for fbar at the current state,
advances kappa1 -> kappa1/q and kappa2 -> q kappa2, then solves the second
relation for gbar at the advanced parameters.  This ordering is the only one
consistent with the symbolic T, and the acceptance suite cross-checks the
two paths pointwise.  Each relation is affine in its unknown, and the step
solves it on the integer numerators and denominators of f and g, with the
parameter roots read as integer pairs.  As singularity confinement predicts
(Grammaticos, Ramani and Papageorgiou 1991), the relation's linear factors
recur in f and g, so each solver first cancels its products of linear
factors against the operands known to share them.  The cofactors a solve
leaves, its "pieces", travel with the state it builds, and a step from that
state first divides each linear factor by its gcd with its paired piece: a
hint that costs time and never changes a result.  What is left shares only a
small factor, and the solver reduces it against a bound K, a multiple of the
gcd built from the roots and the small cofactors, instead of by a gcd of the
pair itself.  The pairing, the proofs that a hint cannot change a result and
that K is such a multiple, and their sizes on the benchmark's orbits are in
the comment above _cancel.  Every cancellation divides the numerator and the
denominator by the same nonzero integer, and a reduced fraction is unique, so
the orbit is the one Fraction arithmetic throughout would give.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd

from . import paper
from .expr import Expr, ZERO, parse, shown, substitute, sym
from .identity import CheckConfig
from .identity import identities_equal  # noqa: F401  bench/tracer.py wraps this binding
from .report import Frozen, Record, Report, Value
from .weyl import (
    FamilyDescriptor,
    Transformation,
    compose,
    run_checks,
    scaling_map,
    word_to_transform,
)

FRESH = ("fbar", "gbar")

#: The most steps an orbit may take: on a periodic orbit heights never grow,
#: so only this bounds the time and the output.
MAX_STEPS = 100_000

#: The most decimal digits a numerator or denominator may have, in a params
#: rational and in every orbit state: CPython's default int-to-str limit,
#: whatever the interpreter's own setting.
MAX_DIGITS = 4300
_DIGIT_BOUND = 10 ** MAX_DIGITS

class EvolutionSpec(Frozen):
    __slots__ = ("qp_relations",)

    def __init__(self, qp_relations: tuple[Expr, Expr]):
        super().__init__(qp_relations)


def make_evolution_spec(fam: FamilyDescriptor) -> EvolutionSpec:
    r1, r2 = (parse(t, extra_symbols=FRESH) for t in paper.FAMILIES[fam.name]["relations"])
    return EvolutionSpec((r1, r2))


def time_evolution(fam: FamilyDescriptor) -> Transformation:
    s = word_to_transform(fam, fam.evolution_word)
    return compose(fam.xi, compose(s, s))


def _theorem_i_checks(fam: FamilyDescriptor, constraint, relations, t_images):
    T = time_evolution(fam)
    claims = [(f"nu{i}", T.image(f"nu{i}"), sym(f"nu{i}")) for i in range(1, 9)]
    claims += [(name, T.image(name), parse(image)) for name, image in t_images]
    images = {"fbar": T.image("f"), "gbar": T.image("g")}
    claims += [(tag, substitute(rel, images), ZERO)
               for tag, rel in zip(("rel1", "rel2"), relations)]
    return ((f"{fam.name}:T:{tag}", [("", a, b)]) for tag, a, b in claims)


def verify_theorem_i(fam: FamilyDescriptor, cfg: CheckConfig = CheckConfig()) -> Report:
    return run_checks(fam, cfg, _theorem_i_checks, make_evolution_spec(fam).qp_relations,
                      tuple(paper.T_IMAGES.items()))


def _theorem_ii_checks(fam: FamilyDescriptor, constraint, spec, texts):
    scaling = scaling_map(spec)
    return ((f"{fam.name}:xi:{text}", [("", fam.xi(zeta), scaling(zeta))])
            for text, zeta in zip(texts, map(parse, texts)))


def verify_theorem_ii(fam: FamilyDescriptor, cfg: CheckConfig = CheckConfig()) -> Report:
    """xi against the scaling map it factors through, on each generator:
    for D5 the power gauge's action after the dilation's, for E6 and E7
    one joint scaling."""
    return run_checks(fam, cfg, _theorem_ii_checks,
                      *(paper.FAMILIES[fam.name][key] for key in ("xi_scaling", "xi_generators")))


# ---------------------------------------------------------------------------
# orbits

class PoleError(ArithmeticError):
    def __init__(self, step: int, where: str):
        super().__init__(f"pole at step {step}: {where} vanishes")
        self.step = step
        self.where = where


class _WithContext(Value):
    """OrbitState's base: a slot outside the fields for the solve context
    orbit_step hands on (see the comment above _cancel), so equality,
    hashing, repr and _replace ignore it, and copy and pickle drop it."""

    __slots__ = ("_context",)

    def __reduce__(self):
        return type(self), self._fields()


class OrbitState(_WithContext):
    __slots__ = ("q", "nu", "kappa1", "kappa2", "f", "g", "t")

    def __init__(self, q: Fraction, nu: tuple[Fraction, ...],   # nu1..nu8
                 kappa1: Fraction, kappa2: Fraction, f: Fraction, g: Fraction, t: int = 0):
        set_field = object.__setattr__   # Frozen.__init__ unrolled: every orbit step builds one
        set_field(self, "q", q)
        set_field(self, "nu", nu)
        set_field(self, "kappa1", kappa1)
        set_field(self, "kappa2", kappa2)
        set_field(self, "f", f)
        set_field(self, "g", g)
        set_field(self, "t", t)

    def constraint_residual(self) -> Fraction:
        prod = Fraction(1)
        for v in self.nu:
            prod *= v
        return self.kappa1**2 * self.kappa2**2 - self.q * prod

    def valuation(self) -> dict[str, Fraction]:
        vals = {"q": self.q, "kappa1": self.kappa1, "kappa2": self.kappa2,
                "f": self.f, "g": self.g}
        for i, v in enumerate(self.nu, start=1):
            vals[f"nu{i}"] = v
        return vals

    def to_record(self) -> dict:
        rec = {"t": self.t, "q": _frac_str(self.q),
               "nu": [_frac_str(v) for v in self.nu],
               "kappa1": _frac_str(self.kappa1), "kappa2": _frac_str(self.kappa2),
               "f": _frac_str(self.f), "g": _frac_str(self.g)}
        return rec


def _frac_str(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


#: Fraction's text forms: a ratio of integers, or a decimal with an exponent.
_RATIONAL_TEXT = re.compile(r"\s*[-+]?(?P<num>[\d_]*)(?:\s*/\s*(?P<den>[\d_]+)"
                            r"|(?:\.(?P<dec>[\d_]*))?(?:[eE](?P<exp>[-+]?[\d_]+))?)\s*")


def _text_digits(text: str) -> int:
    """The most decimal digits of the numerator or the denominator that
    Fraction(text) builds before it reduces; 0 for text it rejects."""
    m = _RATIONAL_TEXT.fullmatch(text)
    if m is None:
        return 0
    whole, den, dec, exp = (g.replace("_", "") if g else ""
                            for g in m.group("num", "den", "dec", "exp"))
    if len(exp.lstrip("+-0")) > 18:  # an exponent past 10^18 digits
        return sys.maxsize
    e = int(exp or 0)
    return max(len(whole) + len(dec) + max(e, 0), len(den) or len(dec) + max(-e, 0) + 1)


def parse_rational(text, name: str) -> Fraction:
    """Fraction(text) for the field `name`.  Raises ValueError naming it
    before building a numerator or denominator of more than MAX_DIGITS
    digits, which 1e200000000 would take minutes to reach, and naming it and
    the interpreter's int-to-str limit when that limit alone refuses text."""
    if isinstance(text, bool) or not isinstance(text, (str, int)):
        raise ValueError(f"{name} must be a string like '3/4', got {shown(text)}")
    if isinstance(text, str) and _text_digits(text) > MAX_DIGITS:
        raise ValueError(f"{name} = {shown(text)} has a numerator or denominator "
                         f"past evolution.MAX_DIGITS ({MAX_DIGITS} digits)")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{name} = {shown(text)} has a zero denominator") from None
    except ValueError:
        try:   # refused for its digits alone, under a lower int-to-str limit
            Fraction(re.sub(r"\d+", "1", text))
        except ValueError:
            raise ValueError(f"Invalid literal for Fraction: {shown(text)}") from None
        raise ValueError(f"{name} = {shown(text)} has a numerator or denominator past "
                         f"Python's int-to-str digit limit") from None


def make_state(q, nu_first7, kappa1, kappa2, f, g, t: int = 0) -> OrbitState:
    """Build a state with nu8 recomputed from the constraint, so membership
    is exact by construction."""
    q, kappa1, kappa2, f, g = (Fraction(v) for v in (q, kappa1, kappa2, f, g))
    nu = [Fraction(v) for v in nu_first7]
    if len(nu) != 7:
        raise ValueError("expected exactly nu1..nu7; nu8 is recomputed")
    prod = Fraction(1)
    for v in nu:
        prod *= v
    if q == 0 or prod == 0 or kappa1 == 0 or kappa2 == 0:
        raise ValueError("q, kappa1, kappa2 and nu1..nu7 must be nonzero")
    nu8 = kappa1**2 * kappa2**2 / (q * prod)
    return OrbitState(q, tuple(nu) + (nu8,), kappa1, kappa2, f, g, t)


def state_from_record(rec) -> OrbitState:
    """The state of a params record, as evolve reads it and orbit_to_json
    writes it.  An eighth nu must be the one the constraint gives."""
    if not isinstance(rec, dict):
        raise ValueError(f"expected a JSON object, got {type(rec).__name__}")
    if not isinstance(rec.get("nu"), list):
        raise ValueError(f"'nu' must be a list of rationals, got {shown(rec.get('nu'))}")
    if len(rec["nu"]) not in (7, 8):
        raise ValueError(f"'nu' must list nu1..nu7, or nu1..nu8, got {len(rec['nu'])} values")
    nu = [parse_rational(v, f"nu{i}") for i, v in enumerate(rec["nu"], 1)]
    fields = ("q", "kappa1", "kappa2", "f", "g")
    for k in fields:
        if k not in rec:
            raise ValueError(f"missing field '{k}'")
    t = rec.get("t", 0)
    if isinstance(t, bool) or not isinstance(t, int):
        raise ValueError(f"t must be a JSON integer, got {shown(t)}")
    q, kappa1, kappa2, f, g = (parse_rational(rec[k], k) for k in fields)
    st = make_state(q, nu[:7] if len(nu) == 8 else nu, kappa1, kappa2, f, g, t=t)
    if len(nu) == 8 and nu[7] != st.nu[7]:
        raise ValueError(f"nu8 = {shown(rec['nu'][7])} contradicts the constraint, "
                         f"which gives {_frac_str(st.nu[7])}")
    return st


def orbit_step(fam: FamilyDescriptor, st: OrbitState, direction: str = "forward") -> OrbitState:
    """One step of the family's orbit.  Forward solves rel1 for fbar, then
    rel2 for gbar at the advanced kappas; backward solves rel2 for the
    previous g, then rel1 at the previous kappas for the previous f.  The
    state it returns takes over st's solve context, with the pieces of this
    step (the comment above _cancel)."""
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be forward or backward, got {shown(direction)}")
    solve, q, up = _SOLVERS[fam.name], st.q, direction == "forward"
    context = getattr(st, "_context", None)
    if context is None:
        context = (None, None, None, *(i for v in (q, *st.nu) for i in v.as_integer_ratio()))
    built_up, pf, pg, *params = context
    turn = built_up == (not up)

    def hints(y, x):
        """(hx, hy) for a solve, from the pieces of its y and of its x."""
        return (y, y) if turn else (x, y and (y[0][::-1], y[1][::-1]))

    if up:
        k1, k2 = st.kappa1 / q, st.kappa2 * q
        f, pf = solve(st, params, 1, st.g, st.f, st.kappa1, st.kappa2, up, *hints(pf, pg))
        g, pg = solve(st, params, 2, f, st.g, k1, k2, up, *hints(pg, pf))
    else:
        k1, k2 = st.kappa1 * q, st.kappa2 / q
        g, pg = solve(st, params, 2, st.f, st.g, st.kappa1, st.kappa2, up, *hints(pg, pf))
        f, pf = solve(st, params, 1, g, st.f, k1, k2, up, *hints(pf, pg))
    nxt = OrbitState(q, st.nu, k1, k2, f, g, st.t + 1 if up else st.t - 1)
    object.__setattr__(nxt, "_context", (up, pf, pg, *params))
    object.__setattr__(st, "_context", None)
    return nxt


# Each solver takes the state st it steps from, params, the numerators and
# denominators of q and nu1..nu8 in turn, relation `rel` (1 or 2) at the
# kappas k1, k2 it is written at (those of the earlier state for rel1, of
# the later state for rel2), the coordinate x shared by both states (g for
# rel1, f for rel2), the known coordinate y paired with the unknown z, `up`,
# true when z belongs to the later state, and the hints hx and hy (below).
# It reads the relation's roots in paper.py as integer pairs, not
# necessarily reduced (_roots), and works on the integer numerators and
# denominators of x and y.  Before building z, each solver cancels the
# operand pairs that share most of their bits along an orbit, the larger
# operand first:
#   D5: u against y's numerator, v against y's denominator;
#   E6: u against (x y - 1), v against y's numerator, then the solve
#       denominator against x's denominator (modulo xd it is
#       yn (xn^2 v - u), and xn^2 v = u there, because the top has two
#       factors more than the bottom; the earlier cancellations can break
#       that, hence a cancellation and not a division);
#   E7: u against (x y - t), v against (x y - 1), then a - b against x's
#       denominator and s.num a - s.den b against x's numerator.
# u and v are products of linear factors, one per root (_ratio), and are
# cancelled by _cancel_factors.  Each solver returns z with its pieces: the
# cofactors its top and its bottom factors leave, in order; rel1 always
# builds f and rel2 g.  The pieces travel with the state: orbit_step gives
# the state it builds a solve context, one tuple (the step's direction, the
# pieces of f and of g, then params), and clears that of the state it
# stepped from, so along an orbit only the last state holds one, and memory
# does not grow with the states a caller keeps.  A caller keeps the last
# state's context with it, so the context is small: one tuple built anew
# with each state, and pieces as tuples.  Kept as lists, with params a
# list made at the orbit's start, they raised the orbit benchmark's peak
# RSS by up to 1 MB (by 2 % in the median).  Along an orbit a linear factor of a
# later solve shares all but a few bits of one such piece, so each factor is
# first cancelled against its gcd with its paired piece: on the benchmark's
# orbits (seed 1) a D5 factor of 4,222 bits meets a piece of 2,143 bits,
# where the whole product would be divided by the whole operand, 8,473
# against 4,236 bits.  A step from a state with pieces passes each solve
# the pieces of its y as hy and of its x as hx (x is the state's other
# coordinate in the first solve, the first solve's z in the second).  The
# pairs, measured along the sample and random orbits of every family, in
# both directions:
#   D5's u and v, E6's v: hy.  Factor i pairs with piece 1 - i when the
#       state was built in the step's direction (hy is passed reversed),
#       and with piece i otherwise.
#   E6's u, E7's u and v: hx, factor i with piece i.  Where the direction
#       turns, hx is hy, not reversed: the solve that built y ran the other
#       way from the same x, hence had the same factors.
# A state without a context (a start state, a copy, one already stepped
# from), pieces that are not one per factor and an operand under HINT_BITS
# bits give no hint, and the product is cancelled whole, as one _cancel.
#
# A hint cannot change a result.  The gcd of factor i with its piece divides
# that factor, so the product h of these gcds divides u, and c = gcd(h, b)
# divides both u and the operand b.  Since gcd(u, b) = c gcd(u/c, b/c), the
# exact _cancel of (u/c, b/c) that runs last returns what _cancel(u, b)
# would (for b = 0, c = h, and both return _cancel(u, 0)).  A wrong, stale
# or missing piece only leaves more to that last _cancel.
#
# Each cancellation divides numerator and denominator of z alike.  A pair of
# zeros arises only for u against (x y - 1) or (x y - t); _cancel keeps both
# zero, so the solve denominator is zero and the pole is raised as it was
# before cancelling.  Every denominator is tested before it is used, so a
# pole raises PoleError.
#
# z = N / D is then built by _fraction, reduced against K, a multiple of
# gcd(N, D) made of the roots and of the small cofactors _cancel leaves.
# Write x = c/d in lowest terms, each root r = r_n/r_d with r_d != 0 (not
# necessarily reduced), A_a = c a_d - a_n d for a top root a and B_b =
# c b_d - b_n d for a bottom root b, the factors _ratio returns, so that
# u = prod A_a * prod b_d and v = prod a_d * prod B_b.  Three lemmas, which
# hold with zeros too (gcd(0, Z) = |Z|):
#   (1) gcd(X Y, Z) | gcd(X, Z) gcd(Y, Z).
#   (2) gcd(A_a, B_b) | D_ab = a_d b_n - a_n b_d, because b_n A_a - a_n B_b
#       = c D_ab and b_d A_a - a_d B_b = d D_ab, and c, d are coprime.
#   (3) gcd(X Y, Z W) | lcm(Z, gcd(X, Z W)) when Y and W are coprime: a
#       prime of Y meets Z W only in Z, and a prime not in Y meets X Y only
#       in X.
# By (1) over the factors of u and of v, and (2) for each pair,
#   gcd(u, v) | K_uv = prod a_d * prod b_d * prod_ab D_ab,
# which _ratio returns as k.  The two cofactors the cancellations leave are
# coprime unless both are zero, which only happens at a pole (above), and
# each divides its operand, so gcd(u', v') | K_uv.  Then:
#   D5: N = c_n u' y_d', D = c_d v' y_n'.  y_d' is coprime to v' y_n', and
#       u' to y_n', so by (3) and (1) gcd(N, D) | lcm(c_d, c_n c_d
#       gcd(u', v')): K = c_n c_d K_uv.
#   E6: N = m' v' x_d', D = den', den = m' x_n v' - u' y_n', and x_d' is
#       coprime to den'.  gcd(m', den) = gcd(m', u' y_n') | gcd(m', y_n')
#       and gcd(v', den) = gcd(v', u' y_n') | gcd(v', u'), so by (1)
#       K = gcd(m', y_n') K_uv.
#   E7: N = num' x_d', D = s_d x_n' den'.  num - s_d den = (s_n - s_d) a
#       and num - s_n den = (s_n - s_d) b, so gcd(num, den) | (s_n - s_d)
#       gcd(a, b), and by (1) gcd(a, b) = gcd(m1' v', m2' u') | gcd(m1', m2')
#       gcd(u', v').  x_d' is coprime to x_n' den', and num' to x_n', so by
#       (3) and (1) K = s_d (s_n - s_d) gcd(m1', m2') K_uv.
# A top root equal to a bottom root (D_ab = 0) and E7's s = 1 make K = 0,
# which bounds nothing.  The other zero corners need no case of their own,
# as the lemmas hold with zeros: for u = 0, x equals a top root and each B_b
# divides D_ab, so gcd(0, v) = |v| divides K_uv; for N = 0, gcd(0, D) = |D|
# divides K.  On the benchmark's orbits (seed 1, 3,884 solves) K has a
# median of 193 bits (90th percentile 399, at most 694) against operands of
# 1,184 (5,768, 13,110), and gcd(N, D) has a median of 30 bits and at most
# 100.

def _cancel(a: int, b: int) -> tuple[int, int]:
    """(a // g, b // g) for g = gcd(a, b) or 1, with one long division.
    a = q b + r, so g = gcd(b, r) and a // g = q (b // g) + r // g.  Pass
    the larger operand as a: the division is then the one gcd(a, b) would
    begin with, and what is left has operands of the smaller's size."""
    if b == 0:
        return a // (abs(a) or 1), 0
    q, r = divmod(a, b)
    g = gcd(b, r)
    b //= g
    return q * b + r // g, b


try:
    _coprime_fraction = Fraction._from_coprime_ints     # Python 3.12 and later
except AttributeError:                                   # Python 3.10 and 3.11
    def _coprime_fraction(num: int, den: int) -> Fraction:
        return Fraction(num, den, _normalize=False)


def _fraction(num: int, den: int, k: int) -> Fraction:
    """Fraction(num, den) for den != 0 and k a multiple of gcd(num, den).
    gcd(num, k) is a multiple of gcd(num, den) that divides num, so its gcd
    with den is gcd(num, den), found by gcds of k's size instead of num's;
    k = 0 bounds nothing, as gcd(num, 0) = |num|."""
    g = gcd(gcd(num, k), den)
    if den < 0:
        g = -g
    return _coprime_fraction(num // g, den // g)


#: The values a root text names, q, nu1..nu8 and its relation's kappas k1, k2;
#: _roots lists their numerators and denominators, then a 1 at _ONE as padding.
_ROOT_NAMES = ("q", "nu1", "nu2", "nu3", "nu4", "nu5", "nu6", "nu7", "nu8", "k1", "k2")
_ONE = 2 * len(_ROOT_NAMES)


def _root_indices(text: str) -> tuple[int, ...]:
    """Where _roots' integer list holds the 3 factors of each part of a root
    text's integer pair: "nu5/k2" gives nu5_n, k2_d, 1, nu5_d, k2_n, 1."""
    top, bottom = ([_ROOT_NAMES.index(name) for name in side.strip("()").split("*")
                    if name not in ("", "1")] for side in text.partition("/")[::2])
    num = [2 * i for i in top] + [2 * i + 1 for i in bottom]
    den = [2 * i + 1 for i in top] + [2 * i for i in bottom]
    return tuple(num + [_ONE] * (3 - len(num)) + den + [_ONE] * (3 - len(den)))


#: Each family's roots in paper.py, per relation (constants, top roots,
#: bottom roots), each root as its _root_indices.
_ROOTS = {name: tuple(tuple(tuple(map(_root_indices, p)) for p in rel) for rel in data["roots"])
          for name, data in paper.FAMILIES.items()}


def _roots(params: list[int], rel: tuple, k1: Fraction,
           k2: Fraction) -> list[list[tuple[int, int]]]:
    """A relation's constants, top roots and bottom roots at params and k1,
    k2, each as its integer pair, not reduced: nu5/k2 is (nu5_n k2_d, nu5_d k2_n)."""
    v = [*params, *k1.as_integer_ratio(), *k2.as_integer_ratio(), 1]
    return [[(v[a] * v[b] * v[c], v[d] * v[e] * v[f]) for a, b, c, d, e, f in p] for p in rel]


def _ratio(x: Fraction, top, bottom) -> tuple[list[int], list[int], int, int, int]:
    """The factors of prod(x - a for a in top) / prod(x - b for b in bottom)
    as integers (tops, bots, pa, pb, k): tops[i] = c a_d - a_n d for the i-th
    top root, bots[j] = c b_d - b_n d for the j-th bottom root, x = c/d, pa
    and pb the products of the top and bottom roots' denominators, so that
    u = pb prod(tops) and v = pa prod(bots) make the quotient u / (v *
    d**(len(top) - len(bottom))), and k = K_uv, a multiple of gcd(u, v).
    Roots are integer pairs with nonzero denominators; v is 0 exactly when
    a bottom factor is."""
    c, d = x.as_integer_ratio()
    pa = pb = k = 1
    for an, ad in top:
        pa *= ad
        for bn, bd in bottom:
            k *= ad * bn - an * bd
    for bn, bd in bottom:
        pb *= bd
    return ([c * ad - an * d for an, ad in top], [c * bd - bn * d for bn, bd in bottom],
            pa, pb, k * pa * pb)


#: Operands below this many bits are cancelled without hints.  On the
#: benchmark's orbits (in process, best of 5, Python 3.11.7 on an AMD EPYC
#: core), 1,000 bits is the fastest cutoff on the short random orbits: no
#: cutoff is 2-4 % slower there, 500 and 2,000 bits within 2 %, and 4,000
#: bits 10 % (D5, E6) to 23 % (E7) slower.  The long orbits differ by 4 % at
#: most between these cutoffs.
HINT_BITS = 1000


def _cancel_factors(factors: list[int], extra: int, b: int, pieces):
    """(u // g, b // g, cofactors) for u = extra * prod(factors) and g =
    gcd(u, b) or 1, as _cancel(u, b) returns them.  pieces, when given one
    per factor and b has at least HINT_BITS bits, are hints: factor i is
    divided by its gcd with pieces[i], the product of those gcds is
    cancelled against b, and the exact _cancel runs last, on what is left.
    cofactors, the solve's pieces, are the factors after their hints, as a
    tuple; without hints they are the factors themselves."""
    if pieces is None or len(pieces) != len(factors) or b.bit_length() < HINT_BITS:
        pieces = (0,) * len(factors)             # no hints: every factor is kept whole
    found, u, rest = 1, extra, []
    for f, p in zip(factors, pieces):
        if p:
            q, r = divmod(f, p)
            g = gcd(p, r)                        # gcd(f, p)
            found *= g
            f = q * (p // g) + r // g
        rest.append(f)
        u *= f
    if found != 1:
        b, found = _cancel(b, found)
        u *= found
    u, b = _cancel(u, b)
    return u, b, tuple(rest)


def _solve_d5(st: OrbitState, params, rel: int, x: Fraction, y: Fraction,
              k1, k2, up: bool, hx, hy):
    """z y prod(x - b) = c prod(x - a), solved for z."""
    ((cn, cd),), top, bottom = _roots(params, _ROOTS["D5"][rel - 1], k1, k2)
    tops, bots, pa, pb, k = _ratio(x, top, bottom)
    if 0 in bots:
        raise PoleError(st.t, f"rel{rel} denominator")
    if y == 0:
        raise PoleError(st.t, "f" if rel == 1 else "g")
    yn, yd = y.as_integer_ratio()
    u, yn, tops = _cancel_factors(tops, pb, yn, hy and hy[0])
    v, yd, bots = _cancel_factors(bots, pa, yd, hy and hy[1])
    return _fraction(cn * u * yd, cd * v * yn, cn * cd * k), (tops, bots)


def _solve_e6(st: OrbitState, params, rel: int, x: Fraction, y: Fraction,
              k1, k2, up: bool, hx, hy):
    """(x z - 1)(x y - 1) prod(x - b) = z y prod(x - a), solved for z."""
    _, top, bottom = _roots(params, _ROOTS["E6"][rel - 1], k1, k2)
    tops, bots, pa, pb, k = _ratio(x, top, bottom)   # prod(x - a) / prod(x - b) = u / (v xd^2)
    if 0 in bots:
        raise PoleError(st.t, f"rel{rel} rhs")
    (xn, xd), (yn, yd) = x.as_integer_ratio(), y.as_integer_ratio()
    m = xn * yn - xd * yd                    # (x y - 1) xd yd
    u, m, tops = _cancel_factors(tops, pb, m, hx and hx[0])   # u == m == 0: den == 0
    v, yn, bots = _cancel_factors(bots, pa, yn, hy and hy[1])
    den = m * xn * v - u * yn
    if den == 0:
        raise PoleError(st.t, f"rel{rel} solve")
    den, xd = _cancel(den, xd)
    return _fraction(m * v * xd, den, gcd(m, yn) * k), (tops, bots)


def _solve_e7(st: OrbitState, params, rel: int, x: Fraction, y: Fraction,
              k1, k2, up: bool, hx, hy):
    """(x z - s)(x y - t) prod(x - b) = (x z - 1)(x y - 1) prod(x - a),
    solved for z; s and t are c and q c, swapped going backward."""
    (c, qc), top, bottom = _roots(params, _ROOTS["E7"][rel - 1], k1, k2)
    (sn, sd), (tn, td) = (c, qc) if up else (qc, c)
    tops, bots, pa, pb, k = _ratio(x, top, bottom)       # prod(x - a) / prod(x - b) = u / v
    if 0 in bots:
        raise PoleError(st.t, f"rel{rel} rhs")
    (xn, xd), (yn, yd) = x.as_integer_ratio(), y.as_integer_ratio()
    xy, dd = xn * yn, xd * yd
    m1 = xy * td - tn * dd                               # (x y - t), times xd yd t.den
    m2 = (xy - dd) * td                                  # (x y - 1), times xd yd t.den
    u, m1, tops = _cancel_factors(tops, pb, m1, hx and hx[0])  # u == m1 == 0: den == 0
    v, m2, bots = _cancel_factors(bots, pa, m2, hx and hx[1])
    a, b = m1 * v, m2 * u
    den = a - b                                          # z = num xd / (s.den xn den)
    if den == 0 or xn == 0:
        raise PoleError(st.t, f"rel{rel} solve")
    num = sn * a - sd * b
    den, xd = _cancel(den, xd)
    num, xn = _cancel(num, xn)
    return _fraction(num * xd, sd * xn * den, sd * (sn - sd) * gcd(m1, m2) * k), (tops, bots)


_SOLVERS = {"D5": _solve_d5, "E6": _solve_e6, "E7": _solve_e7}


class OrbitResult(Record):
    __slots__ = ("states", "pole")

    def __init__(self, states: list[OrbitState], pole: PoleError | None = None):
        self.states, self.pole = states, pole

    @property
    def complete(self) -> bool:
        return self.pole is None


def orbit(fam: FamilyDescriptor, st0: OrbitState, n: int) -> OrbitResult:
    """n forward steps, 0 <= n <= MAX_STEPS; aborts at the first pole with
    partial output.  Raises ValueError at the first state with a numerator
    or denominator of more than MAX_DIGITS digits, before stepping on: the
    rationals only grow, and each step costs more."""
    if not 0 <= n <= MAX_STEPS:
        raise ValueError(f"the number of steps n must be >= 0 and at most {MAX_STEPS}, got {n}")
    _check_digits(st0, "give a smaller start state")
    states = [st0]
    st = st0
    for _ in range(n):
        try:
            st = orbit_step(fam, st, "forward")
        except PoleError as err:
            return OrbitResult(states, err)
        _check_digits(st, "ask for fewer steps")
        states.append(st)
    return OrbitResult(states)


def _past_limit(st: OrbitState, limit: str, advice: str) -> ValueError:
    return ValueError(f"state t={st.t} has a rational past {limit}; {advice}")


def _check_digits(st: OrbitState, advice: str) -> None:
    """Raise ValueError naming st when a numerator or denominator has more
    than MAX_DIGITS decimal digits."""
    if any(not -_DIGIT_BOUND < v.numerator < _DIGIT_BOUND or v.denominator >= _DIGIT_BOUND
           for v in (st.q, *st.nu, st.kappa1, st.kappa2, st.f, st.g)):
        raise _past_limit(st, f"evolution.MAX_DIGITS ({MAX_DIGITS} digits)", advice)


def orbit_to_json(result: OrbitResult) -> str:
    """The orbit as JSON.  Raises ValueError naming the first state whose
    str() the interpreter refuses: a numerator or denominator past its
    int-to-str digit limit, 4300 digits (MAX_DIGITS) by default."""
    import json   # here, not at module level: only evolve prints JSON
    records = []
    for st in result.states:
        try:
            records.append(st.to_record())
        except ValueError:
            raise _past_limit(st, "Python's int-to-str digit limit", "ask for fewer steps"
                              if records else "give a smaller start state") from None
    doc = {"schema": 1, "states": records}
    if result.pole is not None:
        doc["pole"] = {"step": result.pole.step, "where": result.pole.where}
    return json.dumps(doc, sort_keys=True, indent=2)
