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
solves it on the integer numerators and denominators of f and g: a factor
(x - p/r) with x = c/d becomes the integer c*r - p*d, and the powers of d
cancel by hand.  Most of the unreduced pair for the new coordinate would
cancel in its reduction, as singularity confinement predicts (Grammaticos,
Ramani and Papageorgiou 1991): the factors of the relation's rational
function recur in the numerators and denominators of f and g.  So each
solver first cancels the pairs known to share them, with gcds of the small
operands (Henrici's method, as in Fraction.__mul__), and then reduces once
with Fraction(num, den).  Every cancellation divides the numerator and the
denominator by the same nonzero integer, and a reduced fraction is unique,
so the orbit is the one Fraction arithmetic throughout would give.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .expr import Expr, ZERO, parse, substitute, sym
from .identity import identities_equal  # noqa: F401  bench/tracer.py wraps this binding
from .lax import d5_dilation_scaling, d5_power_scaling, e_scaling
from .report import Report
from .weyl import (
    CheckConfig,
    FamilyDescriptor,
    Transformation,
    check,
    compose,
    word_to_transform,
)

FRESH = ("fbar", "gbar")

#: Coupled relations of each family, written as cross-multiplied residuals in
#: fbar = f after one step and gbar = g after one step.  The second relation
#: is taken at the advanced parameters, so kappa1 appears as kappa1/q.
QP_RELATION_TEXTS = {
    "D5": (
        "fbar*f*(g - 1/nu1)*(g - 1/nu2) - nu3*nu4*(g - nu5/kappa2)*(g - nu6/kappa2)",
        "gbar*g*nu1*nu2*(fbar - nu3)*(fbar - nu4)"
        " - (fbar - kappa1/(q*nu7))*(fbar - kappa1/(q*nu8))",
    ),
    "E6": (
        "(fbar*g - 1)*(f*g - 1)*(g - nu5/kappa2)*(g - nu6/kappa2)"
        " - fbar*f*(g - 1/nu1)*(g - 1/nu2)*(g - 1/nu3)*(g - 1/nu4)",
        "(fbar*g - 1)*(fbar*gbar - 1)*(fbar - kappa1/(q*nu7))*(fbar - kappa1/(q*nu8))"
        " - g*gbar*(fbar - nu1)*(fbar - nu2)*(fbar - nu3)*(fbar - nu4)",
    ),
    "E7": (
        "(fbar*g - kappa1/(q*kappa2))*(f*g - kappa1/kappa2)"
        "*(g - 1/nu1)*(g - 1/nu2)*(g - 1/nu3)*(g - 1/nu4)"
        " - (g - nu5/kappa2)*(g - nu6/kappa2)*(g - nu7/kappa2)*(g - nu8/kappa2)"
        "*(fbar*g - 1)*(f*g - 1)",
        "(gbar*fbar - kappa1/(q^2*kappa2))*(fbar*g - kappa1/(q*kappa2))"
        "*(fbar - nu1)*(fbar - nu2)*(fbar - nu3)*(fbar - nu4)"
        " - (fbar - kappa1/(q*nu5))*(fbar - kappa1/(q*nu6))"
        "*(fbar - kappa1/(q*nu7))*(fbar - kappa1/(q*nu8))"
        "*(gbar*fbar - 1)*(fbar*g - 1)",
    ),
}


@dataclass(frozen=True, eq=False)
class EvolutionSpec:
    qp_relations: tuple[Expr, Expr]


def make_evolution_spec(fam: FamilyDescriptor) -> EvolutionSpec:
    r1, r2 = (parse(t, extra_symbols=FRESH) for t in QP_RELATION_TEXTS[fam.name])
    return EvolutionSpec((r1, r2))


def time_evolution(fam: FamilyDescriptor) -> Transformation:
    s = word_to_transform(fam, fam.evolution_word)
    return compose(fam.xi, compose(s, s))


def verify_theorem_i(fam: FamilyDescriptor, cfg: CheckConfig | None = None) -> Report:
    cfg = cfg or CheckConfig()
    constraint = cfg.constraint(fam)
    T = time_evolution(fam)
    claims = [(f"nu{i}", T.image(f"nu{i}"), sym(f"nu{i}")) for i in range(1, 9)]
    claims += [("kappa1", T.image("kappa1"), parse("kappa1/q")),
               ("kappa2", T.image("kappa2"), parse("q*kappa2"))]
    images = {"fbar": T.image("f"), "gbar": T.image("g")}
    claims += [(tag, substitute(rel, images), ZERO)
               for tag, rel in zip(("rel1", "rel2"), make_evolution_spec(fam).qp_relations)]
    report = Report()
    for tag, a, b in claims:
        report.add(check(f"{fam.name}:T:{tag}", [("", a, b)], constraint, cfg))
    return report


#: Generator lists for the rescaling decomposition of xi, per family.
_XI_GENERATORS = {
    "D5": ("nu1", "nu2", "nu3", "nu4", "nu5/kappa2", "nu6/kappa2",
           "nu7/kappa1", "nu8/kappa1", "f", "g"),
    "E6": ("nu1", "nu2", "nu3", "nu4", "nu5/kappa2", "nu6/kappa2",
           "nu7/kappa1", "nu8/kappa1", "f", "g"),
    "E7": ("nu1", "nu2", "nu3", "nu4", "nu5/kappa1", "nu6/kappa1",
           "nu7/kappa1", "nu8/kappa1", "kappa2/kappa1", "f", "g"),
}


def xi_scaling_map(fam: FamilyDescriptor) -> Transformation:
    """The composed scaling map that xi factors through.

    D5 composes the power-gauge action at scale kappa2/(nu5 nu6) with the
    dilation action at scale kappa1/(q nu3 nu4); E6 and E7 are single joint
    scalings at nu5 nu6/kappa2 and kappa1/(q kappa2).
    """
    if fam.name == "D5":
        return compose(d5_power_scaling(parse("kappa2/(nu5*nu6)")),
                       d5_dilation_scaling(parse("kappa1/(q*nu3*nu4)")))
    if fam.name == "E6":
        return e_scaling(parse("nu5*nu6/kappa2"))
    return e_scaling(parse("kappa1/(q*kappa2)"))


def verify_theorem_ii(fam: FamilyDescriptor, cfg: CheckConfig | None = None) -> Report:
    cfg = cfg or CheckConfig()
    constraint = cfg.constraint(fam)
    scaling = xi_scaling_map(fam)
    report = Report()
    for zeta_text in _XI_GENERATORS[fam.name]:
        zeta = parse(zeta_text)
        report.add(check(f"{fam.name}:xi:{zeta_text}",
                         [("", fam.xi(zeta), scaling(zeta))], constraint, cfg))
    return report


# ---------------------------------------------------------------------------
# orbits

class PoleError(ArithmeticError):
    def __init__(self, step: int, where: str):
        super().__init__(f"pole at step {step}: {where} vanishes")
        self.step = step
        self.where = where


@dataclass(frozen=True)
class OrbitState:
    q: Fraction
    nu: tuple[Fraction, ...]          # nu1..nu8
    kappa1: Fraction
    kappa2: Fraction
    f: Fraction
    g: Fraction
    t: int = 0

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
    before building a numerator or denominator past Python's int-to-str
    digit limit, which 1e200000000 would take minutes to reach."""
    if isinstance(text, bool) or not isinstance(text, (str, int)):
        raise ValueError(f"{name} must be a string like '3/4', got {text!r}")
    limit = _digit_limit()
    if isinstance(text, str) and limit and _text_digits(text) > limit:
        shown = text if len(text) <= 24 else text[:20] + "..."
        raise ValueError(f"{name} = {shown!r} has a numerator or denominator "
                         f"past Python's int-to-str digit limit ({limit} digits)")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{name} = {text!r} has a zero denominator") from None


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
        raise ValueError(f"'nu' must be a list of rationals, got {rec.get('nu')!r}")
    nu = [parse_rational(v, f"nu{i}") for i, v in enumerate(rec["nu"], 1)]
    fields = ("q", "kappa1", "kappa2", "f", "g")
    for k in fields:
        if k not in rec:
            raise ValueError(f"missing field '{k}'")
    t = rec.get("t", 0)
    if isinstance(t, bool) or not isinstance(t, int):
        raise ValueError(f"t must be a JSON integer, got {t!r}")
    q, kappa1, kappa2, f, g = (parse_rational(rec[k], k) for k in fields)
    st = make_state(q, nu[:7] if len(nu) == 8 else nu, kappa1, kappa2, f, g, t=t)
    if len(nu) == 8 and nu[7] != st.nu[7]:
        raise ValueError(f"nu8 = {rec['nu'][7]!r} contradicts the constraint, "
                         f"which gives {_frac_str(st.nu[7])}")
    return st


def orbit_step(fam: FamilyDescriptor, st: OrbitState, direction: str = "forward") -> OrbitState:
    """One step of the family's orbit.  Forward solves rel1 for fbar, then
    rel2 for gbar at the advanced kappas; backward solves rel2 for the
    previous g, then rel1 at the previous kappas for the previous f."""
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be forward or backward, got {direction!r}")
    solve, q = _SOLVERS[fam.name], st.q
    if direction == "forward":
        k1, k2 = st.kappa1 / q, st.kappa2 * q
        f = solve(st, 1, st.g, st.f, st.kappa1, st.kappa2, True)
        return OrbitState(q, st.nu, k1, k2, f, solve(st, 2, f, st.g, k1, k2, True), st.t + 1)
    k1, k2 = st.kappa1 * q, st.kappa2 / q
    g = solve(st, 2, st.f, st.g, st.kappa1, st.kappa2, False)
    return OrbitState(q, st.nu, k1, k2, solve(st, 1, g, st.f, k1, k2, False), g, st.t - 1)


# Each solver takes relation `rel` (1 or 2) at the kappas k1, k2 it is
# written at (those of the earlier state for rel1, of the later state for
# rel2), the coordinate x shared by both states (g for rel1, f for rel2), the
# known coordinate y paired with the unknown z, and `up`, true when z belongs
# to the later state.  It works on the integer numerators and denominators
# of x and y, so the only reduction is the one Fraction(num, den) of z.
# Before it, each solver cancels the factor pairs that share most of their
# bits along an orbit, each with the gcd of the two small operands:
#   D5: u against y's numerator, v against y's denominator;
#   E6: (x y - 1) against u, v against y's numerator, then x's denominator
#       against the solve denominator (modulo xd it is yn (xn^2 v - u), and
#       xn^2 v = u there, because the top has two factors more than the
#       bottom; the earlier cancellations can break that, hence a gcd);
#   E7: (x y - t) against u, (x y - 1) against v, then x's denominator
#       against a - b and x's numerator against s.num a - s.den b.
# Each gcd divides numerator and denominator of z alike, so Fraction still
# returns the one reduced value.  gcd(0, 0) arises only for (x y - 1) or
# (x y - t) against u, both zero; `or 1` keeps them zero, so the solve
# denominator is zero and the pole is raised as it was before cancelling.
# Every denominator is tested before it is used, so a pole raises PoleError.

def _ratio(x: Fraction, top, bottom) -> tuple[int, int]:
    """Integers (u, v) with prod(x - a for a in top) / prod(x - b for b in
    bottom) == u / (v * d**(len(top) - len(bottom))), d the denominator of
    x; v is 0 exactly when a bottom factor is."""
    c, d = x.numerator, x.denominator
    u = v = 1
    for a in top:
        v *= a.denominator
        u *= c * a.denominator - a.numerator * d
    for b in bottom:
        u *= b.denominator
        v *= c * b.denominator - b.numerator * d
    return u, v


def _solve_d5(st: OrbitState, rel: int, x: Fraction, y: Fraction, k1, k2, up: bool) -> Fraction:
    """z y prod(x - b) = c prod(x - a), solved for z."""
    n = st.nu
    if rel == 1:
        c, top, bottom = n[2] * n[3], (n[4] / k2, n[5] / k2), (1 / n[0], 1 / n[1])
    else:
        c, top, bottom = 1 / (n[0] * n[1]), (k1 / n[6], k1 / n[7]), (n[2], n[3])
    u, v = _ratio(x, top, bottom)
    if v == 0:
        raise PoleError(st.t, f"rel{rel} denominator")
    if y == 0:
        raise PoleError(st.t, "f" if rel == 1 else "g")
    yn, yd = y.numerator, y.denominator
    g1, g2 = gcd(u, yn), gcd(v, yd)
    return Fraction(c.numerator * (u // g1) * (yd // g2), c.denominator * (v // g2) * (yn // g1))


def _solve_e6(st: OrbitState, rel: int, x: Fraction, y: Fraction, k1, k2, up: bool) -> Fraction:
    """(x z - 1)(x y - 1) prod(x - b) = z y prod(x - a), solved for z."""
    n = st.nu
    if rel == 1:
        top, bottom = tuple(1 / v for v in n[:4]), (n[4] / k2, n[5] / k2)
    else:
        top, bottom = n[:4], (k1 / n[6], k1 / n[7])
    u, v = _ratio(x, top, bottom)            # prod(x - a) / prod(x - b) = u / (v xd^2)
    if v == 0:
        raise PoleError(st.t, f"rel{rel} rhs")
    xn, xd, yn = x.numerator, x.denominator, y.numerator
    m = xn * yn - xd * y.denominator         # (x y - 1) xd yd
    g = gcd(m, u) or 1                       # m == u == 0 leaves den == 0
    m, u = m // g, u // g
    g = gcd(v, yn)                           # v != 0
    v, yn = v // g, yn // g
    den = m * xn * v - u * yn
    if den == 0:
        raise PoleError(st.t, f"rel{rel} solve")
    g = gcd(xd, den)
    return Fraction(m * v * (xd // g), den // g)


def _solve_e7(st: OrbitState, rel: int, x: Fraction, y: Fraction, k1, k2, up: bool) -> Fraction:
    """(x z - s)(x y - t) prod(x - b) = (x z - 1)(x y - 1) prod(x - a),
    solved for z; s and t are c and q c, swapped going backward."""
    n, q = st.nu, st.q
    if rel == 1:
        top, bottom, c = tuple(v / k2 for v in n[4:]), tuple(1 / v for v in n[:4]), k1 / (q * k2)
    else:
        top, bottom, c = tuple(k1 / v for v in n[4:]), n[:4], k1 / k2
    s, t = (c, q * c) if up else (q * c, c)
    u, v = _ratio(x, top, bottom)            # prod(x - a) / prod(x - b) = u / v
    if v == 0:
        raise PoleError(st.t, f"rel{rel} rhs")
    xn, xd = x.numerator, x.denominator
    xy, dd = xn * y.numerator, xd * y.denominator
    m1 = xy * t.denominator - t.numerator * dd           # (x y - t), times xd yd t.den
    m2 = (xy - dd) * t.denominator                       # (x y - 1), times xd yd t.den
    g = gcd(m1, u) or 1                                  # m1 == u == 0 leaves den == 0
    m1, u = m1 // g, u // g
    g = gcd(m2, v)                                       # v != 0
    m2, v = m2 // g, v // g
    a, b = m1 * v, m2 * u
    den = a - b                                          # z = num xd / (s.den xn den)
    if den == 0 or xn == 0:
        raise PoleError(st.t, f"rel{rel} solve")
    num = s.numerator * a - s.denominator * b
    g1, g2 = gcd(xd, den), gcd(xn, num)
    return Fraction((num // g2) * (xd // g1), s.denominator * (xn // g2) * (den // g1))


_SOLVERS = {"D5": _solve_d5, "E6": _solve_e6, "E7": _solve_e7}


@dataclass
class OrbitResult:
    states: list[OrbitState]
    pole: PoleError | None = None

    @property
    def complete(self) -> bool:
        return self.pole is None


def orbit(fam: FamilyDescriptor, st0: OrbitState, n: int) -> OrbitResult:
    """n forward steps; aborts at the first pole with partial output.  Raises
    orbit_to_json's ValueError at the first state it could not print, before
    stepping on: the rationals only grow, and each step costs more."""
    if n < 0:
        raise ValueError("n must be >= 0")
    bound = _digit_bound()
    _check_printable(st0, bound, "give a smaller start state")
    states = [st0]
    st = st0
    for _ in range(n):
        try:
            st = orbit_step(fam, st, "forward")
        except PoleError as err:
            return OrbitResult(states, err)
        _check_printable(st, bound)
        states.append(st)
    return OrbitResult(states)


def _digit_limit() -> int:
    """Python's limit on int-to-str conversion, 0 when there is none (limit
    0, or an interpreter before 3.10.7 that has no limit)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _digit_bound() -> int | None:
    """10**limit for the int-to-str digit limit, None when there is none."""
    limit = _digit_limit()
    return 10 ** limit if limit else None


def _check_printable(st: OrbitState, bound: int | None,
                     advice: str = "ask for fewer steps") -> None:
    """Raise ValueError naming st when a numerator or denominator has more
    decimal digits than the limit, that is, when its str() would raise."""
    if bound is not None and any(
            not -bound < v.numerator < bound or v.denominator >= bound
            for v in (st.q, *st.nu, st.kappa1, st.kappa2, st.f, st.g)):
        raise ValueError(
            f"state t={st.t} has a rational past Python's int-to-str digit "
            f"limit; {advice}"
        )


def orbit_to_json(result: OrbitResult) -> str:
    """The orbit as JSON.  Raises ValueError naming the first state with a
    numerator or denominator past Python's limit on int-to-str conversion
    (4300 digits by default)."""
    bound = _digit_bound()
    for st in result.states:
        _check_printable(st, bound)
    doc = {"schema": 1, "states": [st.to_record() for st in result.states]}
    if result.pole is not None:
        doc["pole"] = {"step": result.pole.step, "where": result.pole.where}
    return json.dumps(doc, sort_keys=True, indent=2)
