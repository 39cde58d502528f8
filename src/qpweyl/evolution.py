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
(x - p/r) with x = c/d becomes the integer c*r - p*d, the powers of d cancel
by hand, and each new coordinate is one Fraction(num, den), so one gcd per
coordinate instead of one per Fraction operation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

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


def parse_rational(text) -> Fraction:
    if not isinstance(text, (str, int)):
        raise ValueError(f"rationals must be strings like '3/4', got {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


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
    if not isinstance(rec, dict):
        raise ValueError(f"expected a JSON object, got {type(rec).__name__}")
    if not isinstance(rec.get("nu"), list):
        raise ValueError(f"'nu' must be a list of rationals, got {rec.get('nu')!r}")
    nu = [parse_rational(v) for v in rec["nu"]]
    if len(nu) == 8:
        nu = nu[:7]
    return make_state(parse_rational(rec["q"]), nu,
                      parse_rational(rec["kappa1"]), parse_rational(rec["kappa2"]),
                      parse_rational(rec["f"]), parse_rational(rec["g"]),
                      t=int(rec.get("t", 0)))


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
    return Fraction(c.numerator * u * y.denominator, c.denominator * v * y.numerator)


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
    xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
    m = xn * yn - xd * yd                    # (x y - 1) xd yd
    den = m * xn * v - u * yn
    if den == 0:
        raise PoleError(st.t, f"rel{rel} solve")
    return Fraction(m * v * xd, den)


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
    a = (xy * t.denominator - t.numerator * dd) * v      # (x y - t) v, times xd yd t.den
    b = (xy - dd) * u * t.denominator                    # (x y - 1) u, times xd yd t.den
    den = xn * (a - b)
    if den == 0:
        raise PoleError(st.t, f"rel{rel} solve")
    return Fraction((s.numerator * a - s.denominator * b) * xd, s.denominator * den)


_SOLVERS = {"D5": _solve_d5, "E6": _solve_e6, "E7": _solve_e7}


@dataclass
class OrbitResult:
    states: list[OrbitState]
    pole: PoleError | None = None

    @property
    def complete(self) -> bool:
        return self.pole is None


def orbit(fam: FamilyDescriptor, st0: OrbitState, n: int) -> OrbitResult:
    """n forward steps; aborts at the first pole with partial output."""
    if n < 0:
        raise ValueError("n must be >= 0")
    states = [st0]
    st = st0
    for _ in range(n):
        try:
            st = orbit_step(fam, st, "forward")
        except PoleError as err:
            return OrbitResult(states, err)
        states.append(st)
    return OrbitResult(states)


def orbit_to_json(result: OrbitResult) -> str:
    """The orbit as JSON.  Raises ValueError naming the first state with a
    numerator or denominator past Python's limit on int-to-str conversion
    (4300 digits by default)."""
    records = []
    for st in result.states:
        try:
            records.append(st.to_record())
        except ValueError:
            raise ValueError(
                f"state t={st.t} has a rational past Python's int-to-str digit "
                f"limit; ask for fewer steps"
            ) from None
    doc = {"schema": 1, "states": records}
    if result.pole is not None:
        doc["pole"] = {"step": result.pole.step, "where": result.pole.where}
    return json.dumps(doc, sort_keys=True, indent=2)
