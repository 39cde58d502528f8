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
two paths pointwise.
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
    family: str
    word: tuple[str, ...]
    xi: Transformation
    qp_relations: tuple[Expr, Expr]


def make_xi(fam: FamilyDescriptor) -> Transformation:
    return fam.xi


def make_evolution_spec(fam: FamilyDescriptor) -> EvolutionSpec:
    r1, r2 = (parse(t, extra_symbols=FRESH) for t in QP_RELATION_TEXTS[fam.name])
    return EvolutionSpec(fam.name, fam.evolution_word, fam.xi, (r1, r2))


def time_evolution(fam: FamilyDescriptor) -> Transformation:
    s = word_to_transform(fam, fam.evolution_word)
    return compose(fam.xi, compose(s, s), label=f"T[{fam.name}]")


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
                       d5_dilation_scaling(parse("kappa1/(q*nu3*nu4)")),
                       label="G*D")
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
    if q == 0 or prod == 0:
        raise ValueError("q and nu1..nu7 must be nonzero")
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


def _div(numer: Fraction, denom: Fraction, step: int, where: str) -> Fraction:
    if denom == 0:
        raise PoleError(step, where)
    return numer / denom


def orbit_step(fam: FamilyDescriptor, st: OrbitState, direction: str = "forward") -> OrbitState:
    if direction == "forward":
        return _STEPPERS[fam.name](st, +1)
    if direction == "backward":
        return _STEPPERS[fam.name](st, -1)
    raise ValueError(f"direction must be forward or backward, got {direction!r}")


def _step_d5(st: OrbitState, sign: int) -> OrbitState:
    q = st.q
    n = (None,) + st.nu  # 1-based
    if sign > 0:
        rhs1 = _div(n[3] * n[4] * (st.g - n[5] / st.kappa2) * (st.g - n[6] / st.kappa2),
                    (st.g - 1 / n[1]) * (st.g - 1 / n[2]), st.t, "rel1 denominator")
        fbar = _div(rhs1, st.f, st.t, "f")
        k1, k2 = st.kappa1 / q, st.kappa2 * q
        rhs2 = _div((fbar - k1 / n[7]) * (fbar - k1 / n[8]),
                    n[1] * n[2] * (fbar - n[3]) * (fbar - n[4]), st.t, "rel2 denominator")
        gbar = _div(rhs2, st.g, st.t, "g")
        return OrbitState(q, st.nu, k1, k2, fbar, gbar, st.t + 1)
    rhs2 = _div((st.f - st.kappa1 / n[7]) * (st.f - st.kappa1 / n[8]),
                n[1] * n[2] * (st.f - n[3]) * (st.f - n[4]), st.t, "rel2 denominator")
    gdown = _div(rhs2, st.g, st.t, "g")
    k1, k2 = st.kappa1 * q, st.kappa2 / q
    rhs1 = _div(n[3] * n[4] * (gdown - n[5] / k2) * (gdown - n[6] / k2),
                (gdown - 1 / n[1]) * (gdown - 1 / n[2]), st.t, "rel1 denominator")
    fdown = _div(rhs1, st.f, st.t, "f")
    return OrbitState(q, st.nu, k1, k2, fdown, gdown, st.t - 1)


def _step_e6(st: OrbitState, sign: int) -> OrbitState:
    q = st.q
    n = (None,) + st.nu
    if sign > 0:
        r1 = _div((st.g - 1 / n[1]) * (st.g - 1 / n[2]) * (st.g - 1 / n[3]) * (st.g - 1 / n[4]),
                  (st.g - n[5] / st.kappa2) * (st.g - n[6] / st.kappa2), st.t, "rel1 rhs")
        fg1 = st.f * st.g - 1
        fbar = _div(fg1, fg1 * st.g - r1 * st.f, st.t, "rel1 solve")
        k1, k2 = st.kappa1 / q, st.kappa2 * q
        r2 = _div((fbar - n[1]) * (fbar - n[2]) * (fbar - n[3]) * (fbar - n[4]),
                  (fbar - k1 / n[7]) * (fbar - k1 / n[8]), st.t, "rel2 rhs")
        fg2 = fbar * st.g - 1
        gbar = _div(fg2, fbar * fg2 - r2 * st.g, st.t, "rel2 solve")
        return OrbitState(q, st.nu, k1, k2, fbar, gbar, st.t + 1)
    r2 = _div((st.f - n[1]) * (st.f - n[2]) * (st.f - n[3]) * (st.f - n[4]),
              (st.f - st.kappa1 / n[7]) * (st.f - st.kappa1 / n[8]), st.t, "rel2 rhs")
    fg1 = st.f * st.g - 1
    gdown = _div(fg1, fg1 * st.f - r2 * st.g, st.t, "rel2 solve")
    k1, k2 = st.kappa1 * q, st.kappa2 / q
    r1 = _div((gdown - 1 / n[1]) * (gdown - 1 / n[2]) * (gdown - 1 / n[3]) * (gdown - 1 / n[4]),
              (gdown - n[5] / k2) * (gdown - n[6] / k2), st.t, "rel1 rhs")
    fg2 = st.f * gdown - 1
    fdown = _div(fg2, fg2 * gdown - r1 * st.f, st.t, "rel1 solve")
    return OrbitState(q, st.nu, k1, k2, fdown, gdown, st.t - 1)


def _step_e7(st: OrbitState, sign: int) -> OrbitState:
    q = st.q
    n = (None,) + st.nu
    if sign > 0:
        r1 = _div((st.g - n[5] / st.kappa2) * (st.g - n[6] / st.kappa2)
                  * (st.g - n[7] / st.kappa2) * (st.g - n[8] / st.kappa2),
                  (st.g - 1 / n[1]) * (st.g - 1 / n[2]) * (st.g - 1 / n[3]) * (st.g - 1 / n[4]),
                  st.t, "rel1 rhs")
        kr = st.kappa1 / st.kappa2
        a = st.f * st.g - kr
        b = st.f * st.g - 1
        fbar = _div(kr / q * a - r1 * b, st.g * (a - r1 * b), st.t, "rel1 solve")
        k1, k2 = st.kappa1 / q, st.kappa2 * q
        r2 = _div((fbar - k1 / n[5]) * (fbar - k1 / n[6]) * (fbar - k1 / n[7]) * (fbar - k1 / n[8]),
                  (fbar - n[1]) * (fbar - n[2]) * (fbar - n[3]) * (fbar - n[4]),
                  st.t, "rel2 rhs")
        krn = k1 / k2
        p = fbar * st.g - q * krn
        w = fbar * st.g - 1
        gbar = _div(krn * p - r2 * w, fbar * (p - r2 * w), st.t, "rel2 solve")
        return OrbitState(q, st.nu, k1, k2, fbar, gbar, st.t + 1)
    kr = st.kappa1 / st.kappa2
    r2 = _div((st.f - st.kappa1 / n[5]) * (st.f - st.kappa1 / n[6])
              * (st.f - st.kappa1 / n[7]) * (st.f - st.kappa1 / n[8]),
              (st.f - n[1]) * (st.f - n[2]) * (st.f - n[3]) * (st.f - n[4]),
              st.t, "rel2 rhs")
    a0 = st.f * st.g - kr
    b0 = st.f * st.g - 1
    gdown = _div(q * kr * a0 - r2 * b0, st.f * (a0 - r2 * b0), st.t, "rel2 solve")
    k1, k2 = st.kappa1 * q, st.kappa2 / q
    krp = k1 / k2
    r1 = _div((gdown - n[5] / k2) * (gdown - n[6] / k2) * (gdown - n[7] / k2) * (gdown - n[8] / k2),
              (gdown - 1 / n[1]) * (gdown - 1 / n[2]) * (gdown - 1 / n[3]) * (gdown - 1 / n[4]),
              st.t, "rel1 rhs")
    p = st.f * gdown - krp / q
    w = st.f * gdown - 1
    fdown = _div(krp * p - r1 * w, gdown * (p - r1 * w), st.t, "rel1 solve")
    return OrbitState(q, st.nu, k1, k2, fdown, gdown, st.t - 1)


_STEPPERS = {"D5": _step_d5, "E6": _step_e6, "E7": _step_e7}


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
