"""Three-term linear q-difference equations and their gauge symmetries.

Each family's spectral equation is stored as

    coeff_up * y(q z) + coeff_mid * y(z) + coeff_down * y(z/q) = 0

with rational coefficients in the shift variable and the parameters.  Four
transformation mechanisms act on such equations:

  pochhammer(a, b)   y(z) = p(z) ytilde(z) with p the ratio of infinite
                     q-Pochhammer symbols (q a/z; q)/(q b/z; q).  Only the
                     rational ratios p(qz)/p(z) and p(z/q)/p(z) enter, so
                     nothing infinite is ever represented.
  power(delta)       y(z) = z^d ytilde(z) with delta standing for q^d.
  dilation(c)        z = u/c, y(z) = ytilde(u).
  inversion(c,delta) z = c/u, y(z) = z^d ytilde(u); up and down swap roles.

Equations are compared projectively: equality up to one common rational
factor, decided by cross-multiplying against a pivot coefficient.  The
verdict is weyl.check's CheckResult, so a failed claim keeps its witness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .expr import ZERO, Expr, div, mul, parse, sub, substitute, sym
from .identity import ConstraintRelation
from .identity import identities_equal  # noqa: F401  bench/tracer.py wraps this binding
from .report import CheckResult, Report
from .weyl import (
    CheckConfig,
    FamilyDescriptor,
    Transformation,
    check,
    word_to_transform,
)


@dataclass(frozen=True, eq=False)
class LinearQDE:
    coeff_up: Expr
    coeff_mid: Expr
    coeff_down: Expr
    shift_var: str = "z"

    def coefficients(self):
        return (self.coeff_up, self.coeff_mid, self.coeff_down)


@dataclass(frozen=True)
class Pochhammer:
    a: Expr
    b: Expr


@dataclass(frozen=True)
class PowerGauge:
    delta: Expr


@dataclass(frozen=True)
class Dilation:
    c: Expr


@dataclass(frozen=True)
class Inversion:
    c: Expr
    delta: Expr


_L1_TABLES = {
    "D5": {
        "up": "-(z - kappa1/nu7)*(z - kappa1/nu8)/(q*(f - z))",
        "mid": "z*(g*nu1 - 1)*(g*nu2 - 1)/(q*g)"
               " - nu1*nu2*nu3*nu4*(g - nu5/kappa2)*(g - nu6/kappa2)/(f*g)"
               " + nu1*nu2*(z - q*nu3)*(z - q*nu4)*g/(q*(q*f - z))"
               " + (z - kappa1/nu7)*(z - kappa1/nu8)/(q*(f - z)*g)",
        "down": "-nu1*nu2*(z - q*nu3)*(z - q*nu4)/(q*(q*f - z))",
    },
    "E6": {
        "up": "-(kappa1/nu7 - z)*(kappa1/nu8 - z)/(q*(f - z))",
        "mid": "z*(g*nu1 - 1)*(g*nu2 - 1)*(g*nu3 - 1)*(g*nu4 - 1)/(g*(f*g - 1)*(g*z - q))"
               " - (g*kappa2/nu5 - 1)*(g*kappa2/nu6 - 1)*kappa1^2/(q*f*g*nu7*nu8)"
               " + (nu1 - z/q)*(nu2 - z/q)*(nu3 - z/q)*(nu4 - z/q)*g/((f - z/q)*(1 - g*z/q))"
               " + (kappa1/nu7 - z)*(kappa1/nu8 - z)*(1/g - z)/(q*(f - z))",
        "down": "-(nu1 - z/q)*(nu2 - z/q)*(nu3 - z/q)*(nu4 - z/q)/(f - z/q)",
    },
    "E7": {
        "up": "q*(kappa1 - nu5*z)*(kappa1 - nu6*z)*(kappa1 - nu7*z)*(kappa1 - nu8*z)"
              "/(kappa1^4*(f - z)*z^2)",
        "mid": "q*(kappa1 - kappa2)*(g*kappa2 - nu5)*(g*kappa2 - nu6)*(g*kappa2 - nu7)*(g*kappa2 - nu8)"
               "/(g*kappa1*kappa2^2*(f*g*kappa2 - kappa1)*(g*kappa2*z - kappa1))"
               " - q*(kappa1 - kappa2)*(g*nu1 - 1)*(g*nu2 - 1)*(g*nu3 - 1)*(g*nu4 - 1)"
               "/(g*(f*g - 1)*kappa1*nu1*nu2*nu3*nu4*(g*z - q))"
               " + (q*nu1 - z)*(q*nu2 - z)*(q*nu3 - z)*(q*nu4 - z)*(g*kappa2*z - kappa1*q)"
               "/(q*nu1*nu2*nu3*nu4*(f*q - z)*z^2*kappa1*(q - g*z))"
               " + q*(kappa1 - nu5*z)*(kappa1 - nu6*z)*(kappa1 - nu7*z)*(kappa1 - nu8*z)"
               "*(1 - g*z)/(kappa1^3*(f - z)*z^2*(g*kappa2*z - kappa1))",
        "down": "(q*nu1 - z)*(q*nu2 - z)*(q*nu3 - z)*(q*nu4 - z)"
                "/(q*nu1*nu2*nu3*nu4*(f*q - z)*z^2)",
    },
}


def build_L1(fam: FamilyDescriptor) -> LinearQDE:
    table = _L1_TABLES[fam.name]
    return LinearQDE(
        coeff_up=parse(table["up"]),
        coeff_mid=parse(table["mid"]),
        coeff_down=parse(table["down"]),
        shift_var="z",
    )


def _other_var(name: str) -> str:
    return "u" if name == "z" else "z"


def apply_gauge(eq: LinearQDE,
                gauge: Pochhammer | PowerGauge | Dilation | Inversion) -> LinearQDE:
    v = sym(eq.shift_var)
    q = sym("q")
    if isinstance(gauge, Pochhammer):
        a, b = gauge.a, gauge.b
        up = mul(eq.coeff_up, div(sub(v, a), sub(v, b)))
        down = mul(eq.coeff_down, div(sub(v, mul(q, b)), sub(v, mul(q, a))))
        return LinearQDE(up, eq.coeff_mid, down, eq.shift_var)
    if isinstance(gauge, PowerGauge):
        d = gauge.delta
        return LinearQDE(mul(eq.coeff_up, d), eq.coeff_mid,
                         div(eq.coeff_down, d), eq.shift_var)
    if isinstance(gauge, Dilation):
        new = _other_var(eq.shift_var)
        image = {eq.shift_var: div(sym(new), gauge.c)}
        up, mid, down = (substitute(cf, image) for cf in eq.coefficients())
        return LinearQDE(up, mid, down, new)
    if isinstance(gauge, Inversion):
        new = _other_var(eq.shift_var)
        image = {eq.shift_var: div(gauge.c, sym(new))}
        up, mid, down = (substitute(cf, image) for cf in eq.coefficients())
        # y(qz) lands on ytilde(u/q): the up and down coefficients swap,
        # weighted by delta = q^d.
        return LinearQDE(div(down, gauge.delta), mid, mul(up, gauge.delta), new)
    raise TypeError(f"unknown gauge {gauge!r}")


def substitute_params(eq: LinearQDE, t: Transformation) -> LinearQDE:
    if t.image(eq.shift_var) is not sym(eq.shift_var):
        raise ValueError(f"transformation moves the shift variable {eq.shift_var}")
    memo: dict = {}
    up, mid, down = (t(cf, memo) for cf in eq.coefficients())
    return LinearQDE(up, mid, down, eq.shift_var)


def rename_shift(eq: LinearQDE, new_var: str) -> LinearQDE:
    if eq.shift_var == new_var:
        return eq
    image = {eq.shift_var: sym(new_var)}
    up, mid, down = (substitute(cf, image) for cf in eq.coefficients())
    return LinearQDE(up, mid, down, new_var)


def equations_equivalent(
    e1: LinearQDE,
    e2: LinearQDE,
    constraint: ConstraintRelation | None = None,
    cfg: CheckConfig | None = None,
    label: str = "",
) -> CheckResult:
    """The check that the equations agree up to one common rational factor.

    The pivot is the first pair, of mid, up and down, whose members a
    sampled, never exact, zero test finds both nonzero.  A zero test with no
    sample point off the poles is returned as it is; no pivot is degenerate.
    """
    cfg = cfg or CheckConfig()
    if e1.shift_var != e2.shift_var:
        raise ValueError("equations use different shift variables")
    sampled = replace(cfg, exact=False)
    pairs = list(zip(e1.coefficients(), e2.coefficients()))
    for idx in (1, 0, 2):  # fixed fallback order: mid, then up, then down
        for c, side in zip(pairs[idx], "ab"):
            zero = check(f"{label}:zero", [(f"p{idx}{side}", c, ZERO)], constraint, sampled)
            if zero.status == "degenerate":
                return zero
            if zero.ok:  # c vanishes: try the next pair
                break
        else:  # both nonzero: the pivot
            p1, p2 = pairs[idx]
            cross = ((f"cross:{i}", mul(c1, p2), mul(c2, p1))
                     for i, (c1, c2) in enumerate(pairs) if i != idx)
            return check(label, cross, constraint, cfg)
    return CheckResult(label, "degenerate", detail="all candidate pivot coefficients vanish")


# ---------------------------------------------------------------------------
# gauge-induced parameter scalings
#
# The power gauge and the dilation induce multiplicative actions on the
# parameters; the family-specific combinations below realize them on the
# primitive symbols so that the stated action on the composite quantities
# (nu5/kappa2, nu7/kappa1, ...) comes out.

def d5_power_scaling(s: Expr) -> Transformation:
    """nu1,nu2 -> nu_i/s; nu5,nu6 -> s nu_i; g -> s g; everything else fixed."""
    return Transformation({
        "nu1": div(sym("nu1"), s), "nu2": div(sym("nu2"), s),
        "nu5": mul(s, sym("nu5")), "nu6": mul(s, sym("nu6")),
        "g": mul(s, sym("g")),
    })


def d5_dilation_scaling(c: Expr) -> Transformation:
    """nu3,nu4 -> c nu_i; nu7,nu8 -> nu_i/c; f -> c f; everything else fixed."""
    return Transformation({
        "nu3": mul(c, sym("nu3")), "nu4": mul(c, sym("nu4")),
        "nu7": div(sym("nu7"), c), "nu8": div(sym("nu8"), c),
        "f": mul(c, sym("f")),
    })


def e_scaling(c: Expr) -> Transformation:
    """nu1..nu4, f -> c x; nu5..nu8, g -> x/c; kappa1, kappa2 fixed.

    E6 realizes it as dilation plus power gauge with c q^d = 1, E7 as a pure
    dilation.
    """
    images = {f"nu{i}": mul(c, sym(f"nu{i}")) for i in (1, 2, 3, 4)}
    images.update({f"nu{i}": div(sym(f"nu{i}"), c) for i in (5, 6, 7, 8)})
    images["f"] = mul(c, sym("f"))
    images["g"] = div(sym("g"), c)
    return Transformation(images)


# ---------------------------------------------------------------------------
# claim registry

@dataclass(frozen=True)
class GaugeClaim:
    id: str
    family: str
    gauges: tuple
    target: object          # callable FamilyDescriptor -> Transformation
    note: str = ""


def _claim_registry() -> dict[str, GaugeClaim]:
    z = sym  # brevity in the tables below
    claims = [
        GaugeClaim(
            "d5.s2", "D5",
            (Pochhammer(parse("nu3"), parse("kappa1/nu7")),),
            lambda fam: fam.generators["s2"],
            "single Pochhammer ratio exchanging nu3 and kappa1/nu7",
        ),
        GaugeClaim(
            "d5.s2s1s0s2", "D5",
            (Pochhammer(parse("nu3"), parse("kappa1/nu7")),
             Pochhammer(parse("nu4"), parse("kappa1/nu8"))),
            lambda fam: word_to_transform(fam, "s2 s1 s0 s2"),
            "double Pochhammer ratio",
        ),
        GaugeClaim(
            "d5.G", "D5",
            (PowerGauge(z("s")),),
            lambda fam: d5_power_scaling(z("s")),
            "power gauge z^d with delta = q^d = s",
        ),
        GaugeClaim(
            "d5.D", "D5",
            (Dilation(z("c")),),
            lambda fam: d5_dilation_scaling(z("c")),
            "dilation z = u/c",
        ),
        GaugeClaim(
            "d5.inversion", "D5",
            (Inversion(parse("q*kappa1"), parse("kappa2")),),
            lambda fam: word_to_transform(fam, "pi2 pi1 pi2 pi1"),
            "inversion z = c/u with q^d = kappa2, c = q kappa1",
        ),
        GaugeClaim(
            "e6.s6", "E6",
            (Pochhammer(parse("nu1"), parse("kappa1/nu7")),),
            lambda fam: fam.generators["s6"],
            "single Pochhammer ratio exchanging nu1 and kappa1/nu7",
        ),
        GaugeClaim(
            "e6.S", "E6",
            (PowerGauge(parse("1/c")), Dilation(z("c"))),
            lambda fam: e_scaling(z("c")),
            "dilation plus power gauge with c q^d = 1",
        ),
        GaugeClaim(
            "e7.s0s4s0", "E7",
            # The Pochhammer ratio alone leaves the reciprocal factor pair
            # (up * nu1 nu5/kappa1, down * kappa1/(nu1 nu5)); the z^d
            # rescaling with q^d = kappa1/(nu1 nu5) removes it.
            (Pochhammer(parse("nu1"), parse("kappa1/nu5")),
             PowerGauge(parse("kappa1/(nu1*nu5)"))),
            lambda fam: word_to_transform(fam, "s0 s4 s0"),
            "Pochhammer ratio exchanging nu1 and kappa1/nu5, power-completed",
        ),
        GaugeClaim(
            "e7.S", "E7",
            (Dilation(z("c")),),
            lambda fam: e_scaling(z("c")),
            "pure dilation",
        ),
    ]
    return {c.id: c for c in claims}


CLAIMS = _claim_registry()

#: Closed-form table for the composite s0 s4 s0 of the E7 family; the claim
#: target uses the word, and the tests cross-check the two.
E7_S0S4S0_TABLE = {
    "nu1": "kappa1/nu5",
    "nu5": "kappa1/nu1",
    "kappa2": "kappa1*kappa2/(nu1*nu5)",
    "g": "nu5*(-(nu1*nu5 - kappa1) + nu1*(kappa2 - kappa1)*g + (nu1*nu5 - kappa2)*f*g)"
         "/(-kappa1*(nu1*nu5 - kappa2) - nu5*(kappa2 - kappa1)*f + kappa2*(nu1*nu5 - kappa1)*f*g)",
}


def verify_gauge_claim(
    fam: FamilyDescriptor,
    claim_id: str,
    cfg: CheckConfig | None = None,
) -> CheckResult:
    """equations_equivalent's result for the gauged equation and the target,
    under the claim id, with the claim's note as its detail."""
    cfg = cfg or CheckConfig()
    claim = CLAIMS.get(claim_id)
    if claim is None:
        raise KeyError(f"unknown claim id {claim_id!r}")
    if claim.family != fam.name:
        raise ValueError(f"claim {claim_id} belongs to family {claim.family}, not {fam.name}")
    eq = build_L1(fam)
    gauged = eq
    for gauge in claim.gauges:
        gauged = apply_gauge(gauged, gauge)
    target = substitute_params(eq, claim.target(fam))
    target = rename_shift(target, gauged.shift_var)
    res = equations_equivalent(gauged, target, cfg.constraint(fam), cfg, label=claim_id)
    detail = (claim.note if res.ok else f"{claim.note}: mismatch"
              if res.status == "fail" else f"{claim.note}: {res.detail}")
    return replace(res, id=claim_id, detail=detail)


def verify_gauge_claims(fam: FamilyDescriptor, cfg: CheckConfig | None = None) -> Report:
    report = Report()
    for claim_id, claim in CLAIMS.items():
        if claim.family == fam.name:
            report.add(verify_gauge_claim(fam, claim_id, cfg))
    return report
