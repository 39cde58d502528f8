"""Three-term linear q-difference equations and their gauge symmetries.

Each family's spectral equation is stored as

    coeff_up * y(q z) + coeff_mid * y(z) + coeff_down * y(z/q) = 0

with rational coefficients in the spectral variable z and the parameters.
Four transformation mechanisms act on such equations:

  pochhammer(a, b)   y(z) = p(z) ytilde(z) with p the ratio of infinite
                     q-Pochhammer symbols (q a/z; q)/(q b/z; q).  Only the
                     rational ratios p(qz)/p(z) and p(z/q)/p(z) enter, so
                     nothing infinite is ever represented.
  power(delta)       y(z) = z^d ytilde(z) with delta standing for q^d.
  dilation(c)        z = u/c, y(z) = ytilde(u).
  inversion(c,delta) z = c/u, y(z) = z^d ytilde(u); up and down swap roles.

A dilated or inverted equation is written back in z, substituting z -> z/c
or z -> c/z at once.  Equations are compared projectively: equality up to
one common rational factor, decided by cross-multiplying against a pivot
coefficient.  The verdict is weyl.check's CheckResult, so a failed claim
keeps its witness.
"""

from __future__ import annotations

from .expr import ZERO, Expr, div, mul, parse, shown, sub, substitute, sym
from .identity import ConstraintRelation
from .identity import identities_equal  # noqa: F401  bench/tracer.py wraps this binding
from .report import CheckResult, Frozen, Report, Value
from .weyl import (
    CheckConfig,
    FamilyDescriptor,
    Transformation,
    check,
    word_to_transform,
)


class LinearQDE(Frozen):
    __slots__ = ("coeff_up", "coeff_mid", "coeff_down")

    def __init__(self, coeff_up: Expr, coeff_mid: Expr, coeff_down: Expr):
        super().__init__(coeff_up, coeff_mid, coeff_down)

    def coefficients(self):
        return (self.coeff_up, self.coeff_mid, self.coeff_down)


class Pochhammer(Value):
    __slots__ = ("a", "b")

    def __init__(self, a: Expr, b: Expr):
        super().__init__(a, b)


class PowerGauge(Value):
    __slots__ = ("delta",)

    def __init__(self, delta: Expr):
        super().__init__(delta)


class Dilation(Value):
    __slots__ = ("c",)

    def __init__(self, c: Expr):
        super().__init__(c)


class Inversion(Value):
    __slots__ = ("c", "delta")

    def __init__(self, c: Expr, delta: Expr):
        super().__init__(c, delta)


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
    )


def apply_gauge(eq: LinearQDE,
                gauge: Pochhammer | PowerGauge | Dilation | Inversion) -> LinearQDE:
    z = sym("z")
    q = sym("q")
    if isinstance(gauge, Pochhammer):
        a, b = gauge.a, gauge.b
        up = mul(eq.coeff_up, div(sub(z, a), sub(z, b)))
        down = mul(eq.coeff_down, div(sub(z, mul(q, b)), sub(z, mul(q, a))))
        return LinearQDE(up, eq.coeff_mid, down)
    if isinstance(gauge, PowerGauge):
        d = gauge.delta
        return LinearQDE(mul(eq.coeff_up, d), eq.coeff_mid, div(eq.coeff_down, d))
    if isinstance(gauge, Dilation):
        image = {"z": div(z, gauge.c)}
        return LinearQDE(*(substitute(cf, image) for cf in eq.coefficients()))
    if isinstance(gauge, Inversion):
        image = {"z": div(gauge.c, z)}
        up, mid, down = (substitute(cf, image) for cf in eq.coefficients())
        # y(qz) lands on ytilde(z/q): the up and down coefficients swap,
        # weighted by delta = q^d.
        return LinearQDE(div(down, gauge.delta), mid, mul(up, gauge.delta))
    raise TypeError(f"unknown gauge {gauge!r}")


def substitute_params(eq: LinearQDE, t: Transformation) -> LinearQDE:
    if t.image("z") is not sym("z"):
        raise ValueError("transformation moves the spectral variable z")
    memo: dict = {}
    return LinearQDE(*(t(cf, memo) for cf in eq.coefficients()))


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
    sampled = cfg._replace(exact=False)
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

def _scaling(s: Expr, up, down) -> Transformation:
    """x -> s x for each symbol x in up; x -> x/s for each in down;
    everything else fixed."""
    images = {x: mul(s, sym(x)) for x in up}
    images.update({x: div(sym(x), s) for x in down})
    return Transformation(images)


def d5_power_scaling(s: Expr) -> Transformation:
    """nu1,nu2 -> nu_i/s; nu5,nu6 -> s nu_i; g -> s g; everything else fixed."""
    return _scaling(s, ("nu5", "nu6", "g"), ("nu1", "nu2"))


def d5_dilation_scaling(c: Expr) -> Transformation:
    """nu3,nu4 -> c nu_i; nu7,nu8 -> nu_i/c; f -> c f; everything else fixed."""
    return _scaling(c, ("nu3", "nu4", "f"), ("nu7", "nu8"))


def e_scaling(c: Expr) -> Transformation:
    """nu1..nu4, f -> c x; nu5..nu8, g -> x/c; kappa1, kappa2 fixed.

    E6 realizes it as dilation plus power gauge with c q^d = 1, E7 as a pure
    dilation.
    """
    return _scaling(c, ("nu1", "nu2", "nu3", "nu4", "f"), ("nu5", "nu6", "nu7", "nu8", "g"))


# ---------------------------------------------------------------------------
# claim registry

class GaugeClaim(Value):
    __slots__ = ("id", "family", "gauges", "target", "note")   # target(fam) is a map

    def __init__(self, id: str, family: str, gauges: tuple, target: object, note: str = ""):
        super().__init__(id, family, gauges, target, note)


def _claim_registry() -> dict[str, GaugeClaim]:
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
            (PowerGauge(sym("s")),),
            lambda fam: d5_power_scaling(sym("s")),
            "power gauge z^d with delta = q^d = s",
        ),
        GaugeClaim(
            "d5.D", "D5",
            (Dilation(sym("c")),),
            lambda fam: d5_dilation_scaling(sym("c")),
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
            (PowerGauge(parse("1/c")), Dilation(sym("c"))),
            lambda fam: e_scaling(sym("c")),
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
            (Dilation(sym("c")),),
            lambda fam: e_scaling(sym("c")),
            "pure dilation",
        ),
    ]
    return {c.id: c for c in claims}


CLAIMS = _claim_registry()


def verify_gauge_claim(
    fam: FamilyDescriptor,
    claim_id: str,
    cfg: CheckConfig | None = None,
) -> CheckResult:
    """equations_equivalent's result for the gauged equation and the target,
    under the claim id, with the claim's note as its detail."""
    claim = CLAIMS.get(claim_id)
    if claim is None:
        raise KeyError(f"unknown claim id {shown(claim_id)}")
    if claim.family != fam.name:
        raise ValueError(f"claim {claim_id} belongs to family {claim.family}, not {fam.name}")
    return _verify_claim(fam, claim, build_L1(fam), cfg or CheckConfig())


def _verify_claim(fam: FamilyDescriptor, claim: GaugeClaim, eq: LinearQDE,
                  cfg: CheckConfig) -> CheckResult:
    """verify_gauge_claim for a claim of fam, given fam's equation eq."""
    gauged = eq
    for gauge in claim.gauges:
        gauged = apply_gauge(gauged, gauge)
    target = substitute_params(eq, claim.target(fam))
    res = equations_equivalent(gauged, target, cfg.constraint(fam), cfg, label=claim.id)
    detail = (claim.note if res.ok else f"{claim.note}: mismatch"
              if res.status == "fail" else f"{claim.note}: {res.detail}")
    return res._replace(id=claim.id, detail=detail)


def verify_gauge_claims(fam: FamilyDescriptor, cfg: CheckConfig | None = None) -> Report:
    """Every claim of fam, in registry order, against one build of its equation."""
    cfg = cfg or CheckConfig()
    claims = [claim for claim in CLAIMS.values() if claim.family == fam.name]
    eq = build_L1(fam) if claims else None
    report = Report()
    for claim in claims:
        report.add(_verify_claim(fam, claim, eq, cfg))
    return report
