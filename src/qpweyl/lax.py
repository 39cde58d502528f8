"""Three-term linear q-difference equations and their gauge symmetries.

Each family's spectral equation is stored as

    coeff_up * y(q z) + coeff_mid * y(z) + coeff_down * y(z/q) = 0

with rational coefficients in the spectral variable z and the parameters.
A gauge is a tuple (kind, *args): one of the four kind names paper.CLAIMS
uses, then its argument expressions.  The four act on such equations as

  ("pochhammer", a, b)     y(z) = p(z) ytilde(z) with p the ratio of infinite
                           q-Pochhammer symbols (q a/z; q)/(q b/z; q).  Only
                           the rational ratios p(qz)/p(z) and p(z/q)/p(z)
                           enter, so nothing infinite is ever represented.
  ("power", delta)         y(z) = z^d ytilde(z) with delta standing for q^d.
  ("dilation", c)          z = u/c, y(z) = ytilde(u).
  ("inversion", c, delta)  z = c/u, y(z) = z^d ytilde(u); up and down swap
                           roles.

A dilated or inverted equation is written back in z, substituting z -> z/c
or z -> c/z at once.  Equations are compared projectively: equality up to
one common rational factor, decided by cross-multiplying against a pivot
coefficient.  The verdict is weyl.check's CheckResult, so a failed claim
keeps its witness.
"""

from __future__ import annotations

import functools

from . import paper
from .expr import ZERO, Expr, div, mul, parse, shown, sub, substitute, sym
from .identity import CheckConfig, ConstraintRelation, Points
from .identity import identities_equal  # noqa: F401  bench/tracer.py wraps this binding
from .report import CheckResult, Frozen, Report, Value
from .weyl import (
    FamilyDescriptor,
    Transformation,
    check,
    scaling_map,
    word_to_transform,
)


class LinearQDE(Frozen):
    __slots__ = ("coeff_up", "coeff_mid", "coeff_down")

    def __init__(self, coeff_up: Expr, coeff_mid: Expr, coeff_down: Expr):
        super().__init__(coeff_up, coeff_mid, coeff_down)

    def coefficients(self):
        return (self.coeff_up, self.coeff_mid, self.coeff_down)


def build_L1(fam: FamilyDescriptor) -> LinearQDE:
    table = paper.FAMILIES[fam.name]["L1"]
    return LinearQDE(*(parse(table[part]) for part in ("up", "mid", "down")))


def apply_gauge(eq: LinearQDE, gauge: tuple) -> LinearQDE:
    """eq under gauge = (kind, *args), one of the four kinds of the module
    docstring with its argument expressions."""
    z = sym("z")
    q = sym("q")
    match gauge:
        case ("pochhammer", a, b):
            up = mul(eq.coeff_up, div(sub(z, a), sub(z, b)))
            down = mul(eq.coeff_down, div(sub(z, mul(q, b)), sub(z, mul(q, a))))
            return LinearQDE(up, eq.coeff_mid, down)
        case ("power", d):
            return LinearQDE(mul(eq.coeff_up, d), eq.coeff_mid, div(eq.coeff_down, d))
        case ("dilation", c):
            image = {"z": div(z, c)}
            return LinearQDE(*(substitute(cf, image) for cf in eq.coefficients()))
        case ("inversion", c, d):
            image = {"z": div(c, z)}
            up, mid, down = (substitute(cf, image) for cf in eq.coefficients())
            # y(qz) lands on ytilde(z/q): the up and down coefficients swap,
            # weighted by delta = q^d.
            return LinearQDE(div(down, d), mid, mul(up, d))
    kind, *args = gauge
    raise ValueError(f"unknown gauge {shown(kind)} with {len(args)} argument(s)")


def substitute_params(eq: LinearQDE, t: Transformation) -> LinearQDE:
    if t.image("z") is not sym("z"):
        raise ValueError("transformation moves the spectral variable z")
    return LinearQDE(*map(t, eq.coefficients()))


def equations_equivalent(
    e1: LinearQDE,
    e2: LinearQDE,
    constraint: ConstraintRelation | None = None,
    cfg: CheckConfig = CheckConfig(),
    label: str = "",
    points: Points | None = None,
) -> CheckResult:
    """The check that the equations agree up to one common rational factor.

    The pivot is the first pair, of mid, up and down, whose members a
    sampled, never exact, zero test finds both nonzero.  A zero test with no
    sample point off the poles is returned as it is; no pivot is degenerate.
    The zero tests and the cross check read one set of points: the
    caller's, or a Points(cfg) built for this call.
    """
    if points is None:
        points = Points(cfg)
    sampled = cfg._replace(exact=False)
    pairs = list(zip(e1.coefficients(), e2.coefficients()))
    for idx in (1, 0, 2):  # fixed fallback order: mid, then up, then down
        for c, side in zip(pairs[idx], "ab"):
            zero = check(f"{label}:zero", [(f"p{idx}{side}", c, ZERO)], constraint, sampled,
                         points)
            if zero.status == "degenerate":
                return zero
            if zero.ok:  # c vanishes: try the next pair
                break
        else:  # both nonzero: the pivot
            p1, p2 = pairs[idx]
            cross = ((f"cross:{i}", mul(c1, p2), mul(c2, p1))
                     for i, (c1, c2) in enumerate(pairs) if i != idx)
            return check(label, cross, constraint, cfg, points)
    return CheckResult(label, "degenerate", detail="all candidate pivot coefficients vanish")


# ---------------------------------------------------------------------------
# claim registry

class GaugeClaim(Value):
    """A row of paper.CLAIMS with each gauge's arguments parsed: gauges are
    (kind, *Expr), and target is the paper's spec, a Weyl word text or a
    scaling spec."""

    __slots__ = ("id", "family", "gauges", "target", "note")

    def __init__(self, id: str, family: str, gauges: tuple, target: str | tuple,
                 note: str = ""):
        super().__init__(id, family, gauges, target, note)


CLAIMS = {claim_id: GaugeClaim(claim_id, family,
                               tuple((kind, *map(parse, args)) for kind, *args in gauges),
                               target, note)
          for claim_id, family, gauges, target, note in paper.CLAIMS}


def claim_equations(fam: FamilyDescriptor, claim: GaugeClaim) -> tuple[LinearQDE, LinearQDE]:
    """fam's L1 under the claim's gauges, the first acting first, and L1
    under the claim's target map."""
    eq = build_L1(fam)
    gauged = functools.reduce(apply_gauge, claim.gauges, eq)
    spec = claim.target
    target = word_to_transform(fam, spec) if isinstance(spec, str) else scaling_map(spec)
    return gauged, substitute_params(eq, target)


def verify_gauge_claim(
    fam: FamilyDescriptor,
    claim_id: str,
    cfg: CheckConfig = CheckConfig(),
    points: Points | None = None,
) -> CheckResult:
    """equations_equivalent's result for the claim's two equations, under
    the claim id, with the claim's note as its detail."""
    claim = CLAIMS.get(claim_id)
    if claim is None:
        raise KeyError(f"unknown claim id {shown(claim_id)}")
    if claim.family != fam.name:
        raise ValueError(f"claim {claim_id} belongs to family {claim.family}, not {fam.name}")
    res = equations_equivalent(*claim_equations(fam, claim), cfg.constraint(fam), cfg,
                               label=claim_id, points=points)
    detail = (claim.note if res.ok else f"{claim.note}: mismatch"
              if res.status == "fail" else f"{claim.note}: {res.detail}")
    return res._replace(id=claim_id, detail=detail)


def verify_gauge_claims(fam: FamilyDescriptor, cfg: CheckConfig = CheckConfig()) -> Report:
    """verify_gauge_claim of every claim of fam, in registry order, at one
    set of points."""
    points = Points(cfg)
    return Report([verify_gauge_claim(fam, claim_id, cfg, points)
                   for claim_id, claim in CLAIMS.items() if claim.family == fam.name])
