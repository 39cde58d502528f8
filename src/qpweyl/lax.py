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
one common rational factor.  Two nonzero coefficient vectors a and b are
proportional iff their three 2x2 minors a_i b_j - a_j b_i vanish, so each
equation is shown nonzero at one sample point, an exact proof, and the
minors are compared as the pairs (a_i b_j, a_j b_i).  The verdict is
weyl.check's CheckResult, so a failed claim keeps its witness.
"""

from __future__ import annotations

import functools

from . import paper
from .expr import ZERO, Expr, div, mul, parse, shown, sub, substitute, sym
from .identity import CheckConfig, ConstraintRelation, DegenerateComparison, Points
from .identity import identities_equal  # bench/tracer.py wraps this binding
from .report import CheckResult, Frozen, Report, Value
from .weyl import (
    FamilyDescriptor,
    Transformation,
    check,
    scaling_map,
    suite_entry,
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


#: The 2x2 minors a_i b_j - a_j b_i compared, as (name, i, j) over (up, mid, down).
_MINORS = (("mid:up", 1, 0), ("mid:down", 1, 2), ("up:down", 0, 2))


def _minor_pairs(e1: LinearQDE, e2: LinearQDE) -> tuple:
    """(name, a_i b_j, a_j b_i) of each minor, a from e1 and b from e2."""
    a, b = e1.coefficients(), e2.coefficients()
    return tuple((name, mul(a[i], b[j]), mul(a[j], b[i])) for name, i, j in _MINORS)


def equations_equivalent(
    e1: LinearQDE,
    e2: LinearQDE,
    constraint: ConstraintRelation | None = None,
    cfg: CheckConfig = CheckConfig(),
    label: str = "",
    points: Points | None = None,
    *,
    minors: tuple | None = None,
) -> CheckResult:
    """The check that the equations agree up to one common rational factor:
    each has a coefficient nonzero at a sample point, and every 2x2 minor
    of their coefficient vectors vanishes.

    A coefficient shown nonzero at a point is proved nonzero.  An equation
    with no such coefficient, or a coefficient with no sample point off its
    poles, raises DegenerateComparison from the pairs, so weyl.check makes
    the check degenerate.  The nonzero tests and the minors read one set of
    points: the caller's, or a Points(cfg) built for this call.  minors,
    when given, are _minor_pairs(e1, e2), kept by the caller.
    """
    if points is None:
        points = Points(cfg)

    def pairs():
        for n, eq in enumerate((e1, e2), start=1):
            if not any(identities_equal(c, ZERO, constraint, cfg, label=f"{label}:eq{n}",
                                        points=points).verdict == "unequal"
                       for c in eq.coefficients()):
                raise DegenerateComparison(f"no coefficient of equation {n} is nonzero at a"
                                           " sample point" + (f" for '{label}'" if label else ""))
        yield from minors or _minor_pairs(e1, e2)

    return check(label, pairs(), constraint, cfg, points)


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


def claim_equations(fam: FamilyDescriptor, claim: GaugeClaim,
                    eq: LinearQDE | None = None) -> tuple[LinearQDE, LinearQDE]:
    """eq, fam's L1 unless given, under the claim's gauges, the first acting
    first, and under the claim's target map."""
    spec = claim.target
    target = word_to_transform(fam, spec) if isinstance(spec, str) else scaling_map(spec)
    if eq is None:
        eq = build_L1(fam)
    return functools.reduce(apply_gauge, claim.gauges, eq), substitute_params(eq, target)


def _claim_pairs(fam: FamilyDescriptor, constraint, claim: GaugeClaim, coefficients: tuple):
    """The claim's equations from these L1 coefficients, and their minor pairs."""
    e1, e2 = claim_equations(fam, claim, LinearQDE(*coefficients))
    return e1, e2, _minor_pairs(e1, e2)


def verify_gauge_claim(
    fam: FamilyDescriptor,
    claim_id: str,
    cfg: CheckConfig = CheckConfig(),
    points: Points | None = None,
) -> CheckResult:
    """equations_equivalent's result for the claim's two equations, under
    the claim id, with the claim's note as its detail ("exact" on a pass
    that check marked exact), from a suite_entry kept by the claim and the
    L1 coefficient nodes too."""
    claim = CLAIMS.get(claim_id)
    if claim is None:
        raise KeyError(f"unknown claim id {shown(claim_id)}")
    if claim.family != fam.name:
        raise ValueError(f"claim {claim_id} belongs to family {claim.family}, not {fam.name}")
    # The equations and minor pairs are the same under any constraint.
    e1, e2, minors = suite_entry(_claim_pairs, fam, None, claim, build_L1(fam).coefficients())
    res = equations_equivalent(e1, e2, cfg.constraint(fam), cfg, claim_id, points, minors=minors)
    detail = ((res.detail or claim.note) if res.ok else f"{claim.note}: mismatch"
              if res.status == "fail" else f"{claim.note}: {res.detail}")
    return res._replace(id=claim_id, detail=detail)


def verify_gauge_claims(fam: FamilyDescriptor, cfg: CheckConfig = CheckConfig()) -> Report:
    """verify_gauge_claim of every claim of fam, in registry order, at one
    set of points."""
    points = Points(cfg)
    return Report([verify_gauge_claim(fam, claim_id, cfg, points)
                   for claim_id, claim in CLAIMS.items() if claim.family == fam.name])
