"""Time-evolution identities and exact orbit iteration."""

import json
import random
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qpweyl import evolution, paper
from qpweyl.evolution import (
    OrbitResult,
    PoleError,
    make_evolution_spec,
    make_state,
    orbit,
    orbit_step,
    orbit_to_json,
    parse_rational,
    state_from_record,
    time_evolution,
    verify_theorem_i,
    verify_theorem_ii,
    _cancel,
    _fraction,
)
from qpweyl.expr import ZERO, evaluate, parse, substitute, sym
from qpweyl.identity import CheckConfig, identities_equal
from qpweyl.weyl import compose, scaling_map, transformation, word_to_transform


def eq(a, b, k=None, label="t"):
    return identities_equal(a, b, k, label=label).verdict


# ---------------------------------------------------------------------------
# the adjustment maps

def test_d5_xi_spot_values(d5):
    xi = d5.xi
    assert xi.image("nu3") is parse("kappa1/(q*nu4)")
    assert xi.image("g") is parse("g*kappa2/(nu5*nu6)")
    assert xi.image("kappa1") is parse("kappa1^3/(q^2*nu3*nu4*nu7*nu8)")


def test_e7_xi_spot_values(e7):
    xi = e7.xi
    assert xi.image("kappa1") is parse("kappa1^3/(q^2*kappa2^2)")
    assert eq(xi(parse("kappa2/kappa1")), parse("kappa2/kappa1"),
              label="e7xi:ratio") == "equal"
    assert eq(xi(parse("nu1/kappa2")), parse("q*kappa2/kappa1*(nu1/kappa2)"),
              label="e7xi:nk") == "equal"


def test_e6_xi_consistency_with_word_square(e6):
    # xi is pinned by xi(s^2(x)) = expected image; spot-check two slots
    s2 = word_to_transform(e6, "(pi1 pi2 s4 s5 s3 s6 s4 s3 s0 s6)^2")
    xi = e6.xi
    for x, expected in (("nu5", "nu5"), ("kappa2", "q*kappa2")):
        img = substitute(s2.image(x), xi.images)
        assert eq(img, parse(expected), e6.constraint, label=f"e6xi:{x}") == "equal"


def test_e6_xi_variant_with_q_powers_moved_fails(e6):
    # moving the q factors onto the nu5/nu6 slots (and the matching
    # kappa rearrangement) breaks xi(s^2(nu5)) = nu5
    variant = transformation({
        "nu1": "nu1*kappa2/(nu5*nu6*kappa1^2)", "nu2": "nu2*kappa2/(nu5*nu6*kappa1^2)",
        "nu3": "nu3*kappa2/(nu5*nu6*kappa1^2)", "nu4": "nu4*kappa2/(nu5*nu6*kappa1^2)",
        "nu5": "q*nu5*kappa1/kappa2", "nu6": "q*nu6*kappa1/kappa2",
        "nu7": "kappa1/(q*nu8)", "nu8": "kappa1/(q*nu7)",
        "kappa1": "kappa2/(q*nu5*nu6*nu7*nu8)", "kappa2": "kappa2/(q*nu5*nu6*kappa1)",
        "f": "f*kappa2/(nu5*nu6*kappa1^2)", "g": "g*nu5*nu6*kappa1^2/kappa2",
    })
    s = word_to_transform(e6, " ".join(e6.evolution_word))
    Talt = compose(variant, compose(s, s))
    res = identities_equal(Talt.image("nu5"), sym("nu5"), e6.constraint,
                           label="e6:variant")
    assert res.verdict == "unequal"
    assert res.witness is not None


# ---------------------------------------------------------------------------
# theorem (i)

def test_theorem_i_all_families(families):
    for fam in families.values():
        report = verify_theorem_i(fam)
        assert len(report.checks) == 12
        assert report.ok, (fam.name, report.failures())


def test_theorem_i_needs_the_constraint(families):
    cfg = CheckConfig(use_constraint=False)
    for fam in families.values():
        report = verify_theorem_i(fam, cfg)
        assert not report.ok, fam.name


def test_d5_T_f_closed_form(d5):
    T = time_evolution(d5)
    closed = parse("nu3*nu4*(g - nu5/kappa2)*(g - nu6/kappa2)"
                   "/(f*(g - 1/nu1)*(g - 1/nu2))")
    assert eq(T.image("f"), closed, d5.constraint, label="Tf") == "equal"


def test_d5_T_f_residual_exact_proved(d5):
    T = time_evolution(d5)
    spec = make_evolution_spec(d5)
    residual = substitute(spec.qp_relations[0],
                          {"fbar": T.image("f"), "gbar": T.image("g")})
    res = identities_equal(residual, ZERO, d5.constraint, CheckConfig(exact=True),
                           label="d5:rel1:exact")
    assert res.verdict == "exact-proved"


def test_word_square_alone_is_not_the_evolution(d5):
    # the bare word square multiplies f's image by an extra factor; only the
    # xi-adjusted composite fixes the parameters
    s2 = word_to_transform(d5, "(pi2 pi1 s2 s1 s0 s2)^2")
    assert eq(s2.image("nu3"), sym("nu3"), d5.constraint, label="bare") == "unequal"
    closed = parse("q*nu3*nu4*nu7*nu8*(g - nu5/kappa2)*(g - nu6/kappa2)"
                   "/(kappa1*f*(g - 1/nu1)*(g - 1/nu2))")
    assert eq(s2.image("f"), closed, d5.constraint, label="bare:f") == "equal"


# ---------------------------------------------------------------------------
# theorem (ii)

def test_theorem_ii_all_families(families):
    sizes = {"D5": 10, "E6": 10, "E7": 11}
    for fam in families.values():
        report = verify_theorem_ii(fam)
        assert len(report.checks) == sizes[fam.name]
        assert report.ok, (fam.name, report.failures())


def test_theorem_ii_holds_exactly_without_constraint(families):
    cfg = CheckConfig(use_constraint=False)
    for fam in families.values():
        assert verify_theorem_ii(fam, cfg).ok, fam.name


def test_d5_xi_on_nu5_over_kappa2(d5):
    xi = d5.xi
    assert eq(xi(parse("nu5/kappa2")), parse("1/nu6"), label="xi:52") == "equal"
    scaling = scaling_map(paper.FAMILIES["D5"]["xi_scaling"])
    assert eq(scaling(parse("nu5/kappa2")), parse("1/nu6"), label="GD:52") == "equal"


def test_d5_dilation_scale_with_nu7_nu8_fails(d5):
    # the working dilation scale is kappa1/(q nu3 nu4); swapping in
    # kappa1/(q nu7 nu8) breaks five of the ten generators even mod constraint
    from qpweyl.weyl import _scaling
    bad = compose(_scaling("d5_power", parse("kappa2/(nu5*nu6)")),
                  _scaling("d5_dilation", parse("kappa1/(q*nu7*nu8)")))
    xi = d5.xi
    failing = []
    for zeta_text in ("nu1", "nu3", "nu4", "nu7/kappa1", "nu8/kappa1", "f", "g"):
        zeta = parse(zeta_text)
        if eq(xi(zeta), bad(zeta), d5.constraint, label=f"bad:{zeta_text}") != "equal":
            failing.append(zeta_text)
    assert failing == ["nu3", "nu4", "nu7/kappa1", "nu8/kappa1", "f"]


def test_e7_xi_equals_scaling_exactly(e7):
    xi = e7.xi
    scaling = scaling_map(paper.FAMILIES["E7"]["xi_scaling"])
    for zeta_text in ("nu1", "nu5/kappa1", "kappa2/kappa1", "f", "g"):
        zeta = parse(zeta_text)
        assert eq(xi(zeta), scaling(zeta), label=f"e7ii:{zeta_text}") == "equal"


# ---------------------------------------------------------------------------
# orbits

def sample_state():
    return make_state("2", ["2", "3", "5", "7", "11", "13", "17"], "3", "5", "4", "9")


def test_make_state_recomputes_nu8():
    st = sample_state()
    assert st.constraint_residual() == 0
    prod = Fraction(1)
    for v in st.nu[:7]:
        prod *= v
    assert st.nu[7] == Fraction(9 * 25) / (2 * prod)


def test_make_state_validation():
    with pytest.raises(ValueError):
        make_state("2", ["1", "2", "3"], "1", "1", "1", "1")
    with pytest.raises(ValueError):
        make_state("0", ["1"] * 7, "1", "1", "1", "1")
    # a zero kappa would make nu8 = 0, which the relations divide by
    for k1, k2 in (("0", "1"), ("1", "0"), ("0", "0")):
        with pytest.raises(ValueError, match="nonzero"):
            make_state("2", ["1"] * 7, k1, k2, "1", "1")


def test_d5_one_step_hand_oracle(d5):
    # independent evaluation of the coupled relations at
    # q=2, nu=(2,3,5,7,11,13,17,.), kappa1=kappa2=1, f=g=1
    st = make_state("2", ["2", "3", "5", "7", "11", "13", "17"], "1", "1", "1", "1")
    g, f = Fraction(1), Fraction(1)
    nu = {i + 1: v for i, v in enumerate(st.nu)}
    k2 = Fraction(1)
    fbar = nu[3] * nu[4] * (g - nu[5] / k2) * (g - nu[6] / k2) / (
        (g - 1 / nu[1]) * (g - 1 / nu[2])) / f
    k1n, k2n = Fraction(1, 2), Fraction(2)
    gbar = (fbar - k1n / nu[7]) * (fbar - k1n / nu[8]) / (
        nu[1] * nu[2] * (fbar - nu[3]) * (fbar - nu[4])) / g
    assert fbar == 12600
    assert gbar == Fraction(-1015734029, 154077154)
    nxt = orbit_step(d5, st, "forward")
    assert (nxt.f, nxt.g) == (fbar, gbar)
    assert (nxt.kappa1, nxt.kappa2, nxt.t) == (k1n, k2n, 1)


def test_forward_backward_round_trip(families):
    for fam in families.values():
        st = sample_state()
        fwd = orbit_step(fam, st, "forward")
        back = orbit_step(fam, fwd, "backward")
        assert back == st, fam.name


def test_kappa_drift_along_orbit(d5):
    st = sample_state()
    res = orbit(d5, st, 6)
    for k, s in enumerate(res.states):
        assert s.kappa1 == st.kappa1 / Fraction(2) ** k
        assert s.kappa2 == st.kappa2 * Fraction(2) ** k
        assert s.nu == st.nu
        assert s.constraint_residual() == 0


def test_orbit_zero_steps(d5):
    res = orbit(d5, sample_state(), 0)
    assert res.complete and len(res.states) == 1


def test_orbit_rejects_a_bad_direction_and_negative_length(d5):
    with pytest.raises(ValueError, match="direction must be forward or backward"):
        orbit_step(d5, sample_state(), "sideways")
    with pytest.raises(ValueError, match="n must be >= 0"):
        orbit(d5, sample_state(), -1)


def test_orbit_step_quotes_at_most_24_characters_of_a_bad_direction(d5):
    with pytest.raises(ValueError) as err:
        orbit_step(d5, sample_state(), "sideways")
    assert str(err.value) == "direction must be forward or backward, got 'sideways'"
    with pytest.raises(ValueError) as err:
        orbit_step(d5, sample_state(), "x" * 50_000)
    assert str(err.value) == ("direction must be forward or backward, "
                              "got 'xxxxxxxxxxxxxxxxxxxx...'")


def test_orbit_length_is_bounded(monkeypatch, families):
    # With q = 1 and every parameter 1 the D5 orbit has period 2 and the E6
    # orbit period 3, so heights never grow and only MAX_STEPS bounds a run.
    ones = make_state("1", ["1"] * 7, "1", "1", "2", "3")
    for name, period in (("D5", 2), ("E6", 3)):
        states = orbit(families[name], ones, 2 * period).states
        assert [(s.f, s.g) for s in states[period:]] == [(s.f, s.g) for s in states[:-period]]
        assert (states[1].f, states[1].g) != (ones.f, ones.g)
    with pytest.raises(ValueError, match=f"at most {evolution.MAX_STEPS}, got 1000000000$"):
        orbit(families["D5"], ones, 10**9)
    monkeypatch.setattr(evolution, "MAX_STEPS", 4)
    assert len(orbit(families["D5"], ones, 4).states) == 5
    with pytest.raises(ValueError, match="n must be >= 0 and at most 4, got 5$"):
        orbit(families["D5"], ones, 5)


def test_symbolic_T_matches_orbit_pointwise(families):
    for fam in families.values():
        T = time_evolution(fam)
        Tf, Tg = T.image("f"), T.image("g")
        st = sample_state()
        for _ in range(3):
            nxt = orbit_step(fam, st, "forward")
            vals = st.valuation()
            assert evaluate(Tf, vals) == nxt.f, fam.name
            assert evaluate(Tg, vals) == nxt.g, fam.name
            st = nxt


def test_pole_aborts_with_partial_orbit(d5):
    # g = 1/nu1 makes the first relation's denominator vanish immediately
    st = make_state("2", ["2", "3", "5", "7", "11", "13", "17"], "3", "5",
                    "4", Fraction(1, 2))
    with pytest.raises(PoleError) as err:
        orbit_step(d5, st, "forward")
    assert err.value.step == 0
    res = orbit(d5, st, 5)
    assert not res.complete
    assert len(res.states) == 1
    assert res.pole.step == 0


def test_pole_mid_orbit_partial_output(e7):
    # build a state one backward step before a pole, then run forward into it
    pole_state = make_state("2", ["2", "3", "5", "7", "11", "13", "17"], "3", "5",
                            "4", Fraction(1, 2))      # g = 1/nu1 poles rel1
    with pytest.raises(PoleError):
        orbit_step(e7, pole_state, "forward")
    prev = orbit_step(e7, pole_state, "backward")
    res = orbit(e7, prev, 5)
    assert not res.complete
    assert len(res.states) == 2
    assert res.states[1] == pole_state
    assert res.pole.step == pole_state.t
    assert all(s.constraint_residual() == 0 for s in res.states)


def test_orbit_json_round_trip(d5):
    res = orbit(d5, sample_state(), 4)
    doc = orbit_to_json(res)
    import json
    parsed = json.loads(doc)
    assert parsed["schema"] == 1
    assert len(parsed["states"]) == 5
    st0 = state_from_record(parsed["states"][0])
    assert st0 == res.states[0]
    # rationals serialize as "p/q" strings
    assert all("/" in rec["f"] for rec in parsed["states"])


# Starts on which the first step meets each pole, one per family, direction
# and label: (q, nu1..nu7, kappa1, kappa2, f, g).  The labels and the order of
# the tests were recorded from the Fraction steppers these replaced.
POLE_STARTS = [
    ("D5", "forward", "rel1 denominator",
     ("1/2", ["3", "1", "-1/2", "-2", "1", "2", "-1"], "3", "-1/2", "-2", "1/3")),
    ("D5", "forward", "f",
     ("1/2", ["-1/2", "2", "2", "2", "1/3", "2", "-1"], "-2", "1", "0", "-1")),
    ("D5", "forward", "rel2 denominator",
     ("-1", ["-1", "-2", "1/3", "1", "1/2", "-1", "3"], "3", "-1", "-1/2", "1/3")),
    ("D5", "forward", "g",
     ("3", ["2", "1", "1", "-2", "-2", "2", "2"], "1/2", "3", "-2", "0")),
    ("D5", "backward", "rel2 denominator",
     ("-1", ["1/2", "2", "-1/2", "-2", "-2", "1", "-1/2"], "1/2", "3", "-2", "1")),
    ("D5", "backward", "g",
     ("3", ["3", "1/2", "-1", "1", "3", "-2", "1/3"], "-1", "1", "-1/2", "0")),
    ("D5", "backward", "rel1 denominator",
     ("3", ["-1", "3", "3", "3", "2", "1/3", "-1/2"], "3", "-1", "0", "-2")),
    ("D5", "backward", "f",
     ("2", ["3", "-2", "1/2", "1/3", "-1/2", "-2", "2"], "3", "1/3", "0", "1")),
    ("E6", "forward", "rel1 rhs",
     ("1/2", ["-1/2", "1/3", "1/3", "1/3", "-1/2", "3", "3"], "-2", "1", "3", "-1/2")),
    ("E6", "forward", "rel1 solve",
     ("-1", ["-1", "3", "2", "-2", "-1", "2", "3"], "-1/2", "1/2", "0", "0")),
    ("E6", "forward", "rel2 rhs",
     ("-1", ["-2", "3", "-1/2", "2", "-1", "2", "2"], "1", "-2", "1/2", "-2")),
    ("E6", "forward", "rel2 solve",
     ("3", ["-1/2", "-1/2", "2", "1/2", "1/3", "3", "1/2"], "-1/2", "3", "-2", "2")),
    ("E6", "backward", "rel2 rhs",
     ("3", ["2", "3", "1/3", "2", "-1/2", "1", "1/2"], "1", "-2", "2", "1/2")),
    ("E6", "backward", "rel2 solve",
     ("2", ["1/3", "1/3", "3", "-1", "1/3", "-1", "3"], "-1", "-2", "3", "1/3")),
    ("E6", "backward", "rel1 rhs",
     ("3", ["-2", "-2", "-1/2", "1/2", "1/2", "3", "-1"], "1", "-1", "0", "-1/2")),
    ("E6", "backward", "rel1 solve",
     ("2", ["2", "1", "-1/2", "1/3", "1/3", "2", "2"], "1/3", "1/2", "1/3", "1")),
    ("E7", "forward", "rel1 rhs",
     ("2", ["-1/2", "-1", "3", "-2", "-1", "-1", "3"], "1/2", "1/3", "-1", "1/3")),
    ("E7", "forward", "rel1 solve",
     ("1/2", ["-1/2", "3", "1", "-1", "3", "3", "1/3"], "1/3", "1", "1/3", "0")),
    ("E7", "forward", "rel2 rhs",
     ("-1", ["1/2", "1", "1", "1/2", "2", "2", "1/2"], "-1", "-1/2", "-1/2", "-2")),
    ("E7", "forward", "rel2 solve",
     ("1/2", ["1", "-2", "3", "2", "1", "-2", "2"], "-2", "-2", "-1/2", "3")),
    ("E7", "backward", "rel2 rhs",
     ("2", ["1", "1/2", "-1", "-2", "2", "2", "1"], "1", "2", "1", "-1")),
    ("E7", "backward", "rel2 solve",
     ("2", ["3", "2", "3", "3", "-1/2", "2", "-1"], "1", "2", "0", "2")),
    ("E7", "backward", "rel1 rhs",
     ("2", ["1/2", "-2", "-2", "1/2", "-1/2", "-2", "-1/2"], "-1", "2", "2", "-2")),
    ("E7", "backward", "rel1 solve",
     ("3", ["2", "-2", "2", "-1/2", "1", "2", "-2"], "1/3", "2", "1/3", "-2")),
]


@pytest.mark.parametrize("family, direction, where, start", POLE_STARTS,
                         ids=[f"{f}-{d}-{w}" for f, d, w, _ in POLE_STARTS])
def test_pole_table(families, family, direction, where, start):
    st = make_state(*start, t=5)
    with pytest.raises(PoleError) as err:
        orbit_step(families[family], st, direction)
    assert (err.value.step, err.value.where) == (5, where)


_SMALL = st.fractions(min_value=-6, max_value=6, max_denominator=6)
_NONZERO = _SMALL.filter(lambda v: v != 0)


@pytest.mark.parametrize("family", ["D5", "E6", "E7"])
@settings(max_examples=100, deadline=None)
@given(start=st.tuples(_NONZERO, st.lists(_NONZERO, min_size=7, max_size=7),
                       _NONZERO, _NONZERO, _SMALL, _SMALL))
def test_forward_then_backward_returns_the_start(families, family, start):
    fam, st0 = families[family], make_state(*start)
    try:
        back = orbit_step(fam, orbit_step(fam, st0, "forward"), "backward")
    except PoleError:
        assume(False)
    assert back == st0


def test_forward_steps_solve_both_relations(families):
    rng = random.Random(11)
    for fam in families.values():
        rels = make_evolution_spec(fam).qp_relations
        for _ in range(20):
            nu = [Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)) for _ in range(7)]
            cur = make_state(rng.randint(2, 5), nu,
                             *(Fraction(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(4)))
            try:
                for _ in range(3):
                    nxt = orbit_step(fam, cur, "forward")
                    values = dict(cur.valuation(), fbar=nxt.f, gbar=nxt.g)
                    assert [evaluate(r, values) for r in rels] == [0, 0], (fam.name, cur)
                    cur = nxt
            except PoleError:
                continue


# The steppers as they were before they cancelled the factors that always
# cancel: one Fraction(num, den) reduction of the unreduced pair.  They are
# the reference the cancelling steppers must agree with, pole for pole.

def _one_gcd_ratio(x, top, bottom):
    """Integers (u, v) with prod(x - a for a in top) / prod(x - b for b in
    bottom) == u / (v * d**(len(top) - len(bottom))), d the denominator of
    x, for Fraction roots."""
    c, d = x.numerator, x.denominator
    u = v = 1
    for a in top:
        v *= a.denominator
        u *= c * a.denominator - a.numerator * d
    for b in bottom:
        u *= b.denominator
        v *= c * b.denominator - b.numerator * d
    return u, v


def _one_gcd_d5(state, rel, x, y, k1, k2, up):
    n = state.nu
    if rel == 1:
        c, top, bottom = n[2] * n[3], (n[4] / k2, n[5] / k2), (1 / n[0], 1 / n[1])
    else:
        c, top, bottom = 1 / (n[0] * n[1]), (k1 / n[6], k1 / n[7]), (n[2], n[3])
    u, v = _one_gcd_ratio(x, top, bottom)
    if v == 0:
        raise PoleError(state.t, f"rel{rel} denominator")
    if y == 0:
        raise PoleError(state.t, "f" if rel == 1 else "g")
    return Fraction(c.numerator * u * y.denominator, c.denominator * v * y.numerator)


def _one_gcd_e6(state, rel, x, y, k1, k2, up):
    n = state.nu
    if rel == 1:
        top, bottom = tuple(1 / v for v in n[:4]), (n[4] / k2, n[5] / k2)
    else:
        top, bottom = n[:4], (k1 / n[6], k1 / n[7])
    u, v = _one_gcd_ratio(x, top, bottom)
    if v == 0:
        raise PoleError(state.t, f"rel{rel} rhs")
    xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
    m = xn * yn - xd * yd
    den = m * xn * v - u * yn
    if den == 0:
        raise PoleError(state.t, f"rel{rel} solve")
    return Fraction(m * v * xd, den)


def _one_gcd_e7(state, rel, x, y, k1, k2, up):
    n, q = state.nu, state.q
    if rel == 1:
        top, bottom, c = tuple(v / k2 for v in n[4:]), tuple(1 / v for v in n[:4]), k1 / (q * k2)
    else:
        top, bottom, c = tuple(k1 / v for v in n[4:]), n[:4], k1 / k2
    s, t = (c, q * c) if up else (q * c, c)
    u, v = _one_gcd_ratio(x, top, bottom)
    if v == 0:
        raise PoleError(state.t, f"rel{rel} rhs")
    xn, xd = x.numerator, x.denominator
    xy, dd = xn * y.numerator, xd * y.denominator
    a = (xy * t.denominator - t.numerator * dd) * v
    b = (xy - dd) * u * t.denominator
    den = xn * (a - b)
    if den == 0:
        raise PoleError(state.t, f"rel{rel} solve")
    return Fraction((s.numerator * a - s.denominator * b) * xd, s.denominator * den)


def _no_pieces(solve):
    """The reference solver with the orbit solvers' signature: it takes the
    integers of q and nu and the hints hx and hy, ignores them and returns
    no pieces."""
    def adapted(state, params, rel, x, y, k1, k2, up, hx, hy):
        return solve(state, rel, x, y, k1, k2, up), None
    return adapted


_ONE_GCD_SOLVERS = {"D5": _no_pieces(_one_gcd_d5), "E6": _no_pieces(_one_gcd_e6),
                    "E7": _no_pieces(_one_gcd_e7)}


def _step_outcome(fam, st0, direction):
    try:
        return orbit_step(fam, st0, direction)
    except PoleError as err:
        return (err.step, err.where)


# (q, nu1..nu7, kappa1, kappa2, f, g) on which rel1 meets gcd(0, 0): for E6,
# x y = 1 and x = 1/nu1 is a root of the top; for E7, x y = t and x = nu5/kappa2.
_GCD_ZERO_ZERO = {
    "E6": (2, [2, 3, 5, 7, 11, 13, 17], 3, 5, 2, Fraction(1, 2)),
    "E7": (2, [2, 3, 5, 7, 11, 13, 17], 3, 5, Fraction(3, 11), Fraction(11, 5)),
}


# Forward starts at the corners of the bound K that each solver reduces z
# against (see the comment above evolution._cancel): a top root equal to a
# bottom root ("D=0", K = 0), x a top root ("u=0"), E7's s = 1 (K = 0) and
# a zero solution ("z=0").  Each step passes through its corner and ends in
# a state, so a bound that is wrong there fails the reference comparison
# below.  x a top root of rel1 in E6 or E7, or s = 1 in E7 rel1 (kappa1 =
# q kappa2), makes rel2 meet its pole, so those corners are taken in rel2.
_TOP_IS_BOTTOM = (2, [2, 3, 5, 7, Fraction(3, 2), 11, 13], 5, 3, 4, 3)   # nu5/kappa2 = 1/nu1
_BOUND_CORNERS = {
    ("D5", "D=0"): _TOP_IS_BOTTOM,
    ("E6", "D=0"): _TOP_IS_BOTTOM,
    ("E7", "D=0"): _TOP_IS_BOTTOM,
    ("E6", "u=0"): (2, [2, 3, 5, 7, 11, 13, 17], 3, 5, 5, Fraction(7, 5)),   # fbar = 7 = nu4
    ("E7", "u=0"): (2, [1, 2, 3, 4, 5, 6, 7], 3, 1, Fraction(3, 4), 4),      # fbar = k1/(q nu6)
    ("E7", "s=1"): (2, [2, 3, 5, 7, 11, 13, 17], 12, 3, -1, -1),             # kappa1 = q^2 kappa2
    ("D5", "z=0"): (2, [2, 3, 5, 7, 11, 13, 17], 3, 5, 4, Fraction(11, 5)),  # g = nu5/kappa2
    ("E6", "z=0"): (2, [2, 3, 5, 7, 11, 13, 17], 3, 5, 4, Fraction(1, 4)),   # f g = 1
}
# A backward start at which E7's gcd(N, D) takes a prime from s_d, the one
# factor of K that no corner above needs.
_E7_S_DEN_IN_GCD = (4, [Fraction(3, 2), Fraction(-1, 5), Fraction(2, 3), Fraction(-6, 5), 4, 2,
                        Fraction(-3, 4)], Fraction(3, 5), 1, Fraction(-5, 3), Fraction(2, 3))


def _outcome_and_corners(fam, st0, direction):
    """The step's outcome, and the corners its solvers met: _ratio's bound
    or u is 0 ("D=0", "u=0"), or _fraction is given K = 0 or a zero
    numerator ("K=0", "z=0")."""
    met = set()
    ratio, fraction = evolution._ratio, evolution._fraction

    def ratio_spy(x, top, bottom):
        tops, bots, pa, pb, k = ratio(x, top, bottom)
        met.update(tag for tag, hit in (("D=0", k == 0), ("u=0", 0 in tops)) if hit)
        return tops, bots, pa, pb, k

    def fraction_spy(num, den, k):
        met.update(tag for tag, hit in (("K=0", k == 0), ("z=0", num == 0)) if hit)
        return fraction(num, den, k)

    with mock.patch.multiple(evolution, _ratio=ratio_spy, _fraction=fraction_spy):
        return _step_outcome(fam, st0, direction), met


@pytest.mark.parametrize("family", ["E6", "E7"])
def test_gcd_of_zero_and_zero_is_the_solve_pole(families, family):
    with pytest.raises(PoleError) as err:
        orbit_step(families[family], make_state(*_GCD_ZERO_ZERO[family]), "forward")
    assert (err.value.step, err.value.where) == (0, "rel1 solve")


@pytest.mark.parametrize("family", ["D5", "E6", "E7"])
@pytest.mark.parametrize("direction", ["forward", "backward"])
@settings(max_examples=100, deadline=None)
@given(start=st.tuples(_NONZERO, st.lists(_NONZERO, min_size=7, max_size=7),
                       _NONZERO, _NONZERO, _SMALL, _SMALL))
@example(start=_GCD_ZERO_ZERO["E6"])
@example(start=_GCD_ZERO_ZERO["E7"])
@example(start=_TOP_IS_BOTTOM)
@example(start=_BOUND_CORNERS["E6", "u=0"])
@example(start=_BOUND_CORNERS["E7", "u=0"])
@example(start=_BOUND_CORNERS["E7", "s=1"])
@example(start=_BOUND_CORNERS["D5", "z=0"])
@example(start=_BOUND_CORNERS["E6", "z=0"])
@example(start=_E7_S_DEN_IN_GCD)
def test_steppers_match_the_one_gcd_reference(families, family, direction, start):
    fam, st0 = families[family], make_state(*start)
    with mock.patch.dict(evolution._SOLVERS, _ONE_GCD_SOLVERS):
        want = _step_outcome(fam, st0, direction)
    got, met = _outcome_and_corners(fam, st0, direction)
    assert got == want
    for (corner_family, corner), corner_start in _BOUND_CORNERS.items():
        if (family, direction, start) == (corner_family, "forward", corner_start):
            assert not isinstance(got, tuple), got
            if corner == "s=1":
                assert "K=0" in met and "D=0" not in met, met
            else:
                assert corner in met, met


# The longest printable orbits from sample-params.json and the short orbits
# from criterion 7's random starts, as the benchmark runs them.  Their
# operands reach thousands of bits, where the smaller nearly divides the
# larger: the regime the one-step test above never reaches.
_LONG_STEPS = {"D5": 21, "E6": 16, "E7": 11}
_SHORT_STEPS = {"D5": 13, "E6": 7, "E7": 5}


def _criterion_7_start(rng):
    def fr():
        return Fraction(rng.randint(1, 40), rng.randint(1, 40))
    return make_state(Fraction(rng.randint(2, 5)), [fr() for _ in range(7)], fr(), fr(), fr(), fr())


@pytest.mark.parametrize("family", ["D5", "E6", "E7"])
def test_orbits_match_the_one_gcd_reference(families, family):
    """Every step forward and then back, from the sample start, its f/g swap
    and five random starts, equals the reference step or meets its pole."""
    fam = families[family]
    with open(Path(__file__).resolve().parents[1] / "sample-params.json", encoding="utf-8") as fh:
        sample = state_from_record(json.load(fh))
    swapped = make_state(sample.q, sample.nu[:7], sample.kappa1, sample.kappa2, sample.g, sample.f)
    rng = random.Random(7)
    walks = [(sample, _LONG_STEPS[family]), (swapped, _LONG_STEPS[family])]
    walks += [(_criterion_7_start(rng), _SHORT_STEPS[family]) for _ in range(5)]
    for st0, n in walks:
        cur = st0
        for direction in ["forward"] * n + ["backward"] * n:
            got = _step_outcome(fam, cur, direction)
            with mock.patch.dict(evolution._SOLVERS, _ONE_GCD_SOLVERS):
                assert got == _step_outcome(fam, cur, direction), (cur.t, direction)
            if isinstance(got, tuple):  # the same pole
                break
            cur = got
        else:
            assert cur == st0


_BIG = st.integers(min_value=-(2**4000), max_value=2**4000)


def _cancel_reference(a, b):
    g = gcd(a, b) or 1
    return a // g, b // g


@settings(max_examples=300, deadline=None)
@given(a=st.one_of(st.integers(), _BIG), b=st.one_of(st.integers(), _BIG))
@example(a=0, b=0)
@example(a=-7, b=0)
@example(a=0, b=-7)
@example(a=-6, b=4)
@example(a=3, b=-2**100)
def test_cancel_divides_both_by_the_gcd(a, b):
    assert _cancel(a, b) == _cancel_reference(a, b)


@settings(max_examples=300, deadline=None)
@given(g=st.integers(min_value=1, max_value=2**4000),
       s=st.integers(min_value=-64, max_value=64), t=st.integers(min_value=-64, max_value=64))
def test_cancel_on_pairs_with_a_big_common_factor(g, s, t):
    """The orbit regime: the gcd has nearly all the bits of both operands."""
    a, b = g * t, g * s
    assert _cancel(a, b) == _cancel_reference(a, b)
    assert _cancel(b, a) == _cancel_reference(b, a)


@settings(max_examples=300, deadline=None)
@given(g=st.integers(min_value=1, max_value=2**4000), a=_BIG, b=_BIG.filter(bool),
       j=st.one_of(st.just(0), st.integers(min_value=-(2**64), max_value=2**64)))
@example(g=2**3000 + 1, a=3, b=-5, j=0)
@example(g=7, a=0, b=-2**4000, j=1)
@example(g=7, a=0, b=12, j=0)
@example(g=1, a=-(2**4000), b=-(2**3999), j=3)
def test_fraction_reduces_against_a_multiple_of_the_gcd(g, a, b, j):
    """_fraction(num, den, k), k a multiple of gcd(num, den) or 0, is
    Fraction(num, den): reduced, with a positive denominator."""
    num, den = g * a, g * b
    got, want = _fraction(num, den, gcd(num, den) * j), Fraction(num, den)
    assert type(got) is type(want) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert got == want and hash(got) == hash(want)


def _prints(n: int) -> bool:
    try:
        str(n)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("text, ok", [
    ("1e4299", True), ("1e4300", False), ("1e-4299", True), ("1e-4300", False),
    ("12.5e4297", True), ("12.5e4298", False), ("1." + "0" * 4299, True),
    ("1/" + "7" * 4300, True), ("7" * 4301 + "/2", False), ("1e" + "9" * 30, False),
    (" -3_000/4 ", True),
])
def test_parse_rational_digit_limit(text, ok):
    # the numerator and denominator Fraction builds, before it reduces
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        if ok:
            assert parse_rational(text, "f") == Fraction(text)
        else:
            with pytest.raises(ValueError, match=r"^f = '.*' has a numerator or denominator past"):
                parse_rational(text, "f")
    finally:
        sys.set_int_max_str_digits(old)


def test_orbit_start_past_int_str_limit_blames_the_start(d5):
    st0 = make_state(2, [1] * 7, 10 ** 2200, 1, 1, 1)   # nu8 has 4401 digits
    with pytest.raises(ValueError, match="state t=0 .*give a smaller start state"):
        orbit(d5, st0, 3)


@pytest.mark.parametrize("limit", [0, 50_000])
def test_digit_budget_ignores_the_interpreters_limit(d5, limit):
    # D5 from sample_state(): state 22 has a numerator past 4300 digits.
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(limit)
        with pytest.raises(ValueError, match="^state t=22 .*ask for fewer steps$"):
            orbit(d5, sample_state(), 30)
        with pytest.raises(ValueError, match=r"^f = '1e5000' has a numerator or denominator past"):
            parse_rational("1e5000", "f")
    finally:
        sys.set_int_max_str_digits(old)


def test_digit_errors_name_the_limit_that_stopped_them(d5):
    # Under an interpreter limit below MAX_DIGITS, Fraction refuses a
    # 1,000-digit text for its digits alone, and D5 from sample_state()
    # prints only up to t=9 but steps on to the package's budget at t=22.
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        with pytest.raises(ValueError, match=r"^f = '7+\.\.\.' has a numerator or denominator "
                                             r"past Python's int-to-str digit limit$"):
            parse_rational("7" * 1000, "f")
        with pytest.raises(ValueError, match=r"^Invalid literal for Fraction: '7+\.\.\.'$"):
            parse_rational("7" * 1000 + "x", "f")
        with pytest.raises(ValueError, match=r"^state t=22 has a rational past evolution\."
                                             r"MAX_DIGITS \(4300 digits\); ask for fewer steps$"):
            orbit(d5, sample_state(), 30)
        with pytest.raises(ValueError, match=r"^state t=10 has a rational past Python's "
                                             r"int-to-str digit limit; ask for fewer steps$"):
            orbit_to_json(orbit(d5, sample_state(), 15))
    finally:
        sys.set_int_max_str_digits(old)


def test_no_module_reads_the_interpreters_digit_limit():
    package = Path(evolution.__file__).resolve().parent
    assert [path.name for path in sorted(package.glob("*.py"))
            if "int_max_str_digits" in path.read_text(encoding="utf-8")] == []


@pytest.mark.parametrize("limit", [None, 640, 0])
def test_printable_check_agrees_with_int_to_str(limit):
    old = sys.get_int_max_str_digits()
    try:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
        digits = sys.get_int_max_str_digits() or 5000
        for n in (10 ** digits - 1, 10 ** digits, -(10 ** digits - 1), -(10 ** digits)):
            for f, g in ((n, 1), (1, Fraction(1, abs(n)))):
                st = make_state(2, [1] * 7, 1, 1, f, g, t=3)
                for states, advice in (([st], "give a smaller start state"),
                                       ([make_state(2, [1] * 7, 1, 1, 1, 1, t=2), st],
                                        "ask for fewer steps")):
                    if _prints(n):
                        orbit_to_json(OrbitResult(states))
                    else:
                        with pytest.raises(ValueError, match=f"^state t=3 .*; {advice}$"):
                            orbit_to_json(OrbitResult(states))
    finally:
        sys.set_int_max_str_digits(old)
