"""Linear q-difference equations, gauge mechanics and the claim registry."""

import inspect
import itertools
import re

import pytest
from dags import small_dags
from hypothesis import assume, given, settings, strategies as st

from qpweyl.expr import ZERO, add, evaluate, mul, num, parse, sub, sym
from qpweyl.identity import DEFAULT_PRIME, DegenerateComparison, identities_equal
from qpweyl.lax import (
    CLAIMS,
    LinearQDE,
    apply_gauge,
    build_L1,
    claim_equations,
    equations_equivalent,
    substitute_params,
    verify_gauge_claim,
    verify_gauge_claims,
)
from qpweyl.weyl import CheckConfig, _scaling, transformation, word_to_transform


def eq(a, b, k=None, label="t"):
    return identities_equal(a, b, k, label=label).verdict


# ---------------------------------------------------------------------------
# transcription fixtures

def test_d5_coefficients(d5):
    eq5 = build_L1(d5)
    assert eq(eq5.coeff_down,
              parse("-nu1*nu2*(z - q*nu3)*(z - q*nu4)/(q*(q*f - z))"),
              label="d5:down") == "equal"
    assert eq(eq5.coeff_up,
              parse("-(z - kappa1/nu7)*(z - kappa1/nu8)/(q*(f - z))"),
              label="d5:up") == "equal"
    assert list(inspect.signature(LinearQDE).parameters) == [
        "coeff_up", "coeff_mid", "coeff_down"]


def test_e6_coefficients(e6):
    eq6 = build_L1(e6)
    assert eq(eq6.coeff_up,
              parse("-(kappa1/nu7 - z)*(kappa1/nu8 - z)/(q*(f - z))"),
              label="e6:up") == "equal"


def test_e7_coefficients(e7):
    eq7 = build_L1(e7)
    assert eq(eq7.coeff_up,
              parse("q*(kappa1 - nu5*z)*(kappa1 - nu6*z)*(kappa1 - nu7*z)"
                    "*(kappa1 - nu8*z)/(kappa1^4*(f - z)*z^2)"),
              label="e7:up") == "equal"


def test_coefficients_never_contain_the_other_shift_var(families):
    # L1, and the gauged equation and the target of every claim, are in z.
    for fam in families.values():
        assert all("u" not in c.free for c in build_L1(fam).coefficients())
    for claim in CLAIMS.values():
        gauged, target = claim_equations(families[claim.family], claim)
        for coeff in gauged.coefficients() + target.coefficients():
            assert "u" not in coeff.free, claim.id
        assert any("z" in c.free for c in gauged.coefficients()), claim.id


# ---------------------------------------------------------------------------
# gauge mechanics

def test_pochhammer_swaps_the_down_zero(d5):
    eq5 = build_L1(d5)
    gauged = apply_gauge(eq5, ("pochhammer", parse("nu3"), parse("kappa1/nu7")))
    expected_down = parse("-nu1*nu2*(z - q*kappa1/nu7)*(z - q*nu4)/(q*(q*f - z))")
    assert eq(gauged.coeff_down, expected_down, label="poch:down") == "equal"
    expected_up = parse("-(z - nu3)*(z - kappa1/nu8)/(q*(f - z))")
    assert eq(gauged.coeff_up, expected_up, label="poch:up") == "equal"
    assert eq(gauged.coeff_mid, eq5.coeff_mid, label="poch:mid") == "equal"


def test_power_gauge_with_unit_delta_is_identity(d5):
    eq5 = build_L1(d5)
    gauged = apply_gauge(eq5, ("power", parse("1")))
    assert gauged.coeff_up is eq5.coeff_up
    assert gauged.coeff_down is eq5.coeff_down


def test_dilation_substitutes_z_over_c(d5):
    eq5 = build_L1(d5)
    gauged = apply_gauge(eq5, ("dilation", sym("c")))
    # the up coefficient acquires zeros at z = c kappa1/nu7, c kappa1/nu8
    expected = parse("-(z/c - kappa1/nu7)*(z/c - kappa1/nu8)/(q*(f - z/c))")
    assert eq(gauged.coeff_up, expected, label="dil:up") == "equal"
    expected_down = parse("-nu1*nu2*(z/c - q*nu3)*(z/c - q*nu4)/(q*(q*f - z/c))")
    assert eq(gauged.coeff_down, expected_down, label="dil:down") == "equal"


def test_inversion_swaps_up_and_down(d5):
    eq5 = build_L1(d5)
    gauged = apply_gauge(eq5, ("inversion", parse("q*kappa1"), parse("kappa2")))
    # the new down coefficient carries the zeros at z = q nu7, q nu8
    target_down = parse(
        "-nu5*nu6*(z - q*nu7)*(z - q*nu8)/(q*(q*kappa1/f - z)*kappa2)")
    ratio_check = eq(mul(gauged.coeff_down, target_down), ZERO, label="inv:nonzero")
    assert ratio_check == "unequal"  # both nonzero
    # and it is the old up coefficient at z -> c/z, scaled by delta
    old_up_at = parse("-(q*kappa1/z - kappa1/nu7)*(q*kappa1/z - kappa1/nu8)"
                      "/(q*(f - q*kappa1/z))*kappa2")
    assert eq(gauged.coeff_down, old_up_at, label="inv:down") == "equal"
    # and the old down coefficient at z -> c/z, divided by delta, is the new up
    old_down_at = parse("-nu1*nu2*(q*kappa1/z - q*nu3)*(q*kappa1/z - q*nu4)"
                        "/(q*(q*f - q*kappa1/z)*kappa2)")
    assert eq(gauged.coeff_up, old_down_at, label="inv:up") == "equal"


def test_an_unknown_gauge_is_refused(d5):
    eq5, c = build_L1(d5), sym("c")
    with pytest.raises(ValueError) as err:
        apply_gauge(eq5, ("shear", c))
    assert err.value.args == ("unknown gauge 'shear' with 1 argument(s)",)
    with pytest.raises(ValueError) as err:
        apply_gauge(eq5, ("x" * 50_000, c))
    assert err.value.args == ("unknown gauge 'xxxxxxxxxxxxxxxxxxxx...' with 1 argument(s)",)
    # a kind with the wrong number of arguments is no gauge either
    with pytest.raises(ValueError, match="^unknown gauge 'power' with 2 argument"):
        apply_gauge(eq5, ("power", c, c))


def test_pochhammer_round_trip(d5):
    eq5 = build_L1(d5)
    there = apply_gauge(eq5, ("pochhammer", parse("nu3"), parse("kappa1/nu7")))
    back = apply_gauge(there, ("pochhammer", parse("kappa1/nu7"), parse("nu3")))
    assert equations_equivalent(back, eq5, d5.constraint, label="rt:poch").ok


def test_dilation_round_trip(d5):
    eq5 = build_L1(d5)
    out = apply_gauge(apply_gauge(eq5, ("dilation", sym("c"))), ("dilation", parse("1/c")))
    assert equations_equivalent(out, eq5, d5.constraint, label="rt:dil").ok


def test_double_inversion_is_identity_up_to_factor(d5):
    eq5 = build_L1(d5)
    inv = ("inversion", sym("c"), sym("delta"))
    out = apply_gauge(apply_gauge(eq5, inv), inv)
    assert equations_equivalent(out, eq5, d5.constraint, label="rt:inv").ok


# ---------------------------------------------------------------------------
# substitute_params and the equivalence predicate

def test_substitute_params_identity(d5):
    eq5 = build_L1(d5)
    from qpweyl.weyl import IDENTITY
    assert substitute_params(eq5, IDENTITY).coeff_mid is eq5.coeff_mid


def test_substitute_params_rejects_shift_move(d5):
    eq5 = build_L1(d5)
    bad = transformation({"z": "u"})
    with pytest.raises(ValueError, match="moves the spectral variable z"):
        substitute_params(eq5, bad)


def test_e6_s6_target_g_image(e6):
    eq6 = build_L1(e6)
    target = substitute_params(eq6, e6.generators["s6"])
    gtilde = parse("g*nu7*(nu1 - f)/(kappa1 - nu7*f + (nu1*nu7 - kappa1)*f*g)")
    probe = substitute_params(
        eq6, transformation({"nu1": "kappa1/nu7", "nu7": "kappa1/nu1",
                             "kappa2": "kappa1*kappa2/(nu1*nu7)"}))
    # target.mid depends on the g image; the partial map without it differs
    assert eq(target.coeff_mid, probe.coeff_mid, label="s6:g-matters") == "unequal"
    assert eq(e6.generators["s6"].image("g"), gtilde, label="s6:g") == "equal"


def test_scalar_multiple_is_equivalent(d5):
    eq5 = build_L1(d5)
    seven = LinearQDE(mul(parse("7"), eq5.coeff_up),
                      mul(parse("7"), eq5.coeff_mid),
                      mul(parse("7"), eq5.coeff_down))
    assert equations_equivalent(eq5, seven, label="x7").ok
    zfac = LinearQDE(mul(parse("z^2 - q"), eq5.coeff_up),
                     mul(parse("z^2 - q"), eq5.coeff_mid),
                     mul(parse("z^2 - q"), eq5.coeff_down))
    assert equations_equivalent(eq5, zfac, label="xz").ok


def minor_sides(e1, e2, name):
    """The two sides of the named minor a_i b_j - a_j b_i, as compared."""
    i, j = ({"up": 0, "mid": 1, "down": 2}[part] for part in name.split(":"))
    a, b = e1.coefficients(), e2.coefficients()
    return mul(a[i], b[j]), mul(a[j], b[i])


def test_wrong_substitution_is_not_equivalent(d5):
    eq5 = build_L1(d5)
    gauged = apply_gauge(eq5, ("pochhammer", parse("nu3"), parse("kappa1/nu7")))
    wrong = substitute_params(eq5, d5.generators["s0"])
    res = equations_equivalent(gauged, wrong, d5.constraint, label="wrong")
    assert res.status == "fail"
    # the named minor's two sides differ at the witness
    name = re.fullmatch(r"images of (\w+:\w+) differ", res.detail).group(1)
    left, right = (evaluate(d5.constraint.apply(side), res.witness, DEFAULT_PRIME)
                   for side in minor_sides(gauged, wrong, name))
    assert left != right


def test_equivalence_is_an_equivalence_relation(d5):
    eq5 = build_L1(d5)
    variants = [
        eq5,
        LinearQDE(mul(parse("3"), eq5.coeff_up), mul(parse("3"), eq5.coeff_mid),
                  mul(parse("3"), eq5.coeff_down)),
        LinearQDE(mul(parse("z - q"), eq5.coeff_up), mul(parse("z - q"), eq5.coeff_mid),
                  mul(parse("z - q"), eq5.coeff_down)),
    ]
    for a in variants:
        assert equations_equivalent(a, a, label="refl").ok
    for a, b in itertools.permutations(variants, 2):
        assert equations_equivalent(a, b, label="sym").ok


def test_zero_mid_coefficients_compare_up_and_down():
    a = LinearQDE(parse("z - nu1"), ZERO, parse("z - nu2"))
    b = LinearQDE(parse("7*(z - nu1)"), ZERO, parse("7*(z - nu2)"))
    assert equations_equivalent(a, b, label="zero-mid").ok
    c = LinearQDE(parse("z - nu1"), ZERO, parse("z - nu3"))
    res = equations_equivalent(a, c, label="zero-mid2")
    assert (res.status, res.detail) == ("fail", "images of up:down differ")


def test_all_zero_equation_is_degenerate():
    zero_eq = LinearQDE(ZERO, ZERO, ZERO)
    res = equations_equivalent(zero_eq, zero_eq, label="degen")
    assert res.status == "degenerate"
    assert res.detail == "no coefficient of equation 1 is nonzero at a sample point for 'degen'"


@pytest.mark.parametrize("first", [True, False])
def test_zero_equation_against_l1_is_degenerate(d5, first):
    # Every minor of a zero equation vanishes: only the nonzero proof keeps
    # the check from passing, in either argument order.
    eq5, zero_eq = build_L1(d5), LinearQDE(ZERO, ZERO, ZERO)
    e1, e2 = (zero_eq, eq5) if first else (eq5, zero_eq)
    res = equations_equivalent(e1, e2, d5.constraint, label="zero")
    assert res.status == "degenerate"
    assert res.detail == (f"no coefficient of equation {1 if first else 2} is nonzero"
                          " at a sample point for 'zero'")


def test_equation_whose_every_coefficient_is_a_pole_is_degenerate():
    # Every sample point is a pole of each coefficient, so the nonzero proof
    # of the second equation exhausts its points; the minors, which would be
    # poles too, are never compared.
    pole = parse("z/(f - f)")
    a = LinearQDE(pole, pole, pole)
    b = LinearQDE(parse("z - nu1"), parse("z"), parse("z - nu2"))
    res = equations_equivalent(b, a, cfg=CheckConfig(trials=2), label="poles")
    assert res.status == "degenerate"
    assert res.detail == "exhausted 200 sampling attempts for 'poles:eq2'"


def test_degenerate_minor_is_returned_as_it_is():
    # The mid coefficient is a pole at every sample point, but up is shown
    # nonzero first, so the first minor, mid:up, is compared and exhausts
    # its points.
    a = LinearQDE(parse("z - nu1"), parse("z/(f - f)"), parse("z - nu2"))
    res = equations_equivalent(a, a, cfg=CheckConfig(trials=2), label="minor")
    assert res.status == "degenerate"
    assert res.id == "minor"
    assert res.detail == "exhausted 200 sampling attempts for 'minor:mid:up'"


def test_gauge_claim_on_zero_equation_is_degenerate(monkeypatch, d5):
    import qpweyl.lax as lax
    monkeypatch.setattr(lax, "build_L1", lambda fam: LinearQDE(ZERO, ZERO, ZERO))
    result = verify_gauge_claim(d5, "d5.s2")
    assert result.status == "degenerate"
    assert result.detail == (f"{CLAIMS['d5.s2'].note}: no coefficient of equation 1"
                             " is nonzero at a sample point for 'd5.s2'")
    assert not result.ok


def test_gauge_claim_with_pole_everywhere_is_degenerate(monkeypatch, d5):
    import qpweyl.lax as lax
    eq5 = build_L1(d5)
    broken = LinearQDE(parse("z/(f - f)"), eq5.coeff_mid, eq5.coeff_down)
    monkeypatch.setattr(lax, "build_L1", lambda fam: broken)
    result = verify_gauge_claim(d5, "d5.s2", CheckConfig(trials=2))
    assert result.status == "degenerate"
    assert "exhausted" in result.detail


def shown_nonzero(c):
    """Whether sampling shows c nonzero; None when every point is a pole."""
    try:
        return identities_equal(c, ZERO).verdict == "unequal"
    except DegenerateComparison:
        return None


_TRIPLES = st.tuples(small_dags(), small_dags(), small_dags())


@settings(max_examples=100, deadline=None)
@given(_TRIPLES, small_dags())
def test_an_equation_is_equivalent_to_a_nonzero_multiple(coefficients, r):
    shown = [shown_nonzero(c) for c in (*coefficients, r)]
    assume(None not in shown and any(shown[:3]) and shown[3])
    multiple = LinearQDE(*(mul(r, c) for c in coefficients))
    assert equations_equivalent(LinearQDE(*coefficients), multiple, label="re").ok


@settings(max_examples=100, deadline=None)
@given(_TRIPLES, st.integers(0, 2))
def test_one_coefficient_plus_one_fails_at_a_minor(coefficients, k):
    # Another coefficient is nonzero, so no common factor can absorb the 1.
    shown = [shown_nonzero(c) for c in coefficients]
    assume(None not in shown and any(shown[:k] + shown[k + 1:]))
    e = LinearQDE(*coefficients)
    bumped = LinearQDE(*(add(c, num(1)) if i == k else c for i, c in enumerate(coefficients)))
    res = equations_equivalent(e, bumped, label="bump")
    assert res.status == "fail"
    name = re.fullmatch(r"images of (\w+:\w+) differ", res.detail).group(1)
    assert evaluate(sub(*minor_sides(e, bumped, name)), res.witness, DEFAULT_PRIME) != 0


def test_exact_gauge_passes_keep_their_mark(families):
    # With --exact, the minors of five claims are proved; every other pass
    # keeps its claim's note.
    cfg = CheckConfig(exact=True)
    checks = [c for fam in families.values() for c in verify_gauge_claims(fam, cfg).checks]
    assert all(c.ok for c in checks)
    assert [c.id for c in checks if c.detail == "exact"] == [
        "d5.s2", "d5.G", "d5.D", "d5.inversion", "e6.S"]
    assert all(c.detail == CLAIMS[c.id].note for c in checks if c.detail != "exact")


# ---------------------------------------------------------------------------
# the registry

def test_registry_ids():
    assert set(CLAIMS) == {
        "d5.s2", "d5.s2s1s0s2", "d5.G", "d5.D", "d5.inversion",
        "e6.s6", "e6.S", "e7.s0s4s0", "e7.S",
    }


def test_unknown_claim_id_is_quoted_at_most_24_characters(d5):
    with pytest.raises(KeyError) as err:
        verify_gauge_claim(d5, "d5.s9")
    assert err.value.args == ("unknown claim id 'd5.s9'",)
    with pytest.raises(KeyError) as err:
        verify_gauge_claim(d5, "x" * 50_000)
    assert err.value.args == ("unknown claim id 'xxxxxxxxxxxxxxxxxxxx...'",)


@pytest.mark.parametrize("claim_id", sorted(CLAIMS))
def test_gauge_claim_passes(families, claim_id):
    fam = families[CLAIMS[claim_id].family]
    result = verify_gauge_claim(fam, claim_id)
    assert result.ok, result


@pytest.mark.parametrize("fam_name", ["D5", "E6", "E7"])
def test_gauge_claims_without_constraint_fail_with_sound_witness(families, fam_name):
    # Every claim that fails without the constraint fails at a point where
    # the two sides of a minor differ.
    fam = families[fam_name]
    cfg = CheckConfig(use_constraint=False)
    failed = [c for c in verify_gauge_claims(fam, cfg).checks if c.status == "fail"]
    assert failed
    for res in failed:
        claim = CLAIMS[res.id]
        assert res.detail == f"{claim.note}: mismatch"
        gauged, target = claim_equations(fam, claim)
        assert any(evaluate(left, res.witness, DEFAULT_PRIME)
                   != evaluate(right, res.witness, DEFAULT_PRIME)
                   for left, right in (minor_sides(gauged, target, name)
                                       for name in ("mid:up", "mid:down", "up:down"))), res.id


def test_unknown_claim_id(d5):
    with pytest.raises(KeyError):
        verify_gauge_claim(d5, "d5.nonsense")
    with pytest.raises(ValueError):
        verify_gauge_claim(d5, "e6.s6")


def test_verify_gauge_claims_per_family(monkeypatch, families):
    # Each claim builds its family's equation once; the texts' parses are
    # kept, so every build holds the same coefficient nodes.
    import qpweyl.lax as lax
    assert build_L1(families["E7"]).coefficients() == build_L1(families["E7"]).coefficients()
    builds = []
    monkeypatch.setattr(lax, "build_L1", lambda fam: builds.append(fam.name) or build_L1(fam))
    counts = {"D5": 5, "E6": 2, "E7": 2}
    for name, fam in families.items():
        report = verify_gauge_claims(fam)
        assert len(report.checks) == counts[name]
        assert report.ok
    assert builds == [claim.family for claim in CLAIMS.values()]


#: Closed-form table for the composite s0 s4 s0 of the E7 family; the claim
#: target uses the word, and the test below cross-checks the two.
E7_S0S4S0_TABLE = {
    "nu1": "kappa1/nu5",
    "nu5": "kappa1/nu1",
    "kappa2": "kappa1*kappa2/(nu1*nu5)",
    "g": "nu5*(-(nu1*nu5 - kappa1) + nu1*(kappa2 - kappa1)*g + (nu1*nu5 - kappa2)*f*g)"
         "/(-kappa1*(nu1*nu5 - kappa2) - nu5*(kappa2 - kappa1)*f + kappa2*(nu1*nu5 - kappa1)*f*g)",
}


def test_e7_s0s4s0_word_matches_closed_form(e7):
    word = word_to_transform(e7, "s0 s4 s0")
    table = transformation(E7_S0S4S0_TABLE)
    for name in ("q", "nu1", "nu2", "nu5", "nu8", "kappa1", "kappa2", "f", "g"):
        assert eq(word.image(name), table.image(name),
                  label=f"s0s4s0:{name}") == "equal"


def test_e7_pochhammer_without_power_completion_fails(e7):
    # the Pochhammer ratio alone leaves the residual factor pair
    # (nu1 nu5/kappa1, kappa1/(nu1 nu5)) on up/down
    eq7 = build_L1(e7)
    gauged = apply_gauge(eq7, ("pochhammer", parse("nu1"), parse("kappa1/nu5")))
    target = substitute_params(eq7, word_to_transform(e7, "s0 s4 s0"))
    assert not equations_equivalent(gauged, target, e7.constraint, label="e7:bare").ok
    completed = apply_gauge(gauged, ("power", parse("kappa1/(nu1*nu5)")))
    assert equations_equivalent(completed, target, e7.constraint, label="e7:full").ok


def test_d5_double_gauge_is_composition_of_singles(d5):
    eq5 = build_L1(d5)
    one = apply_gauge(eq5, ("pochhammer", parse("nu3"), parse("kappa1/nu7")))
    two = apply_gauge(one, ("pochhammer", parse("nu4"), parse("kappa1/nu8")))
    other_order = apply_gauge(
        apply_gauge(eq5, ("pochhammer", parse("nu4"), parse("kappa1/nu8"))),
        ("pochhammer", parse("nu3"), parse("kappa1/nu7")))
    assert equations_equivalent(two, other_order, d5.constraint, label="order").ok
    target = substitute_params(eq5, word_to_transform(d5, "s2 s1 s0 s2"))
    assert equations_equivalent(two, target, d5.constraint, label="double").ok


def test_d5_power_scaling_induces_stated_composite_action(d5):
    s = sym("s")
    G = _scaling("d5_power", s)
    assert eq(G(parse("nu5/kappa2")), mul(s, parse("nu5/kappa2")), label="G:52") == "equal"
    assert eq(G(parse("nu6/kappa2")), mul(s, parse("nu6/kappa2")), label="G:62") == "equal"
    assert eq(G(parse("nu7/kappa1")), parse("nu7/kappa1"), label="G:71") == "equal"
    assert eq(G(parse("nu1")), parse("nu1/s"), label="G:1") == "equal"
    assert eq(G(parse("g")), parse("s*g"), label="G:g") == "equal"


def test_d5_dilation_scaling_induces_stated_composite_action(d5):
    c = sym("c")
    D = _scaling("d5_dilation", c)
    assert eq(D(parse("nu3")), parse("c*nu3"), label="D:3") == "equal"
    assert eq(D(parse("nu7/kappa1")), parse("nu7/kappa1/c"), label="D:71") == "equal"
    assert eq(D(parse("f")), parse("c*f"), label="D:f") == "equal"
    assert eq(D(parse("nu5/kappa2")), parse("nu5/kappa2"), label="D:52") == "equal"
