"""Linear q-difference equations, gauge mechanics and the claim registry."""

import itertools

import pytest

from qpweyl.expr import ZERO, mul, parse, sym
from qpweyl.identity import identities_equal
from qpweyl.lax import (
    CLAIMS,
    Dilation,
    E7_S0S4S0_TABLE,
    Inversion,
    LinearQDE,
    Pochhammer,
    PowerGauge,
    apply_gauge,
    build_L1,
    d5_dilation_scaling,
    d5_power_scaling,
    equations_equivalent,
    rename_shift,
    substitute_params,
    verify_gauge_claim,
    verify_gauge_claims,
)
from qpweyl.weyl import CheckConfig, transformation, word_to_transform


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
    assert eq5.shift_var == "z"


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
    for fam in families.values():
        eqn = build_L1(fam)
        for coeff in eqn.coefficients():
            assert "u" not in coeff.free


# ---------------------------------------------------------------------------
# gauge mechanics

def test_pochhammer_swaps_the_down_zero(d5):
    eq5 = build_L1(d5)
    gauged = apply_gauge(eq5, Pochhammer(parse("nu3"), parse("kappa1/nu7")))
    expected_down = parse("-nu1*nu2*(z - q*kappa1/nu7)*(z - q*nu4)/(q*(q*f - z))")
    assert eq(gauged.coeff_down, expected_down, label="poch:down") == "equal"
    expected_up = parse("-(z - nu3)*(z - kappa1/nu8)/(q*(f - z))")
    assert eq(gauged.coeff_up, expected_up, label="poch:up") == "equal"
    assert eq(gauged.coeff_mid, eq5.coeff_mid, label="poch:mid") == "equal"


def test_power_gauge_with_unit_delta_is_identity(d5):
    eq5 = build_L1(d5)
    gauged = apply_gauge(eq5, PowerGauge(parse("1")))
    assert gauged.coeff_up is eq5.coeff_up
    assert gauged.coeff_down is eq5.coeff_down


def test_dilation_moves_to_u(d5):
    eq5 = build_L1(d5)
    gauged = apply_gauge(eq5, Dilation(sym("c")))
    assert gauged.shift_var == "u"
    assert "z" not in gauged.coeff_mid.free
    # the up coefficient acquires zeros at u = c kappa1/nu7, c kappa1/nu8
    expected = parse("-(u/c - kappa1/nu7)*(u/c - kappa1/nu8)/(q*(f - u/c))")
    assert eq(gauged.coeff_up, expected, label="dil:up") == "equal"


def test_inversion_swaps_up_and_down(d5):
    eq5 = build_L1(d5)
    gauged = apply_gauge(eq5, Inversion(parse("q*kappa1"), parse("kappa2")))
    assert gauged.shift_var == "u"
    # the new down coefficient carries the zeros at u = q nu7, q nu8
    target_down = parse(
        "-nu5*nu6*(u - q*nu7)*(u - q*nu8)/(q*(q*kappa1/f - u)*kappa2)")
    ratio_check = eq(mul(gauged.coeff_down, target_down), ZERO, label="inv:nonzero")
    assert ratio_check == "unequal"  # both nonzero
    # and it is the old up coefficient at z = c/u, scaled by delta
    old_up_at = parse("-(q*kappa1/u - kappa1/nu7)*(q*kappa1/u - kappa1/nu8)"
                      "/(q*(f - q*kappa1/u))*kappa2")
    assert eq(gauged.coeff_down, old_up_at, label="inv:down") == "equal"


def test_pochhammer_round_trip(d5):
    eq5 = build_L1(d5)
    there = apply_gauge(eq5, Pochhammer(parse("nu3"), parse("kappa1/nu7")))
    back = apply_gauge(there, Pochhammer(parse("kappa1/nu7"), parse("nu3")))
    assert equations_equivalent(back, eq5, d5.constraint, label="rt:poch")


def test_dilation_round_trip(d5):
    eq5 = build_L1(d5)
    out = apply_gauge(apply_gauge(eq5, Dilation(sym("c"))), Dilation(parse("1/c")))
    assert out.shift_var == "z"
    assert equations_equivalent(out, eq5, d5.constraint, label="rt:dil")


def test_double_inversion_is_identity_up_to_factor(d5):
    eq5 = build_L1(d5)
    inv = Inversion(sym("c"), sym("delta"))
    out = apply_gauge(apply_gauge(eq5, inv), inv)
    assert out.shift_var == "z"
    assert equations_equivalent(out, eq5, d5.constraint, label="rt:inv")


# ---------------------------------------------------------------------------
# substitute_params and the equivalence predicate

def test_substitute_params_identity(d5):
    eq5 = build_L1(d5)
    from qpweyl.weyl import IDENTITY
    assert substitute_params(eq5, IDENTITY).coeff_mid is eq5.coeff_mid


def test_substitute_params_rejects_shift_move(d5):
    eq5 = build_L1(d5)
    bad = transformation({"z": "u"})
    with pytest.raises(ValueError):
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
                      mul(parse("7"), eq5.coeff_down), "z")
    assert equations_equivalent(eq5, seven, label="x7")
    zfac = LinearQDE(mul(parse("z^2 - q"), eq5.coeff_up),
                     mul(parse("z^2 - q"), eq5.coeff_mid),
                     mul(parse("z^2 - q"), eq5.coeff_down), "z")
    assert equations_equivalent(eq5, zfac, label="xz")


def test_wrong_substitution_is_not_equivalent(d5):
    eq5 = build_L1(d5)
    gauged = apply_gauge(eq5, Pochhammer(parse("nu3"), parse("kappa1/nu7")))
    wrong = substitute_params(eq5, d5.generators["s0"])
    assert not equations_equivalent(gauged, wrong, d5.constraint, label="wrong")


def test_equivalence_is_an_equivalence_relation(d5):
    eq5 = build_L1(d5)
    variants = [
        eq5,
        LinearQDE(mul(parse("3"), eq5.coeff_up), mul(parse("3"), eq5.coeff_mid),
                  mul(parse("3"), eq5.coeff_down), "z"),
        LinearQDE(mul(parse("z - q"), eq5.coeff_up), mul(parse("z - q"), eq5.coeff_mid),
                  mul(parse("z - q"), eq5.coeff_down), "z"),
    ]
    for a in variants:
        assert equations_equivalent(a, a, label="refl")
    for a, b in itertools.permutations(variants, 2):
        assert equations_equivalent(a, b, label="sym")


def test_shift_var_mismatch_rejected(d5):
    eq5 = build_L1(d5)
    other = rename_shift(eq5, "u")
    with pytest.raises(ValueError):
        equations_equivalent(eq5, other)


def test_zero_mid_falls_back_to_up_pivot():
    from qpweyl.expr import ZERO
    a = LinearQDE(parse("z - nu1"), ZERO, parse("z - nu2"), "z")
    b = LinearQDE(parse("7*(z - nu1)"), ZERO, parse("7*(z - nu2)"), "z")
    assert equations_equivalent(a, b, label="fallback")
    c = LinearQDE(parse("z - nu1"), ZERO, parse("z - nu3"), "z")
    assert not equations_equivalent(a, c, label="fallback2")


def test_all_zero_equation_is_degenerate():
    from qpweyl.expr import ZERO
    from qpweyl.lax import DegenerateEquation
    zero_eq = LinearQDE(ZERO, ZERO, ZERO, "z")
    with pytest.raises(DegenerateEquation):
        equations_equivalent(zero_eq, zero_eq, label="degen")


def test_gauge_claim_on_zero_equation_is_degenerate(monkeypatch, d5):
    import qpweyl.lax as lax
    monkeypatch.setattr(lax, "build_L1", lambda fam: LinearQDE(ZERO, ZERO, ZERO, "z"))
    result = verify_gauge_claim(d5, "d5.s2")
    assert result.status == "degenerate"
    assert "pivot" in result.detail
    assert not result.ok


def test_gauge_claim_with_pole_everywhere_is_degenerate(monkeypatch, d5):
    import qpweyl.lax as lax
    eq5 = build_L1(d5)
    broken = LinearQDE(parse("z/(f - f)"), eq5.coeff_mid, eq5.coeff_down, "z")
    monkeypatch.setattr(lax, "build_L1", lambda fam: broken)
    result = verify_gauge_claim(d5, "d5.s2", CheckConfig(trials=2))
    assert result.status == "degenerate"
    assert "exhausted" in result.detail


# ---------------------------------------------------------------------------
# the registry

def test_registry_ids():
    assert set(CLAIMS) == {
        "d5.s2", "d5.s2s1s0s2", "d5.G", "d5.D", "d5.inversion",
        "e6.s6", "e6.S", "e7.s0s4s0", "e7.S",
    }


@pytest.mark.parametrize("claim_id", sorted(CLAIMS))
def test_gauge_claim_passes(families, claim_id):
    fam = families[CLAIMS[claim_id].family]
    result = verify_gauge_claim(fam, claim_id)
    assert result.ok, result


def test_unknown_claim_id(d5):
    with pytest.raises(KeyError):
        verify_gauge_claim(d5, "d5.nonsense")
    with pytest.raises(ValueError):
        verify_gauge_claim(d5, "e6.s6")


def test_verify_gauge_claims_per_family(families):
    counts = {"D5": 5, "E6": 2, "E7": 2}
    for name, fam in families.items():
        report = verify_gauge_claims(fam)
        assert len(report.checks) == counts[name]
        assert report.ok


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
    gauged = apply_gauge(eq7, Pochhammer(parse("nu1"), parse("kappa1/nu5")))
    target = substitute_params(eq7, word_to_transform(e7, "s0 s4 s0"))
    assert not equations_equivalent(gauged, target, e7.constraint, label="e7:bare")
    completed = apply_gauge(gauged, PowerGauge(parse("kappa1/(nu1*nu5)")))
    assert equations_equivalent(completed, target, e7.constraint, label="e7:full")


def test_d5_double_gauge_is_composition_of_singles(d5):
    eq5 = build_L1(d5)
    one = apply_gauge(eq5, Pochhammer(parse("nu3"), parse("kappa1/nu7")))
    two = apply_gauge(one, Pochhammer(parse("nu4"), parse("kappa1/nu8")))
    other_order = apply_gauge(
        apply_gauge(eq5, Pochhammer(parse("nu4"), parse("kappa1/nu8"))),
        Pochhammer(parse("nu3"), parse("kappa1/nu7")))
    assert equations_equivalent(two, other_order, d5.constraint, label="order")
    target = substitute_params(eq5, word_to_transform(d5, "s2 s1 s0 s2"))
    assert equations_equivalent(two, target, d5.constraint, label="double")


def test_d5_power_scaling_induces_stated_composite_action(d5):
    s = sym("s")
    G = d5_power_scaling(s)
    assert eq(G(parse("nu5/kappa2")), mul(s, parse("nu5/kappa2")), label="G:52") == "equal"
    assert eq(G(parse("nu6/kappa2")), mul(s, parse("nu6/kappa2")), label="G:62") == "equal"
    assert eq(G(parse("nu7/kappa1")), parse("nu7/kappa1"), label="G:71") == "equal"
    assert eq(G(parse("nu1")), parse("nu1/s"), label="G:1") == "equal"
    assert eq(G(parse("g")), parse("s*g"), label="G:g") == "equal"


def test_d5_dilation_scaling_induces_stated_composite_action(d5):
    c = sym("c")
    D = d5_dilation_scaling(c)
    assert eq(D(parse("nu3")), parse("c*nu3"), label="D:3") == "equal"
    assert eq(D(parse("nu7/kappa1")), parse("nu7/kappa1/c"), label="D:71") == "equal"
    assert eq(D(parse("f")), parse("c*f"), label="D:f") == "equal"
    assert eq(D(parse("nu5/kappa2")), parse("nu5/kappa2"), label="D:52") == "equal"
