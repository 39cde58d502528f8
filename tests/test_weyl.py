"""Family tables, composition convention, relation suites, closed-form fixtures.

The composition convention is pinned by independent hand chains: applying a
transformation to an expression substitutes every symbol by its image, and
the rightmost letter of a word acts first.
"""

import pytest

from qpweyl.expr import parse, substitute, sym
from qpweyl.identity import identities_equal
from qpweyl.weyl import (
    IDENTITY,
    CheckConfig,
    _image_pairs,
    check,
    compose,
    make_family,
    parse_word,
    verify_braid,
    verify_involutions,
    verify_pi_relations,
    word_to_transform,
)


def eq(a, b, constraint=None, label=""):
    return identities_equal(a, b, constraint, label=label or "t").verdict


# ---------------------------------------------------------------------------
# construction and structure

def test_make_family_rejects_unknown():
    with pytest.raises(ValueError):
        make_family("X9")


def test_d5_table_spot_values(d5):
    s3 = d5.generators["s3"]
    assert s3.image("f") is parse("f*(g - 1/nu1)/(g - nu5/kappa2)")
    s2 = d5.generators["s2"]
    assert s2.image("kappa2") is parse("kappa1*kappa2/(nu3*nu7)")
    assert s2.image("nu5") is sym("nu5")


def test_e6_table_spot_values(e6):
    pi2 = e6.generators["pi2"]
    assert pi2.image("f") is sym("g")
    assert pi2.image("g") is sym("f")
    s6 = e6.generators["s6"]
    assert s6.image("g") is parse(
        "g*nu7*(nu1 - f)/(kappa1 - nu7*f + (nu1*nu7 - kappa1)*f*g)")


def test_e7_table_spot_values(e7):
    s0 = e7.generators["s0"]
    assert s0.image("kappa1") is sym("kappa2")
    assert s0.image("f") is parse("1/g")
    assert s0.image("g") is parse("1/f")


def test_generator_parameter_images_avoid_f_g_z(families):
    forbidden = {"f", "g", "z"}
    for fam in families.values():
        for name, gen in fam.generators.items():
            for symbol, image in gen.images.items():
                if symbol in ("f", "g"):
                    assert "z" not in image.free, (fam.name, name, symbol)
                else:
                    assert not (image.free & forbidden), (fam.name, name, symbol)


def test_dynkin_edges(families):
    assert families["D5"].dynkin_edges == frozenset(
        {(0, 2), (1, 2), (2, 3), (3, 4), (3, 5)})
    assert families["E6"].dynkin_edges == frozenset(
        {(1, 2), (2, 3), (3, 4), (4, 5), (3, 6), (0, 6)})
    assert families["E7"].dynkin_edges == frozenset(
        {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 4)})


def test_round_trip_of_all_generator_images(families):
    from qpweyl.expr import to_string
    for fam in families.values():
        for gen in fam.generators.values():
            for image in gen.images.values():
                assert parse(to_string(image)) is image
        for image in fam.xi.images.values():
            assert parse(to_string(image)) is image


# ---------------------------------------------------------------------------
# words and composition

def test_parse_word_plain_and_grouped():
    assert parse_word("pi2 pi1 s2 s1 s0 s2") == ("pi2", "pi1", "s2", "s1", "s0", "s2")
    assert parse_word("(pi2 pi1)^2") == ("pi2", "pi1", "pi2", "pi1")
    assert parse_word("") == ()
    with pytest.raises(ValueError):
        parse_word("(s1 s2")


def test_identity_word_is_identity(d5):
    t = word_to_transform(d5, "")
    assert t.image("f") is sym("f")


def test_unknown_generator_name(d5):
    with pytest.raises(KeyError):
        word_to_transform(d5, "s9")


def test_compose_identity(d5):
    t = d5.generators["s2"]
    for name in ("nu3", "kappa2", "g"):
        assert compose(IDENTITY, t).image(name) is t.image(name)
        assert compose(t, IDENTITY).image(name) is t.image(name)


def test_compose_pi2_pi1_on_nu1_matches_hand_chain(d5):
    # oracle: pi1 sends nu1 to 1/nu1, then substituting pi2's images into
    # 1/nu1 gives 1/(1/nu7) = nu7
    pi1, pi2 = d5.generators["pi1"], d5.generators["pi2"]
    step1 = pi1.image("nu1")
    assert step1 is parse("1/nu1")
    step2 = substitute(step1, pi2.images)
    assert step2 is sym("nu7")
    assert compose(pi2, pi1).image("nu1") is step2


def test_rightmost_letter_acts_first(d5):
    # word "pi2 pi1" must equal compose(pi2, pi1), i.e. pi1 applied first
    t = word_to_transform(d5, "pi2 pi1")
    assert t.image("nu1") is sym("nu7")
    # the opposite convention would give compose(pi1, pi2)
    other = compose(d5.generators["pi1"], d5.generators["pi2"])
    assert other.image("nu1") is not sym("nu7")


def test_word_concatenation_matches_composition(d5):
    w1, w2 = "pi2 pi1", "s2 s1 s0 s2"
    combined = word_to_transform(d5, f"{w1} {w2}")
    split = compose(word_to_transform(d5, w1), word_to_transform(d5, w2))
    for name in ("q", "nu1", "nu3", "nu7", "kappa1", "kappa2", "f", "g"):
        assert eq(combined.image(name), split.image(name),
                  label=f"concat:{name}") == "equal"


# ---------------------------------------------------------------------------
# closed-form fixtures for the composite s = pi2 pi1 s2 s1 s0 s2 of the D5 family

D5_S_FIXTURES = {
    "nu1": "nu7", "nu2": "nu8", "nu3": "kappa2/nu6", "nu4": "kappa2/nu5",
    "nu5": "nu3", "nu6": "nu4", "nu7": "kappa2/nu2", "nu8": "kappa2/nu1",
    "kappa1": "kappa2", "kappa2": "kappa1*kappa2^2/(nu1*nu2*nu5*nu6)",
    "f": "1/g",
    "g": "kappa1*f*(g - 1/nu1)*(g - 1/nu2)"
         "/(q*nu3*nu4*nu7*nu8*(g - nu5/kappa2)*(g - nu6/kappa2))",
}

D5_S2_FIXTURES = {
    "nu1": "kappa2/nu2", "nu2": "kappa2/nu1",
    "nu3": "q*nu3*nu7*nu8/kappa1", "nu4": "q*nu4*nu7*nu8/kappa1",
    "nu5": "kappa2/nu6", "nu6": "kappa2/nu5",
    "nu7": "q*nu3*nu4*nu7/kappa1", "nu8": "q*nu3*nu4*nu8/kappa1",
    "kappa1": "q*nu3*nu4*nu7*nu8/kappa1", "kappa2": "q*kappa2^3/(nu1*nu2*nu5*nu6)",
    "f": "q*nu3*nu4*nu7*nu8*(g - nu5/kappa2)*(g - nu6/kappa2)"
         "/(kappa1*f*(g - 1/nu1)*(g - 1/nu2))",
}


@pytest.mark.parametrize("symbol,expected", sorted(D5_S_FIXTURES.items()))
def test_d5_s_fixture(d5, symbol, expected):
    s = word_to_transform(d5, "pi2 pi1 s2 s1 s0 s2")
    assert eq(s.image(symbol), parse(expected), d5.constraint,
              label=f"d5s:{symbol}") == "equal"


def test_d5_s_kappa2_dual_form(d5):
    s = word_to_transform(d5, "pi2 pi1 s2 s1 s0 s2")
    assert eq(s.image("kappa2"), parse("kappa1*kappa2^2/(nu1*nu2*nu5*nu6)"),
              label="d5s:k2:exact") == "equal"
    assert eq(s.image("kappa2"), parse("q*nu3*nu4*nu7*nu8/kappa1"),
              label="d5s:k2:nc") == "unequal"
    assert eq(s.image("kappa2"), parse("q*nu3*nu4*nu7*nu8/kappa1"),
              d5.constraint, label="d5s:k2:c") == "equal"


@pytest.mark.parametrize("symbol,expected", sorted(D5_S2_FIXTURES.items()))
def test_d5_s_squared_fixture(d5, symbol, expected):
    t = word_to_transform(d5, "(pi2 pi1 s2 s1 s0 s2)^2")
    assert eq(t.image(symbol), parse(expected), d5.constraint,
              label=f"d5s2:{symbol}") == "equal"


def test_d5_word_square_on_kappa1_without_constraint_differs(d5):
    t = word_to_transform(d5, "(pi2 pi1 s2 s1 s0 s2)^2")
    assert eq(t.image("kappa1"), parse("q*nu3*nu4*nu7*nu8/kappa1"),
              label="d5s2:k1:nc") == "unequal"


# E6 composite fixtures

E6_S_FIXTURES = {
    "nu1": "kappa2/nu4", "nu2": "kappa2/nu3", "nu3": "kappa2/nu2",
    "nu4": "kappa2/nu1", "nu5": "nu8", "nu6": "nu7",
    "nu7": "kappa2/nu5", "nu8": "kappa2/nu6",
    "kappa1": "kappa2",
    "kappa2": "kappa1*kappa2^3/(nu1*nu2*nu3*nu4*nu5*nu6)",
    "f": "kappa2*g",
}

E6_S2_FIXTURES = {
    "nu1": "q*nu1*nu7*nu8/kappa1", "nu2": "q*nu2*nu7*nu8/kappa1",
    "nu3": "q*nu3*nu7*nu8/kappa1", "nu4": "q*nu4*nu7*nu8/kappa1",
    "nu5": "kappa2/nu6", "nu6": "kappa2/nu5",
    "nu7": "q*nu7*kappa2/kappa1", "nu8": "q*nu8*kappa2/kappa1",
    "kappa1": "q*nu7*nu8*kappa2/kappa1",
    "kappa2": "q^2*nu7*nu8*kappa2^2/(nu5*nu6*kappa1)",
}


@pytest.mark.parametrize("symbol,expected", sorted(E6_S_FIXTURES.items()))
def test_e6_s_fixture(e6, symbol, expected):
    s = word_to_transform(e6, "pi1 pi2 s4 s5 s3 s6 s4 s3 s0 s6")
    assert eq(s.image(symbol), parse(expected), e6.constraint,
              label=f"e6s:{symbol}") == "equal"


def test_e6_s_g_relation(e6):
    # 1/(kappa2 s(g)) = g + f prod(g - 1/nu_i) / ((1 - f g)(g - nu5/k2)(g - nu6/k2))
    s = word_to_transform(e6, " ".join(e6.evolution_word))
    lhs = parse("1/(kappa2*SG)", extra_symbols=("SG",))
    lhs = substitute(lhs, {"SG": s.image("g")})
    rhs = parse("g + f*(g - 1/nu1)*(g - 1/nu2)*(g - 1/nu3)*(g - 1/nu4)"
                "/((1 - f*g)*(g - nu5/kappa2)*(g - nu6/kappa2))")
    assert eq(lhs, rhs, e6.constraint, label="e6:sg") == "equal"


def test_e6_dual_kappa2_expression(e6):
    s = word_to_transform(e6, " ".join(e6.evolution_word))
    assert eq(s.image("kappa2"), parse("q*nu7*nu8*kappa2/kappa1"),
              e6.constraint, label="e6:k2dual") == "equal"


@pytest.mark.parametrize("symbol,expected", sorted(E6_S2_FIXTURES.items()))
def test_e6_s_squared_fixture(e6, symbol, expected):
    t = word_to_transform(e6, "(pi1 pi2 s4 s5 s3 s6 s4 s3 s0 s6)^2")
    assert eq(t.image(symbol), parse(expected), e6.constraint,
              label=f"e6s2:{symbol}") == "equal"


# E7 composite fixtures

@pytest.mark.parametrize("i", range(1, 9))
def test_e7_s_nu_fixture(e7, i):
    s = word_to_transform(e7, " ".join(e7.evolution_word))
    assert eq(s.image(f"nu{i}"), parse(f"kappa2/nu{9 - i}"),
              label=f"e7s:nu{i}") == "equal"


def test_e7_s_kappa_and_f(e7):
    s = word_to_transform(e7, " ".join(e7.evolution_word))
    assert eq(s.image("kappa1"), sym("kappa2"), label="e7s:k1") == "equal"
    assert eq(s.image("f"), parse("1/g"), label="e7s:f") == "equal"
    # the kappa2 image needs the constraint
    assert eq(s.image("kappa2"), parse("q*kappa2^2/kappa1"),
              label="e7s:k2:nc") == "unequal"
    assert eq(s.image("kappa2"), parse("q*kappa2^2/kappa1"),
              e7.constraint, label="e7s:k2:c") == "equal"


def test_e7_s_g_relation(e7):
    s = word_to_transform(e7, " ".join(e7.evolution_word))
    lhs = parse("(SG/g - kappa1/(q*kappa2))*(f*g - 1)"
                "/((SG/g - 1)*(f*g - kappa1/kappa2))", extra_symbols=("SG",))
    lhs = substitute(lhs, {"SG": s.image("g")})
    rhs = parse("kappa1/(q*kappa2)*(g - 1/nu1)*(g - 1/nu2)*(g - 1/nu3)*(g - 1/nu4)"
                "/((g - nu5/kappa2)*(g - nu6/kappa2)*(g - nu7/kappa2)*(g - nu8/kappa2))")
    assert eq(lhs, rhs, e7.constraint, label="e7:sg") == "equal"


def test_e7_left_wing_runs_must_mirror_not_restart(e7):
    # Restarting every left-wing run at s1 (instead of mirroring the right
    # wing outside-in) leaves nu3 fixed, so that word cannot square to the
    # time evolution.
    broken = word_to_transform(e7, "s4 s5 s1 s4 s6 s5 s1 s2 s4 s7 s6 s5 s1 s2 s3 s4 s0")
    assert broken.image("nu3") is sym("nu3")
    assert eq(broken.image("nu3"), parse("kappa2/nu6"),
              e7.constraint, label="e7:broken") == "unequal"


# ---------------------------------------------------------------------------
# relation suites

def test_involutions_all_families(families):
    for fam in families.values():
        report = verify_involutions(fam)
        expected = {"D5": 8, "E6": 9, "E7": 9}[fam.name]
        assert len(report.checks) == expected
        assert report.ok, report.failures()


def test_braid_and_commutation_all_families(families):
    for fam in families.values():
        report = verify_braid(fam)
        n = len(fam.s_names)
        assert len(report.checks) == n * (n - 1) // 2
        assert report.ok, report.failures()


def test_d5_pi_relations(d5):
    report = verify_pi_relations(d5)
    assert report.ok, report.failures()
    ids = [c.id for c in report.checks]
    assert "D5:pi:(pi1 pi2)^4" in ids
    assert "D5:pi:pi2 s2 = s3 pi2" in ids


def test_pi1_pi2_fourth_power_by_direct_chain(d5):
    # independent oracle: apply the eight substitutions one at a time,
    # then confirm the word engine and sixteen prime-field points agree
    from qpweyl.identity import DEFAULT_PRIME, rng_for, sample_point
    from qpweyl.expr import evaluate, sub

    image = sym("f")
    for letter in ("pi2", "pi1", "pi2", "pi1", "pi2", "pi1", "pi2", "pi1"):
        image = substitute(image, d5.generators[letter].images)
    word_image = word_to_transform(d5, "(pi1 pi2)^4").image("f")
    assert eq(image, word_image, label="pi4:chain") == "equal"
    residual = sub(image, sym("f"))
    rng = rng_for(0, "pi4:points")
    for _ in range(16):
        point = sample_point(rng, sorted(residual.free), DEFAULT_PRIME)
        assert evaluate(residual, point, DEFAULT_PRIME) == 0


def test_pi1_squared_on_f_hand_chain(d5):
    # oracle: f -> f/kappa1 -> (f/kappa1)*kappa1; the engine does not cancel
    # products, so the round trip is checked as an identity, not structurally
    pi1 = d5.generators["pi1"]
    once = pi1.image("f")
    assert once is parse("f/kappa1")
    twice = substitute(once, pi1.images)
    assert eq(twice, sym("f"), label="pi1sq:f") == "equal"


def test_e6_pi_conjugation_discovered(e6):
    report = verify_pi_relations(e6)
    assert report.ok, report.failures()
    found = {c.id: c.detail for c in report.checks}
    # hand-derived permutations: pi1 swaps s1<->s5 and s2<->s4,
    # pi2 swaps s0<->s1 and s2<->s6
    assert found["E6:pi:pi1 s1"].endswith("= s5 pi1")
    assert found["E6:pi:pi1 s2"].endswith("= s4 pi1")
    assert found["E6:pi:pi1 s0"].endswith("= s0 pi1")
    assert found["E6:pi:pi2 s0"].endswith("= s1 pi2")
    assert found["E6:pi:pi2 s2"].endswith("= s6 pi2")
    assert found["E6:pi:pi2 s3"].endswith("= s3 pi2")


def test_e6_pi_conjugation_without_match_fails_with_witness(e6):
    # s4 corrupted to swap nu2 and nu4: pi1 s2 and pi1 s4 have no conjugate
    mutant = e6.with_generator("s4", {"nu2": "nu4", "nu4": "nu2"})
    report = verify_pi_relations(mutant)
    bad = report.failures()
    assert [c.id for c in bad] == ["E6:pi:pi1 s2", "E6:pi:pi1 s4"]
    pi1 = mutant.generators["pi1"]
    for c in bad:
        assert c.status == "fail"
        assert c.detail == "no matching conjugate generator"
        # the witness of the first candidate's comparison, s0
        s_name = c.id.rsplit(" ", 1)[1]
        probe = check(f"E6:pi:pi1 {s_name} = s0 pi1",
                      _image_pairs(compose(pi1, mutant.generators[s_name]),
                                   compose(mutant.generators["s0"], pi1)),
                      mutant.constraint, CheckConfig())
        assert probe.status == "fail"
        assert c.witness == probe.witness


def test_e7_pi_conjugation_discovered(e7):
    report = verify_pi_relations(e7)
    assert report.ok, report.failures()
    found = {c.id: c.detail for c in report.checks}
    # hand chain: pi s1 pi sends nu7 via 1/nu3 -> 1/nu4 -> nu8, i.e. s7
    assert found["E7:pi:pi s1"].endswith("= s7 pi")
    assert found["E7:pi:pi s2"].endswith("= s6 pi")
    assert found["E7:pi:pi s3"].endswith("= s5 pi")
    assert found["E7:pi:pi s4"].endswith("= s4 pi")
    assert found["E7:pi:pi s0"].endswith("= s0 pi")


def test_every_generator_acts_as_ring_homomorphism(families):
    import random as _random

    from qpweyl.expr import add, mul

    rng = _random.Random(17)
    atoms = [parse(t) for t in ("q", "nu1", "nu5", "kappa2", "f", "g", "3/2")]

    def rand_expr(depth=3):
        if depth == 0 or rng.random() < 0.4:
            return rng.choice(atoms)
        a, b = rand_expr(depth - 1), rand_expr(depth - 1)
        return rng.choice([add(a, b), mul(a, b)])

    for fam in families.values():
        for name, gen in fam.generators.items():
            a, b = rand_expr(), rand_expr()
            lhs = gen(add(mul(a, b), a))
            rhs = add(mul(gen(a), gen(b)), gen(a))
            assert eq(lhs, rhs, label=f"hom:{fam.name}:{name}") == "equal"


def test_corrupted_generator_fails_with_witness(d5):
    mutant = d5.with_generator("s2", {
        "nu3": "kappa1/nu7",
        "nu7": "kappa1/nu3",
        "kappa2": "kappa1*kappa2/(nu3*nu8)",   # nu7 -> nu8 corruption
        "g": "g*(f - nu3)/(f - kappa1/nu7)",
    })
    report = verify_involutions(mutant)
    bad = report.failures()
    assert bad and any(c.witness for c in bad)


# ---------------------------------------------------------------------------
# the single check path

def test_check_fails_at_first_differing_pair_with_its_witness():
    f, g = sym("f"), sym("g")
    pairs = [("f", f, f), ("g", g, parse("2*g")), ("q", f, g)]
    res = check("c", pairs, None, CheckConfig())
    assert res.status == "fail"
    assert res.detail == "images of g differ"
    # the pair is sampled under "check_id:name", like a direct comparison
    direct = identities_equal(g, parse("2*g"), None, label="c:g")
    assert res.witness == direct.witness


def test_check_empty_name_samples_under_the_check_id():
    res = check("c", [("", sym("f"), sym("g"))], None, CheckConfig())
    assert res.status == "fail" and res.detail == ""
    assert res.witness == identities_equal(sym("f"), sym("g"), label="c").witness


def test_check_marks_exact_only_when_every_pair_is_proved():
    pairs = [("f", parse("f*g/g"), sym("f")), ("g", sym("g"), sym("g"))]
    assert check("c", pairs, None, CheckConfig()).detail == ""
    assert check("c", pairs, None, CheckConfig(exact=True)).detail == "exact"


def test_check_reports_a_pole_everywhere_as_degenerate():
    pole = parse("f/(g - g)")
    res = check("c", [("f", sym("f"), sym("f")), ("g", pole, sym("g"))],
                None, CheckConfig(trials=2))
    assert res.status == "degenerate"
    assert "c:g" in res.detail
    assert not res.ok


def test_degenerate_probe_makes_discovery_degenerate(e6):
    mutant = e6.with_generator("s1", {"nu5": "nu6/(nu1 - nu1)", "nu6": "nu5"})
    report = verify_pi_relations(mutant, CheckConfig(trials=2))
    by_id = {c.id: c for c in report.checks}
    assert by_id["E6:pi:pi1 s1"].status == "degenerate"
    assert by_id["E6:pi:pi1 s2"].ok
