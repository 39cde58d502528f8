"""The record types: construction, equality, hashing, immutability and repr.

Twelve classes carry the package's data.  Four compare by identity
(EvolutionSpec, ConstraintRelation, LinearQDE, FamilyDescriptor), a
Transformation by its items, and the others by value; no two kinds ever
compare equal.  Eight are frozen.  A gauge is no record but a tuple
(kind, *args), and a claim's target is the paper's text or scaling spec.
"""

import copy
import pickle
from fractions import Fraction
from types import MappingProxyType

import pytest

from qpweyl import lax, paper
from qpweyl.evolution import (
    EvolutionSpec,
    OrbitResult,
    OrbitState,
    PoleError,
    make_state,
    orbit_step,
)
from qpweyl.expr import parse, sym
from qpweyl.identity import (
    DEFAULT_PRIME,
    DEFAULT_TRIALS,
    CheckConfig,
    ConstraintRelation,
    IdentityResult,
)
from qpweyl.lax import (
    CLAIMS,
    GaugeClaim,
    LinearQDE,
    build_L1,
    equations_equivalent,
    verify_gauge_claim,
)
from qpweyl.report import CheckResult, Report
from qpweyl.weyl import (
    FamilyDescriptor,
    Transformation,
    make_family,
    transformation,
    verify_pi_relations,
)

A, B, Z = sym("a"), sym("b"), sym("z")
HALF = Fraction(1, 2)


def orbit_state(t=4):
    return OrbitState(Fraction(2), (HALF,) * 8, Fraction(3), Fraction(5),
                      Fraction(7, 3), Fraction(1), t)


def claim():
    return GaugeClaim("x", "D5", (("power", Z),), "s2")


# ---------------------------------------------------------------------------
# construction

def test_check_records_take_positions_keywords_and_defaults():
    assert CheckResult("a", "pass", {"q": 3}, "x") == CheckResult(
        status="pass", detail="x", id="a", witness={"q": 3})
    res = CheckResult("a", "fail")
    assert (res.id, res.status, res.witness, res.detail) == ("a", "fail", None, "")
    assert Report().checks == [] and Report().checks is not Report().checks
    assert Report([res]).checks == [res] and Report(checks=[res]) == Report([res])
    got = IdentityResult("unequal", {"f": 2}, 3, 1)
    assert got == IdentityResult(resamples=1, trials=3, witness={"f": 2}, verdict="unequal")
    got = IdentityResult("equal")
    assert (got.verdict, got.witness, got.trials, got.resamples) == ("equal", None, 0, 0)
    assert IdentityResult("exact-proved") and not IdentityResult("unequal")


def test_config_and_orbit_records_take_positions_keywords_and_defaults():
    cfg = CheckConfig()
    assert (cfg.trials, cfg.prime, cfg.seed, cfg.exact, cfg.use_constraint) == (
        DEFAULT_TRIALS, DEFAULT_PRIME, 0, False, True)
    p89 = (1 << 89) - 1
    assert CheckConfig(5, p89, 1, True, False) == CheckConfig(
        use_constraint=False, exact=True, seed=1, prime=p89, trials=5)
    st = orbit_state()
    assert st == OrbitState(t=4, g=Fraction(1), f=Fraction(7, 3), kappa2=Fraction(5),
                            kappa1=Fraction(3), nu=(HALF,) * 8, q=Fraction(2))
    assert OrbitState(st.q, st.nu, st.kappa1, st.kappa2, st.f, st.g).t == 0
    pole = PoleError(3, "f")
    assert OrbitResult([st], pole) == OrbitResult(pole=pole, states=[st])
    assert OrbitResult([st]).pole is None and OrbitResult([st]).complete
    assert not OrbitResult([st], pole).complete


def test_gauge_records_take_positions_keywords_and_defaults():
    assert claim() == GaugeClaim(target="s2", gauges=(("power", Z),), family="D5",
                                 id="x", note="")
    assert claim().note == ""
    assert GaugeClaim("x", "D5", (), "s2", "n").note == "n"


def test_identity_records_take_positions_and_keywords(d5):
    k = ConstraintRelation("nu8", A)
    assert (k.eliminated, k.replacement) == ("nu8", A)
    k = ConstraintRelation(replacement=B, eliminated="nu8")
    assert (k.eliminated, k.replacement) == ("nu8", B)
    with pytest.raises(ValueError, match="must not contain"):
        ConstraintRelation("nu8", parse("nu8*q"))
    eq = LinearQDE(A, B, Z)
    assert eq.coefficients() == (A, B, Z)
    assert LinearQDE(coeff_down=Z, coeff_up=A, coeff_mid=B).coefficients() == (A, B, Z)
    assert EvolutionSpec((A, B)).qp_relations == EvolutionSpec(qp_relations=(A, B)).qp_relations
    fields = dict(name=d5.name, generators=d5.generators, s_names=d5.s_names,
                  pi_names=d5.pi_names, dynkin_edges=d5.dynkin_edges,
                  constraint=d5.constraint, evolution_word=d5.evolution_word, xi=d5.xi)
    by_keyword = FamilyDescriptor(**fields)
    by_position = FamilyDescriptor(*fields.values())
    for name, value in fields.items():
        assert getattr(by_keyword, name) is value
        assert getattr(by_position, name) is value
    t = Transformation({"g": A})
    assert Transformation(images={"g": A}) == t and t.items == (("g", A),)


# ---------------------------------------------------------------------------
# equality and hashing

VALUES = [
    (lambda: CheckConfig(), lambda: CheckConfig(seed=1)),
    (lambda: orbit_state(), lambda: orbit_state(t=5)),
    (lambda: OrbitResult([orbit_state()]), lambda: OrbitResult([orbit_state(5)])),
    (lambda: IdentityResult("equal", trials=2), lambda: IdentityResult("equal", trials=3)),
    (lambda: CheckResult("a", "pass"), lambda: CheckResult("a", "fail")),
    (lambda: Report([CheckResult("a", "pass")]), lambda: Report()),
    (lambda: claim(), lambda: GaugeClaim("x", "D5", (("power", A),), "s2")),
    (lambda: Transformation({"f": A, "g": B}), lambda: Transformation({"f": B, "g": A})),
]


@pytest.mark.parametrize("make, other", VALUES, ids=[v[0]().__class__.__name__ for v in VALUES])
def test_values_compare_by_their_fields(make, other):
    x, y = make(), make()
    assert x is not y
    assert x == y and not x != y
    assert make() != other() and not make() == other()
    assert x != object() and x != None  # noqa: E711


FROZEN_VALUES = [v for v in VALUES if type(v[0]()) not in (
    OrbitResult, IdentityResult, CheckResult, Report)]


@pytest.mark.parametrize("make, _", FROZEN_VALUES,
                         ids=[v[0]().__class__.__name__ for v in FROZEN_VALUES])
def test_equal_frozen_values_hash_alike(make, _):
    assert hash(make()) == hash(make())
    assert len({make(), make()}) == 1


@pytest.mark.parametrize("make", [
    lambda: OrbitResult([orbit_state()]),
    lambda: IdentityResult("equal"),
    lambda: CheckResult("a", "pass"),
    lambda: Report(),
], ids=["OrbitResult", "IdentityResult", "CheckResult", "Report"])
def test_mutable_values_are_unhashable(make):
    with pytest.raises(TypeError):
        hash(make())


def test_different_kinds_never_compare_equal():
    # Equal fields, and for values equal hashes, make no two kinds equal.
    p89 = (1 << 89) - 1
    claim_, cfg = GaugeClaim(5, p89, 1, True, False), CheckConfig(5, p89, 1, True, False)
    assert hash(claim_) == hash(cfg)
    assert claim_ != cfg and not claim_ == cfg and cfg != claim_
    check, got = CheckResult("a", "b", None, ""), IdentityResult("a", "b", None, "")
    assert check._fields() == got._fields()
    assert check != got and not check == got and got != check


def test_claims_are_the_paper_rows_parsed():
    # A claim holds only data: rebuilt from its row, it is equal and hashes
    # alike, and it prints no function.
    for claim_id, family, gauges, target, note in paper.CLAIMS:
        parsed = tuple((kind, *map(parse, args)) for kind, *args in gauges)
        built = GaugeClaim(claim_id, family, parsed, target, note)
        assert built == CLAIMS[claim_id] and hash(built) == hash(CLAIMS[claim_id])
        assert "<function" not in repr(CLAIMS[claim_id])
    assert repr(CLAIMS["e6.S"]) == (
        "GaugeClaim(id='e6.S', family='E6', gauges=(('power', Expr(1/c)), "
        "('dilation', Expr(c))), target=(('e', 'c'),), "
        "note='dilation plus power gauge with c q^d = 1')")


def test_transformations_compare_by_items():
    t = Transformation({"f": A, "g": B})
    assert t == Transformation({"g": B, "f": A}) and hash(t) == hash(Transformation({"g": B, "f": A}))
    assert t.items == (("f", A), ("g", B))
    assert t != Transformation({"f": A})
    assert t != t.images and t != t.items


def test_identity_records_compare_by_identity(d5):
    k = ConstraintRelation("nu8", A)
    eq = LinearQDE(A, B, Z)
    spec = EvolutionSpec((A, B))
    for x, y in ((k, ConstraintRelation("nu8", A)), (eq, LinearQDE(A, B, Z)),
                 (spec, EvolutionSpec((A, B))), (d5, d5.with_generator("s2", {}))):
        assert x == x and x != y and not x == y
        assert hash(x) == hash(x) and len({x, y}) == 2
    assert build_L1(d5) != build_L1(d5)


# ---------------------------------------------------------------------------
# immutability

FROZEN = [
    (lambda fam: CheckConfig(), "seed"),
    (lambda fam: orbit_state(), "t"),
    (lambda fam: claim(), "note"),
    (lambda fam: Transformation({"g": A}), "images"),
    (lambda fam: ConstraintRelation("nu8", A), "replacement"),
    (lambda fam: LinearQDE(A, B, Z), "coeff_mid"),
    (lambda fam: EvolutionSpec((A, B)), "qp_relations"),
    (lambda fam: fam, "generators"),
]


@pytest.mark.parametrize("make, field", FROZEN, ids=[f for _, f in FROZEN])
def test_frozen_records_refuse_assignment(make, field, d5):
    x = make(d5)
    before = getattr(x, field)
    with pytest.raises(AttributeError):
        setattr(x, field, B)
    assert getattr(x, field) is before


def test_records_copy_and_pickle(d5):
    # A frozen record is rebuilt without assigning to its fields.
    for make, _ in VALUES:
        x = make()
        assert copy.copy(x) == x and type(copy.copy(x)) is type(x)
    for x in (orbit_state(), CheckConfig(seed=3), CheckResult("a", "fail", {"f": 2}),
              IdentityResult("equal", trials=4), OrbitResult([orbit_state()])):
        assert pickle.loads(pickle.dumps(x)) == x
    eq = LinearQDE(A, B, Z)
    assert copy.copy(eq).coefficients() == eq.coefficients()
    assert copy.copy(d5).generators is d5.generators


def test_stepped_orbit_states_are_plain_values(d5):
    # orbit_step hands a solve context to the state it builds, in a slot
    # outside the fields: the state compares, hashes and prints as one built
    # from its values, and _replace, copy and pickle drop the context.
    st0 = make_state(2, [3, 5, 7, 11, 13, 17, 19], 3, 5, Fraction(7, 3), Fraction(2, 9))
    built = orbit_step(d5, orbit_step(d5, st0))
    same = make_state(built.q, built.nu[:7], built.kappa1, built.kappa2, built.f, built.g, built.t)
    assert built == same and hash(built) == hash(same) and repr(built) == repr(same)
    assert getattr(built, "_context", None) is not None
    twins = [built._replace(), copy.copy(built), pickle.loads(pickle.dumps(built))]
    assert twins == [built] * 3
    assert [getattr(twin, "_context", None) for twin in twins] == [None] * 3
    nxt = orbit_step(d5, built)
    assert [orbit_step(d5, twin) for twin in twins] == [nxt] * 3


def test_mutable_records_take_assignment():
    res = IdentityResult("equal")
    res.verdict, res.witness, res.trials, res.resamples = "unequal", {"f": 1}, 2, 1
    assert res == IdentityResult("unequal", {"f": 1}, 2, 1)
    check = CheckResult("a", "pass")
    check.detail = "x"
    assert check == CheckResult("a", "pass", detail="x")
    report = Report()
    report.add(check)
    assert report.checks == [check] and report.ok
    result = OrbitResult([])
    result.pole = PoleError(1, "g")
    assert not result.complete


# ---------------------------------------------------------------------------
# repr

def test_value_reprs():
    assert repr(CheckResult("a", "pass", {"q": 3}, "x")) == (
        "CheckResult(id='a', status='pass', witness={'q': 3}, detail='x')")
    assert repr(Report([CheckResult("a", "fail")])) == (
        "Report(checks=[CheckResult(id='a', status='fail', witness=None, detail='')])")
    assert repr(IdentityResult("unequal", {"f": 2}, 3, 1)) == (
        "IdentityResult(verdict='unequal', witness={'f': 2}, trials=3, resamples=1)")
    assert repr(CheckConfig()) == (
        f"CheckConfig(trials={DEFAULT_TRIALS}, prime={DEFAULT_PRIME}, seed=0, "
        "exact=False, use_constraint=True)")
    assert repr(Transformation({"g": sym("f"), "f": parse("g/q")})) == (
        "Transformation(images=mappingproxy({'f': Expr(g/q), 'g': Expr(f)}))")
    assert repr(claim()) == (
        "GaugeClaim(id='x', family='D5', gauges=(('power', Expr(z)),), target='s2', note='')")
    st = ("OrbitState(q=Fraction(2, 1), nu=(" + ", ".join(["Fraction(1, 2)"] * 8)
          + "), kappa1=Fraction(3, 1), kappa2=Fraction(5, 1), f=Fraction(7, 3), "
          "g=Fraction(1, 1), t=4)")
    assert repr(orbit_state()) == st
    assert repr(OrbitResult([orbit_state()], PoleError(3, "f"))) == (
        f"OrbitResult(states=[{st}], pole=PoleError('pole at step 3: f vanishes'))")


def test_identity_record_reprs(d5):
    assert repr(LinearQDE(A, B, Z)) == (
        "LinearQDE(coeff_up=Expr(a), coeff_mid=Expr(b), coeff_down=Expr(z))")
    assert repr(ConstraintRelation("nu8", A)) == (
        "ConstraintRelation(eliminated='nu8', replacement=Expr(a))")
    assert repr(EvolutionSpec((A, B))) == "EvolutionSpec(qp_relations=(Expr(a), Expr(b)))"
    assert repr(d5).startswith(
        "FamilyDescriptor(name='D5', generators=mappingproxy({'s0': "
        "Transformation(images=mappingproxy({'nu7': Expr(nu8), 'nu8': Expr(nu7)})), ")
    assert repr(d5).endswith(f", xi={d5.xi!r})")


# ---------------------------------------------------------------------------
# the copies with changed fields

def test_with_generator_changes_one_generator(d5):
    mutant = d5.with_generator("s2", {"g": "f"})
    assert type(mutant) is FamilyDescriptor
    assert mutant.generators["s2"] == transformation({"g": "f"})
    assert d5.generators["s2"] != mutant.generators["s2"]
    assert set(mutant.generators) == set(d5.generators)
    assert all(mutant.generators[n] is d5.generators[n] for n in d5.generators if n != "s2")
    for name in ("name", "s_names", "pi_names", "dynkin_edges", "constraint",
                 "evolution_word", "xi"):
        assert getattr(mutant, name) is getattr(d5, name)
    assert type(mutant.generators) is dict


def test_shared_families_hold_read_only_generators():
    for name in ("D5", "E6", "E7"):
        fam = make_family(name)
        assert fam is make_family(name) and fam.name == name
        assert type(fam.generators) is MappingProxyType
        assert type(fam.constraint) is ConstraintRelation
        assert type(fam.xi) is Transformation


def test_equivalence_zero_tests_run_sampled(d5, monkeypatch):
    seen, points = [], []
    original = lax.check

    def spy(check_id, pairs, constraint, cfg, at):
        seen.append(cfg)
        points.append(at)
        return original(check_id, pairs, constraint, cfg, at)

    monkeypatch.setattr(lax, "check", spy)
    cfg = CheckConfig(trials=3, prime=DEFAULT_PRIME, seed=5, exact=True, use_constraint=False)
    eq = build_L1(d5)
    assert equations_equivalent(eq, eq, d5.constraint, cfg, label="t").ok
    zero_tests = seen[:-1]
    assert zero_tests and all(c == CheckConfig(3, DEFAULT_PRIME, 5, False, False) for c in zero_tests)
    assert type(zero_tests[0]) is CheckConfig
    assert seen[-1] == cfg
    assert cfg.exact   # the caller's config is unchanged
    # The zero tests and the cross check read one set of points.
    assert points[0] is not None and all(at is points[0] for at in points)


def test_claim_results_carry_the_claim_id_and_note(d5):
    res = verify_gauge_claim(d5, "d5.s2")
    note = CLAIMS["d5.s2"].note
    assert res == CheckResult("d5.s2", "pass", None, note)
    res = verify_gauge_claim(d5, "d5.s2", CheckConfig(use_constraint=False))
    assert (res.id, res.detail) == ("d5.s2", f"{note}: mismatch")
    assert res.status == "fail" and res.witness


def test_pi_results_carry_the_relation_id_and_conjugate(e6):
    checks = verify_pi_relations(e6).checks
    assert len(checks) == 14
    assert checks[0] == CheckResult("E6:pi:pi1 s0", "pass", None, "pi1 s0 = s0 pi1")
    assert checks[1] == CheckResult("E6:pi:pi1 s1", "pass", None, "pi1 s1 = s5 pi1")
    assert all(type(c) is CheckResult for c in checks)
