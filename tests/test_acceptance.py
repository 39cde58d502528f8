"""Acceptance suite.

Every criterion runs at its stated tolerance (all checks are exact field
identities; there are no numeric tolerances to tune) and prints one
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -s` to see the
lines as they complete.
"""

import random
import time
from fractions import Fraction

import pytest

from qpweyl.evolution import (
    make_evolution_spec,
    make_state,
    orbit_step,
    time_evolution,
    verify_theorem_i,
    verify_theorem_ii,
)
from qpweyl.expr import DivisionByZero, ZERO, evaluate, parse, substitute
from qpweyl.identity import DEFAULT_PRIME, identities_equal
from qpweyl.lax import (
    apply_gauge,
    build_L1,
    equations_equivalent,
    substitute_params,
    verify_gauge_claims,
)
from qpweyl.report import Report
from qpweyl.weyl import CheckConfig, make_family, verify_relations, word_to_transform

CFG = CheckConfig(trials=16, prime=DEFAULT_PRIME, seed=0)


def announce(number: int, title: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {number}: {title}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def families():
    return {name: make_family(name) for name in ("D5", "E6", "E7")}


# ---------------------------------------------------------------------------
# 1. relation suites

def test_criterion_1_relation_suites(families):
    t0 = time.monotonic()
    all_ok = True
    counts = {}
    for name, fam in families.items():
        report = verify_relations(fam, CFG)
        counts[name] = report.summary()
        all_ok = all_ok and report.ok
    elapsed = time.monotonic() - t0
    extra = ", ".join(f"{n}: {c['pass']}/{c['total']}" for n, c in counts.items())
    announce(1, "involutions, braid/commutation and diagram relations",
             all_ok and elapsed < 60, f"{extra}; {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# 2. closed-form fixture reproduction

D5_WORD = "pi2 pi1 s2 s1 s0 s2"

D5_S = {"nu1": "nu7", "nu2": "nu8", "nu3": "kappa2/nu6", "nu4": "kappa2/nu5",
        "nu5": "nu3", "nu6": "nu4", "nu7": "kappa2/nu2", "nu8": "kappa2/nu1",
        "kappa1": "kappa2", "kappa2": "q*nu3*nu4*nu7*nu8/kappa1"}
D5_S2 = {"nu1": "kappa2/nu2", "nu2": "kappa2/nu1",
         "nu3": "q*nu3*nu7*nu8/kappa1", "nu4": "q*nu4*nu7*nu8/kappa1",
         "nu5": "kappa2/nu6", "nu6": "kappa2/nu5",
         "nu7": "q*nu3*nu4*nu7/kappa1", "nu8": "q*nu3*nu4*nu8/kappa1",
         "kappa1": "q*nu3*nu4*nu7*nu8/kappa1",
         "kappa2": "q*kappa2^3/(nu1*nu2*nu5*nu6)"}

E6_WORD = "pi1 pi2 s4 s5 s3 s6 s4 s3 s0 s6"

E6_S = {"nu1": "kappa2/nu4", "nu2": "kappa2/nu3", "nu3": "kappa2/nu2",
        "nu4": "kappa2/nu1", "nu5": "nu8", "nu6": "nu7",
        "nu7": "kappa2/nu5", "nu8": "kappa2/nu6",
        "kappa1": "kappa2", "kappa2": "kappa1*kappa2^3/(nu1*nu2*nu3*nu4*nu5*nu6)"}
E6_S2 = {"nu1": "q*nu1*nu7*nu8/kappa1", "nu2": "q*nu2*nu7*nu8/kappa1",
         "nu3": "q*nu3*nu7*nu8/kappa1", "nu4": "q*nu4*nu7*nu8/kappa1",
         "nu5": "kappa2/nu6", "nu6": "kappa2/nu5",
         "nu7": "q*nu7*kappa2/kappa1", "nu8": "q*nu8*kappa2/kappa1",
         "kappa1": "q*nu7*nu8*kappa2/kappa1",
         "kappa2": "q^2*nu7*nu8*kappa2^2/(nu5*nu6*kappa1)"}


def test_criterion_2_closed_form_fixtures(families):
    failures = []

    def check(fam, t, symbol, expected, tag):
        res = identities_equal(t.image(symbol), parse(expected), fam.constraint,
                               CFG._replace(exact=True), label=f"fix:{tag}:{symbol}")
        if res.verdict == "unequal":
            failures.append((tag, symbol))

    d5 = families["D5"]
    s = word_to_transform(d5, D5_WORD)
    s2 = word_to_transform(d5, f"({D5_WORD})^2")
    for symbol, expected in D5_S.items():
        check(d5, s, symbol, expected, "d5:s")
    for symbol, expected in D5_S2.items():
        check(d5, s2, symbol, expected, "d5:s2")

    e6 = families["E6"]
    s = word_to_transform(e6, E6_WORD)
    s2 = word_to_transform(e6, f"({E6_WORD})^2")
    for symbol, expected in E6_S.items():
        check(e6, s, symbol, expected, "e6:s")
    for symbol, expected in E6_S2.items():
        check(e6, s2, symbol, expected, "e6:s2")

    e7 = families["E7"]
    s = word_to_transform(e7, " ".join(e7.evolution_word))
    for i in range(1, 9):
        check(e7, s, f"nu{i}", f"kappa2/nu{9 - i}", "e7:s")
    check(e7, s, "kappa1", "kappa2", "e7:s")
    check(e7, s, "kappa2", "q*kappa2^2/kappa1", "e7:s")
    check(e7, s, "f", "1/g", "e7:s")

    n_checked = len(D5_S) + len(D5_S2) + len(E6_S) + len(E6_S2) + 11
    announce(2, "closed-form fixture reproduction, zero tolerance mod constraint",
             not failures, f"{n_checked} fixtures" if not failures else str(failures))


# ---------------------------------------------------------------------------
# 3. theorem (i)

def test_criterion_3_time_evolution(families):
    all_ok = True
    for fam in families.values():
        report = verify_theorem_i(fam, CFG)
        all_ok = all_ok and report.ok and len(report.checks) == 12
    # exact proof of the smallest residual: the first D5 relation
    d5 = families["D5"]
    T = time_evolution(d5)
    spec = make_evolution_spec(d5)
    residual = substitute(spec.qp_relations[0],
                          {"fbar": T.image("f"), "gbar": T.image("g")})
    res = identities_equal(residual, ZERO, d5.constraint, CheckConfig(exact=True),
                           label="acc3:exact")
    announce(3, "T fixes nu_i, scales kappa_i, and the coupled relations vanish",
             all_ok and res.verdict == "exact-proved",
             "D5 first relation exact-proved by normalization")


# ---------------------------------------------------------------------------
# 4. theorem (ii)

def test_criterion_4_xi_decomposition(families):
    all_ok = True
    for fam in families.values():
        report = verify_theorem_ii(fam, CFG)
        all_ok = all_ok and report.ok
    announce(4, "xi equals the gauge/dilation scaling on every listed generator",
             all_ok, "D5: G.D with scales kappa2/(nu5 nu6), kappa1/(q nu3 nu4); "
             "E6: S[nu5 nu6/kappa2]; E7: S[kappa1/(q kappa2)]")


# ---------------------------------------------------------------------------
# 5. gauge claims

def test_criterion_5_gauge_claims(families):
    all_ok = True
    total = 0
    for fam in families.values():
        report = verify_gauge_claims(fam, CFG)
        total += len(report.checks)
        all_ok = all_ok and report.ok
    # double gauge equals the composition of the two single gauges
    d5 = families["D5"]
    eq = build_L1(d5)
    chain = apply_gauge(apply_gauge(eq, ("pochhammer", parse("nu3"), parse("kappa1/nu7"))),
                        ("pochhammer", parse("nu4"), parse("kappa1/nu8")))
    target = substitute_params(eq, word_to_transform(d5, "s2 s1 s0 s2"))
    composed_ok = equations_equivalent(chain, target, d5.constraint, CFG,
                                       label="acc5:double")
    announce(5, "all registered gauge claims pass mod the family constraint",
             all_ok and total == 9 and composed_ok,
             "9 claims; double gauge = composition of singles")


# ---------------------------------------------------------------------------
# 6. constraint discovery

def test_criterion_6_constraint_discovery(families):
    e6 = families["E6"]
    dual = identities_equal(parse("kappa1*kappa2^3/(nu1*nu2*nu3*nu4*nu5*nu6)"),
                            parse("q*nu7*nu8*kappa2/kappa1"),
                            e6.constraint, CFG, label="acc6:e6")
    e7 = families["E7"]
    s = word_to_transform(e7, " ".join(e7.evolution_word))
    with_k = identities_equal(s.image("kappa2"), parse("q*kappa2^2/kappa1"),
                              e7.constraint, CFG, label="acc6:e7")
    without_k = identities_equal(s.image("kappa2"), parse("q*kappa2^2/kappa1"),
                                 None, CFG, label="acc6:e7nc")
    ok = (dual.verdict == "equal" and with_k.verdict == "equal"
          and without_k.verdict == "unequal" and without_k.witness is not None)
    announce(6, "default constraint kappa1^2 kappa2^2 = q nu1..nu8 confirmed",
             ok, "E6 dual expression holds; E7 s(kappa2) needs the constraint "
             "(witness found without it)")


# ---------------------------------------------------------------------------
# 7. orbit cross-check

def test_criterion_7_orbit_cross_check(families):
    t0 = time.monotonic()
    d5 = families["D5"]
    T = time_evolution(d5)
    Tf, Tg = T.image("f"), T.image("g")
    rng = random.Random(2024)

    def random_state():
        def fr():
            return Fraction(rng.randint(1, 40), rng.randint(1, 40))
        return make_state(Fraction(rng.randint(2, 5)), [fr() for _ in range(7)],
                          fr(), fr(), fr(), fr())

    finished = 0
    attempts = 0
    while finished < 10:
        attempts += 1
        assert attempts <= 200, "state resampling exhausted"
        st0 = random_state()
        try:
            cur = st0
            for _ in range(20):
                nxt = orbit_step(d5, cur, "forward")
                vals = cur.valuation()
                assert evaluate(Tf, vals) == nxt.f
                assert evaluate(Tg, vals) == nxt.g
                assert nxt.constraint_residual() == 0
                cur = nxt
            for _ in range(20):
                cur = orbit_step(d5, cur, "backward")
            assert cur == st0
            finished += 1
        except DivisionByZero:
            continue  # spurious pole of the unreduced symbolic image: resample
    elapsed = time.monotonic() - t0
    announce(7, "numeric orbit agrees exactly with symbolic T over 20 steps",
             finished == 10 and elapsed < 30,
             f"10 orbits ({attempts} sampled), {elapsed:.1f}s < 30s")


# ---------------------------------------------------------------------------
# 8. mutation sensitivity

MUTATIONS = [
    ("D5", "s2", {"nu3": "kappa1/nu7", "nu7": "kappa1/nu3",
                  "kappa2": "kappa1*kappa2/(nu3*nu8)",
                  "g": "g*(f - nu3)/(f - kappa1/nu7)"}),
    ("D5", "s0", {"nu7": "nu8", "nu8": "nu1"}),
    ("D5", "s1", {"nu3": "nu5", "nu5": "nu3"}),
    ("D5", "s3", {"nu1": "kappa2/nu5", "nu5": "kappa2/nu1",
                  "kappa1": "kappa1*kappa2/(nu1*nu5)",
                  "f": "f*(g - 1/nu1)/(g - nu6/kappa2)"}),
    ("D5", "pi1", {"q": "1/q", "nu1": "1/nu1", "nu2": "1/nu2", "nu3": "1/nu8",
                   "nu4": "1/nu8", "nu5": "1/nu5", "nu6": "1/nu6",
                   "nu7": "1/nu3", "nu8": "1/nu4", "kappa1": "1/kappa1",
                   "kappa2": "1/kappa2", "f": "f/kappa1", "g": "1/g"}),
    ("E6", "s6", {"nu1": "kappa1/nu7", "nu7": "kappa1/nu1",
                  "kappa2": "kappa1*kappa2/(nu1*nu7)",
                  "g": "g*nu7*(nu1 + f)/(kappa1 - nu7*f + (nu1*nu7 - kappa1)*f*g)"}),
    ("E6", "s4", {"nu2": "nu4", "nu4": "nu2"}),
    ("E6", "pi1", {"q": "1/q", "nu1": "nu2/kappa2", "nu2": "nu1/kappa2",
                   "nu3": "1/nu6", "nu4": "1/nu5", "nu5": "1/nu4",
                   "nu6": "1/nu3", "nu7": "1/nu7", "nu8": "1/nu8",
                   "kappa1": "nu1*nu2/kappa1", "kappa2": "1/kappa2",
                   "f": "nu1*nu2*(1 - f*g)/(kappa2*(nu1*nu2*g + f - (nu1 + nu2)*f*g))",
                   "g": "kappa2*g"}),
    ("E7", "s0", {"kappa1": "kappa2", "kappa2": "kappa1", "f": "1/g", "g": "f"}),
    ("E7", "s4", {"nu1": "kappa2/nu5", "nu5": "kappa2/nu1",
                  "kappa1": "kappa1*kappa2/(nu1*nu4)",
                  "f": "1/f"}),
    ("E7", "pi", {"q": "1/q", "nu1": "1/nu6", "nu2": "1/nu6", "nu3": "1/nu7",
                  "nu4": "1/nu8", "nu5": "1/nu1", "nu6": "1/nu2",
                  "nu7": "1/nu3", "nu8": "1/nu4", "kappa1": "1/kappa1",
                  "kappa2": "1/kappa2", "f": "f/kappa1", "g": "kappa2*g"}),
    ("E7", "s7", {"nu7": "nu8", "nu8": "nu5"}),
]


def test_criterion_8_mutation_sensitivity(families):
    fast = CheckConfig(trials=4, prime=DEFAULT_PRIME, seed=3)
    surviving = []
    for fam_name, gen_name, images in MUTATIONS:
        mutant = families[fam_name].with_generator(gen_name, images)
        report = Report()
        report.extend(verify_relations(mutant, fast))
        if report.ok:
            report.extend(verify_theorem_i(mutant, fast))
        bad = report.failures()
        if not bad:
            surviving.append((fam_name, gen_name))
            continue
        if not any(c.witness for c in bad):
            surviving.append((fam_name, gen_name, "no witness"))
    announce(8, "every corrupted generator image is caught with a witness",
             not surviving,
             f"{len(MUTATIONS)} mutations across three families"
             if not surviving else f"undetected: {surviving}")
