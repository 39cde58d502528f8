"""Randomized and exact identity testing."""

import pytest

from qpweyl.expr import evaluate, parse
from qpweyl.identity import (
    ConstraintRelation,
    DEFAULT_PRIME,
    DegenerateComparison,
    ExactPathUnavailable,
    exact_zero,
    identities_equal,
)


def constraint():
    return ConstraintRelation(
        "nu8", parse("kappa1^2*kappa2^2/(q*nu1*nu2*nu3*nu4*nu5*nu6*nu7)"))


def test_equal_verdict():
    r = identities_equal(parse("(f + g)^2"), parse("f^2 + 2*f*g + g^2"), label="t1")
    assert r.verdict == "equal"
    assert r.trials == 16


def test_involution_image_equal():
    from qpweyl.expr import substitute, sym
    s0 = {"nu7": sym("nu8"), "nu8": sym("nu7")}
    twice = substitute(substitute(sym("nu7"), s0), s0)
    r = identities_equal(twice, sym("nu7"), label="t2")
    assert bool(r)


def test_valuation_surface():
    from fractions import Fraction
    from qpweyl.identity import Valuation
    v_exact = Valuation({"f": Fraction(3), "g": Fraction(1, 2)})
    assert v_exact(parse("f*g")) == Fraction(3, 2)
    v_mod = Valuation({"f": 3, "g": 2}, prime=DEFAULT_PRIME)
    assert v_mod(parse("f*g")) == 6


def test_unequal_with_sound_witness():
    a, b = parse("nu3"), parse("nu4")
    r = identities_equal(a, b, label="t3")
    assert r.verdict == "unequal"
    va = evaluate(a, r.witness, DEFAULT_PRIME)
    vb = evaluate(b, r.witness, DEFAULT_PRIME)
    assert va != vb
    assert r.witness_values == (va, vb)


def test_constraint_makes_sides_equal():
    k = constraint()
    a = parse("kappa1^2*kappa2^2")
    b = parse("q*nu1*nu2*nu3*nu4*nu5*nu6*nu7*nu8")
    assert identities_equal(a, b, label="t4").verdict == "unequal"
    assert identities_equal(a, b, k, label="t5").verdict == "equal"


def test_constraint_idempotent():
    k = constraint()
    e = parse("nu8^2 + nu8*kappa1 + f")
    once = k.apply(e)
    assert k.apply(once) is once
    assert "nu8" not in once.free


def test_constraint_rejects_self_reference():
    with pytest.raises(ValueError):
        ConstraintRelation("nu8", parse("nu8 + 1"))


def test_seed_reproducibility():
    a, b = parse("nu3 + f"), parse("nu4*g")
    r1 = identities_equal(a, b, seed=5, label="same")
    r2 = identities_equal(a, b, seed=5, label="same")
    assert r1.witness == r2.witness
    r3 = identities_equal(a, b, seed=6, label="same")
    assert r3.witness != r1.witness


def test_trials_validation():
    with pytest.raises(ValueError):
        identities_equal(parse("f"), parse("f"), trials=0)
    with pytest.raises(ValueError):
        identities_equal(parse("f"), parse("f"), prime=97)
    with pytest.raises(ValueError, match="composite"):
        identities_equal(parse("f"), parse("f"), prime=10**21)


def test_is_prime_matches_sympy():
    import random
    import sympy
    from qpweyl.identity import is_prime
    rng = random.Random(3)
    candidates = list(range(2000)) + [rng.randrange(1 << 60, 1 << 100) for _ in range(300)]
    # strong pseudoprimes to the first several prime bases, and Mersenne primes
    candidates += [3825123056546413051, 318665857834031151167461,
                   3317044064679887385961981, (1 << 61) - 1, (1 << 89) - 1, (1 << 107) - 1]
    for n in candidates:
        assert is_prime.__wrapped__(n) == sympy.isprime(n), n


def test_witness_values_are_constrained_sides():
    k = constraint()
    a, b = parse("nu8*f"), parse("g")
    r = identities_equal(a, b, k, label="wv")
    assert r.verdict == "unequal"
    va = evaluate(k.apply(a), r.witness, DEFAULT_PRIME)
    vb = evaluate(k.apply(b), r.witness, DEFAULT_PRIME)
    assert r.witness_values == (va, vb)
    assert "nu8" not in r.witness


def test_degenerate_comparison_raises():
    # 1/(f - f) is syntactically fine but every evaluation divides by zero
    bad = parse("1/(f - g) + 1/(g - f)")
    # force denominators to coincide so every point is a pole
    from qpweyl.expr import substitute, sym
    bad = substitute(bad, {"g": sym("f")})
    with pytest.raises(DegenerateComparison):
        identities_equal(bad, parse("f"), trials=2, label="degen")


def test_resampling_survives_occasional_poles():
    # (f - nu1) vanishes on a sparse set only; sampling should sail through
    e = parse("(f^2 - nu1^2)/(f - nu1)")
    r = identities_equal(e, parse("f + nu1"), label="poles")
    assert r.verdict == "equal"


def test_exact_proof_small_case():
    r = identities_equal(parse("(f + g)^2"), parse("f^2 + 2*f*g + g^2"),
                         exact=True, label="exact1")
    assert r.verdict == "exact-proved"


def test_exact_and_probabilistic_agree_on_unequal():
    r = identities_equal(parse("nu3"), parse("nu4"), exact=True, label="exact2")
    assert r.verdict == "unequal"


def test_exact_zero_direct():
    assert exact_zero(parse("(f + g)^2 - f^2 - 2*f*g - g^2"))
    assert not exact_zero(parse("(f + g)^2 - f^2 - 2*f*g - g^2 + nu1"))
    # rational functions: numerator of the combined fraction decides
    assert exact_zero(parse("1/(f*g) - 1/f*(1/g)"))
    assert exact_zero(parse("(f^2 - g^2)/(f - g) - f - g"))


def test_exact_zero_size_gate():
    e = parse("(f + g)^2")
    with pytest.raises(ExactPathUnavailable):
        exact_zero(e, size_bound=2)


def test_exact_zero_on_division_by_zero_expression():
    from qpweyl.expr import substitute, sym
    bad = substitute(parse("1/(f - g)"), {"g": sym("f")})
    with pytest.raises(ExactPathUnavailable):
        exact_zero(bad)


def test_exact_and_probabilistic_verdicts_agree_on_random_pairs():
    import random

    from qpweyl.expr import add, mul, sub as esub

    rng = random.Random(7)
    names = ["f", "g", "nu1", "nu2", "q"]

    def rand(depth=3):
        if depth == 0 or rng.random() < 0.35:
            if rng.random() < 0.3:
                return parse(str(rng.randint(1, 5)))
            return parse(rng.choice(names))
        a, b = rand(depth - 1), rand(depth - 1)
        return rng.choice([add(a, b), mul(a, b), esub(a, b)])

    for k in range(80):
        a, b = rand(), rand()
        probabilistic = identities_equal(a, b, label=f"agree:{k}:p")
        exact = identities_equal(a, b, exact=True, label=f"agree:{k}:p")
        assert bool(probabilistic) == bool(exact)
        if exact.verdict == "exact-proved":
            assert probabilistic.verdict == "equal"


def test_exact_matches_sympy_on_small_identities():
    sympy = pytest.importorskip("sympy")
    f, g, nu1 = sympy.symbols("f g nu1")
    pairs = [
        ("f*(g - 1/nu1)", f * (g - 1 / nu1), True),
        ("(f + g)*(f - g)", f**2 - g**2, True),
        ("f*g + 1", f * g - 1, False),
    ]
    for text, sexpr, expected in pairs:
        mine = identities_equal(parse(text), parse(str(sexpr).replace("**", "^")),
                                exact=True, label=f"sym:{text}")
        assert bool(mine) == expected
        assert (sympy.simplify(sympy.sympify(str(sexpr)) - sympy.sympify(
            text.replace("^", "**"))) == 0) == expected
