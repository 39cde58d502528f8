"""Randomized and exact identity testing."""

from unittest import mock

import pytest
from dags import small_dags
from hypothesis import given, settings, strategies as st

from qpweyl import identity
from qpweyl.expr import (
    DivisionByZero, ExprError, add, div, evaluate, mul, num, parse, pow_, sub, sym)
from qpweyl.identity import (
    ConstraintRelation,
    DEFAULT_PRIME,
    DegenerateComparison,
    ExactPathUnavailable,
    IdentityResult,
    exact_zero,
    identities_equal,
    rng_for,
    sample_point,
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


def test_unequal_with_sound_witness():
    a, b = parse("nu3"), parse("nu4")
    r = identities_equal(a, b, label="t3")
    assert r.verdict == "unequal"
    va = evaluate(a, r.witness, DEFAULT_PRIME)
    vb = evaluate(b, r.witness, DEFAULT_PRIME)
    assert va != vb


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


@pytest.mark.parametrize("prime", [DEFAULT_PRIME, (1 << 89) - 1])
def test_sample_point_draws_what_randrange_draws(prime):
    # Every witness and golden hash depends on these values.
    names = [f"x{i}" for i in range(13)]
    for seed in range(20):
        rng = rng_for(seed, "draws")
        points = [sample_point(rng, names, prime) for _ in range(50)]
        ref = rng_for(seed, "draws")
        assert points == [{n: ref.randrange(1, prime) for n in names} for _ in range(50)]


def test_trials_validation():
    with pytest.raises(ValueError):
        identities_equal(parse("f"), parse("f"), trials=0)
    with pytest.raises(ValueError):
        identities_equal(parse("f"), parse("f"), prime=97)
    with pytest.raises(ValueError, match="composite"):
        identities_equal(parse("f"), parse("f"), prime=10**21)
    with pytest.raises(ValueError, match=f"at most {identity.MAX_TRIALS}"):
        identities_equal(parse("f"), parse("g"), trials=identity.MAX_TRIALS + 1)
    identity.check_sampling(identity.MAX_TRIALS, DEFAULT_PRIME)


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
    assert va != vb
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
    with mock.patch.object(identity, "_SIZE_BOUND", 2):
        with pytest.raises(ExactPathUnavailable):
            exact_zero(e)


def test_exact_zero_keys_its_memo_by_the_size_bound():
    # Decided at the default bound, then asked again under a patched one: the
    # remembered verdict must not answer for the smaller bound.
    e = parse("(f + g)^2 - f^2 - 2*f*g - g^2")
    assert exact_zero(e)
    with mock.patch.object(identity, "_SIZE_BOUND", 2):
        with pytest.raises(ExactPathUnavailable, match="expression exceeds 2 nodes"):
            exact_zero(e)
    assert exact_zero(e)


def test_exact_zero_on_division_by_zero_expression():
    from qpweyl.expr import substitute, sym
    bad = substitute(parse("1/(f - g)"), {"g": sym("f")})
    with pytest.raises(ExactPathUnavailable):
        exact_zero(bad)


def test_exact_zero_on_inverse_of_identically_zero_expression():
    bad = parse("((f + g)^2 - f^2 - 2*f*g - g^2)^-1")
    with pytest.raises(ExactPathUnavailable,
                       match="inverse of an identically zero expression"):
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


# ---------------------------------------------------------------------------
# exact normalizer: packed-integer monomials against the tuple/Fraction form


def _reference_exact_zero(e, cap):
    """The exact normalizer as it was before monomials were packed into ints:
    exponent tuples to Fraction coefficients, each pair divided through by
    its first numerator coefficient.  Same program, same cap tests."""
    from fractions import Fraction

    from qpweyl.expr import _compile

    def padd(p, q):
        out = dict(p)
        for m, c in q.items():
            nc = out.get(m, 0) + c
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
        return out

    def pmul(p, q):
        if not p or not q:
            return {}
        if len(p) * len(q) > cap:
            raise ExactPathUnavailable("term blow-up")
        out = {}
        for m1, c1 in p.items():
            for m2, c2 in q.items():
                m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
                nc = out.get(m, 0) + c1 * c2
                if nc:
                    out[m] = nc
                else:
                    out.pop(m, None)
        if len(out) > cap:
            raise ExactPathUnavailable("term blow-up")
        return out

    def ppow(p, n):
        result, base = None, p
        while n:
            if n & 1:
                result = base if result is None else pmul(result, base)
            n >>= 1
            if n:
                base = pmul(base, base)
        return result

    def strip(numer, denom):
        if not numer or not denom:
            return numer, denom
        mins = [min(col) for col in zip(*numer, *denom)]
        if any(mins):
            numer = {tuple(e - m for e, m in zip(mon, mins)): c for mon, c in numer.items()}
            denom = {tuple(e - m for e, m in zip(mon, mins)): c for mon, c in denom.items()}
        first = next(iter(numer.values()))
        if first != 1:
            numer = {m: c / first for m, c in numer.items()}
            denom = {m: c / first for m, c in denom.items()}
        return numer, denom

    code, _nodes = _compile(e)
    order = sorted(e.free)
    const = (0,) * len(order)
    one = {const: Fraction(1)}
    monomial = {n: tuple(int(i == j) for j in range(len(order))) for i, n in enumerate(order)}
    vals = []
    for kind, arg in code:
        if kind == "num":
            pair = ({const: arg} if arg else {}, one)
        elif kind == "sym":
            pair = ({monomial[arg]: Fraction(1)}, one)
        elif kind == "add":
            n_acc, d_acc = vals[arg[0]]
            for k in arg[1:]:
                n2, d2 = vals[k]
                n_acc = padd(pmul(n_acc, d2), pmul(n2, d_acc))
                d_acc = pmul(d_acc, d2)
                n_acc, d_acc = strip(n_acc, d_acc)
            pair = (n_acc, d_acc)
        elif kind == "mul":
            n_acc, d_acc = vals[arg[0]]
            for k in arg[1:]:
                n2, d2 = vals[k]
                n_acc, d_acc = pmul(n_acc, n2), pmul(d_acc, d2)
            pair = strip(n_acc, d_acc)
        elif kind == "pow":
            n1, d1 = vals[arg[0]]
            k = arg[1]
            if k < 0:
                n1, d1, k = d1, n1, -k
            if not d1:
                raise ExactPathUnavailable("inverse of an identically zero expression")
            pair = (ppow(n1, k), ppow(d1, k))
        else:
            (n1, d1), (n2, d2) = vals[arg[0]], vals[arg[1]]
            if not n2:
                raise ExactPathUnavailable("division by an identically zero expression")
            pair = strip(pmul(n1, d2), pmul(d1, n2))
        vals.append(pair)
    return not vals[-1][0]


def _outcome(decide):
    try:
        return decide()
    except ExactPathUnavailable as err:
        return f"unavailable: {err}"


@pytest.mark.parametrize("cap", [4, 12, 40, identity._TERM_CAP])
@settings(max_examples=150, deadline=None)
@given(a=small_dags(), b=small_dags())
def test_exact_zero_matches_tuple_fraction_normalizer(cap, a, b):
    # Both forms keep every pair a constant multiple of the other, so every
    # polynomial has the same support: the same verdicts, and the cap trips
    # at the same step for the same reason.
    r = sub(a, b)
    with mock.patch.object(identity, "_TERM_CAP", cap):
        got = _outcome(lambda: exact_zero(r))
    assert got == _outcome(lambda: _reference_exact_zero(r, cap))


def _theorem_residuals(fam):
    """The residuals verify_theorem_i hands to exact_zero, in order."""
    from qpweyl.evolution import verify_theorem_i
    from qpweyl.weyl import CheckConfig

    residuals = []
    with mock.patch.object(identity, "exact_zero",
                           lambda e, **kwargs: residuals.append(e) or True):
        verify_theorem_i(fam, CheckConfig(exact=True))
    return residuals


def test_exact_zero_matches_tuple_fraction_normalizer_on_theorem_residuals(families):
    # The Theorem I residuals are the paper's largest; under these caps some
    # of them blow up at different steps (E6 and E7 rel1/rel2 at every cap).
    residuals = [r for fam in families.values() for r in _theorem_residuals(fam)]
    assert len(residuals) == 36
    for cap in (40, 4000, 40000):
        with mock.patch.object(identity, "_TERM_CAP", cap):
            got = [_outcome(lambda: exact_zero(r)) for r in residuals]
        assert got == [_outcome(lambda: _reference_exact_zero(r, cap)) for r in residuals]
        assert "unavailable: term blow-up" in got and True in got


@pytest.mark.parametrize("text, zero", [
    # One field too narrow for 65536 would carry f's exponent into g's.
    ("f^65536 - g", False),
    ("f^1048576*g - g*f^1048576", True),
    ("f^-40000*f^40000 - 1", True),
    ("2/3 - 4/6", True),
    ("g*f^3/(f*g) - f^2", True),
    ("(2*f + 4*g)/(6*f + 12*g) - 1/3", True),
])
def test_exact_zero_packing_edge_cases(text, zero):
    assert exact_zero(parse(text)) is zero


def test_exact_zero_fields_never_carry():
    # f's field sits below g's, so a field one bit too narrow for the degree
    # bound of a power or of a repeated product would turn f^k into g.
    f, g = parse("f"), parse("g")
    for k in range(1, 70):
        for fk in (pow_(f, k), mul(*[f] * k)):
            assert not exact_zero(sub(fk, g))
            assert not exact_zero(sub(fk, mul(g, g)))
            assert exact_zero(sub(mul(fk, g), mul(g, fk)))


def test_exact_zero_runs_once_per_residual(families):
    # verify-relations --exact asks 416 / 636 / 654 times about 81 / 96 / 57
    # distinct residuals (seed 0); each must be normalized once.
    from qpweyl.weyl import CheckConfig, verify_relations

    for name, runs in (("D5", 81), ("E6", 96), ("E7", 57)):
        identity._exact_outcome.cache_clear()
        with mock.patch.object(identity, "_normalize_is_zero",
                               wraps=identity._normalize_is_zero) as spy:
            verify_relations(families[name], CheckConfig(exact=True))
        assert spy.call_count == runs, name


def test_exact_zero_remembers_unavailable_and_keys_by_cap():
    identity._exact_outcome.cache_clear()
    e = parse("(f + g)^3 - (g + f)^3")
    with mock.patch.object(identity, "_normalize_is_zero",
                           wraps=identity._normalize_is_zero) as spy:
        for _ in range(2):
            with mock.patch.object(identity, "_SIZE_BOUND", 2):
                with pytest.raises(ExactPathUnavailable, match="exceeds 2 nodes"):
                    exact_zero(e)
            with mock.patch.object(identity, "_TERM_CAP", 4):
                with pytest.raises(ExactPathUnavailable, match="term blow-up"):
                    exact_zero(e)
            assert exact_zero(e)
    assert spy.call_count == 3


@pytest.fixture
def fresh_exact():
    """exact_zero with no outcome remembered and no node recorded as blown."""
    identity._exact_outcome.cache_clear()
    with mock.patch.dict(identity._BLOWN, clear=True):
        yield
    identity._exact_outcome.cache_clear()


def test_e7_rel2_after_rel1_builds_no_polynomial(e7, fresh_exact):
    # E7 T:rel1 and T:rel2 trip the cap at one shared node, so once rel1 has
    # recorded it, rel2 is unavailable without a single product.
    rel1, rel2 = _theorem_residuals(e7)[-2:]
    with mock.patch.object(identity, "_poly_mul", wraps=identity._poly_mul) as spy:
        with pytest.raises(ExactPathUnavailable, match="^term blow-up$"):
            exact_zero(rel1)
        assert spy.call_count > 0
        spy.reset_mock()
        got = _outcome(lambda: exact_zero(rel2))
        assert spy.call_count == 0
    assert got == _outcome(lambda: _reference_exact_zero(rel2, identity._TERM_CAP))
    assert got == "unavailable: term blow-up"


@pytest.mark.parametrize("cap", [4, 12, 40])
@settings(max_examples=150, deadline=None)
@given(a=small_dags(), b=small_dags(), c=small_dags())
def test_residuals_sharing_a_blown_node_match_the_reference(cap, a, b, c):
    # The first residual records where it trips the cap; the later ones reach
    # its nodes.  The cube trips small caps often, and the last residual
    # divides by c - c before it reaches the cube.
    d = sub(a, b)
    residuals = [d, sub(mul(a, c), b), sub(pow_(d, 3), c)]
    try:
        residuals.append(mul(pow_(d, 3), div(num(1), sub(c, c))))
    except ExprError:  # c - c folded to the constant 0
        pass
    identity._exact_outcome.cache_clear()
    with mock.patch.dict(identity._BLOWN, clear=True), \
            mock.patch.object(identity, "_TERM_CAP", cap):
        for r in residuals:
            got = _outcome(lambda: exact_zero(r))
            assert got == _outcome(lambda: _reference_exact_zero(r, cap))
    identity._exact_outcome.cache_clear()


def test_blown_node_with_a_zero_divisor_keeps_the_reference_message(fresh_exact):
    # The division by f - f comes first in the program, so the full run ends
    # there; the certificate's evaluation divides by zero and falls back to it.
    f, g = sym("f"), sym("g")
    blown = pow_(add(f, g), 3)
    r = add(blown, div(num(1), sub(f, f)))
    with mock.patch.object(identity, "_TERM_CAP", 4):
        with pytest.raises(ExactPathUnavailable, match="^term blow-up$"):
            exact_zero(blown)
        assert blown in identity._BLOWN[4]
        got = _outcome(lambda: exact_zero(r))
    assert got == _outcome(lambda: _reference_exact_zero(r, 4))
    assert got == "unavailable: division by an identically zero expression"


def test_node_blown_at_one_cap_is_not_blown_at_another(fresh_exact):
    f, g = sym("f"), sym("g")
    blown = pow_(add(f, g), 3)
    with mock.patch.object(identity, "_TERM_CAP", 4):
        with pytest.raises(ExactPathUnavailable, match="^term blow-up$"):
            exact_zero(blown)
    assert blown in identity._BLOWN[4]
    assert exact_zero(sub(mul(blown, num(2)), add(blown, blown)))
    assert blown not in identity._BLOWN[identity._TERM_CAP]


# ---------------------------------------------------------------------------
# batched trials: the probe plus one lane run equal the point-by-point loop

#: The smallest prime above 2^60: almost half of its 61-bit words are
#: rejected, so redrawing runs all the time.
_REJECTING_PRIME = (1 << 60) + 33


def _sequential_identities_equal(a, b, constraint=None, *, trials, prime=DEFAULT_PRIME,
                                 seed=0, label=""):
    """identities_equal as it ran before batching: every trial draws one
    point and evaluates it alone.  The batched function must match it."""
    identity.check_sampling(trials, prime)
    r = sub(a, b)
    if constraint is not None:
        r = constraint.apply(r)
    names = sorted(r.free)
    rng = identity.rng_for(seed, label)

    result = IdentityResult(verdict="equal")
    budget = 100 * trials
    done = 0
    while done < trials:
        if result.resamples + done >= budget:
            raise DegenerateComparison(
                f"exhausted {budget} sampling attempts for '{label or identity.to_label(a, b)}'"
            )
        point = sample_point(rng, names, prime)
        try:
            v = evaluate(r, point, prime)
        except DivisionByZero:
            result.resamples += 1
            continue
        done += 1
        if v != 0:
            result.verdict = "unequal"
            result.witness = point
            break
    result.trials = done
    return result


def _both(a, b, constraint=None, **kwargs):
    """Run both versions; each result is an IdentityResult or the
    DegenerateComparison message together with the state of the generator
    it drew from, which tells how many points were drawn before it gave up."""
    def run(decide):
        drawn = []

        def spy(seed, label):
            drawn.append(rng_for(seed, label))
            return drawn[-1]

        with mock.patch.object(identity, "rng_for", spy):
            try:
                return decide(a, b, constraint, **kwargs)
            except DegenerateComparison as err:
                return str(err), drawn[0].getstate()

    return run(identities_equal), run(_sequential_identities_equal)


def _residue_poles(names, prime):
    """1 / prod (x^((p-1)/2) - 1): a pole wherever some x is a square mod p,
    so a point is off the poles with probability 2^-len(names)."""
    half = (prime - 1) // 2
    return pow_(mul(*[sub(pow_(sym(n), half), num(1)) for n in names]), -1)


@settings(max_examples=120, deadline=None)
@given(a=small_dags(), b=small_dags(),
       trials=st.integers(1, 16), seed=st.integers(0, 3),
       label=st.sampled_from(["", "x", "pair:rel"]),
       prime=st.sampled_from([DEFAULT_PRIME, _REJECTING_PRIME]),
       constrained=st.booleans(), poles=st.booleans(),
       cap=st.sampled_from([1, 2, 3, 5, identity._LANE_CAP]))
def test_batched_trials_match_point_by_point_loop(a, b, trials, seed, label, prime,
                                                  constrained, poles, cap):
    k = ConstraintRelation("q", parse("f/(g - 1)")) if constrained else None
    if poles:
        # a * P / P with a pole of P at half the points: a probe on a pole
        # leaves the refutation, if any, to the first lane off the poles.
        pole = _residue_poles(["f"], prime)
        a = div(mul(a, pole), pole)
    # A cap below trials leaves the rest to further batches drawn from the
    # same generator.
    with mock.patch.object(identity, "_LANE_CAP", cap):
        batched, sequential = _both(a, b, k, trials=trials, prime=prime, seed=seed,
                                    label=label)
    assert batched == sequential


@pytest.mark.parametrize("trials", range(1, 17))
def test_batched_trials_match_on_pole_heavy_residuals(trials):
    # Off the poles with probability 1/2 and 1/8: resampling runs in every
    # batch.  Against 0 the first point off the poles refutes.
    for names in (["f"], ["f", "g", "q"]):
        poles = _residue_poles(names, DEFAULT_PRIME)
        for b in (num(0), poles):
            for seed in range(2):
                batched, sequential = _both(poles, b, trials=trials, seed=seed,
                                            label=f"poles:{len(names)}")
                assert batched == sequential


@pytest.mark.parametrize("trials", [1, 2, 3])
def test_batched_trials_match_where_the_budget_runs_out(trials):
    # Off the poles with probability 1/64: some comparisons find their
    # points in the last batches, others exhaust the budget.
    poles = _residue_poles(["f", "g", "q", "nu1", "nu2", "nu3"], DEFAULT_PRIME)
    outcomes = [_both(poles, poles, trials=trials, seed=seed, label="budget")
                for seed in range(6)]
    for batched, sequential in outcomes:
        assert batched == sequential
    assert {type(batched) for batched, _ in outcomes} == {IdentityResult, tuple}


@pytest.mark.parametrize("trials", range(1, 17))
def test_all_pole_residual_gives_up_at_the_same_attempt(trials):
    bad = div(num(1), sub(sym("f"), sym("f")))
    for label in ("", "degen"):
        batched, sequential = _both(bad, parse("f"), trials=trials, label=label)
        assert batched == sequential
        assert batched[0].startswith(f"exhausted {100 * trials} sampling attempts")


def test_sample_columns_are_sample_points_split_by_name():
    names = ["f", "g", "nu1"]
    for prime in (DEFAULT_PRIME, _REJECTING_PRIME):
        columns = identity.sample_columns(rng_for(3, "cols"), names, prime, 9)
        ref = rng_for(3, "cols")
        points = [sample_point(ref, names, prime) for _ in range(9)]
        assert columns == {n: [pt[n] for pt in points] for n in names}


@pytest.mark.parametrize("trials", [identity._LANE_CAP + 1, 3 * identity._LANE_CAP - 7])
def test_trials_above_the_lane_cap_match_point_by_point_loop(trials):
    f, g = sym("f"), sym("g")
    poles = _residue_poles(["f", "g"], DEFAULT_PRIME)
    sizes = []
    run_lanes = identity._run_lanes

    def spy(code, columns, m, p):
        sizes.append(m)
        return run_lanes(code, columns, m, p)

    with mock.patch.object(identity, "_run_lanes", spy):
        for a, b in ((poles, poles), (poles, num(0)), (div(f, g), mul(f, pow_(g, -1))),
                     (div(num(1), sub(f, f)), f)):
            batched, sequential = _both(a, b, trials=trials, label="above-cap")
            assert batched == sequential
    assert max(sizes) == identity._LANE_CAP


# ---------------------------------------------------------------------------
# self-comparisons without a possible pole are decided without sampling


def _both_on_self(a, constraint=None, **kwargs):
    """identities_equal(a, a) and the loop copy, and whether the former
    ended through the loop."""
    sample, sampled = identity._sample, []
    with mock.patch.object(identity, "_sample",
                           lambda *args: sampled.append(1) or sample(*args)):
        batched, sequential = _both(a, a, constraint, **kwargs)
    return batched, sequential, bool(sampled)


@settings(max_examples=200, deadline=None)
@given(a=small_dags(), trials=st.integers(1, 16), seed=st.integers(0, 3),
       prime=st.sampled_from([DEFAULT_PRIME, _REJECTING_PRIME]),
       constrained=st.booleans(), poles=st.booleans())
def test_self_comparison_matches_point_by_point_loop(a, trials, seed, prime, constrained,
                                                     poles):
    k = ConstraintRelation("q", parse("f/(g - 1)")) if constrained else None
    if poles:
        pole = _residue_poles(["f"], prime)
        a = div(mul(a, pole), pole)
    batched, sequential, sampled = _both_on_self(a, k, trials=trials, prime=prime,
                                                 seed=seed, label="self")
    assert batched == sequential
    r = sub(a, a) if k is None else k.apply(sub(a, a))
    assert sampled != identity._pole_free(r, prime)
    if not sampled:
        assert batched == IdentityResult("equal", trials=trials)


@pytest.mark.parametrize("text", [
    "f", "0", "2/3", "(f - g)^2", "f*g/q^2", "(f + g)/(f*g)", "nu1^-3",
    "(f - nu3)*g/(2*kappa1)", "(f/g)^-2*(g - 1)",
])
@pytest.mark.parametrize("prime", [DEFAULT_PRIME, _REJECTING_PRIME])
def test_self_comparisons_without_possible_poles_skip_sampling(text, prime):
    a = parse(text)
    with mock.patch.object(identity, "rng_for", side_effect=AssertionError("sampled")):
        got = identities_equal(a, a, trials=9, prime=prime, label="skip")
    assert got == IdentityResult("equal", trials=9)
    assert got == _sequential_identities_equal(a, a, trials=9, prime=prime, label="skip")


@pytest.mark.parametrize("case", ["nu1 - nu1", "(f - g)^-1", "1/p", "1/(p*f)",
                                  "nu8 constrained"])
def test_self_comparisons_with_possible_poles_end_through_the_loop(case):
    from fractions import Fraction

    k = None
    if case == "nu1 - nu1":
        a = div(num(1), sub(sym("nu1"), sym("nu1")))
    elif case == "(f - g)^-1":
        a = pow_(sub(sym("f"), sym("g")), -1)
    elif case == "1/p":
        a = mul(num(Fraction(1, DEFAULT_PRIME)), sym("f"))
    elif case == "1/(p*f)":
        a = div(sym("g"), mul(num(DEFAULT_PRIME), sym("f")))
    else:
        # nu8 less its own image: a sum that vanishes once constrained.
        k = constraint()
        a = div(num(1), sub(sym("nu8"), k.replacement))
    batched, sequential, sampled = _both_on_self(a, k, trials=4, label=case)
    assert sampled
    assert batched == sequential
    if case == "(f - g)^-1":
        assert batched == IdentityResult("equal", trials=4)
    else:
        assert batched[0] == "exhausted 400 sampling attempts for '%s'" % case


def test_constant_denominator_is_tested_against_the_prime():
    from fractions import Fraction

    a = mul(num(Fraction(1, _REJECTING_PRIME)), sym("f"))
    assert identity._pole_free(sub(a, a), DEFAULT_PRIME)
    assert not identity._pole_free(sub(a, a), _REJECTING_PRIME)


@settings(max_examples=300, deadline=None)
@given(a=small_dags(), b=small_dags(), constrained=st.booleans(),
       prime=st.sampled_from([DEFAULT_PRIME, _REJECTING_PRIME]), seed=st.integers(0, 3))
def test_pole_free_residuals_have_no_pole_at_nonzero_points(a, b, constrained, prime, seed):
    import itertools
    import random

    r = sub(a, b)
    if constrained:
        r = ConstraintRelation("q", parse("f/(g - 1)")).apply(r)
    if not identity._pole_free(r, prime):
        return
    names = sorted(r.free)
    corners = list(itertools.product((1, prime - 1), repeat=len(names)))
    rng = random.Random(seed)
    points = corners + [[rng.randrange(1, prime) for _ in names] for _ in range(8)]
    columns = {n: [pt[j] for pt in points] for j, n in enumerate(names)}
    code = identity._compile(r)[0]
    assert None not in identity._run_lanes(code, columns, len(points), prime)


def test_relations_make_one_evaluate_call_fewer_per_shortcut(d5):
    # The probe is the only evaluate call of a self-comparison that the loop
    # would accept; a shortcut makes none, and every report stays the same.
    from qpweyl.weyl import CheckConfig, verify_relations

    def run(pole_free):
        sampled = []
        with mock.patch.object(identity, "evaluate", wraps=identity.evaluate) as spy, \
                mock.patch.object(identity, "_pole_free", pole_free), \
                mock.patch.object(identity, "_sample",
                                  lambda *args: sampled.append(1) or sample(*args)):
            report = verify_relations(d5, CheckConfig())
        checks = [(c.id, c.status, c.witness, c.detail) for c in report.checks]
        return checks, spy.call_count, len(sampled)

    sample = identity._sample
    looped, loop_calls, loop_sampled = run(lambda r, p: False)
    checks, calls, sampled = run(identity._pole_free)
    assert checks == looped
    shortcuts = loop_sampled - sampled
    assert shortcuts > 0
    assert loop_calls - calls == shortcuts
