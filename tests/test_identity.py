"""Randomized and exact identity testing."""

import contextlib
import functools
import hashlib
from pathlib import Path
from unittest import mock

import pytest
from dags import small_dags
from hypothesis import example, given, settings, strategies as st

from qpweyl import identity
from qpweyl.expr import (
    ACTION_SYMBOLS, DivisionByZero, ExprError, add, div, evaluate, mul, num, parse, pow_, sub,
    sym)
from qpweyl.identity import (
    CheckConfig,
    ConstraintRelation,
    DEFAULT_PRIME,
    DEFAULT_TRIALS,
    DegenerateComparison,
    ExactPathUnavailable,
    IdentityResult,
    exact_zero,
    identities_equal,
    stream_values,
)


def constraint():
    return ConstraintRelation(
        "nu8", parse("kappa1^2*kappa2^2/(q*nu1*nu2*nu3*nu4*nu5*nu6*nu7)"))


def test_equal_verdict():
    r = identities_equal(parse("(f + g)^2"), parse("f^2 + 2*f*g + g^2"), label="t1")
    assert r.verdict == "equal"
    assert r.trials == DEFAULT_TRIALS


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
    r1 = identities_equal(a, b, None, CheckConfig(seed=5), label="same")
    r2 = identities_equal(a, b, None, CheckConfig(seed=5), label="same")
    assert r1.witness == r2.witness
    r3 = identities_equal(a, b, None, CheckConfig(seed=6), label="same")
    assert r3.witness != r1.witness


@functools.lru_cache(maxsize=None)
def _reference_block(seed, name, prime, k):
    """Block k of name's stream, decoded apart from identity.stream_values:
    the whole SHAKE-128 output read as one integer and split into words from
    its low end, a whole block at a time."""
    width = prime - 1
    bits = width.bit_length()
    word = 8 * ((bits + 7) // 8)
    n, block = identity._BLOCK, []
    while len(block) < identity._BLOCK:
        whole = int.from_bytes(
            hashlib.shake_128(f"{seed}:point:{name}:{k}".encode()).digest(n * word // 8), "little")
        block = [1 + v for v in ((whole >> (i * word)) % (1 << bits) for i in range(n))
                 if v < width]
        n *= 2
    return tuple(block[:identity._BLOCK])


def _reference_value(seed, name, prime, j):
    """Value j of name's stream."""
    return _reference_block(seed, name, prime, j // identity._BLOCK)[j % identity._BLOCK]


@pytest.mark.parametrize("prime", [(1 << 61) - 1, DEFAULT_PRIME, (1 << 60) + 33])
def test_stream_values_match_a_second_decoding(prime):
    # Every witness and golden hash depends on these values.  Reads start
    # and end inside a block and cross from one block to the next.
    for seed in range(4):
        for name in ("f", "nu1", "kappa2"):
            ref = [_reference_value(seed, name, prime, j) for j in range(600)]
            assert stream_values(seed, name, prime, 0, 600) == ref
            for start, end in ((0, 1), (3, 11), (250, 270), (255, 257), (511, 513)):
                assert stream_values(seed, name, prime, start, end) == ref[start:end]
            assert all(1 <= v < prime for v in ref)


def test_trials_validation():
    with pytest.raises(ValueError, match="^trials must be >= 1, got 0$"):
        CheckConfig(trials=0)
    with pytest.raises(ValueError, match=r"^prime must exceed 2\^60, got 97$"):
        CheckConfig(prime=97)
    with pytest.raises(ValueError, match=f"^prime {10**21} is composite$"):
        CheckConfig(prime=10**21)
    with pytest.raises(ValueError, match=f"^trials must be at most {identity.MAX_TRIALS}, "):
        CheckConfig(trials=identity.MAX_TRIALS + 1)
    # 2^1279 - 1 is prime: its width alone refuses it.
    with pytest.raises(ValueError, match=f"^prime must be at most {identity.MAX_PRIME_BITS} "
                                         "bits wide, got 1279 bits$"):
        CheckConfig(prime=(1 << 1279) - 1)
    CheckConfig(trials=identity.MAX_TRIALS, prime=DEFAULT_PRIME)   # the bound is allowed


#: The error bound of 16 trials over 2^61 - 1, which every default count meets.
_SEED_BOUND = ((1 << 61) - 2) ** 16


@pytest.mark.parametrize("prime, trials", [
    ((1 << 60) + 33, 17),          # the smallest prime above 2^60
    ((1 << 61) - 1, 16),
    ((1 << 89) - 1, 11),
    ((1 << 127) - 1, 8),
    ((1 << 1023) + 1155, 1),       # the smallest 1,024-bit prime
])
def test_trials_for_is_the_fewest_that_meet_the_seed_bound(prime, trials):
    assert identity.trials_for(prime) == trials
    assert (prime - 1) ** trials >= _SEED_BOUND
    assert trials == 1 or (prime - 1) ** (trials - 1) < _SEED_BOUND


def test_default_trials_follow_the_prime():
    assert DEFAULT_TRIALS == identity.trials_for(DEFAULT_PRIME) == 11
    for k in (61, 89, 107, 127, 521, 607):     # the Mersenne primes of 61 to 1,024 bits
        prime = (1 << k) - 1
        cfg = CheckConfig(prime=prime)
        assert cfg.trials == identity.trials_for(prime) <= 16
        assert (prime - 1) ** cfg.trials >= _SEED_BOUND
    assert CheckConfig(trials=5, prime=(1 << 61) - 1).trials == 5
    with pytest.raises(ValueError, match="^prime must exceed 2, got 2$"):
        identity.trials_for(2)


def test_is_prime_proves_mersenne_numbers_by_lucas_lehmer():
    from qpweyl.identity import is_prime
    mersenne = {2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607}
    assert {k for k in range(2, 1025) if is_prime.__wrapped__((1 << k) - 1)} == mersenne


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
        identities_equal(bad, parse("f"), None, CheckConfig(trials=2), label="degen")


def test_unlabeled_degenerate_comparison_prints_nothing(monkeypatch):
    # The message names the label when there is one, and neither side: a
    # side can print to gigabytes.
    from qpweyl import expr as expr_module

    calls = []
    real = expr_module.to_string
    monkeypatch.setattr(expr_module, "to_string", lambda e: calls.append(e) or real(e))
    bad = div(num(1), sub(sym("f"), sym("f")))
    with pytest.raises(DegenerateComparison, match="^exhausted 400 sampling attempts$"):
        identities_equal(bad, parse("f"), None, CheckConfig(trials=4))
    assert not calls


def test_resampling_survives_occasional_poles():
    # (f - nu1) vanishes on a sparse set only; sampling should sail through
    e = parse("(f^2 - nu1^2)/(f - nu1)")
    r = identities_equal(e, parse("f + nu1"), label="poles")
    assert r.verdict == "equal"


def test_exact_proof_small_case():
    r = identities_equal(parse("(f + g)^2"), parse("f^2 + 2*f*g + g^2"), None,
                         CheckConfig(exact=True), label="exact1")
    assert r.verdict == "exact-proved"


def test_exact_and_probabilistic_agree_on_unequal():
    r = identities_equal(parse("nu3"), parse("nu4"), None, CheckConfig(exact=True),
                         label="exact2")
    assert r.verdict == "unequal"


def test_exact_zero_direct():
    assert exact_zero(parse("(f + g)^2 - f^2 - 2*f*g - g^2"))
    assert not exact_zero(parse("(f + g)^2 - f^2 - 2*f*g - g^2 + nu1"))
    # rational functions: numerator of the combined fraction decides
    assert exact_zero(parse("1/(f*g) - 1/f*(1/g)"))
    assert exact_zero(parse("(f^2 - g^2)/(f - g) - f - g"))


@pytest.fixture
def fresh_exact():
    """No exact outcome remembered before or after the test.  The outcome
    cache is keyed by the residual alone, so an outcome decided under a
    patched _TERM_CAP, _SIZE_BOUND, _degree_bound or _poly_mul must not
    outlive the patch."""
    identity._normalize.cache_clear()
    yield
    identity._normalize.cache_clear()


@contextlib.contextmanager
def _term_cap(cap):
    """_TERM_CAP patched to cap, with no outcome remembered on entry or on
    exit; for the hypothesis tests, which take no function-scoped fixture."""
    identity._normalize.cache_clear()
    try:
        with mock.patch.object(identity, "_TERM_CAP", cap):
            yield
    finally:
        identity._normalize.cache_clear()


def test_exact_zero_size_gate(fresh_exact):
    e = parse("(f + g)^2")
    with mock.patch.object(identity, "_SIZE_BOUND", 2):
        with pytest.raises(ExactPathUnavailable):
            exact_zero(e)


def test_exact_zero_on_division_by_zero_expression():
    from qpweyl.expr import substitute, sym
    bad = substitute(parse("1/(f - g)"), {"g": sym("f")})
    with pytest.raises(ExactPathUnavailable):
        exact_zero(bad)


def test_exact_zero_on_inverse_of_identically_zero_expression():
    bad = parse("((f + g)^2 - f^2 - 2*f*g - g^2)^-1")
    with pytest.raises(ExactPathUnavailable,
                       match="division by an identically zero expression"):
        exact_zero(bad)


def test_an_exact_path_that_disagrees_with_sampling_is_an_engine_defect():
    # A sampled "equal" that the exact path calls nonzero cannot come from a
    # correct engine: identities_equal raises instead of returning either.
    a, b = parse("(f + g)^2"), parse("f^2 + 2*f*g + g^2")
    assert identities_equal(a, b, None, CheckConfig(exact=True)).verdict == "exact-proved"
    with mock.patch.object(identity, "exact_zero", lambda r: False):
        assert identities_equal(a, b).verdict == "equal"
        with pytest.raises(AssertionError, match="engine defect"):
            identities_equal(a, b, None, CheckConfig(exact=True))


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
        exact = identities_equal(a, b, None, CheckConfig(exact=True), label=f"agree:{k}:p")
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
        mine = identities_equal(parse(text), parse(str(sexpr).replace("**", "^")), None,
                                CheckConfig(exact=True), label=f"sym:{text}")
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


_CONTENT_HEAVY = "(6*f + 6)^5*(10*g - 10)^4/((4*f + 4)^3*(15*g - 15)^2)"
_EXPANDED = ("5400*f^2*g^2 - 10800*f^2*g + 5400*f^2 + 10800*f*g^2 - {}*f*g + 10800*f"
             " + 5400*g^2 - 10800*g + 5400")


@pytest.mark.parametrize("cap", [4, 12, 40, identity._TERM_CAP])
@settings(max_examples=150, deadline=None)
@example(a=parse(_CONTENT_HEAVY), b=parse(_EXPANDED.format(21600)))
@example(a=parse(_CONTENT_HEAVY), b=parse(_EXPANDED.format(21601)))
@example(a=parse("(f + g)^3"), b=parse("-1/(f - f)"))
@given(a=small_dags(), b=small_dags())
def test_exact_zero_matches_tuple_fraction_normalizer(cap, a, b):
    # Both forms keep every pair a constant multiple of the other, so every
    # polynomial has the same support: the same verdicts, and the cap trips
    # at the same step for the same reason.  The first two examples carry a
    # large common integer content in every pair, which exact_zero never
    # divides out.  In the third, the division by f - f comes before the
    # cube in the program, so the run ends there at every cap.
    r = sub(a, b)
    with _term_cap(cap):
        got = _outcome(lambda: exact_zero(r))
    assert got == _outcome(lambda: _reference_exact_zero(r, cap))


def _theorem_residuals(fam):
    """The constrained residuals of verify_theorem_i's 12 claims, in order:
    nu1..nu8, kappa1, kappa2, rel1, rel2."""
    from qpweyl.evolution import make_evolution_spec, time_evolution
    from qpweyl.expr import ZERO, substitute

    T = time_evolution(fam)
    claims = [(T.image(f"nu{i}"), sym(f"nu{i}")) for i in range(1, 9)]
    claims += [(T.image("kappa1"), parse("kappa1/q")), (T.image("kappa2"), parse("q*kappa2"))]
    images = {"fbar": T.image("f"), "gbar": T.image("g")}
    claims += [(substitute(rel, images), ZERO) for rel in make_evolution_spec(fam).qp_relations]
    return [fam.constraint.apply(sub(a, b)) for a, b in claims]


def test_theorem_residuals_are_those_verify_theorem_i_normalizes(families):
    # The ten parameter claims are decided on the lattice, so exact_zero
    # sees rel1 and rel2 only.
    from qpweyl.evolution import verify_theorem_i
    from qpweyl.weyl import CheckConfig

    for fam in families.values():
        seen = []
        with mock.patch.object(identity, "exact_zero",
                               lambda e, **kwargs: seen.append(e) or True):
            verify_theorem_i(fam, CheckConfig(exact=True))
        assert seen == _theorem_residuals(fam)[-2:], fam.name


def test_exact_zero_matches_tuple_fraction_normalizer_on_theorem_residuals(families):
    # The Theorem I residuals are the paper's largest; under these caps some
    # of them blow up at different steps (E6 and E7 rel1/rel2 at every cap).
    residuals = [r for fam in families.values() for r in _theorem_residuals(fam)]
    assert len(residuals) == 36
    for cap in (40, 4000, 40000):
        with _term_cap(cap):
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


def _assert_degree_bound_holds(e):
    """_degree_bound of e's program is at least every exponent of every
    polynomial _normalize builds for e, read with packed fields 40 bits wide
    whatever the bound, so that no exponent carries."""
    from qpweyl.expr import _compile

    width = 40
    order = sorted(e.free)
    largest = [0]
    poly_mul = identity._poly_mul

    def spy(p, q):
        out = poly_mul(p, q)
        for m in out:
            largest[0] = max(largest[0], *((m >> (i * width)) & ((1 << width) - 1)
                                           for i in range(len(order))))
        return out

    with mock.patch.object(identity, "_degree_bound", lambda code: (1 << width) - 1), \
            mock.patch.object(identity, "_poly_mul", spy):
        try:
            identity._normalize.__wrapped__(e)
        except ExactPathUnavailable:
            pass
    assert identity._degree_bound(_compile(e)[0]) >= largest[0]


@settings(max_examples=150, deadline=None)
@example(a=parse("(f^5*kappa1)^8"), b=parse("(f*kappa1)^8*g"))
@given(a=small_dags(), b=small_dags())
def test_degree_bound_holds_every_exponent(a, b):
    # A bound too small lets an exponent carry into the next variable's
    # field, which can turn a nonzero residual into a zero one: k + b for a
    # k-th power proves (f^5*kappa1)^8 equal to (f*kappa1)^8*g.
    _assert_degree_bound_holds(sub(a, b))


def test_degree_bound_holds_every_exponent_of_the_theorem_residuals(d5):
    for r in _theorem_residuals(d5):
        _assert_degree_bound_holds(r)


def test_term_cap_is_a_third_above_every_proof(families, fresh_exact):
    # The 18 --exact verify runs (three commands, three families, with and
    # without the constraint) normalize 86 residuals: 72 are proved, and no
    # proof takes a product above 73,920 term pairs; 14 end in term blow-up,
    # and they took 616 of the 725 ms spent in the exact path under a cap of
    # 400,000.  The gauge suite's 2x2 minors are among them.  A change whose proofs need more than three quarters of the
    # cap raises it on purpose, and a cap too low for a proof fails here.
    from qpweyl.evolution import verify_theorem_i, verify_theorem_ii
    from qpweyl.lax import verify_gauge_claims
    from qpweyl.weyl import CheckConfig, verify_relations

    poly_mul, normalize = identity._poly_mul, identity._normalize.__wrapped__
    largest, outcomes = [0], []

    def spy_mul(p, q):
        if p and q:
            largest[0] = max(largest[0], len(p) * len(q))
        return poly_mul(p, q)

    @functools.lru_cache(maxsize=identity.EXACT_CACHE_SIZE)
    def spy_normalize(e):
        largest[0] = 0
        outcome = normalize(e)
        outcomes.append((outcome, largest[0]))
        return outcome

    with mock.patch.object(identity, "_poly_mul", spy_mul), \
            mock.patch.object(identity, "_normalize", spy_normalize):
        for use_constraint in (True, False):
            cfg = CheckConfig(exact=True, use_constraint=use_constraint)
            for suite in (verify_relations, verify_theorem_i, verify_theorem_ii,
                          verify_gauge_claims):
                for fam in families.values():
                    suite(fam, cfg)
    proved = [product for outcome, product in outcomes if outcome is True]
    blown = [outcome for outcome, _ in outcomes if outcome == "term blow-up"]
    assert (len(proved), len(blown), len(outcomes)) == (72, 14, 86)
    assert max(proved) <= identity._TERM_CAP * 3 // 4


def test_exact_zero_runs_once_per_residual(families):
    # Past the lattice, verify-relations --exact asks 15 / 25 / 10 times
    # about 13 / 19 / 7 distinct residuals (seed 0); each must be normalized
    # once.
    from qpweyl.weyl import CheckConfig, verify_relations

    exact_zero = identity.exact_zero
    for name, runs in (("D5", 13), ("E6", 19), ("E7", 7)):
        identity._normalize.cache_clear()
        asked = []
        with mock.patch.object(identity, "exact_zero",
                               lambda e: asked.append(e) or exact_zero(e)):
            verify_relations(families[name], CheckConfig(exact=True))
        assert len(asked) > runs, name
        assert identity._normalize.cache_info().misses == len(set(asked)) == runs, name


def test_exact_zero_remembers_unavailable(fresh_exact):
    # Why the path is unavailable is remembered like a verdict: asked twice,
    # the residual is normalized once.
    e = parse("(f + g)^3 - (g + f)^3")
    for constant, value, reason in (("_SIZE_BOUND", 2, "exceeds 2 nodes"),
                                    ("_TERM_CAP", 4, "^term blow-up$")):
        identity._normalize.cache_clear()
        with mock.patch.object(identity, constant, value):
            for _ in range(2):
                with pytest.raises(ExactPathUnavailable, match=reason):
                    exact_zero(e)
        info = identity._normalize.cache_info()
        assert (info.hits, info.misses) == (1, 1)
    identity._normalize.cache_clear()
    assert exact_zero(e)


def test_exact_cache_is_bounded(fresh_exact):
    # The bound holds the 73 distinct residuals of the 18 --exact verify runs,
    # so a process that runs them again normalizes none of them again.
    assert identity._normalize.cache_info().maxsize == identity.EXACT_CACHE_SIZE >= 73
    f = sym("f")
    for k in range(identity.EXACT_CACHE_SIZE + 10):
        assert not exact_zero(sub(pow_(f, k + 2), num(k + 1)))
    info = identity._normalize.cache_info()
    assert info.misses == identity.EXACT_CACHE_SIZE + 10
    assert info.currsize == identity.EXACT_CACHE_SIZE


@pytest.mark.parametrize("cap", [4, 12, 40])
@settings(max_examples=150, deadline=None)
@given(a=small_dags(), b=small_dags(), c=small_dags())
def test_residuals_sharing_a_blown_node_match_the_reference(cap, a, b, c):
    # Residuals that share nodes each end as the reference does, whichever
    # ran first.  The cube trips small caps often, at a node that every
    # residual with the cube reaches, and the last residual divides by c - c
    # before it reaches the cube.
    d = sub(a, b)
    residuals = [d, sub(mul(a, c), b), sub(pow_(d, 3), c)]
    try:
        residuals.append(mul(pow_(d, 3), div(num(1), sub(c, c))))
    except ExprError:  # c - c folded to the constant 0
        pass
    with _term_cap(cap):
        for r in residuals:
            got = _outcome(lambda: exact_zero(r))
            assert got == _outcome(lambda: _reference_exact_zero(r, cap))


# ---------------------------------------------------------------------------
# batched trials: the probe plus one lane run equal the point-by-point loop

#: The smallest prime above 2^60: almost half of its 61-bit words are
#: rejected, so redrawing runs all the time.
_REJECTING_PRIME = (1 << 60) + 33


def _sequential_identities_equal(a, b, constraint=None, cfg=CheckConfig(), *, label=""):
    """identities_equal as a point-by-point loop: attempt j reads point j,
    value j of each symbol's own stream, and evaluates it alone.  The
    batched function must match it.  A DegenerateComparison carries the
    number of points read as `read`."""
    trials, prime = cfg.trials, cfg.prime
    r = sub(a, b)
    if constraint is not None:
        r = constraint.apply(r)
    names = sorted(r.free)

    result = IdentityResult(verdict="equal")
    budget = 100 * trials
    done = 0
    while done < trials:
        if result.resamples + done >= budget:
            err = DegenerateComparison(f"exhausted {budget} sampling attempts"
                                       + (f" for '{label}'" if label else ""))
            err.read = result.resamples + done
            raise err
        attempt = result.resamples + done
        point = {n: _reference_value(cfg.seed, n, prime, attempt) for n in names}
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


def _both(a, b, constraint=None, cfg=CheckConfig(), label=""):
    """Run both versions; each result is an IdentityResult or the
    DegenerateComparison message together with the number of points read
    before it gave up."""
    read = [0]
    columns = identity.Points.columns

    def spy(self, names, start, m):
        read[0] = max(read[0], start + m)
        return columns(self, names, start, m)

    with mock.patch.object(identity.Points, "columns", spy):
        try:
            batched = identities_equal(a, b, constraint, cfg, label=label)
        except DegenerateComparison as err:
            batched = str(err), read[0]
    try:
        sequential = _sequential_identities_equal(a, b, constraint, cfg, label=label)
    except DegenerateComparison as err:
        sequential = str(err), err.read
    return batched, sequential


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
    # A cap below trials leaves the rest to further batches read from the
    # same streams.
    with mock.patch.object(identity, "_LANE_CAP", cap):
        batched, sequential = _both(a, b, k, CheckConfig(trials, prime, seed), label)
    assert batched == sequential


@pytest.mark.parametrize("trials", range(1, 17))
def test_batched_trials_match_on_pole_heavy_residuals(trials):
    # Off the poles with probability 1/2 and 1/8: resampling runs in every
    # batch.  Against 0 the first point off the poles refutes.
    for names in (["f"], ["f", "g", "q"]):
        poles = _residue_poles(names, DEFAULT_PRIME)
        for b in (num(0), poles):
            for seed in range(2):
                batched, sequential = _both(poles, b, None, CheckConfig(trials, seed=seed),
                                            f"poles:{len(names)}")
                assert batched == sequential


@pytest.mark.parametrize("trials", [1, 2, 3])
def test_batched_trials_match_where_the_budget_runs_out(trials):
    # Off the poles with probability 1/64: some comparisons find their
    # points in the last batches, others exhaust the budget.  A trial count
    # exhausts it at about one seed in seven.
    poles = _residue_poles(["f", "g", "q", "nu1", "nu2", "nu3"], DEFAULT_PRIME)
    outcomes = [_both(poles, poles, None, CheckConfig(trials, seed=seed), "budget")
                for seed in range(32)]
    for batched, sequential in outcomes:
        assert batched == sequential
    assert {type(batched) for batched, _ in outcomes} == {IdentityResult, tuple}


@pytest.mark.parametrize("trials", range(1, 17))
def test_all_pole_residual_gives_up_at_the_same_attempt(trials):
    bad = div(num(1), sub(sym("f"), sym("f")))
    for label in ("", "degen"):
        batched, sequential = _both(bad, parse("f"), None, CheckConfig(trials), label)
        assert batched == sequential
        assert batched[0].startswith(f"exhausted {100 * trials} sampling attempts")


def test_stream_values_skip_words_at_or_above_p_minus_1():
    # A word of p - 1 would be the value p, a zero coordinate: it is skipped,
    # as randrange(1, p) draws again; bits above the width are dropped.
    width, size = DEFAULT_PRIME - 1, 12
    words = [width, width - 1, (1 << 89) - 1, 0, (1 << 95) | 5, width + 1, 7]

    class Output:
        def __init__(self, key):
            assert key == b"3:point:f:0"

        def digest(self, n):
            data = b"".join(w.to_bytes(size, "little") for w in words)
            return data[:n] if n <= len(data) else data + bytes(n - len(data))

    with mock.patch.object(hashlib, "shake_128", Output):
        # Four values need four words at first, then eight: the second read
        # goes further into the same output.
        assert stream_values(3, "f", DEFAULT_PRIME, 0, 4) == [width, 1, 6, 8]


@pytest.mark.parametrize("trials", [identity._LANE_CAP + 1, 3 * identity._LANE_CAP - 7])
def test_trials_above_the_lane_cap_match_point_by_point_loop(trials):
    f, g = sym("f"), sym("g")
    poles = _residue_poles(["f", "g"], DEFAULT_PRIME)
    sizes = []
    run_lanes = identity._run_lanes

    def spy(code, nodes, columns, m, p, memo):
        sizes.append(m)
        return run_lanes(code, nodes, columns, m, p, memo)

    # Once from empty stream heads, once from the heads the first run kept.
    identity._stream_head.cache_clear()
    for _heads in ("cold", "warm"):
        with mock.patch.object(identity, "_run_lanes", spy):
            for a, b in ((poles, poles), (poles, num(0)), (div(f, g), mul(f, pow_(g, -1))),
                         (div(num(1), sub(f, f)), f)):
                batched, sequential = _both(a, b, None, CheckConfig(trials), "above-cap")
                assert batched == sequential
    assert max(sizes) == identity._LANE_CAP


# ---------------------------------------------------------------------------
# one set of points per suite call: point j of symbol x is the j-th value of
# x's own stream

def test_points_are_each_symbols_own_stream():
    names = ["f", "g", "nu1"]
    for prime in (DEFAULT_PRIME, _REJECTING_PRIME):
        points = identity.Points(CheckConfig(trials=5, prime=prime, seed=3))
        # Past the 5 kept values a column is read afresh.
        got = points.columns(names, 0, 300)
        for n in names:
            assert got[n] == [_reference_value(3, n, prime, j) for j in range(300)]
        assert points.first(names) == {n: got[n][0] for n in names}
        # Later reads, of fewer symbols too, read the same values.
        assert points.columns(["nu1"], 3, 20) == {"nu1": got["nu1"][3:23]}
        assert points.columns(names, 250, 20) == {n: got[n][250:270] for n in names}
        assert points.columns(names, 1, 4) == {n: got[n][1:5] for n in names}


@pytest.mark.parametrize("prime", [DEFAULT_PRIME, _REJECTING_PRIME])
def test_a_kept_stream_head_is_a_fresh_read_of_its_stream(prime):
    # The heads hold coordinates alone: read warm, a head is still the first
    # values of its own stream, whichever heads were kept before it.
    identity._stream_head.cache_clear()
    for _heads in ("cold", "warm"):
        for seed in range(4):
            for name in ("f", "g", "nu1", "kappa2"):
                for keep in (1, DEFAULT_TRIALS, identity._LANE_CAP):
                    fresh = stream_values(seed, name, prime, 0, keep)
                    assert list(identity._stream_head(seed, name, prime, keep)) == fresh
    assert identity._stream_head.cache_info().hits == 4 * 4 * 3


def test_a_stream_head_holds_at_most_one_batch():
    # However many trials a config asks for, a kept head is one batch long,
    # so the cache's worst case is HEAD_CACHE_SIZE heads of _LANE_CAP values;
    # the README states that bound.
    points = identity.Points(CheckConfig(trials=identity.MAX_TRIALS))
    assert len(points._head("f")) == identity._LANE_CAP
    maxsize = identity._stream_head.cache_info().maxsize
    assert maxsize == identity.HEAD_CACHE_SIZE
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    bullet = readme.split("`identity._stream_head`", 1)[1].split("\n- ", 1)[0]
    assert f"{maxsize} heads" in " ".join(bullet.split())


def test_suite_calls_at_one_seed_read_each_stream_once(families):
    # Two suite calls per family at one seed read each symbol's stream once
    # in all; a refuting request made again, on a mutant built afresh, reads
    # none.
    from qpweyl.evolution import verify_theorem_i
    from qpweyl.weyl import verify_involutions, verify_relations

    reads = []
    real = identity.stream_values

    def spy(seed, name, prime, start, end):
        reads.append((seed, name, start, end))
        return real(seed, name, prime, start, end)

    def mutant_request(cfg):
        mutant = families["D5"].with_generator("s1", {"nu3": "nu5", "nu5": "nu3"})
        return verify_involutions(mutant, cfg), verify_theorem_i(mutant, cfg)

    identity._stream_head.cache_clear()
    cfg = CheckConfig(seed=3)
    with mock.patch.object(identity, "stream_values", spy):
        for fam in families.values():
            assert verify_relations(fam, cfg).ok and verify_theorem_i(fam, cfg).ok
    names = [name for _, name, _, _ in reads]
    assert names and len(names) == len(set(names))
    assert {(seed, start, end) for seed, _, start, end in reads} == {(3, 0, cfg.trials)}

    reads.clear()
    cfg = CheckConfig(trials=4, seed=5)
    with mock.patch.object(identity, "stream_values", spy):
        first = mutant_request(cfg)
        once = list(reads)
        again = mutant_request(cfg)
    assert once and len({name for _, name, _, _ in once}) == len(once)
    assert reads == once
    assert again == first and not all(report.ok for report in first)


def test_a_label_moves_no_point():
    a, b = parse("nu3 + f"), parse("nu4*g")
    cfg = CheckConfig(seed=5)
    witnesses = [identities_equal(a, b, None, cfg, label=label).witness
                 for label in ("", "x", "c:g")]
    assert witnesses[0] == witnesses[1] == witnesses[2]
    # Both refute at the probe, so another comparison reads the same value
    # of every symbol the two share.
    other = identities_equal(parse("f"), parse("nu3"), None, cfg)
    assert other.witness == {"f": witnesses[0]["f"], "nu3": witnesses[0]["nu3"]}


def test_a_lone_comparison_builds_its_own_points():
    a, b = parse("nu3 + f"), parse("nu4*g")
    cfg = CheckConfig(seed=9)
    alone = identities_equal(a, b, None, cfg)
    assert alone.verdict == "unequal"
    assert identities_equal(a, b, None, cfg) == alone
    assert identities_equal(a, b, None, cfg, points=identity.Points(cfg)) == alone
    with pytest.raises(ValueError, match="^points were drawn for another prime or seed$"):
        identities_equal(a, b, None, cfg, points=identity.Points(CheckConfig(seed=10)))


def test_comparisons_sharing_points_match_the_loop_one_by_one():
    # Comparisons that resample past the kept points in turn, while the
    # memos hold values of the nodes the residuals share.
    f, g = sym("f"), sym("g")
    poles = _residue_poles(["f", "g"], DEFAULT_PRIME)
    pairs = [(poles, poles), (poles, num(0)), (mul(f, poles), mul(poles, f)),
             (div(f, g), f), (poles, poles), (div(num(1), sub(f, f)), f), (poles, num(0))]
    # Once from empty stream heads, once from the heads the first run kept.
    identity._stream_head.cache_clear()
    for seed in [*range(3), *range(3)]:
        cfg = CheckConfig(trials=3, seed=seed)
        points = identity.Points(cfg)
        for a, b in pairs:
            try:
                shared = identities_equal(a, b, None, cfg, label="shared", points=points)
            except DegenerateComparison as err:
                shared = str(err)
            try:
                loop = _sequential_identities_equal(a, b, None, cfg, label="shared")
            except DegenerateComparison as err:
                loop = str(err)
            assert shared == loop


def _node_values(run):
    """run()'s checks, the Points objects it built and the node values they
    computed."""
    made = []
    init = identity.Points.__init__

    def spy(self, cfg):
        init(self, cfg)
        made.append(self)

    with mock.patch.object(identity.Points, "__init__", spy):
        report = run()
    checks = [(c.id, c.status, c.witness, c.detail) for c in report.checks]
    return checks, len(made), sum(len(p.probe) + sum(map(len, p._batches.values()))
                                  for p in made)


def test_a_suite_call_builds_one_points_object_and_keeps_nothing(families):
    from qpweyl.evolution import verify_theorem_i
    from qpweyl.lax import verify_gauge_claims
    from qpweyl.weyl import verify_involutions, verify_relations

    mutant = families["D5"].with_generator("s1", {"nu3": "nu5", "nu5": "nu3"})
    runs = [(suite, fam, CheckConfig(seed=3, use_constraint=constrained))
            for fam in families.values()
            for suite in (verify_relations, verify_theorem_i, verify_gauge_claims)
            for constrained in (True, False)]
    runs += [(suite, mutant, CheckConfig(trials=4, seed=5))
             for suite in (verify_involutions, verify_theorem_i)]
    for suite, fam, cfg in runs:
        first = _node_values(lambda: suite(fam, cfg))
        # The same config again computes every value again.
        assert _node_values(lambda: suite(fam, cfg)) == first
        assert first[1] == 1 and first[2] > 0, (suite.__name__, fam.name)


# ---------------------------------------------------------------------------
# self-comparisons are sampled unless the lattice decides them


def _both_on_self(a, constraint, cfg, label):
    """identities_equal(a, a) and the loop copy, and whether the former
    ended through the loop."""
    sample, sampled = identity._sample, []
    with mock.patch.object(identity, "_sample",
                           lambda *args: sampled.append(1) or sample(*args)):
        batched, sequential = _both(a, a, constraint, cfg, label)
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
    batched, sequential, sampled = _both_on_self(a, k, CheckConfig(trials, prime, seed),
                                                 "self")
    assert batched == sequential
    assert sampled == (identity._reduced_monomial(a, k) is None)
    if not sampled:
        assert batched == IdentityResult("equal", trials=trials)


@pytest.mark.parametrize("text", [
    "f", "0", "2/3", "(f - g)^2", "f*g/q^2", "(f + g)/(f*g)", "nu1^-3",
    "(f - nu3)*g/(2*kappa1)", "(f/g)^-2*(g - 1)",
])
@pytest.mark.parametrize("prime", [(1 << 61) - 1, DEFAULT_PRIME, _REJECTING_PRIME])
def test_self_comparisons_skip_sampling_only_on_the_lattice(text, prime):
    batched, sequential, sampled = _both_on_self(parse(text), None,
                                                 CheckConfig(9, prime), "skip")
    assert batched == sequential == IdentityResult("equal", trials=9)
    assert sampled == (text not in ("f", "f*g/q^2", "nu1^-3"))


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
    batched, sequential, sampled = _both_on_self(a, k, CheckConfig(trials=4), case)
    assert sampled
    assert batched == sequential
    if case == "(f - g)^-1":
        assert batched == IdentityResult("equal", trials=4)
    else:
        assert batched[0] == "exhausted 400 sampling attempts for '%s'" % case


def test_relations_make_one_evaluate_call_fewer_per_shortcut(d5):
    # The probe is the only evaluate call of a comparison that the loop would
    # accept; the lattice shortcut makes none, and every report stays the same.
    from qpweyl import weyl
    from qpweyl.weyl import CheckConfig, verify_relations

    def run(reduced_monomial):
        # From empty residual and suite entry caches, so that each run reads
        # its own lattice.
        identity._residual.cache_clear()
        weyl._suite_entry.cache_clear()
        sampled = []
        with mock.patch.object(identity, "evaluate", wraps=identity.evaluate) as spy, \
                mock.patch.object(identity, "_reduced_monomial", reduced_monomial), \
                mock.patch.object(identity, "_sample",
                                  lambda *args: sampled.append(1) or sample(*args)):
            report = verify_relations(d5, CheckConfig())
        checks = [(c.id, c.status, c.witness, c.detail) for c in report.checks]
        return checks, spy.call_count, len(sampled)

    sample = identity._sample
    looped, loop_calls, loop_sampled = run(lambda e, k: None)
    checks, calls, sampled = run(identity._reduced_monomial)
    assert checks == looped
    shortcuts = loop_sampled - sampled
    assert shortcuts > 0
    assert loop_calls - calls == shortcuts


# ---------------------------------------------------------------------------
# coefficient-1 monomials are compared on the exponent lattice

@st.composite
def lattice_monomials(draw):
    """A coefficient-1 Laurent monomial in the action symbols, built through
    the factories as a straight-line program, with its exponents counted
    alongside: (expr, {symbol: exponent})."""
    nodes = [(sym(n), {n: 1}) for n in draw(st.lists(st.sampled_from(ACTION_SYMBOLS),
                                                     min_size=1, max_size=4))]
    for _ in range(draw(st.integers(0, 6))):
        (a, ea), (b, eb) = (nodes[-draw(st.integers(1, len(nodes)))] for _ in range(2))
        op = draw(st.sampled_from("*/^"))
        if op == "^":
            k = draw(st.integers(-3, 3))
            node = (pow_(a, k), {n: k * j for n, j in ea.items()})
        else:
            sign = 1 if op == "*" else -1
            counts = dict(ea)
            for n, j in eb.items():
                counts[n] = counts.get(n, 0) + sign * j
            node = ((mul if op == "*" else div)(a, b), counts)
        nodes.append(node)
    return nodes[-1]


def _lattice_and_sample(a, b, k, cfg, label):
    """identities_equal's result, whether the lattice decided it, and the
    sampling loop's result on the same comparison."""
    sample, sampled = identity._sample, []
    with mock.patch.object(identity, "_sample",
                           lambda *args: sampled.append(1) or sample(*args)):
        got = identities_equal(a, b, k, cfg, label=label)
    r = sub(a, b) if k is None else k.apply(sub(a, b))
    loop = identity._sample(r, cfg.trials, identity.Points(cfg), label)
    return got, not sampled, loop


@settings(max_examples=300, deadline=None)
@given(ma=lattice_monomials(), mb=lattice_monomials(), constrained=st.booleans(),
       how=st.sampled_from(["drawn", "same exponents", "constrained image"]),
       trials=st.integers(1, 16), seed=st.integers(0, 3),
       prime=st.sampled_from([DEFAULT_PRIME, _REJECTING_PRIME]))
def test_lattice_verdict_is_the_sampling_loops(ma, mb, constrained, how, trials, seed,
                                               prime):
    (a, ea), (b, eb) = ma, mb
    for e, counts in (ma, mb):
        assert e.monomial == tuple(sorted((n, j) for n, j in counts.items() if j))
    k = constraint() if constrained else None
    if how == "same exponents":
        # The same monomial through another construction: one quotient.
        top = mul(*[pow_(sym(n), j) for n, j in sorted(ea.items()) if j > 0])
        bottom = mul(*[pow_(sym(n), -j) for n, j in sorted(ea.items()) if j < 0])
        b = div(top, bottom) if bottom.kind != "num" else top
    elif how == "constrained image":
        b = constraint().apply(a)
    cfg = CheckConfig(trials, prime, seed)
    got, decided, loop = _lattice_and_sample(a, b, k, cfg, "lattice")
    assert got == loop
    assert decided == (loop.verdict == "equal")
    if how == "same exponents":
        assert decided
    assert decided == (identity._reduced_monomial(a, k) == identity._reduced_monomial(b, k))
    if decided:
        exact = identities_equal(a, b, k, cfg._replace(exact=True), label="lattice")
        assert exact == IdentityResult("exact-proved", trials=trials)
        assert exact_zero(sub(a, b) if k is None else k.apply(sub(a, b)))


@pytest.mark.parametrize("a, b, k", [
    ("2*nu1", "nu1 + nu1", None),
    ("-nu1", "nu1 - 2*nu1", None),
    ("nu1 + nu2", "nu2 + nu1", None),
    ("q*f", "f*q", ConstraintRelation("q", parse("f/(g - 1)"))),
])
def test_lattice_near_misses_are_sampled(a, b, k):
    a, b = parse(a), parse(b)
    assert a is not b
    if k is None:
        assert a.monomial is None and b.monomial is None
    else:
        assert a.monomial == b.monomial == (("f", 1), ("q", 1))
        assert identity._reduced_monomial(a, k) is None
    got, decided, loop = _lattice_and_sample(a, b, k, CheckConfig(trials=8), "near miss")
    assert not decided
    assert got == loop == IdentityResult("equal", trials=8)


def test_cancelled_eliminated_symbol_needs_a_monomial_replacement():
    # q^2/q^2 is the monomial 1, but substituting f/(g - 1) for its q's
    # divides by zero at g = 1, so the comparison is left to sampling.  A
    # monomial replacement (nu8's) adds no pole, so the lattice decides.
    a = div(mul(sym("q"), sym("q")), mul(sym("q"), sym("q")))
    e = div(sym("nu8"), sym("nu8"))
    assert a.monomial == e.monomial == ()
    k = ConstraintRelation("q", parse("f/(g - 1)"))
    assert identity._reduced_monomial(a, k) is None
    assert identity._reduced_monomial(e, constraint()) == ()
    for x, b, c in ((a, num(1), k), (e, num(1), constraint())):
        got, decided, loop = _lattice_and_sample(x, b, c, CheckConfig(trials=4), "cancelled")
        assert decided == (c is not k)
        assert got == loop == IdentityResult("equal", trials=4)


def test_equal_parameter_images_are_decided_on_the_lattice(families):
    # Every comparison of parameter images in the relation suites, Theorem I
    # (T = xi W^2 on q, nu1..nu8, kappa1, kappa2), Theorem II and the gauge
    # suite is a lattice proof.
    from qpweyl.evolution import verify_theorem_i, verify_theorem_ii
    from qpweyl.expr import PARAM_SYMBOLS
    from qpweyl.lax import verify_gauge_claims
    from qpweyl.weyl import CheckConfig, verify_relations

    params, sample = set(PARAM_SYMBOLS), identity._sample
    for fam in families.values():
        seen = []

        def spy(r, *args):
            result = sample(r, *args)
            seen.append((args[-1], r.free <= params, result.verdict))
            return result

        with mock.patch.object(identity, "_sample", spy):
            for suite in (verify_relations, verify_theorem_i, verify_theorem_ii,
                          verify_gauge_claims):
                assert suite(fam, CheckConfig()).ok, (fam.name, suite.__name__)
        assert seen
        on_params = [(label, verdict) for label, is_param, verdict in seen if is_param]
        # E6 and E7 read their pi conjugates off the lattice, so no suite
        # samples a parameter image, not even to refute it.
        assert not on_params, (fam.name, on_params)
