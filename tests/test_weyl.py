"""Family tables, composition convention, relation suites, closed-form fixtures.

The composition convention is pinned by independent hand chains: applying a
transformation to an expression substitutes every symbol by its image, and
the rightmost letter of a word acts first.
"""

import contextlib
import gc
import importlib
import io
import itertools
import pkgutil
import sys
import threading
import time
from unittest import mock

import pytest
from dags import small_dags
from expr_reference import ref_compose
from hypothesis import given, settings, strategies as st
from test_acceptance import MUTATIONS

import qpweyl
from qpweyl import cli, expr as expr_module, identity, lax, weyl
from qpweyl.evolution import time_evolution, verify_theorem_i, verify_theorem_ii
from qpweyl.expr import ZERO, ExprError, add, evaluate, num, parse, sub, substitute, sym
from qpweyl.identity import DEFAULT_PRIME, identities_equal
from qpweyl.lax import verify_gauge_claims
from qpweyl.weyl import (
    IDENTITY,
    CheckConfig,
    Transformation,
    _image_pairs,
    check,
    compose,
    make_family,
    parse_word,
    verify_braid,
    verify_involutions,
    verify_pi_relations,
    verify_relations,
    word_to_transform,
)


def eq(a, b, constraint=None, label=""):
    return identities_equal(a, b, constraint, label=label or "t").verdict


# ---------------------------------------------------------------------------
# construction and structure

def test_make_family_rejects_unknown():
    with pytest.raises(ValueError):
        make_family("X9")


def test_make_family_quotes_at_most_24_characters_of_the_name():
    with pytest.raises(ValueError) as err:
        make_family("X9")
    assert str(err.value) == "unknown family 'X9'; expected one of ('D5', 'E6', 'E7')"
    with pytest.raises(ValueError) as err:
        make_family("x" * 50_000)
    assert str(err.value) == ("unknown family 'xxxxxxxxxxxxxxxxxxxx...'; "
                              "expected one of ('D5', 'E6', 'E7')")


@pytest.mark.parametrize("name", weyl.FAMILY_NAMES)
def test_make_family_shares_one_read_only_descriptor(name):
    # One descriptor per family and process: no caller can change it, and a
    # mutant is a copy.  After every suite has run on it, and a mutant suite
    # besides, each image is still the very node a fresh build interns.
    fam = make_family(name)
    assert make_family(name) is fam
    with pytest.raises(TypeError):
        fam.generators["s2"] = IDENTITY
    before = dict(fam.generators)
    mutant = fam.with_generator("s2", {"nu1": "nu2", "nu2": "nu3"})
    assert mutant.generators["s2"] is not fam.generators["s2"]
    assert dict(fam.generators) == before
    for suite in (verify_relations, verify_theorem_i, verify_theorem_ii, verify_gauge_claims):
        suite(fam, CheckConfig(trials=4))
    assert not verify_involutions(mutant, CheckConfig(trials=4)).ok
    fresh = weyl._build(name)
    assert fam.generators.keys() == fresh.generators.keys()
    pairs = [(fam.generators[n], t) for n, t in fresh.generators.items()] + [(fam.xi, fresh.xi)]
    for got, want in pairs:
        assert got.images.keys() == want.images.keys()
        assert all(got.images[k] is v for k, v in want.images.items())


def test_make_family_never_caches_an_unknown_name():
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown family 'X9'"):
            make_family("X9")
    assert "X9" not in weyl._SHARED


#: Every cache the package keeps for the process but those of UNCLEARED.
MEMOS = (weyl.compose, expr_module._parse, identity._residual, expr_module._compile,
         identity._normalize, weyl._suite_entry, identity._stream_head)

#: The process caches no test needs to empty, each with the reason.
UNCLEARED = {
    identity.is_prime: "keyed by ints, holds no node; every CheckConfig built reads it",
    cli.build_parser: "holds the one argument parser, which no report depends on",
}


def _clear_memos():
    """Empty the compose, parse, residual, compile, exact outcome, suite
    entry and stream head caches."""
    for memo in MEMOS:
        memo.cache_clear()


def test_every_process_cache_is_cleared_or_named():
    # Each object with cache_clear in a module of the package, or in a class
    # one defines, is in MEMOS or UNCLEARED: a cache added without either
    # would leave the thread test and the warm-against-cold tests starting
    # from a warm cache.
    found = set()
    for info in pkgutil.iter_modules(qpweyl.__path__):
        module = importlib.import_module(f"qpweyl.{info.name}")
        spaces = [vars(module)] + [vars(c) for c in vars(module).values()
                                   if isinstance(c, type) and c.__module__ == module.__name__]
        for space in spaces:
            found.update(v for v in (getattr(v, "__func__", v) for v in space.values())
                         if hasattr(v, "cache_clear"))
    named = set(MEMOS) | set(UNCLEARED)
    assert found == named, sorted(f"{v.__module__}.{v.__qualname__}" for v in found ^ named)


def test_shared_descriptors_and_compile_cache_from_several_threads(e6, e7):
    # 4 threads run three suites on the shared E6 and E7 descriptors at once,
    # each with its own seed, and one mutant suite each, racing to parse,
    # compose, build residuals and suite entries, a gauge claim's minor
    # pairs among them, and compile the same things from empty memos.
    # One --exact job per thread, two on each family, races on the exact
    # outcome cache.  Each thread builds its own copy of its mutant, equal to
    # the serial one but not the same object.  Theorem I without the constraint
    # fails with witnesses that depend on the seed.  Each report equals the
    # same call run alone.
    jobs = [(fam, CheckConfig(seed=seed, use_constraint=use))
            for seed, fam in enumerate((e6, e7, e6, e7), start=31) for use in (True, False)]
    jobs += [(fam, CheckConfig(seed=seed, exact=True))
             for seed, fam in ((31, e6), (33, e6), (32, e7), (34, e7))]
    # Thread slot s runs jobs s, s + 4 and s + 8, of one family, and this mutant.
    mutations = [m for m in MUTATIONS if m[:2] in {("E6", "s6"), ("E6", "s4"),
                                                     ("E7", "s0"), ("E7", "s4")}]

    def reports(fam, cfg):
        return verify_relations(fam, cfg), verify_theorem_i(fam, cfg), verify_gauge_claims(fam, cfg)

    def mutant_suite(slot):
        fam_name, gen_name, images = mutations[slot]
        fam = make_family(fam_name).with_generator(gen_name, images)
        return verify_relations(fam, CheckConfig(trials=4, seed=slot))

    serial = [reports(fam, cfg) for fam, cfg in jobs]
    serial_mutants = [mutant_suite(slot) for slot in range(4)]
    assert not all(theorem.ok for _, theorem, _ in serial)
    assert not any(report.ok for report in serial_mutants)
    got = [None] * len(jobs)
    got_mutants = [None] * 4
    barrier = threading.Barrier(4, timeout=60)

    def worker(slot):
        barrier.wait()
        for i in range(slot, len(jobs), 4):
            got[i] = reports(*jobs[i])
        got_mutants[slot] = mutant_suite(slot)

    _clear_memos()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        _clear_memos()
    assert not any(t.is_alive() for t in threads)
    assert got == serial
    assert got_mutants == serial_mutants


def test_images_are_read_only(d5):
    # A write into a shared generator's images would change every later
    # caller's table, and every composition the memo keeps.
    s2 = d5.generators["s2"]
    for t in (s2, compose(s2, d5.generators["s3"]), d5.xi):
        with pytest.raises(TypeError):
            t.images["g"] = sym("f")
        with pytest.raises(TypeError):
            del t.images["g"]
        for field in ("images", "items"):
            with pytest.raises(AttributeError):
                setattr(t, field, {"g": sym("f")})
            with pytest.raises(AttributeError):
                delattr(t, field)
    assert s2.image("g") is parse("g*(f - nu3)/(f - kappa1/nu7)")
    assert verify_involutions(make_family("D5")).ok


def test_maps_with_equal_images_are_equal_values(d5):
    s2 = d5.generators["s2"]
    copy = Transformation(dict(s2.images))
    assert copy is not s2
    assert copy == s2 and hash(copy) == hash(s2)
    assert Transformation(dict(reversed(s2.images.items()))) == s2
    swap = Transformation({"nu1": sym("nu2"), "nu2": sym("nu1")})
    assert swap == Transformation({"nu2": sym("nu1"), "nu1": sym("nu2")}) == d5.generators["s4"]
    assert compose(IDENTITY, s2) == s2
    assert Transformation({}) == IDENTITY
    assert Transformation({"f": sym("f")}) != IDENTITY
    assert s2 != d5.generators["s3"]
    assert s2 != s2.images


def test_compose_memo_is_keyed_by_value(d5):
    # An equal map that is another object finds the memo's entry, and a
    # mutant built twice shares entries with itself and with the base
    # family's unchanged letters.
    _clear_memos()
    s2, s3 = d5.generators["s2"], d5.generators["s3"]
    cached = compose(s2, s3)
    hits = compose.cache_info().hits
    assert compose(Transformation(dict(s2.images)), s3) == cached
    assert compose.cache_info().hits == hits + 1

    images = {"nu3": "nu7*z", "nu7": "nu3*z"}
    first, second = (d5.with_generator("s2", images) for _ in range(2))
    assert first.generators["s2"] is not second.generators["s2"]
    word = "s3 s1 s2 s3 s2"
    t = word_to_transform(first, word)
    misses = compose.cache_info().misses
    assert word_to_transform(second, word) == t
    assert word_to_transform(d5, "s3 s1") == word_to_transform(first, "s3 s1")
    assert compose.cache_info().misses == misses


def test_equal_maps_hash_alike_and_the_benchmark_words_hit_the_memo(families):
    # The hash is kept with the map: an equal map built again hashes alike,
    # and the words the benchmark composes (apply's D5 and E7 words and the
    # three evolution maps) make the lookups they made with a hash of items.
    for fam in families.values():
        for t in (*fam.generators.values(), fam.xi):
            copy = Transformation(dict(reversed(t.images.items())))
            assert copy is not t and copy == t and hash(copy) == hash(t)
    _clear_memos()
    e7_word = " ".join(families["E7"].evolution_word)
    words = [("D5", f"(s2 s3 s1 s4)^{n}") for n in (2, 4, 6)] + [("E7", f"({e7_word})^2")]
    for name, word in words:
        word_to_transform(families[name], word)
    for fam in families.values():
        time_evolution(fam)
    info = compose.cache_info()
    assert (info.hits, info.misses) == (41, 80), info


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(MUTATIONS), st.data())
def test_compose_memo_matches_the_reference_on_random_words(mutation, data):
    # One word over a family's shared generators and over a mutant's,
    # composed from cleared memos and then again from warm ones, in turn, so
    # that a memo mixing the two maps shows: every prefix is the reference
    # composition, image for image.
    fam_name, gen_name, images = mutation
    base = make_family(fam_name)
    mutant = base.with_generator(gen_name, images)
    word = data.draw(st.lists(st.sampled_from(sorted(base.generators)), max_size=8))
    want = {}
    for fam in (base, mutant):
        want[fam] = [IDENTITY]
        for letter in word:
            want[fam].append(ref_compose(want[fam][-1], fam.generators[letter]))
    _clear_memos()
    for fam in (base, mutant, base, mutant):
        t = IDENTITY
        for letter, ref in zip(word, want[fam][1:]):
            t = compose(t, fam.generators[letter])
            assert t.images.keys() == ref.images.keys()
            assert all(t.images[n] is img for n, img in ref.images.items())
            assert t == ref
        assert word_to_transform(fam, word) == t


def test_memos_are_bounded_and_free_a_dropped_mutant(d5):
    _clear_memos()
    bound = weyl.COMPOSE_CACHE_SIZE
    for k in range(bound + 8):
        compose(Transformation({"z": add(sym("z"), num(k))}), IDENTITY)
    assert compose.cache_info().currsize <= bound == compose.cache_info().maxsize
    constraint, claim = d5.constraint, lax.CLAIMS["d5.G"]
    fills = [
        (identity._residual, identity.RESIDUAL_CACHE_SIZE,
         lambda k: identity._residual(add(sym("nu8"), num(k)), sym("f"), constraint)),
        (weyl._suite_entry, weyl.SUITE_CACHE_SIZE,
         lambda k: weyl.suite_entry(lax._claim_pairs, d5, constraint, claim,
                                    (num(k), sym("z"), num(1)))),
    ]
    for memo, size, fill in fills:
        for k in range(size + 8):
            fill(k)
        info = memo.cache_info()
        assert info.currsize <= size == info.maxsize

    # Nothing but its callers and the memos holds a map: once they drop the
    # mutant, no live object is a map with its images.
    def live(items):
        return [o for o in gc.get_objects() if isinstance(o, Transformation) and o.items == items]

    mutant = d5.with_generator("s2", {"nu3": "nu7*z", "nu7": "nu3*z"})
    items = mutant.generators["s2"].items
    assert not verify_involutions(mutant, CheckConfig(trials=4)).ok
    assert live(items)
    del mutant
    _clear_memos()
    gc.collect()
    assert not live(items)


def test_applying_a_map_keeps_no_error():
    t, e = Transformation({"g": ZERO}), parse("1/g")
    for _ in range(3):
        with pytest.raises(ExprError):
            t(e)


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


def test_parse_word_expands_a_blank_group_of_any_power():
    # Copies of a blank body are blanks, however many: a power past the
    # index range once raised OverflowError, and 10^9 copies built a list of
    # 10^9 strings.  Nested, they would multiply.
    assert parse_word("()^100000000000000000000") == ()
    assert parse_word("s0 ( )^1000000000 s1") == ("s0", "s1")
    assert parse_word("s0()^0s1 s2()^1s3 s4()^2s5") == ("s0s1", "s2s3", "s4", "s5")
    assert parse_word("(" * 30 + ")^10" * 30 + " s2") == ("s2",)
    with pytest.raises(ValueError, match=r"^malformed word ' {20}\.\.\.'$"):
        parse_word("()^100000000000000000000 (")


@pytest.mark.parametrize("text, message", [
    # Markup in a body adds no letters to the count, so these words are
    # refused as malformed, as a recount of the expanded text finds them.
    ("(s0 ^ 3)^20", "malformed word"),
    ("(  (0 )( ^ 32)^9s1(  ", "malformed word"),
    ("(s1)^2(s0)^39", "word expands to more than 40 letters"),
    ("(s0 s1)^21", "word expands to more than 40 letters"),
])
def test_parse_word_counts_letters_as_the_recount_does(text, message, monkeypatch):
    monkeypatch.setattr(weyl, "MAX_WORD_LETTERS", 40)
    with pytest.raises(ValueError, match=f"^{message}"):
        parse_word(text)


def test_parse_word_is_linear_in_the_groups():
    # Each expansion once scanned and recounted the whole text: 10,000
    # groups took about half a minute.
    start = time.monotonic()
    assert parse_word("(s0)^1 " * 10_000) == ("s0",) * 10_000
    assert parse_word("(" * 5_000 + "s0" + ")^1" * 5_000) == ("s0",)
    assert time.monotonic() - start < 2


def test_a_config_is_checked_once_when_built(e7):
    # A CheckConfig that exists is valid: no comparison tests its prime again.
    cfg = CheckConfig()
    calls = []
    real = identity.is_prime
    with mock.patch.object(identity, "is_prime", lambda n: calls.append(n) or real(n)):
        assert verify_relations(e7, cfg).ok
        assert verify_theorem_i(e7, cfg).ok
    assert calls == []


def test_identity_word_is_identity(d5):
    t = word_to_transform(d5, "")
    assert t.image("f") is sym("f")


def test_unknown_generator_name(d5):
    with pytest.raises(KeyError):
        word_to_transform(d5, "s9")


def test_with_generator_rejects_an_unknown_name(d5):
    # A misspelled name would add a generator no suite checks, and leave
    # the "mutant" equal to the base family.
    with pytest.raises(KeyError, match="unknown generator 's9' for family D5"):
        d5.with_generator("s9", {"nu1": "nu2", "nu2": "nu1"})
    assert "s9" not in d5.generators


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


def _assert_compose_matches_reference(outer, inner, new_first):
    # Either side may build a fresh image first; the other must find it.
    if new_first:
        got, want = compose(outer, inner), ref_compose(outer, inner)
    else:
        want, got = ref_compose(outer, inner), compose(outer, inner)
    assert got.images.keys() == want.images.keys()
    assert all(got.images[n] is img for n, img in want.images.items())


@pytest.mark.parametrize("family", ["D5", "E6", "E7"])
def test_compose_matches_the_reference_on_generator_pairs(families, family):
    fam = families[family]
    names = fam.s_names + fam.pi_names
    for i, (a, b) in enumerate(itertools.product(names, repeat=2)):
        _assert_compose_matches_reference(fam.generators[a], fam.generators[b], i % 2)


_MAPS = st.dictionaries(st.sampled_from(("f", "g", "q", "z")), small_dags(), max_size=4)


@settings(max_examples=300, deadline=None)
@given(_MAPS, _MAPS, st.booleans())
def test_compose_matches_the_reference_on_random_maps(outer, inner, new_first):
    try:
        _assert_compose_matches_reference(Transformation(outer), Transformation(inner),
                                          new_first)
    except ExprError:
        # A zero denominator after substitution: both sides must refuse.
        for fn in (compose, ref_compose):
            with pytest.raises(ExprError):
                fn(Transformation(outer), Transformation(inner))


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
    import random

    from qpweyl.identity import DEFAULT_PRIME
    from qpweyl.expr import evaluate, sub

    image = sym("f")
    for letter in ("pi2", "pi1", "pi2", "pi1", "pi2", "pi1", "pi2", "pi1"):
        image = substitute(image, d5.generators[letter].images)
    word_image = word_to_transform(d5, "(pi1 pi2)^4").image("f")
    assert eq(image, word_image, label="pi4:chain") == "equal"
    residual = sub(image, sym("f"))
    rng = random.Random(0)
    for _ in range(16):
        point = {n: rng.randrange(1, DEFAULT_PRIME) for n in sorted(residual.free)}
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
        # the lattice leaves no candidate, so s0 is checked
        s_name = c.id.rsplit(" ", 1)[1]
        probe = check(f"E6:pi:pi1 {s_name} = s0 pi1",
                      _image_pairs(compose(pi1, mutant.generators[s_name]),
                                   compose(mutant.generators["s0"], pi1)),
                      mutant.constraint, CheckConfig())
        assert probe.status == "fail"
        assert c.witness == probe.witness


def test_pi_conjugation_checks_once_per_generator_pair(families):
    # E6/E7 read each conjugate off the lattice; D5 checks its list
    for fam in families.values():
        with mock.patch.object(weyl, "check", wraps=weyl.check) as spy:
            assert verify_pi_relations(fam).ok
        assert spy.call_count == {"D5": 9, "E6": 14, "E7": 8}[fam.name]


def test_e6_pi_conjugate_matching_on_the_lattice_fails_on_f_and_g(e6):
    # pi2 corrupted to f -> 1/g: its parameter images still pick s6 for s2
    # and s2 for s6, and the witness separates the two on f or g
    images = {"q": "1/q", "nu1": "1/nu1", "nu2": "1/nu2", "nu3": "1/nu3", "nu4": "1/nu4",
              "nu5": "1/nu8", "nu6": "1/nu7", "nu7": "1/nu6", "nu8": "1/nu5",
              "kappa1": "1/kappa2", "kappa2": "1/kappa1", "f": "1/g", "g": "f"}
    mutant = e6.with_generator("pi2", images)
    bad = verify_pi_relations(mutant).failures()
    assert [c.id for c in bad] == ["E6:pi:pi2 s2", "E6:pi:pi2 s6"]
    pi2 = mutant.generators["pi2"]
    for c, conjugate in zip(bad, ("s6", "s2")):
        assert c.status == "fail"
        assert c.detail == "no matching conjugate generator"
        lhs = compose(pi2, mutant.generators[c.id.rsplit(" ", 1)[1]])
        rhs = compose(mutant.generators[conjugate], pi2)
        residuals = [mutant.constraint.apply(sub(lhs.image(n), rhs.image(n)))
                     for n in ("f", "g")]
        assert any(r.free <= set(c.witness) and evaluate(r, c.witness, DEFAULT_PRIME)
                   for r in residuals), c


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
    # a pair reads the points a lone comparison reads: no label moves them
    direct = identities_equal(g, parse("2*g"), None)
    assert res.witness == direct.witness


def test_check_with_an_empty_name_returns_a_lone_comparisons_witness():
    res = check("c", [("", sym("f"), sym("g"))], None, CheckConfig())
    assert res.status == "fail" and res.detail == ""
    assert res.witness == identities_equal(sym("f"), sym("g")).witness


def test_a_check_alone_returns_the_witness_it_returns_in_its_suite(families):
    # The involution suite on a corrupted table, and the gauge suite without
    # the constraint, where every claim's nonzero proofs and minors share
    # the suite's points with the other claims.
    from qpweyl.lax import CLAIMS, verify_gauge_claim

    mutant = families["D5"].with_generator("s3", {
        "nu1": "kappa2/nu5", "nu5": "kappa2/nu1", "kappa1": "kappa1*kappa2/(nu1*nu5)",
        "f": "f*(g - 1/nu1)/(g - nu6/kappa2)"})
    cfg = CheckConfig(seed=11)
    suite = verify_involutions(mutant, cfg).checks
    gens = mutant.generators
    alone = [check(f"D5:invol:{name}", _image_pairs(compose(gens[name], gens[name]), IDENTITY),
                   mutant.constraint, cfg)
             for name in mutant.s_names + mutant.pi_names]
    assert alone == suite
    assert any(c.witness for c in suite)
    for fam in families.values():
        cfg = CheckConfig(seed=11, use_constraint=False)
        suite = verify_gauge_claims(fam, cfg).checks
        alone = [verify_gauge_claim(fam, claim_id, cfg)
                 for claim_id, claim in CLAIMS.items() if claim.family == fam.name]
        assert alone == suite
        assert any(c.witness for c in suite)


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


# ---------------------------------------------------------------------------
# process caches keyed by value

def test_a_mutant_descriptor_is_read_only(d5):
    # A copy is as read-only as the shared descriptor it was made from.
    mutant = d5.with_generator("s0", {"nu7": "nu8", "nu8": "nu1"})
    with pytest.raises(TypeError):
        mutant.generators["s0"] = IDENTITY
    with pytest.raises(TypeError):
        del mutant.generators["s1"]
    assert mutant.generators["s1"] is d5.generators["s1"]
    assert mutant.generators["s0"] != d5.generators["s0"]


def test_a_patched_l1_fails_its_gauge_claims_warm_as_cold(d5):
    # The claim equations are kept by the L1 coefficient nodes, so an L1
    # text patched after a warm run is built afresh: the report, witnesses
    # included, is the one from cold caches, and the table restored passes.
    from test_paper_mutants import one_change_mutants

    from qpweyl import paper

    cfg = CheckConfig(trials=4, seed=3)
    table = paper.FAMILIES["D5"]["L1"]
    changed = {**table, "up": next(one_change_mutants(table["up"]))}
    assert verify_gauge_claims(d5, cfg).ok
    with mock.patch.dict(paper.FAMILIES["D5"], L1=changed):
        warm = verify_gauge_claims(d5, cfg)
        _clear_memos()
        cold = verify_gauge_claims(d5, cfg)
    assert warm == cold
    assert any(c.status == "fail" and c.witness for c in warm.checks)
    assert verify_gauge_claims(d5, cfg).ok


@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: f"{m[0]}-{m[1]}")
def test_a_mutant_fails_the_same_checks_warm_as_cold(mutation):
    # The base family's suites run first, so the mutant's unchanged letters,
    # image pairs and checks are found in the caches; its reports, witnesses
    # included, are those of a mutant run from cold caches, and the base
    # family still passes after it.
    fam_name, gen_name, images = mutation
    base = make_family(fam_name)
    cfg = CheckConfig(trials=4, seed=5)

    def reports(fam):
        return verify_relations(fam, cfg), verify_theorem_i(fam, cfg)

    assert all(r.ok for r in reports(base))
    warm = reports(base.with_generator(gen_name, images))
    _clear_memos()
    cold = reports(base.with_generator(gen_name, images))
    assert warm == cold
    assert any(c.status == "fail" and c.witness for r in warm for c in r.checks)
    assert all(r.ok for r in reports(base))


@pytest.mark.parametrize("family", weyl.FAMILY_NAMES)
def test_every_verify_command_prints_the_same_json_warm_as_cold(family):
    # Each command from cold caches, then every one twice more in turn, the
    # runs with and without the constraint and with --exact interleaved, so
    # that a cache keyed by less than the pair, the constraint and the maps
    # answers one run with another's entry.
    from qpweyl import cli

    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    argvs = [[cmd, "--family", family, "--format", "json", *extra]
             for cmd in ("verify-relations", "verify-theorem", "verify-gauge")
             for extra in ((), ("--no-constraint",), ("--exact",))]
    cold = []
    for argv in argvs:
        _clear_memos()
        cold.append(run(argv))
    for _ in range(2):
        assert [run(argv) for argv in argvs] == cold
    assert {code for code, _ in cold} == {0, 1}


@pytest.mark.parametrize("family", weyl.FAMILY_NAMES)
def test_every_verify_command_prints_the_same_json_warm_across_seeds_and_trials(family):
    # In one process each command runs at seed 0, then at seed 7, then with
    # 4 trials at seed 0, so that stream heads kept for one seed or one
    # trial count answer a run at another; each output is the one from
    # empty caches.  The runs without the constraint fail with witnesses,
    # which show the points read.
    from qpweyl import cli

    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    points = (("--seed", "0"), ("--seed", "7"), ("--seed", "0", "--trials", "4"))
    argvs = [[cmd, "--family", family, "--format", "json", *constraint, *at]
             for cmd in ("verify-relations", "verify-theorem", "verify-gauge")
             for constraint in ((), ("--no-constraint",))
             for at in points]
    cold = []
    for argv in argvs:
        _clear_memos()
        cold.append(run(argv))
    _clear_memos()
    assert [run(argv) for argv in argvs] == cold
    assert {code for code, _ in cold} == {0, 1}


#: The set-up a warm suite call must not redo: each name, wherever a module
#: of the package binds it.
SET_UP = ("substitute", "compose", "_reduced_monomial", "apply_gauge", "mul", "div")


@contextlib.contextmanager
def _set_up_calls():
    """Count the calls of SET_UP through every binding of the package, by name."""
    from qpweyl import cli, evolution

    calls = []

    def counted(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    with contextlib.ExitStack() as stack:
        for module in (expr_module, identity, weyl, lax, evolution, cli):
            for name in SET_UP:
                if name in module.__dict__:
                    stack.enter_context(mock.patch.object(module, name,
                                                          counted(name, module.__dict__[name])))
        yield calls


def _suite_reports(fam, cfg):
    return verify_involutions(fam, cfg), verify_theorem_i(fam, cfg)


@pytest.mark.parametrize("family", weyl.FAMILY_NAMES)
def test_a_repeated_request_only_samples(family):
    # Each verify command, with and without the constraint and with --exact,
    # is run once and then again at another seed: the second run looks its
    # checks up and samples, building no map, image, lattice point, gauge
    # or product, and prints what a fresh process prints.
    from test_cli import python_m

    from qpweyl import cli

    for cmd in ("verify-relations", "verify-theorem", "verify-gauge"):
        for extra in ((), ("--no-constraint",), ("--exact",)):
            argv = [cmd, "--family", family, "--format", "json", *extra]
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main([*argv, "--seed", "3"])
            out = io.StringIO()
            with _set_up_calls() as calls, contextlib.redirect_stdout(out):
                code = cli.main([*argv, "--seed", "4"])
            assert calls == [], (argv, sorted(set(calls)))
            fresh = python_m("qpweyl", *argv, "--seed", "4", capture_output=True)
            assert (code, out.getvalue()) == (fresh.returncode, fresh.stdout), argv


@pytest.mark.parametrize("mutation", MUTATIONS[::4], ids=lambda m: f"{m[0]}-{m[1]}")
def test_an_equal_mutant_built_again_only_samples(mutation):
    # The refuting requests: a mutant built afresh for each, equal to the
    # last one, is checked at another seed from the first one's entries.
    fam_name, gen_name, images = mutation
    base = make_family(fam_name)
    _suite_reports(base.with_generator(gen_name, images), CheckConfig(trials=4, seed=1))
    cfg = CheckConfig(trials=4, seed=2)
    with _set_up_calls() as calls:
        warm = _suite_reports(base.with_generator(gen_name, images), cfg)
    assert calls == []
    _clear_memos()
    assert warm == _suite_reports(base.with_generator(gen_name, images), cfg)
    assert not all(report.ok for report in warm)


def test_the_suite_key_holds_the_tables_and_the_constraint(d5):
    # Equal mutants built apart share their entries.  A mutant that differs
    # in one image, a descriptor with another xi and a run without the
    # constraint each get entries of their own, and their reports are those
    # of cold caches: a key of the family name alone, or without the
    # constraint, answers them with another descriptor's checks.
    from test_paper_mutants import data_mutants

    entries = weyl._suite_entry.cache_info
    cfg = CheckConfig(trials=4, seed=9)
    images = {"nu3": "nu5", "nu5": "nu3"}
    _clear_memos()
    first = _suite_reports(d5.with_generator("s1", images), cfg)
    built = entries().misses
    assert built == 2
    assert _suite_reports(d5.with_generator("s1", images), cfg) == first
    assert entries().misses == built and entries().currsize == 2
    assert not all(report.ok for report in first)

    xi_mutant = next(m for label, m in data_mutants(d5) if label.startswith("xi["))
    assert xi_mutant.xi != d5.xi and xi_mutant.generators == d5.generators
    others = [(d5.with_generator("s1", {**images, "nu5": "nu4"}), cfg),
              (d5, cfg),
              (xi_mutant, cfg),
              (d5, cfg._replace(use_constraint=False))]
    warm = []
    for fam, other_cfg in others:
        warm.append(_suite_reports(fam, other_cfg))
        assert entries().misses == built + 2, fam
        built = entries().misses
    for (fam, other_cfg), report in zip(others, warm):
        _clear_memos()
        assert _suite_reports(fam, other_cfg) == report
    assert all(r.ok for r in warm[1]) and not warm[2][1].ok and not warm[3][1].ok
