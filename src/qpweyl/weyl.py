"""Extended affine Weyl group actions for the q-Painleve families D5, E6, E7.

Each family carries a table of generators acting on the parameters
(q, nu1..nu8, kappa1, kappa2) and the dependent pair (f, g) by simultaneous
substitution, the Dynkin diagram edges, the parameter constraint, the
evolution word and the adjustment map used by the time-evolution theorem.

Composition convention
----------------------
Applying a transformation to an expression means substituting every symbol
by its image.  compose(outer, inner) maps x to outer applied to inner(x),
and in a word the rightmost letter acts first:

    word_to_transform(fam, "pi2 pi1 s2 s1 s0 s2")

sends nu1 to nu7 for the D5 family.  The opposite convention silently breaks
every time-evolution identity, so the tests pin this one.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from types import MappingProxyType

from .expr import ACTION_SYMBOLS, PARAM_SYMBOLS, Expr, parse, shown, substitute, sym
from .identity import (
    ConstraintRelation,
    DEFAULT_PRIME,
    DEFAULT_TRIALS,
    DegenerateComparison,
    _reduced_monomial,
    identities_equal,
)
from .report import CheckResult, Report


@dataclass(frozen=True, slots=True)
class Transformation:
    """A total substitution map symbol -> Expr; omitted symbols map to themselves.

    A value, as an Expr node is: images is read-only, and two maps are equal,
    and hash alike, when their (name, image) items are, so compose can be
    memoized by value.  The hash is computed once, as a tuple does not keep
    its own.
    """

    images: Mapping[str, Expr] = field(compare=False)
    items: tuple[tuple[str, Expr], ...] = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        items = tuple(sorted(self.images.items()))   # names are unique: nodes are never compared
        object.__setattr__(self, "images", MappingProxyType(dict(items)))
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "_hash", hash(items))

    def __hash__(self) -> int:
        return self._hash

    def image(self, name: str) -> Expr:
        return self.images.get(name) or sym(name)   # an Expr is never false

    def __call__(self, e: Expr, memo: dict | None = None) -> Expr:
        return substitute(e, self.images, memo)


IDENTITY = Transformation(images={})


def transformation(images: dict[str, str]) -> Transformation:
    return Transformation({k: parse(v) for k, v in images.items()})


def _swap(a: str, b: str) -> Transformation:
    return Transformation({a: sym(b), b: sym(a)})


#: Compositions kept: a benchmark pass makes at most 263 distinct ones.
COMPOSE_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=COMPOSE_CACHE_SIZE)
def compose(outer: Transformation, inner: Transformation) -> Transformation:
    """(outer o inner)(x) = outer(inner(x)); inner acts first.

    A name that inner leaves fixed goes to outer's image of it, with no
    substitution.  The result depends only on the two maps, which are
    values, so the last COMPOSE_CACHE_SIZE results are kept by the value of
    the pair: a word composed again, or a prefix it shares with an earlier
    word, costs one lookup per letter.  An ExprError (a zero denominator) is
    raised again on every call, never cached."""
    memo: dict = {}
    moved = inner.images
    names = set(outer.images) | set(moved)
    return Transformation({n: substitute(moved[n], outer.images, memo)
                           if n in moved else outer.image(n) for n in names})


# ---------------------------------------------------------------------------
# words

_WORD_GROUP_RE = re.compile(r"\(([^()]*)\)\s*\^\s*(\d+)")
_WORD_MARKUP_RE = re.compile(r"[()]|\^\s*\d*")
#: Composing is quadratic in a word's length, as images are not normalized.
MAX_WORD_LETTERS = 10_000


def parse_word(text: str) -> tuple[str, ...]:
    """Whitespace-separated generator names; "(...)^n" groups are expanded,
    innermost first.  Raises ValueError before an expansion would make the
    word longer than MAX_WORD_LETTERS letters."""
    while True:
        m = _WORD_GROUP_RE.search(text)
        body, n = (m.group(1), int(m.group(2))) if m else ("", 1)
        letters = len(_WORD_MARKUP_RE.sub(" ", text).split()) + (n - 1) * len(body.split())
        if letters > MAX_WORD_LETTERS:
            raise ValueError(f"word expands to more than {MAX_WORD_LETTERS} letters")
        if m is None:
            break
        text = text[: m.start()] + " ".join([body] * n) + text[m.end() :]
    if "(" in text or ")" in text or "^" in text:
        raise ValueError(f"malformed word {shown(text)}")
    return tuple(text.split())


def word_to_transform(fam: "FamilyDescriptor", word) -> Transformation:
    """Left-fold of compose over the word; the rightmost letter acts first."""
    if isinstance(word, str):
        word = parse_word(word)
    t = IDENTITY
    for name in word:
        if name not in fam.generators:
            raise KeyError(f"unknown generator {shown(name)} for family {fam.name}")
        t = compose(t, fam.generators[name])
    return t


# ---------------------------------------------------------------------------
# family descriptors

@dataclass(frozen=True, eq=False)
class FamilyDescriptor:
    name: str
    generators: Mapping[str, Transformation]
    s_names: tuple[str, ...]
    pi_names: tuple[str, ...]
    dynkin_edges: frozenset[tuple[int, int]]
    constraint: ConstraintRelation
    evolution_word: tuple[str, ...]
    xi: Transformation

    def with_generator(self, name: str, images: dict[str, str]) -> "FamilyDescriptor":
        """Copy of the family with one generator replaced (mutation fixtures).

        Raises KeyError for a name that is not a generator of the family, so
        that a misspelled name is not added as a generator no suite checks.
        """
        if name not in self.generators:
            raise KeyError(f"unknown generator {shown(name)} for family {self.name}")
        gens = dict(self.generators)
        gens[name] = transformation(images)
        return replace(self, generators=gens)


DEFAULT_CONSTRAINT_TEXT = "kappa1^2*kappa2^2/(q*nu1*nu2*nu3*nu4*nu5*nu6*nu7)"


def default_constraint() -> ConstraintRelation:
    return ConstraintRelation("nu8", parse(DEFAULT_CONSTRAINT_TEXT))


def _edges(pairs) -> frozenset[tuple[int, int]]:
    return frozenset(tuple(sorted(p)) for p in pairs)


def _build_d5() -> FamilyDescriptor:
    inv_all = {name: f"1/{name}" for name in
               ("q", "nu5", "nu6", "kappa1", "kappa2")}
    gens = {
        "s0": _swap("nu7", "nu8"),
        "s1": _swap("nu3", "nu4"),
        "s4": _swap("nu1", "nu2"),
        "s5": _swap("nu5", "nu6"),
        "s2": transformation({
            "nu3": "kappa1/nu7",
            "nu7": "kappa1/nu3",
            "kappa2": "kappa1*kappa2/(nu3*nu7)",
            "g": "g*(f - nu3)/(f - kappa1/nu7)",
        }),
        "s3": transformation({
            "nu1": "kappa2/nu5",
            "nu5": "kappa2/nu1",
            "kappa1": "kappa1*kappa2/(nu1*nu5)",
            "f": "f*(g - 1/nu1)/(g - nu5/kappa2)",
        }),
        "pi1": transformation({
            **inv_all,
            "nu1": "1/nu1", "nu2": "1/nu2",
            "nu3": "1/nu7", "nu4": "1/nu8",
            "nu7": "1/nu3", "nu8": "1/nu4",
            "f": "f/kappa1", "g": "1/g",
        }),
        "pi2": transformation({
            "q": "1/q",
            "nu1": "1/nu7", "nu2": "1/nu8",
            "nu3": "1/nu5", "nu4": "1/nu6",
            "nu5": "1/nu3", "nu6": "1/nu4",
            "nu7": "1/nu1", "nu8": "1/nu2",
            "kappa1": "1/kappa2", "kappa2": "1/kappa1",
            "f": "1/(kappa2*g)", "g": "kappa1/f",
        }),
    }
    xi = transformation({
        "nu1": "nu1*nu5*nu6/kappa2",
        "nu2": "nu2*nu5*nu6/kappa2",
        "nu3": "kappa1/(q*nu4)",
        "nu4": "kappa1/(q*nu3)",
        "nu5": "nu5*nu1*nu2/kappa2",
        "nu6": "nu6*nu1*nu2/kappa2",
        "nu7": "kappa1/(q*nu8)",
        "nu8": "kappa1/(q*nu7)",
        "kappa1": "kappa1^3/(q^2*nu3*nu4*nu7*nu8)",
        "kappa2": "nu1*nu2*nu5*nu6/kappa2",
        "f": "f*kappa1/(q*nu3*nu4)",
        "g": "g*kappa2/(nu5*nu6)",
    })
    return FamilyDescriptor(
        name="D5",
        generators=gens,
        s_names=tuple(f"s{i}" for i in range(6)),
        pi_names=("pi1", "pi2"),
        dynkin_edges=_edges([(0, 2), (1, 2), (2, 3), (3, 4), (3, 5)]),
        constraint=default_constraint(),
        evolution_word=parse_word("pi2 pi1 s2 s1 s0 s2"),
        xi=xi,
    )


def _build_e6() -> FamilyDescriptor:
    gens = {
        "s0": _swap("nu7", "nu8"),
        "s1": _swap("nu5", "nu6"),
        "s3": _swap("nu1", "nu2"),
        "s4": _swap("nu2", "nu3"),
        "s5": _swap("nu3", "nu4"),
        "s2": transformation({
            "nu1": "kappa2/nu6",
            "nu6": "kappa2/nu1",
            "kappa1": "kappa1*kappa2/(nu1*nu6)",
            "f": "f*kappa2*(nu1*g - 1)/(-(kappa2 - nu1*nu6)*f*g + nu1*kappa2*g - nu1*nu6)",
        }),
        "s6": transformation({
            "nu1": "kappa1/nu7",
            "nu7": "kappa1/nu1",
            "kappa2": "kappa1*kappa2/(nu1*nu7)",
            "g": "g*nu7*(nu1 - f)/(kappa1 - nu7*f + (nu1*nu7 - kappa1)*f*g)",
        }),
        "pi1": transformation({
            "q": "1/q",
            "nu1": "nu2/kappa2", "nu2": "nu1/kappa2",
            "nu3": "1/nu6", "nu4": "1/nu5",
            "nu5": "1/nu4", "nu6": "1/nu3",
            "nu7": "1/nu7", "nu8": "1/nu8",
            "kappa1": "nu1*nu2/(kappa1*kappa2)", "kappa2": "1/kappa2",
            "f": "nu1*nu2*(1 - f*g)/(kappa2*(nu1*nu2*g + f - (nu1 + nu2)*f*g))",
            "g": "kappa2*g",
        }),
        "pi2": transformation({
            "q": "1/q",
            "nu1": "1/nu1", "nu2": "1/nu2", "nu3": "1/nu3", "nu4": "1/nu4",
            "nu5": "1/nu8", "nu6": "1/nu7", "nu7": "1/nu6", "nu8": "1/nu5",
            "kappa1": "1/kappa2", "kappa2": "1/kappa1",
            "f": "g", "g": "f",
        }),
    }
    # Adjustment map derived from the evolution word's square and the required
    # time-evolution images; see the package tests for the fixture chain.
    xi = transformation({
        "nu1": "nu1*nu5*nu6/kappa2",
        "nu2": "nu2*nu5*nu6/kappa2",
        "nu3": "nu3*nu5*nu6/kappa2",
        "nu4": "nu4*nu5*nu6/kappa2",
        "nu5": "nu5*kappa1/(q*kappa2)",
        "nu6": "nu6*kappa1/(q*kappa2)",
        "nu7": "kappa1/(q*nu8)",
        "nu8": "kappa1/(q*nu7)",
        "kappa1": "nu5*nu6*kappa1^2/(q*kappa2*nu7*nu8)",
        "kappa2": "nu5*nu6*kappa1/(q*kappa2)",
        "f": "f*nu5*nu6/kappa2",
        "g": "g*kappa2/(nu5*nu6)",
    })
    return FamilyDescriptor(
        name="E6",
        generators=gens,
        s_names=tuple(f"s{i}" for i in range(7)),
        pi_names=("pi1", "pi2"),
        dynkin_edges=_edges([(1, 2), (2, 3), (3, 4), (4, 5), (3, 6), (6, 0)]),
        constraint=default_constraint(),
        evolution_word=parse_word("pi1 pi2 s4 s5 s3 s6 s4 s3 s0 s6"),
        xi=xi,
    )


def _build_e7() -> FamilyDescriptor:
    gens = {
        "s0": transformation({
            "kappa1": "kappa2", "kappa2": "kappa1",
            "f": "1/g", "g": "1/f",
        }),
        "s1": _swap("nu3", "nu4"),
        "s2": _swap("nu2", "nu3"),
        "s3": _swap("nu1", "nu2"),
        "s5": _swap("nu5", "nu6"),
        "s6": _swap("nu6", "nu7"),
        "s7": _swap("nu7", "nu8"),
        "s4": transformation({
            "nu1": "kappa2/nu5",
            "nu5": "kappa2/nu1",
            "kappa1": "kappa1*kappa2/(nu1*nu5)",
            "f": "(-kappa2*(nu1*nu5 - kappa1)*f*g - nu5*(kappa1 - kappa2)*f"
                 " + kappa1*(nu1*nu5 - kappa2))"
                 "/(nu5*(-(nu1*nu5 - kappa2)*f*g + nu1*(kappa1 - kappa2)*g"
                 " + (nu1*nu5 - kappa1)))",
        }),
        "pi": transformation({
            "q": "1/q",
            "nu1": "1/nu5", "nu2": "1/nu6", "nu3": "1/nu7", "nu4": "1/nu8",
            "nu5": "1/nu1", "nu6": "1/nu2", "nu7": "1/nu3", "nu8": "1/nu4",
            "kappa1": "1/kappa1", "kappa2": "1/kappa2",
            "f": "f/kappa1", "g": "kappa2*g",
        }),
    }
    xi = transformation({
        **{f"nu{i}": f"nu{i}*kappa1/(q*kappa2)" for i in range(1, 9)},
        "kappa1": "kappa1^3/(q^2*kappa2^2)",
        "kappa2": "kappa1^2/(q^2*kappa2)",
        "f": "f*kappa1/(q*kappa2)",
        "g": "g*q*kappa2/kappa1",
    })
    return FamilyDescriptor(
        name="E7",
        generators=gens,
        s_names=tuple(f"s{i}" for i in range(8)),
        pi_names=("pi",),
        dynkin_edges=_edges([(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (4, 0)]),
        constraint=default_constraint(),
        # Staircase word: right wing outside-in, mirrored left wing, pivot s4,
        # closing s0.  This is the word whose square the adjustment map xi
        # straightens into the time evolution; restarting each left-wing run
        # at s1 instead of its mirror position breaks the nu3/nu4/nu6/nu7
        # images (the tests pin this down).
        evolution_word=parse_word("s4 s5 s3 s4 s6 s5 s2 s3 s4 s7 s6 s5 s1 s2 s3 s4 s0"),
        xi=xi,
    )


_BUILDERS = {"D5": _build_d5, "E6": _build_e6, "E7": _build_e7}
FAMILY_NAMES = tuple(_BUILDERS)
_SHARED: dict[str, FamilyDescriptor] = {}


def make_family(name: str) -> FamilyDescriptor:
    """The family's descriptor, built once per process and shared: its
    generators are read-only, and with_generator makes a changed copy."""
    fam = _SHARED.get(name)
    if fam is None:
        try:
            builder = _BUILDERS[name]
        except KeyError:
            raise ValueError(f"unknown family {shown(name)}; expected one of {FAMILY_NAMES}") from None
        fam = builder()
        # Two threads may both build; setdefault hands each the first one.
        fam = _SHARED.setdefault(name, replace(fam, generators=MappingProxyType(fam.generators)))
    return fam


# ---------------------------------------------------------------------------
# relation suites

@dataclass(frozen=True)
class CheckConfig:
    trials: int = DEFAULT_TRIALS
    prime: int = DEFAULT_PRIME
    seed: int = 0
    exact: bool = False
    use_constraint: bool = True

    def constraint(self, fam: FamilyDescriptor) -> ConstraintRelation | None:
        """The family's constraint, or None when checks run without it."""
        return fam.constraint if self.use_constraint else None


def check(check_id: str, pairs, constraint: ConstraintRelation | None,
          cfg: CheckConfig) -> CheckResult:
    """The verdict of every suite: does a equal b for each (name, a, b)?

    Pairs are compared in order, each sampled under the label
    "check_id:name", or check_id when name is empty.  The first pair that
    differs fails the check with its witness.  A comparison that finds no
    sample point off the poles makes the check degenerate.  A pass is
    marked exact when cfg.exact is set and every pair was proved exactly.
    """
    proved = cfg.exact
    try:
        for name, a, b in pairs:
            res = identities_equal(
                a, b, constraint,
                trials=cfg.trials, prime=cfg.prime, seed=cfg.seed,
                exact=cfg.exact, label=f"{check_id}:{name}" if name else check_id,
            )
            if res.verdict == "unequal":
                return CheckResult(check_id, "fail", witness=res.witness,
                                   detail=f"images of {name} differ" if name else "")
            proved = proved and res.verdict == "exact-proved"
    except DegenerateComparison as err:
        return CheckResult(check_id, "degenerate", detail=str(err))
    return CheckResult(check_id, "pass", detail="exact" if proved else "")


def _image_pairs(t1: Transformation, t2: Transformation):
    """(name, t1 image, t2 image) for each of the 12 action symbols, those
    that neither map moves included: their two images are the bare symbol."""
    return ((name, t1.image(name), t2.image(name)) for name in ACTION_SYMBOLS)


def verify_involutions(fam: FamilyDescriptor, cfg: CheckConfig | None = None) -> Report:
    cfg = cfg or CheckConfig()
    constraint = cfg.constraint(fam)
    report = Report()
    for name in fam.s_names + fam.pi_names:
        gen = fam.generators[name]
        report.add(check(f"{fam.name}:invol:{name}",
                         _image_pairs(compose(gen, gen), IDENTITY), constraint, cfg))
    return report


def verify_braid(fam: FamilyDescriptor, cfg: CheckConfig | None = None) -> Report:
    """Braid relation on Dynkin edges, commutation on non-edges."""
    cfg = cfg or CheckConfig()
    constraint = cfg.constraint(fam)
    report = Report()
    indices = [int(n[1:]) for n in fam.s_names]
    for i, j in itertools.combinations(indices, 2):
        si, sj = fam.generators[f"s{i}"], fam.generators[f"s{j}"]
        if tuple(sorted((i, j))) in fam.dynkin_edges:
            lhs = compose(si, compose(sj, si))
            rhs = compose(sj, compose(si, sj))
            kind = "braid"
        else:
            lhs = compose(si, sj)
            rhs = compose(sj, si)
            kind = "commute"
        report.add(check(f"{fam.name}:{kind}:s{i},s{j}",
                         _image_pairs(lhs, rhs), constraint, cfg))
    return report


_D5_PI_RELATIONS = (
    ("pi1 s0", "s1 pi1"),
    ("pi1 s2", "s2 pi1"),
    ("pi1 s3", "s3 pi1"),
    ("pi1 s4", "s4 pi1"),
    ("pi1 s5", "s5 pi1"),
    ("pi2 s0", "s4 pi2"),
    ("pi2 s1", "s5 pi2"),
    ("pi2 s2", "s3 pi2"),
)


def verify_pi_relations(fam: FamilyDescriptor, cfg: CheckConfig | None = None) -> Report:
    """Diagram-automorphism relations.

    For D5 the explicit list plus (pi1 pi2)^4 = id is checked.  For E6/E7
    the conjugate of each s_i is read off the exponent lattice: pi s_i can
    equal s_j pi only if no parameter image of the two is a pair of
    monomials with different exponents.  The first such s_j, else s0, is
    checked once; the check fails if it does not match.
    """
    cfg = cfg or CheckConfig()
    constraint = cfg.constraint(fam)
    report = Report()
    if fam.name == "D5":
        for lhs_word, rhs_word in _D5_PI_RELATIONS:
            lhs = word_to_transform(fam, lhs_word)
            rhs = word_to_transform(fam, rhs_word)
            report.add(check(f"D5:pi:{lhs_word} = {rhs_word}",
                             _image_pairs(lhs, rhs), constraint, cfg))
        t = word_to_transform(fam, "(pi1 pi2)^4")
        report.add(check("D5:pi:(pi1 pi2)^4", _image_pairs(t, IDENTITY), constraint, cfg))
        return report

    def lattice(t: Transformation) -> list:
        return [_reduced_monomial(t.image(name), constraint) for name in PARAM_SYMBOLS]

    for pi_name in fam.pi_names:
        pi = fam.generators[pi_name]
        s_pi = {s: compose(fam.generators[s], pi) for s in fam.s_names}
        for s_name in fam.s_names:
            lhs = compose(pi, fam.generators[s_name])
            exps = lattice(lhs)
            cand = next((c for c in fam.s_names if all(
                None in (a, b) or a == b for a, b in zip(exps, lattice(s_pi[c])))),
                fam.s_names[0])
            res = check(f"{fam.name}:pi:{pi_name} {s_name} = {cand} {pi_name}",
                        _image_pairs(lhs, s_pi[cand]), constraint, cfg)
            detail = {"pass": f"{pi_name} {s_name} = {cand} {pi_name}",
                      "fail": "no matching conjugate generator"}.get(res.status, res.detail)
            report.add(replace(res, id=f"{fam.name}:pi:{pi_name} {s_name}", detail=detail))
    return report


def verify_relations(fam: FamilyDescriptor, cfg: CheckConfig | None = None) -> Report:
    report = Report()
    report.extend(verify_involutions(fam, cfg))
    report.extend(verify_braid(fam, cfg))
    report.extend(verify_pi_relations(fam, cfg))
    return report
