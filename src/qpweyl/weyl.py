"""Extended affine Weyl group actions for the q-Painleve families D5, E6, E7.

Each family is built from its tables in paper.py: generators acting on
the parameters (q, nu1..nu8, kappa1, kappa2) and the dependent pair (f, g)
by simultaneous substitution, the Dynkin diagram edges, the parameter
constraint, the evolution word and the adjustment map used by the
time-evolution theorem.

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
from types import MappingProxyType

from . import paper
from .expr import ACTION_SYMBOLS, PARAM_SYMBOLS, Expr, div, mul, parse, shown, substitute, sym
from .identity import (
    CheckConfig,
    ConstraintRelation,
    DegenerateComparison,
    Points,
    _reduced_monomial,
    identities_equal,
    lattice_equal,
)
from .report import CheckResult, Frozen, Report, Value


#: Map images kept: a benchmark pass applies at most 89 distinct (map, node)
#: pairs.
IMAGE_CACHE_SIZE = 1024


class Transformation(Value):
    """A total substitution map symbol -> Expr; omitted symbols map to themselves.

    A value, as an Expr node is: images is read-only, and two maps are equal,
    and hash alike, when their (name, image) items are, so compose can be
    memoized by value.  The hash is computed once, as a tuple does not keep
    its own.  Applying a map is memoized by value too, as compose is: the
    last IMAGE_CACHE_SIZE images are kept by the pair (map, node), and an
    ExprError (a zero denominator) is raised again on every call.
    """

    __slots__ = ("images", "items", "_hash")

    def __init__(self, images: Mapping[str, Expr]):
        items = tuple(sorted(images.items()))   # names are unique: nodes are never compared
        super().__init__(MappingProxyType(dict(items)), items, hash(items))

    def __eq__(self, other):   # by items alone: images and the hash follow from them
        return self.items == other.items if type(other) is Transformation else NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Transformation(images={self.images!r})"

    def image(self, name: str) -> Expr:
        return self.images.get(name) or sym(name)   # an Expr is never false

    @functools.lru_cache(maxsize=IMAGE_CACHE_SIZE)
    def __call__(self, e: Expr) -> Expr:
        return substitute(e, self.images)


IDENTITY = Transformation(images={})


def transformation(images: dict[str, str]) -> Transformation:
    return Transformation({k: parse(v) for k, v in images.items()})


#: Compositions kept: a benchmark pass makes at most 264 distinct ones.
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


def _scaling(kind: str, s: Expr) -> Transformation:
    """paper.SCALINGS[kind]'s map: x -> s x for each symbol x of its up set,
    x -> x/s for each of its down set, everything else fixed."""
    up, down = paper.SCALINGS[kind]
    images = {x: mul(s, sym(x)) for x in up}
    images.update({x: div(sym(x), s) for x in down})
    return Transformation(images)


def scaling_map(spec) -> Transformation:
    """The composite of a scaling spec's (kind, scale text) maps; the last acts first."""
    return functools.reduce(compose, (_scaling(kind, parse(scale)) for kind, scale in spec))


# ---------------------------------------------------------------------------
# words

_WORD_GROUP_RE = re.compile(r"\(([^()]*)\)\s*\^\s*(\d+)")
_WORD_MARKUP_RE = re.compile(r"[()]|\^\s*\d*")
#: Composing is quadratic in a word's length, as images are not normalized.
MAX_WORD_LETTERS = 10_000


def _letters(text: str) -> int:
    """How many names text holds, its group markup read as blanks."""
    return len(_WORD_MARKUP_RE.sub(" ", text).split())


def parse_word(text: str) -> tuple[str, ...]:
    """Whitespace-separated generator names; "(...)^n" groups are expanded,
    innermost first, each adding n - 1 times its body's letters, counted as
    _letters counts them, to the letter count.  Raises ValueError before an
    expansion would make the word longer than MAX_WORD_LETTERS letters.  A
    body without letters has its copies cut to MAX_WORD_LETTERS characters,
    past which they change neither the word nor a message.  The count can
    still run ahead of the word where a copy glues to a neighbour:
    "s1(s0)^2" counts 3 letters for "s1s0 s0", a word that holds an
    unknown name anyway."""
    letters, pos = _letters(text), 0
    while m := _WORD_GROUP_RE.search(text, pos):
        body, n = m.group(1), int(m.group(2))
        k = _letters(body)
        letters += (n - 1) * k
        if letters > MAX_WORD_LETTERS:
            break
        if not k:
            n = min(n, MAX_WORD_LETTERS // (len(body) + 1) + 1)
        expansion = " ".join([body] * n)
        # The text before the group is unchanged: no group starts before
        # the last "(" in it.
        start = m.start()
        pos = text.rfind("(", 0, start)
        pos = start if pos < 0 else pos
        text = text[:start] + (expansion if k else expansion[:MAX_WORD_LETTERS]) + text[m.end():]
    if letters > MAX_WORD_LETTERS or _letters(text) > MAX_WORD_LETTERS:
        raise ValueError(f"word expands to more than {MAX_WORD_LETTERS} letters")
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

class FamilyDescriptor(Frozen):
    __slots__ = ("name", "generators", "s_names", "pi_names", "dynkin_edges",
                 "constraint", "evolution_word", "xi")

    def __init__(self, name: str, generators: Mapping[str, Transformation],
                 s_names: tuple[str, ...], pi_names: tuple[str, ...],
                 dynkin_edges: frozenset[tuple[int, int]], constraint: ConstraintRelation,
                 evolution_word: tuple[str, ...], xi: Transformation):
        super().__init__(name, generators, s_names, pi_names, dynkin_edges, constraint,
                         evolution_word, xi)

    def with_generator(self, name: str, images: dict[str, str]) -> "FamilyDescriptor":
        """Copy of the family with one generator replaced (mutation fixtures).

        Raises KeyError for a name that is not a generator of the family, so
        that a misspelled name is not added as a generator no suite checks.
        """
        if name not in self.generators:
            raise KeyError(f"unknown generator {shown(name)} for family {self.name}")
        gens = dict(self.generators)
        gens[name] = transformation(images)
        return self._replace(generators=MappingProxyType(gens))


FAMILY_NAMES = tuple(paper.FAMILIES)
_SHARED: dict[str, FamilyDescriptor] = {}


def _build(name: str) -> FamilyDescriptor:
    """The family's descriptor, built from its tables in paper.py."""
    data = paper.FAMILIES[name]
    return FamilyDescriptor(
        name=name,
        generators=MappingProxyType({g: transformation(t) for g, t in data["generators"].items()}),
        s_names=data["s_names"],
        pi_names=data["pi_names"],
        dynkin_edges=frozenset(tuple(sorted(edge)) for edge in data["dynkin_edges"]),
        constraint=ConstraintRelation("nu8", parse(data["constraint"])),
        evolution_word=parse_word(data["evolution_word"]),
        xi=transformation(data["xi"]),
    )


def make_family(name: str) -> FamilyDescriptor:
    """The family's descriptor, built once per process and shared: its
    generators are read-only, and with_generator makes a changed copy."""
    fam = _SHARED.get(name)
    if fam is None:
        if name not in paper.FAMILIES:
            raise ValueError(f"unknown family {shown(name)}; expected one of {FAMILY_NAMES}")
        # Two threads may both build; setdefault hands each the first one.
        fam = _SHARED.setdefault(name, _build(name))
    return fam


# ---------------------------------------------------------------------------
# relation suites

def check(check_id: str, pairs, constraint: ConstraintRelation | None,
          cfg: CheckConfig, points: Points | None = None) -> CheckResult:
    """The verdict of every suite: does a equal b for each (name, a, b)?

    Pairs are compared in order at the suite's points, or, without them,
    each at a Points(cfg) of its own, which holds the same values.  The
    first pair that differs fails the check with its witness.  A comparison
    that finds no sample point off the poles makes the check degenerate;
    its message names the pair as "check_id:name", or check_id when name is
    empty.  So does a DegenerateComparison that pairs raises as it is read,
    as lax.equations_equivalent's pairs do for an equation they cannot show
    nonzero; its message is the check's detail as it is.  A pass is marked
    exact when cfg.exact is set and every pair was proved exactly.  A pair
    the lattice decides is equal, and exactly so, at every seed, so
    run_checks passes only the undecided pairs.
    """
    proved = cfg.exact
    try:
        for name, a, b in pairs:
            res = identities_equal(a, b, constraint, cfg, points=points,
                                   label=f"{check_id}:{name}" if name else check_id)
            if res.verdict == "unequal":
                return CheckResult(check_id, "fail", witness=res.witness,
                                   detail=f"images of {name} differ" if name else "")
            proved = proved and res.verdict == "exact-proved"
    except DegenerateComparison as err:
        return CheckResult(check_id, "degenerate", detail=str(err))
    return CheckResult(check_id, "pass", detail="exact" if proved else "")


#: Suite entries kept, by the suite, the family's tables and the constraint
#: or None: a benchmark pass builds at most 28 distinct ones.
SUITE_CACHE_SIZE = 256


def suite_entry(build, fam: FamilyDescriptor, constraint: ConstraintRelation | None, *tables):
    """build(fam, constraint, *tables), kept by build, fam's fields, the
    constraint or None and the tables the suite reads besides fam: equal
    with_generator copies share an entry, built from the key's fields."""
    fields = (fam.name, tuple(fam.generators.items()), *fam._fields()[2:])
    return _suite_entry(build, fields, constraint, tables)


@functools.lru_cache(maxsize=SUITE_CACHE_SIZE)
def _suite_entry(build, fields: tuple, constraint, tables: tuple):
    name, items, *rest = fields
    return build(FamilyDescriptor(name, MappingProxyType(dict(items)), *rest), constraint, *tables)


def _undecided_checks(fam: FamilyDescriptor, constraint, build, *tables) -> tuple:
    """(check_id, the pairs the lattice leaves undecided) of each check built."""
    return tuple((check_id, tuple(p for p in pairs if not lattice_equal(p[1], p[2], constraint)))
                 for check_id, pairs in build(fam, constraint, *tables))


def run_checks(fam: FamilyDescriptor, cfg: CheckConfig, build, *tables,
               points: Points | None = None) -> Report:
    """The report of check(check_id, pairs) for each (check_id, pairs) that
    build(fam, constraint, *tables) yields, in order, modulo fam's
    constraint unless cfg drops it, all at one set of points: the caller's,
    or a Points(cfg) built for this call.  The list, its pairs cut to the
    undecided ones, is a suite_entry, so a suite run again only samples."""
    constraint = cfg.constraint(fam)
    if points is None:
        points = Points(cfg)
    return Report([check(check_id, pairs, constraint, cfg, points) for check_id, pairs
                   in suite_entry(_undecided_checks, fam, constraint, build, *tables)])


def _image_pairs(t1: Transformation, t2: Transformation) -> tuple:
    """(name, t1 image, t2 image) for each of the 12 action symbols, those
    that neither map moves included: their two images are the bare symbol."""
    return tuple((name, t1.image(name), t2.image(name)) for name in ACTION_SYMBOLS)


def _involution_checks(fam: FamilyDescriptor, constraint):
    gens = fam.generators
    return ((f"{fam.name}:invol:{name}", _image_pairs(compose(gens[name], gens[name]), IDENTITY))
            for name in fam.s_names + fam.pi_names)


def verify_involutions(fam: FamilyDescriptor, cfg: CheckConfig = CheckConfig(),
                       points: Points | None = None) -> Report:
    return run_checks(fam, cfg, _involution_checks, points=points)


def _braid_checks(fam: FamilyDescriptor, constraint):
    def relation(i: int, j: int):
        si, sj = fam.generators[f"s{i}"], fam.generators[f"s{j}"]
        if tuple(sorted((i, j))) in fam.dynkin_edges:
            return (f"{fam.name}:braid:s{i},s{j}",
                    _image_pairs(compose(si, compose(sj, si)), compose(sj, compose(si, sj))))
        return f"{fam.name}:commute:s{i},s{j}", _image_pairs(compose(si, sj), compose(sj, si))

    indices = [int(n[1:]) for n in fam.s_names]
    return itertools.starmap(relation, itertools.combinations(indices, 2))


def verify_braid(fam: FamilyDescriptor, cfg: CheckConfig = CheckConfig(),
                 points: Points | None = None) -> Report:
    """Braid relation on Dynkin edges, commutation on non-edges."""
    return run_checks(fam, cfg, _braid_checks, points=points)


def _pi_checks(fam: FamilyDescriptor, constraint, listed):
    for lhs, rhs in listed:
        yield (f"{fam.name}:pi:{lhs}" + (f" = {rhs}" if rhs else ""),
               _image_pairs(word_to_transform(fam, lhs), word_to_transform(fam, rhs)))

    def lattice(t: Transformation) -> list:
        return [_reduced_monomial(t.image(name), constraint) for name in PARAM_SYMBOLS]

    for pi_name in () if listed else fam.pi_names:   # a listed family checks its list alone
        pi = fam.generators[pi_name]
        s_pi = {s: compose(fam.generators[s], pi) for s in fam.s_names}
        for s_name in fam.s_names:
            lhs = compose(pi, fam.generators[s_name])
            exps = lattice(lhs)
            cand = next((c for c in fam.s_names if all(
                None in (a, b) or a == b for a, b in zip(exps, lattice(s_pi[c])))),
                fam.s_names[0])
            yield (f"{fam.name}:pi:{pi_name} {s_name} = {cand} {pi_name}",
                   _image_pairs(lhs, s_pi[cand]))


def verify_pi_relations(fam: FamilyDescriptor, cfg: CheckConfig = CheckConfig(),
                        points: Points | None = None) -> Report:
    """Diagram-automorphism relations.

    A family with a pi_relations table in paper.py (D5) has each listed
    relation checked, an empty right-hand side standing for the identity.
    For the others (E6/E7) the conjugate of each s_i is read off the
    exponent lattice: pi s_i can equal s_j pi only if no parameter image of
    the two is a pair of monomials with different exponents.  The first
    such s_j, else s0, is checked once; the check fails if it does not match.
    """
    listed = paper.FAMILIES[fam.name]["pi_relations"]
    report = run_checks(fam, cfg, _pi_checks, listed, points=points)
    if listed:
        return report
    # Each check "pi s_i = s_j pi" is reported as "pi s_i".
    return Report([res._replace(id=res.id.split(" = ")[0], detail={
        "pass": res.id.split(":")[-1], "fail": "no matching conjugate generator"}.get(
            res.status, res.detail)) for res in report.checks])


def verify_relations(fam: FamilyDescriptor, cfg: CheckConfig = CheckConfig()) -> Report:
    """The involution, braid and pi suites, at one set of points."""
    points = Points(cfg)
    return Report([res for suite in (verify_involutions, verify_braid, verify_pi_relations)
                   for res in suite(fam, cfg, points).checks])
