"""The paper's data sits in paper.py alone, and the orbit solvers' roots in
it rebuild the relation texts.

Each relation is affine in the coordinate a step solves it for.  Its text
R(z) = A z + B and the solver's form, rebuilt from the root table, have the
same root in z exactly when A_text B_form = A_form B_text, which weyl.check
decides as any other identity.
"""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from qpweyl import evolution, paper
from qpweyl.expr import ONE, ZERO, ExprError, mul, parse, sub, substitute, sym
from qpweyl.weyl import CheckConfig, check, parse_word

PACKAGE = Path(evolution.__file__).resolve().parent


def test_paper_module_is_only_literals():
    """paper.py imports nothing and calls nothing: its tables are strings,
    tuples and dicts, parsed by the modules that read them."""
    tree = ast.parse((PACKAGE / "paper.py").read_text(encoding="utf-8"))
    found = [f"{type(node).__name__}:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom, ast.Call, ast.FunctionDef,
                                  ast.ClassDef, ast.Lambda, ast.comprehension))]
    assert found == []


@pytest.mark.parametrize("module", ["weyl.py", "lax.py", "evolution.py"])
def test_mechanism_modules_hold_no_paper_text(module):
    """Every string constant that parses as an expression with a free symbol
    is a bare symbol name: the generator, xi, relation, L1, claim,
    constraint and root texts are all in paper.py."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    texts = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                e = parse(node.value, extra_symbols=("fbar", "gbar"))
            except (ExprError, ArithmeticError):
                continue
            if e.free and e.kind != "sym":
                texts.append(f"{node.lineno}: {node.value}")
    assert texts == []


#: The gauge kinds lax.apply_gauge knows, each with its argument count.
GAUGE_ARITY = {"pochhammer": 2, "power": 1, "dilation": 1, "inversion": 2}


def claim_faults(row) -> list[str]:
    """What is wrong with a paper.CLAIMS row: a gauge of an unknown kind or
    with the wrong number of arguments, a word target with a letter that is
    no generator of the family, a scaling target with an unknown kind."""
    claim_id, family, gauges, target, _ = row
    faults = [f"{claim_id}: gauge {kind} of {len(args)}" for kind, *args in gauges
              if GAUGE_ARITY.get(kind) != len(args)]
    if isinstance(target, str):
        generators = paper.FAMILIES[family]["generators"]
        faults += [f"{claim_id}: letter {name}" for name in parse_word(target)
                   if name not in generators]
    else:
        faults += [f"{claim_id}: scaling {kind}" for kind, _ in target
                   if kind not in paper.SCALINGS]
    return faults


def test_claims_are_well_formed():
    assert [fault for row in paper.CLAIMS for fault in claim_faults(row)] == []
    _, family, gauges, target, note = paper.CLAIMS[1]
    assert claim_faults(("x", family, (("pochamer", "nu3", "nu4"), ("power", "a", "b")),
                         target + " s9", note)) == [
        "x: gauge pochamer of 2", "x: gauge power of 2", "x: letter s9"]
    assert claim_faults(("y", family, (), (("e7", "c"),), note)) == ["y: scaling e7"]


def _kappas(rel: int):
    """k1, k2 of a relation: the earlier state's kappas for rel1, the later
    state's for rel2."""
    if rel == 1:
        return sym("kappa1"), sym("kappa2")
    return parse(paper.T_IMAGES["kappa1"]), parse(paper.T_IMAGES["kappa2"])


def _root(text: str, k1, k2):
    """A root text of paper.py at the relation's kappas."""
    return substitute(parse(text, extra_symbols=("k1", "k2")), {"k1": k1, "k2": k2})


def _product(x, roots):
    return mul(*(sub(x, r) for r in roots)) if roots else ONE


def solver_form(family: str, rel: int, up: bool, roots):
    """(unknown, residual) of the solver's relation solved at step
    direction up, from a relation's root texts (constants, top, bottom)."""
    k1, k2 = _kappas(rel)
    consts, top, bottom = ([_root(text, k1, k2) for text in part] for part in roots)
    x, old, new = (sym("g"), sym("f"), sym("fbar")) if rel == 1 else \
        (sym("fbar"), sym("g"), sym("gbar"))
    y, z = (old, new) if up else (new, old)
    lower, upper = _product(x, bottom), _product(x, top)
    if family == "D5":            # z y prod(x - b) = c prod(x - a)
        return z, sub(mul(z, y, lower), mul(consts[0], upper))
    if family == "E6":            # (x z - 1)(x y - 1) prod(x - b) = z y prod(x - a)
        return z, sub(mul(sub(mul(x, z), ONE), sub(mul(x, y), ONE), lower), mul(z, y, upper))
    # E7: (x z - s)(x y - t) prod(x - b) = (x z - 1)(x y - 1) prod(x - a)
    s, t = consts if up else consts[::-1]
    return z, sub(mul(sub(mul(x, z), s), sub(mul(x, y), t), lower),
                  mul(sub(mul(x, z), ONE), sub(mul(x, y), ONE), upper))


def _affine(residual, unknown):
    """(A, B) with residual = A unknown + B."""
    at0 = substitute(residual, {unknown.name: ZERO})
    return sub(substitute(residual, {unknown.name: ONE}), at0), at0


def root_check(fam, rel: int, up: bool, roots, cfg=None):
    """weyl.check's verdict on A_text B_form = A_form B_text for fam's
    relation rel solved at step direction up, the form rebuilt from the
    relation's root texts."""
    unknown, form = solver_form(fam.name, rel, up, roots)
    text = parse(paper.FAMILIES[fam.name]["relations"][rel - 1], extra_symbols=("fbar", "gbar"))
    (a_text, b_text), (a_form, b_form) = _affine(text, unknown), _affine(form, unknown)
    return check(f"{fam.name}:roots:rel{rel}", [("", mul(a_text, b_form), mul(a_form, b_text))],
                 fam.constraint, cfg or CheckConfig())


@pytest.mark.parametrize("family", ["D5", "E6", "E7"])
@pytest.mark.parametrize("rel", [1, 2])
@pytest.mark.parametrize("up", [True, False], ids=["forward", "backward"])
def test_solver_roots_rebuild_the_relation_text(families, family, rel, up):
    roots = paper.FAMILIES[family]["roots"][rel - 1]
    unknown, form = solver_form(family, rel, up, roots)
    # The form is affine in the unknown and not constant in it.
    assert check("A", [("", _affine(form, unknown)[0], ZERO)], None, CheckConfig()).status == "fail"
    assert root_check(families[family], rel, up, roots).status == "pass"


def _unreduced(text: str, values: dict) -> tuple[int, int]:
    """The integer pair of a root text, not reduced, as the solvers built
    it by hand: the numerators of the names it multiplies by and the
    denominators of those it divides by, over the other parts."""
    top, _, bottom = text.partition("/")
    num = den = 1
    for side, flip in ((top, False), (bottom, True)):
        for name in side.strip("()").split("*"):
            if name not in ("", "1"):
                n, d = values[name].as_integer_ratio()
                num, den = (num * d, den * n) if flip else (num * n, den * d)
    return num, den


@pytest.mark.parametrize("family", ["D5", "E6", "E7"])
def test_solvers_read_the_root_texts(family):
    """The solvers' resolved roots give the unreduced pair of each root text."""
    rng = random.Random(3)
    for _ in range(20):
        values = {name: Fraction(rng.randint(-40, 40) or 1, rng.randint(1, 40))
                  for name in evolution._ROOT_NAMES}
        params = [i for name in evolution._ROOT_NAMES[:9] for i in values[name].as_integer_ratio()]
        for rel in (1, 2):
            got = evolution._roots(params, evolution._ROOTS[family][rel - 1],
                                   values["k1"], values["k2"])
            want = [[_unreduced(text, values) for text in part]
                    for part in paper.FAMILIES[family]["roots"][rel - 1]]
            assert got == want
