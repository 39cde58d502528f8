"""Every one-change mutant of the paper's data is killed with a witness.

The mutants are generated from paper.py: in one image text of a generator
or of xi, in one relation text, or in one orbit root, a single occurrence of
nuK becomes nu(K-1) or nu(K+1) (within nu1..nu8), kappa1 and kappa2 (k1 and
k2 in a root) trade places, or a binary + becomes - or the reverse.  A data
mutant is killed when a suite of its family reports a failed check with a
witness; the suites run in report order, and the first kill ends the run.
A root mutant is killed when the solver form it gives differs from the
relation text (tests/test_paper.py).  An L1 mutant is killed when the
gauge suite fails a claim with a witness; the ones it misses are listed in
L1_SURVIVORS.
"""

import re
from unittest import mock

import pytest
from test_paper import root_check

from qpweyl import paper
from qpweyl.evolution import verify_theorem_i, verify_theorem_ii
from qpweyl.lax import verify_gauge_claims
from qpweyl.weyl import (
    CheckConfig,
    transformation,
    verify_braid,
    verify_involutions,
    verify_pi_relations,
)

CFG = CheckConfig(trials=4, seed=3)
SUITES = (verify_involutions, verify_braid, verify_pi_relations, verify_theorem_i,
          verify_theorem_ii)
_BINARY = re.compile(r"(?<=[\w)])\s*([+-])")


def one_change_mutants(text: str, kappas=("kappa1", "kappa2")):
    """Each text that differs from text by one nuK -> nu(K+-1), one swap of
    the two kappa names, or one binary + <-> -."""
    def at(m, group, new):
        return text[:m.start(group)] + new + text[m.end(group):]

    for m in re.finditer(r"nu([1-8])", text):
        k = int(m.group(1))
        yield from (at(m, 1, str(j)) for j in (k - 1, k + 1) if 1 <= j <= 8)
    for m in re.finditer("|".join(kappas), text):
        yield at(m, 0, kappas[1 - kappas.index(m.group(0))])
    for m in _BINARY.finditer(text):
        yield at(m, 1, "-" if m.group(1) == "+" else "+")


def killer(fam, suites=SUITES) -> str | None:
    """The first suite whose report fails a check with a witness."""
    for suite in suites:
        if any(c.status == "fail" and c.witness for c in suite(fam, CFG).checks):
            return suite.__name__
    return None


def data_mutants(fam):
    """(label, mutant family) for each one-change mutant of fam's generator
    and xi tables."""
    tables = paper.FAMILIES[fam.name]
    for gen, images in [*tables["generators"].items(), ("xi", tables["xi"])]:
        for name, text in images.items():
            for mutant in one_change_mutants(text):
                changed = {**images, name: mutant}
                label = f"{gen}[{name}] = {mutant}"
                if gen == "xi":
                    yield label, fam._replace(xi=transformation(changed))
                else:
                    yield label, fam.with_generator(gen, changed)


@pytest.mark.parametrize("family", ["D5", "E6", "E7"])
def test_generator_and_xi_mutants_are_killed(families, family):
    survivors, count = [], 0
    for label, mutant in data_mutants(families[family]):
        count += 1
        if killer(mutant) is None:
            survivors.append(label)
    assert count > 100
    assert survivors == []


@pytest.mark.parametrize("family", ["D5", "E6", "E7"])
def test_relation_text_mutants_are_killed(families, family):
    fam, relations = families[family], paper.FAMILIES[family]["relations"]
    survivors, count = [], 0
    for i, text in enumerate(relations):
        for mutant in one_change_mutants(text):
            count += 1
            changed = relations[:i] + (mutant,) + relations[i + 1:]
            with mock.patch.dict(paper.FAMILIES[family], relations=changed):
                if killer(fam, (verify_theorem_i,)) is None:
                    survivors.append(f"rel{i + 1}: {mutant}")
    assert count > 30
    assert survivors == []


@pytest.mark.parametrize("family", ["D5", "E6", "E7"])
def test_root_mutants_fail_the_root_check(families, family):
    fam, survivors, count = families[family], [], 0
    for rel, roots in enumerate(paper.FAMILIES[family]["roots"], start=1):
        for p, part in enumerate(roots):
            for r, text in enumerate(part):
                for mutant in one_change_mutants(text, kappas=("k1", "k2")):
                    count += 1
                    changed = [list(texts) for texts in roots]
                    changed[p][r] = mutant
                    results = [root_check(fam, rel, up, changed, CFG) for up in (True, False)]
                    if not any(res.status == "fail" and res.witness for res in results):
                        survivors.append(f"rel{rel} {text} -> {mutant}")
    assert count > 10
    assert survivors == []

#: The L1 mutants the gauge suite misses, as (part, mutant text), in the
#: order one_change_mutants makes them.  Each changes the up or down
#: coefficient only, and every claim of its family still passes for the
#: changed equation.
L1_SURVIVORS = {
    "D5": (),
    "E6": (
        ("up", "-(kappa1/nu7 - z)*(kappa1/nu8 + z)/(q*(f - z))"),
        ("up", "-(kappa1/nu7 - z)*(kappa1/nu8 - z)/(q*(f + z))"),
        ("down", "-(nu1 - z/q)*(nu3 - z/q)*(nu3 - z/q)*(nu4 - z/q)/(f - z/q)"),
        ("down", "-(nu1 - z/q)*(nu2 - z/q)*(nu2 - z/q)*(nu4 - z/q)/(f - z/q)"),
        ("down", "-(nu1 - z/q)*(nu2 - z/q)*(nu4 - z/q)*(nu4 - z/q)/(f - z/q)"),
        ("down", "-(nu1 - z/q)*(nu2 - z/q)*(nu3 - z/q)*(nu3 - z/q)/(f - z/q)"),
        ("down", "-(nu1 - z/q)*(nu2 + z/q)*(nu3 - z/q)*(nu4 - z/q)/(f - z/q)"),
        ("down", "-(nu1 - z/q)*(nu2 - z/q)*(nu3 + z/q)*(nu4 - z/q)/(f - z/q)"),
        ("down", "-(nu1 - z/q)*(nu2 - z/q)*(nu3 - z/q)*(nu4 + z/q)/(f - z/q)"),
        ("down", "-(nu1 - z/q)*(nu2 - z/q)*(nu3 - z/q)*(nu4 - z/q)/(f + z/q)"),
    ),
    "E7": (
        ("up", "q*(kappa1 - nu5*z)*(kappa1 - nu7*z)*(kappa1 - nu7*z)*(kappa1 - nu8*z)"
               "/(kappa1^4*(f - z)*z^2)"),
        ("up", "q*(kappa1 - nu5*z)*(kappa1 - nu6*z)*(kappa1 - nu6*z)*(kappa1 - nu8*z)"
               "/(kappa1^4*(f - z)*z^2)"),
        ("up", "q*(kappa1 - nu5*z)*(kappa1 - nu6*z)*(kappa1 - nu8*z)*(kappa1 - nu8*z)"
               "/(kappa1^4*(f - z)*z^2)"),
        ("up", "q*(kappa1 - nu5*z)*(kappa1 - nu6*z)*(kappa1 - nu7*z)*(kappa1 - nu7*z)"
               "/(kappa1^4*(f - z)*z^2)"),
        ("up", "q*(kappa1 - nu5*z)*(kappa1 + nu6*z)*(kappa1 - nu7*z)*(kappa1 - nu8*z)"
               "/(kappa1^4*(f - z)*z^2)"),
        ("up", "q*(kappa1 - nu5*z)*(kappa1 - nu6*z)*(kappa1 + nu7*z)*(kappa1 - nu8*z)"
               "/(kappa1^4*(f - z)*z^2)"),
        ("up", "q*(kappa1 - nu5*z)*(kappa1 - nu6*z)*(kappa1 - nu7*z)*(kappa1 + nu8*z)"
               "/(kappa1^4*(f - z)*z^2)"),
        ("up", "q*(kappa1 - nu5*z)*(kappa1 - nu6*z)*(kappa1 - nu7*z)*(kappa1 - nu8*z)"
               "/(kappa1^4*(f + z)*z^2)"),
        ("down", "(q*nu1 - z)*(q*nu3 - z)*(q*nu3 - z)*(q*nu4 - z)"
                 "/(q*nu1*nu2*nu3*nu4*(f*q - z)*z^2)"),
        ("down", "(q*nu1 - z)*(q*nu2 - z)*(q*nu2 - z)*(q*nu4 - z)"
                 "/(q*nu1*nu2*nu3*nu4*(f*q - z)*z^2)"),
        ("down", "(q*nu1 - z)*(q*nu2 - z)*(q*nu4 - z)*(q*nu4 - z)"
                 "/(q*nu1*nu2*nu3*nu4*(f*q - z)*z^2)"),
        ("down", "(q*nu1 - z)*(q*nu2 - z)*(q*nu3 - z)*(q*nu3 - z)"
                 "/(q*nu1*nu2*nu3*nu4*(f*q - z)*z^2)"),
        ("down", "(q*nu1 - z)*(q*nu2 - z)*(q*nu3 - z)*(q*nu4 - z)"
                 "/(q*nu1*nu3*nu3*nu4*(f*q - z)*z^2)"),
        ("down", "(q*nu1 - z)*(q*nu2 - z)*(q*nu3 - z)*(q*nu4 - z)"
                 "/(q*nu1*nu2*nu2*nu4*(f*q - z)*z^2)"),
        ("down", "(q*nu1 - z)*(q*nu2 - z)*(q*nu3 - z)*(q*nu4 - z)"
                 "/(q*nu1*nu2*nu4*nu4*(f*q - z)*z^2)"),
        ("down", "(q*nu1 - z)*(q*nu2 - z)*(q*nu3 - z)*(q*nu4 - z)"
                 "/(q*nu1*nu2*nu3*nu3*(f*q - z)*z^2)"),
        ("down", "(q*nu1 - z)*(q*nu2 + z)*(q*nu3 - z)*(q*nu4 - z)"
                 "/(q*nu1*nu2*nu3*nu4*(f*q - z)*z^2)"),
        ("down", "(q*nu1 - z)*(q*nu2 - z)*(q*nu3 + z)*(q*nu4 - z)"
                 "/(q*nu1*nu2*nu3*nu4*(f*q - z)*z^2)"),
        ("down", "(q*nu1 - z)*(q*nu2 - z)*(q*nu3 - z)*(q*nu4 + z)"
                 "/(q*nu1*nu2*nu3*nu4*(f*q - z)*z^2)"),
        ("down", "(q*nu1 - z)*(q*nu2 - z)*(q*nu3 - z)*(q*nu4 - z)"
                 "/(q*nu1*nu2*nu3*nu4*(f*q + z)*z^2)"),
    ),
}


@pytest.mark.parametrize("family", ["D5", "E6", "E7"])
def test_l1_mutants_are_killed_or_listed(families, family):
    fam, table = families[family], paper.FAMILIES[family]["L1"]
    survivors, count = [], 0
    for part, text in table.items():
        for mutant in one_change_mutants(text):
            count += 1
            with mock.patch.dict(paper.FAMILIES[family], L1={**table, part: mutant}):
                if killer(fam, (verify_gauge_claims,)) is None:
                    survivors.append((part, mutant))
    assert count == {"D5": 59, "E6": 70, "E7": 134}[family]
    assert tuple(survivors) == L1_SURVIVORS[family]
