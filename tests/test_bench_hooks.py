"""The benchmark's tracer finds every name it wraps.

`bench/tracer.py` replaces `owner.__dict__[attr]` for each entry of its
`SITES` table.  A refactor that stops binding one of those names breaks the
traced benchmark run; this test makes it fail here instead.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_is_bound():
    sites = load_tracer().SITES
    assert sites
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in sites
               if attr not in owner.__dict__]
    assert missing == []


def test_tracer_records_each_checks_constrained_residual():
    # identity.residual_nodes reads the first argument of the first
    # identity.evaluate call inside each identities_equal call; the probe
    # trial makes that call with constraint.apply(sub(a, b)).  The other
    # trials run as one batch that no traced evaluate sees.
    from qpweyl import weyl
    from qpweyl.expr import parse, sub
    from qpweyl.identity import ConstraintRelation

    k = ConstraintRelation(
        "nu8", parse("kappa1^2*kappa2^2/(q*nu1*nu2*nu3*nu4*nu5*nu6*nu7)"))
    pairs = [(parse("nu8*f + g"), parse("g + f*nu8")),   # equal
             (parse("nu8*f"), parse("g"))]              # refuted
    for a, b in pairs:
        tracer = load_tracer().Tracer()
        tracer.install()
        try:
            result = weyl.identities_equal(a, b, k, label="guard")
        finally:
            tracer.uninstall()
        assert tracer.residuals == [k.apply(sub(a, b))]
        assert tracer.residuals[0] is k.apply(sub(a, b))
        # The probe, plus the two witness sides of a refutation.
        assert tracer.counts["eval_fp"] == (1 if result else 3)
