"""The benchmark's tracer finds every name it wraps, and its gates pass.

`bench/tracer.py` replaces `owner.__dict__[attr]` for each entry of its
`SITES` table.  A refactor that stops binding one of those names breaks the
traced benchmark run; this test makes it fail here instead.  Likewise a
check id added, renamed or dropped breaks the gates of `bench/workloads.py`,
which compare every report with `bench/known_answers.json`.
"""

import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_bench("tracer")


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
    pairs = [(parse("nu8*f + g"), parse("g + f*nu8"), "equal"),
             (parse("nu8*f"), parse("g"), "unequal")]
    for a, b, verdict in pairs:
        tracer = load_tracer().Tracer()
        tracer.install()
        try:
            result = weyl.identities_equal(a, b, k, label="guard")
        finally:
            tracer.uninstall()
        assert tracer.residuals == [k.apply(sub(a, b))]
        assert tracer.residuals[0] is k.apply(sub(a, b))
        assert result.verdict == verdict
        # The probe alone: a refutation returns its point and evaluates
        # nothing more.
        assert tracer.counts["eval_fp"] == 1


def test_the_benchmarks_known_answers_gate_every_verify_and_mutant_report():
    # Each verify command the benchmark runs and each of its 12 mutants, at
    # one seed, through the benchmark's own request and gate: ids and
    # statuses equal to the known answers, and each witness re-evaluated.
    workloads = load_bench("workloads")
    known, fams = workloads.load_known(), workloads.Families()
    requests = [workloads.verify_request(fams, known, *key.split()[:2], 5, key.split()[2:])
                for key in known["cli"]]
    requests += [workloads.mutant_request(fams, known, fam, gen, 5)
                 for fam, gen, _ in workloads.MUTATIONS]
    assert len(requests) == 23
    assert {req.key: req.gate(req.run()) for req in requests} == {req.key: [] for req in requests}
