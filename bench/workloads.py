"""Workloads of the qpweyl benchmark: inputs, requests and correctness gates.

Every workload is a list of requests built from the workload seed.  A
request is one call into a public entry point of the package:

  * one ``qpweyl.cli.main(argv)`` call with stdout captured;
  * one suite call on a corrupted family (``FamilyDescriptor.with_generator``
    followed by ``verify_involutions`` and ``verify_theorem_i``);
  * one exact orbit, N forward ``orbit_step`` calls and then N backward.

Each request's output is checked outside the timed region by a gate against
the known answers in ``known_answers.json`` and against independent
re-computations (witness re-evaluation, reparsing, exact relation residuals).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from qpweyl import cli, evolution, weyl
from qpweyl.expr import ZERO, DivisionByZero, evaluate, parse, substitute, sym
from qpweyl.identity import DEFAULT_PRIME, identities_equal
from qpweyl.report import Report

ROOT = Path(__file__).resolve().parent.parent
KNOWN_PATH = Path(__file__).resolve().parent / "known_answers.json"

WORKLOADS = ("sampled", "exact", "refute", "orbit")
FAMILIES = ("D5", "E6", "E7")
MATRIX = ("verify-relations", "verify-theorem", "verify-gauge")

#: The corrupted generator tables of acceptance criterion 8.
MUTATIONS = (
    ("D5", "s2", {"nu3": "kappa1/nu7", "nu7": "kappa1/nu3",
                  "kappa2": "kappa1*kappa2/(nu3*nu8)",
                  "g": "g*(f - nu3)/(f - kappa1/nu7)"}),
    ("D5", "s0", {"nu7": "nu8", "nu8": "nu1"}),
    ("D5", "s1", {"nu3": "nu5", "nu5": "nu3"}),
    ("D5", "s3", {"nu1": "kappa2/nu5", "nu5": "kappa2/nu1",
                  "kappa1": "kappa1*kappa2/(nu1*nu5)",
                  "f": "f*(g - 1/nu1)/(g - nu6/kappa2)"}),
    ("D5", "pi1", {"q": "1/q", "nu1": "1/nu1", "nu2": "1/nu2", "nu3": "1/nu8",
                   "nu4": "1/nu8", "nu5": "1/nu5", "nu6": "1/nu6",
                   "nu7": "1/nu3", "nu8": "1/nu4", "kappa1": "1/kappa1",
                   "kappa2": "1/kappa2", "f": "f/kappa1", "g": "1/g"}),
    ("E6", "s6", {"nu1": "kappa1/nu7", "nu7": "kappa1/nu1",
                  "kappa2": "kappa1*kappa2/(nu1*nu7)",
                  "g": "g*nu7*(nu1 + f)/(kappa1 - nu7*f + (nu1*nu7 - kappa1)*f*g)"}),
    ("E6", "s4", {"nu2": "nu4", "nu4": "nu2"}),
    ("E6", "pi1", {"q": "1/q", "nu1": "nu2/kappa2", "nu2": "nu1/kappa2",
                   "nu3": "1/nu6", "nu4": "1/nu5", "nu5": "1/nu4",
                   "nu6": "1/nu3", "nu7": "1/nu7", "nu8": "1/nu8",
                   "kappa1": "nu1*nu2/kappa1", "kappa2": "1/kappa2",
                   "f": "nu1*nu2*(1 - f*g)/(kappa2*(nu1*nu2*g + f - (nu1 + nu2)*f*g))",
                   "g": "kappa2*g"}),
    ("E7", "s0", {"kappa1": "kappa2", "kappa2": "kappa1", "f": "1/g", "g": "f"}),
    ("E7", "s4", {"nu1": "kappa2/nu5", "nu5": "kappa2/nu1",
                  "kappa1": "kappa1*kappa2/(nu1*nu4)",
                  "f": "1/f"}),
    ("E7", "pi", {"q": "1/q", "nu1": "1/nu6", "nu2": "1/nu6", "nu3": "1/nu7",
                  "nu4": "1/nu8", "nu5": "1/nu1", "nu6": "1/nu2",
                  "nu7": "1/nu3", "nu8": "1/nu4", "kappa1": "1/kappa1",
                  "kappa2": "1/kappa2", "f": "f/kappa1", "g": "kappa2*g"}),
    ("E7", "s7", {"nu7": "nu8", "nu8": "nu5"}),
)

#: Trials per identity in the mutant suites, as in acceptance criterion 8.
MUTANT_TRIALS = 4

E7_WORD = "s4 s5 s3 s4 s6 s5 s2 s3 s4 s7 s6 s5 s1 s2 s3 s4 s0"

#: Workload sizes.  "full" is what the benchmark measures; "smoke" is the
#: smallest size of each workload, used by the self-test.
SIZES = {
    "full": {
        "seeds": 2,
        "matrix_families": FAMILIES,
        # --exact on the whole matrix takes about 35 s in one pass, too long
        # to repeat in a run.  The gauge suites (27 s) are left out: they end
        # in the same term blow-up as E7 rel1/rel2 of verify-theorem.
        "exact": [(cmd, fam) for cmd in MATRIX[:2] for fam in FAMILIES],
        "mutants": MUTATIONS,
        "no_constraint": ("E6", "E7"),
        "apply": [("D5", f"(s2 s3 s1 s4)^{n}", "f") for n in (2, 4, 6)]
                 + [("E7", f"({E7_WORD})^2", e) for e in ("f", "g")],
        # The longest orbits from sample-params.json whose JSON the package
        # can still print: one step more exceeds Python's 4300-digit limit
        # on int-to-str conversion inside orbit_to_json.
        "orbit_long": {"D5": 21, "E6": 16, "E7": 11},
        # Short orbits from random starts, about 15 ms each in every family,
        # so the median request does not sit between two families.
        "orbit_short": {"D5": 13, "E6": 7, "E7": 5},
        "orbit_starts": 35,
    },
    "smoke": {
        "seeds": 1,
        "matrix_families": ("D5",),
        "exact": [("verify-theorem", "D5")],
        "mutants": (MUTATIONS[2], MUTATIONS[3]),
        "no_constraint": ("E6",),
        "apply": [("D5", "(s2 s3 s1 s4)^2", "f")],
        "orbit_long": {"D5": 6},
        "orbit_short": {"D5": 3},
        "orbit_starts": 1,
    },
}


@dataclass
class Raised:
    """Output of a request that raised instead of returning."""

    error: str


@dataclass(eq=False)
class Request:
    key: str
    run: Callable[[], object]
    gate: Callable[[object], list[str]]   # problems found; empty when correct
    kind: str = "cli"


def derived_seeds(seed: int, label: str, n: int) -> list[int]:
    digest = hashlib.sha256(f"{label}:{seed}".encode()).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    return [rng.randrange(1 << 31) for _ in range(n)]


def load_known(path: Path = KNOWN_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class Families:
    """Family descriptors and their derived objects, built outside timing."""

    def __init__(self):
        self.base = {name: weyl.make_family(name) for name in FAMILIES}
        self._cache: dict = {}

    def mutant(self, fam: str, gen: str):
        images = next(m[2] for m in MUTATIONS if m[:2] == (fam, gen))
        return self.cached(("mutant", fam, gen),
                           lambda: self.base[fam].with_generator(gen, images))

    def cached(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]


# ---------------------------------------------------------------------------
# requests

def call_cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def check_sides(fams: Families, fam, check_id: str, detail: str):
    """The two sides a theorem-I or involution check compared, rebuilt from
    the check id outside timing."""
    _, kind, what = check_id.split(":", 2)
    if kind == "T":
        T = fams.cached(("T", id(fam)), lambda: evolution.time_evolution(fam))
        if what.startswith("nu"):
            return T.image(what), sym(what)
        if what == "kappa1":
            return T.image("kappa1"), parse("kappa1/q")
        if what == "kappa2":
            return T.image("kappa2"), parse("q*kappa2")
        spec = evolution.make_evolution_spec(fam)
        rel = spec.qp_relations[0 if what == "rel1" else 1]
        return substitute(rel, {"fbar": T.image("f"), "gbar": T.image("g")}), ZERO
    if kind == "invol":
        gen = fam.generators[what]
        name = detail.split()[2]  # "images of <name> differ"
        return weyl.compose(gen, gen).image(name), sym(name)
    raise KeyError(f"no side reconstruction for {check_id}")


def witness_problems(fams: Families, fam, constraint, checks) -> list[str]:
    """Re-evaluate both constrained sides at every fail witness."""
    problems = []
    for check_id, status, witness, detail in checks:
        if status != "fail":
            continue
        if not witness:
            problems.append(f"{check_id}: fail without a witness")
            continue
        try:
            a, b = check_sides(fams, fam, check_id, detail)
            if constraint is not None:
                a, b = constraint.apply(a), constraint.apply(b)
            point = {k: int(v) for k, v in witness.items()}
            if evaluate(a, point, DEFAULT_PRIME) == evaluate(b, point, DEFAULT_PRIME):
                problems.append(f"{check_id}: sides agree at the witness")
        except (KeyError, DivisionByZero) as err:
            problems.append(f"{check_id}: witness not re-evaluable ({err})")
    return problems


def status_problems(got: dict, expected: dict) -> list[str]:
    if got == expected:
        return []
    wrong = sorted(k for k in set(got) | set(expected) if got.get(k) != expected.get(k))
    return [f"{k}: got {got.get(k)}, expected {expected.get(k)}" for k in wrong[:5]]


def verify_request(fams, known, cmd, fam_name, seed, extra=()) -> Request:
    argv = [cmd, "--family", fam_name, "--format", "json", "--seed", str(seed), *extra]
    no_constraint = "--no-constraint" in extra
    expected = known["cli"][f"{cmd} {fam_name}" + (" --no-constraint" if no_constraint else "")]

    def gate(out) -> list[str]:
        rc, text = out
        doc = json.loads(text)
        problems = [] if rc == expected["rc"] else [f"exit {rc}, expected {expected['rc']}"]
        problems += status_problems({c["id"]: c["status"] for c in doc["checks"]},
                                    expected["checks"])
        fam = fams.base[fam_name]
        checks = [(c["id"], c["status"], c.get("witness"), c.get("detail", ""))
                  for c in doc["checks"]]
        problems += witness_problems(fams, fam, None if no_constraint else fam.constraint,
                                     checks)
        return problems

    return Request(" ".join(argv), lambda: call_cli(argv), gate)


def mutant_request(fams, known, fam_name, gen, seed) -> Request:
    cfg = weyl.CheckConfig(trials=MUTANT_TRIALS, seed=seed)
    base = fams.base[fam_name]
    images = next(m[2] for m in MUTATIONS if m[:2] == (fam_name, gen))
    expected = known["mutants"][f"{fam_name} {gen}"]

    def run():
        mutant = base.with_generator(gen, images)
        report = Report()
        report.extend(weyl.verify_involutions(mutant, cfg))
        report.extend(evolution.verify_theorem_i(mutant, cfg))
        return [(c.id, c.status, c.witness, c.detail) for c in report.checks]

    def gate(checks) -> list[str]:
        problems = status_problems({c[0]: c[1] for c in checks}, expected)
        if not any(c[1] == "fail" for c in checks):
            problems.append("mutant not caught")
        mutant = fams.mutant(fam_name, gen)
        return problems + witness_problems(fams, mutant, mutant.constraint, checks)

    return Request(f"mutant {fam_name} {gen} seed {seed}", run, gate, kind="mutant")


def apply_request(fams, fam_name, word, expr_text, printed: dict) -> Request:
    argv = ["apply", "--family", fam_name, "--word", word, "--expr", expr_text]
    key = " ".join(argv)

    def gate(out) -> list[str]:
        rc, text = out
        if rc != 0:
            return [f"exit {rc}"]
        if printed.get(key) == text:  # the same request and output, already gated
            return []
        image = weyl.word_to_transform(fams.base[fam_name], word)(parse(expr_text))
        if not identities_equal(parse(text.strip()), image, None, label="bench:apply"):
            return ["printed image disagrees with the DAG image"]
        printed[key] = text
        return []

    return Request(key, lambda: call_cli(argv), gate)


# ---------------------------------------------------------------------------
# orbits

def random_state(rng: random.Random):
    """Acceptance criterion 7's generator of random exact starts."""
    def fr():
        return Fraction(rng.randint(1, 40), rng.randint(1, 40))
    return evolution.make_state(Fraction(rng.randint(2, 5)), [fr() for _ in range(7)],
                                fr(), fr(), fr(), fr())


def fixed_starts() -> dict:
    """The start in sample-params.json, and the same start with f and g
    exchanged, so each family has two long orbits of similar cost."""
    with open(ROOT / "sample-params.json", encoding="utf-8") as handle:
        st = evolution.state_from_record(json.load(handle))
    swapped = evolution.make_state(st.q, st.nu[:7], st.kappa1, st.kappa2, st.g, st.f)
    return {"sample-params": st, "sample-params-fg-swapped": swapped}


def run_orbit(fam, st0, n: int):
    states = [st0]
    st = st0
    for _ in range(n):
        st = evolution.orbit_step(fam, st, "forward")
        states.append(st)
    back = []
    for _ in range(n):
        st = evolution.orbit_step(fam, st, "backward")
        back.append(st)
    return states, back


def height_bits(st) -> int:
    return max(v.numerator.bit_length() + v.denominator.bit_length() for v in (st.f, st.g))


@dataclass
class OrbitRecord:
    """What the orbit gate found for one start; filled outside timing."""

    key: str
    sha256: str = ""
    height_bits: int = 0


def orbit_problems(fam, st0, n, out, known_sha: str | None, record: OrbitRecord) -> list[str]:
    states, back = out
    if len(states) != n + 1 or states[0] != st0:
        return ["forward pass has the wrong length or start"]
    problems = []
    if back != states[-2::-1]:
        problems.append("backward pass does not retrace the forward pass to the start")
    rels = evolution.make_evolution_spec(fam).qp_relations
    for cur, nxt in zip(states, states[1:]):
        if cur.constraint_residual() != 0 or nxt.constraint_residual() != 0:
            problems.append(f"constraint residual nonzero at t={cur.t}")
        if (nxt.kappa1, nxt.kappa2, nxt.nu, nxt.t) != (cur.kappa1 / cur.q, cur.kappa2 * cur.q,
                                                       cur.nu, cur.t + 1):
            problems.append(f"parameters not advanced at t={cur.t}")
        values = dict(cur.valuation(), fbar=nxt.f, gbar=nxt.g)
        for tag, rel in zip(("rel1", "rel2"), rels):
            if evaluate(rel, values) != 0:
                problems.append(f"{tag} residual nonzero at t={cur.t}")
    try:
        doc = evolution.orbit_to_json(evolution.OrbitResult(states))
    except ValueError as err:
        problems.append(f"orbit_to_json failed: {err}")
    else:
        record.sha256 = hashlib.sha256(doc.encode()).hexdigest()
        if known_sha is not None and record.sha256 != known_sha:
            problems.append(f"orbit JSON sha256 {record.sha256[:12]} != known {known_sha[:12]}")
    record.height_bits = max(height_bits(st) for st in states)
    return problems


def orbit_request(fams, fam_name, st0, n, key, known_sha, records) -> Request:
    fam = fams.base[fam_name]
    record = OrbitRecord(key)
    records.append(record)
    return Request(key, lambda: run_orbit(fam, st0, n),
                   lambda out: orbit_problems(fam, st0, n, out, known_sha, record),
                   kind="orbit")


def draw_starts(fam, n_steps: int, count: int, rng: random.Random) -> tuple[list, int]:
    """Random starts whose forward and backward passes meet no pole; returns
    (starts, poles).  A backward pass can meet a pole its forward pass did not."""
    starts, poles = [], 0
    while len(starts) < count:
        st0 = random_state(rng)
        try:
            run_orbit(fam, st0, n_steps)
        except evolution.PoleError:
            poles += 1
            continue
        starts.append(st0)
    return starts, poles


# ---------------------------------------------------------------------------
# workloads

@dataclass
class Workload:
    name: str
    requests: list[Request]
    printed: dict                 # apply request -> its gated output
    orbits: list                  # OrbitRecord per orbit request
    poles: int = 0
    calibration: str = "mixed"    # reference loop kind, see calibrate.py


def build(name: str, seed: int, known: dict, fams: Families, size: str = "full") -> Workload:
    spec = SIZES[size]
    reqs: list[Request] = []
    printed: dict = {}
    orbits: list = []
    poles = 0
    if name == "sampled":
        for s in derived_seeds(seed, name, spec["seeds"]):
            reqs += [verify_request(fams, known, cmd, fam, s)
                     for cmd in MATRIX for fam in spec["matrix_families"]]
    elif name == "exact":
        s = derived_seeds(seed, name, 1)[0]
        reqs += [verify_request(fams, known, cmd, fam, s, ("--exact",))
                 for cmd, fam in spec["exact"]]
    elif name == "refute":
        for s in derived_seeds(seed, name, spec["seeds"]):
            reqs += [mutant_request(fams, known, fam, gen, s) for fam, gen, _ in spec["mutants"]]
            reqs += [verify_request(fams, known, "verify-theorem", fam, s, ("--no-constraint",))
                     for fam in spec["no_constraint"]]
            reqs += [apply_request(fams, fam, word, e, printed) for fam, word, e in spec["apply"]]
    elif name == "orbit":
        rng = random.Random(derived_seeds(seed, name, 1)[0])
        for start_name, st0 in fixed_starts().items():
            for fam_name, n in spec["orbit_long"].items():
                key = f"{fam_name} {n} {start_name}"
                reqs.append(orbit_request(fams, fam_name, st0, n, f"orbit {key}",
                                          known["orbit_sha256"][key], orbits))
        for fam_name, n in spec["orbit_short"].items():
            starts, p = draw_starts(fams.base[fam_name], n, spec["orbit_starts"], rng)
            poles += p
            reqs += [orbit_request(fams, fam_name, st0, n, f"orbit {fam_name} random#{i} {n}",
                                   None, orbits)
                     for i, st0 in enumerate(starts)]
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    return Workload(name, reqs, printed, orbits, poles,
                    "bigint" if name == "orbit" else "mixed")
