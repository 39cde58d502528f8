"""Identity testing for rational expressions, modulo a constraint relation.

A comparison is decided by the first of two rules that applies:
1. lattice: two Laurent monomials with coefficient 1, such as the images of
   q, nu1..nu8, kappa1, kappa2, are equal when their exponents agree after
   the constrained symbol's exponent is carried over to its replacement,
   which must itself be such a monomial if either side mentions the symbol;
2. sampling: the constrained difference is evaluated at independent uniform
   points of a large prime field.  A nonzero value disproves the identity,
   and that point alone is returned as the witness; agreement at every trial
   accepts it with error probability at most (deg/p) per trial.
Only points with nonzero coordinates are drawn, so rule 1 is exact and
returns what sampling would; the (deg/p) bound concerns rule 2.

The first point is a probe, evaluated alone: most false identities fail
there.  The remaining trials run the residual's compiled program over their
points in batches of at most _LANE_CAP, one lane per point, which needs no
modular inverse since only whether a value is zero matters.  The points are
drawn and the lanes scanned in the order of a point-by-point loop, so
verdicts, witnesses and counts are that loop's.

An exact secondary path normalizes the difference to a single polynomial
fraction and proves the zero identity outright.  It is gated by an
expression-size bound because fully expanded normal forms of long Weyl-word
composites blow up.  One memo holds each node's outcome, "term blow-up" at
the nodes where the term cap trips, so a residual reaching one fails at once.
"""

from __future__ import annotations

import contextlib
import functools
import random

from .expr import (
    DivisionByZero,
    Expr,
    _compile,
    _run_lanes,
    evaluate,
    monomial_product,
    sub,
    substitute,
)
from .report import Frozen, Record

#: Default modulus 2^61 - 1 (prime), comfortably above the 2^60 floor.
DEFAULT_PRIME = (1 << 61) - 1
DEFAULT_TRIALS = 16
#: The most trials a comparison may ask for, so that a mistyped --trials is
#: refused at once instead of running for hours.
MAX_TRIALS = 10_000
#: The widest prime a comparison may sample over.  Miller-Rabin's cost grows
#: about as the cube of the width, so a prime of thousands of digits is
#: refused at once instead of being tested for minutes.
MAX_PRIME_BITS = 1024


class DegenerateComparison(RuntimeError):
    """Every sampled point hit a denominator zero; the comparison says nothing."""


class ExactPathUnavailable(RuntimeError):
    """The exact normal form exceeded the configured size budget."""


class _TermBlowUp(Exception):
    """A product would exceed the term cap."""


class ConstraintRelation(Frozen):
    """Eliminate one symbol by a replacement expression (e.g. the nu8 image
    of kappa1^2 kappa2^2 = q nu1...nu8 solved for nu8)."""

    __slots__ = ("eliminated", "replacement")

    def __init__(self, eliminated: str, replacement: Expr):
        if eliminated in replacement.free:
            raise ValueError("replacement must not contain the eliminated symbol")
        super().__init__(eliminated, replacement)

    def apply(self, e: Expr) -> Expr:
        """e with the eliminated symbol replaced.  The result depends only on
        interned nodes, so the last ELIMINATION_CACHE_SIZE are kept, shared
        by every relation with the same symbol and replacement."""
        return _eliminate(self.eliminated, self.replacement, e)


#: Eliminations kept: a benchmark pass makes at most 90 distinct ones.
ELIMINATION_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=ELIMINATION_CACHE_SIZE)
def _eliminate(name: str, replacement: Expr, e: Expr) -> Expr:
    return substitute(e, {name: replacement})


class IdentityResult(Record):
    __slots__ = ("verdict", "witness", "trials", "resamples")

    def __init__(self, verdict: str,  # "equal" | "unequal" | "exact-proved"
                 witness: dict[str, int] | None = None, trials: int = 0, resamples: int = 0):
        self.verdict, self.witness, self.trials, self.resamples = verdict, witness, trials, resamples

    def __bool__(self):
        return self.verdict in ("equal", "exact-proved")


def rng_for(seed: int, label: str) -> random.Random:
    """Deterministic per-check generator: stable across runs and platforms."""
    import hashlib   # here, not at module level: it loads OpenSSL at start-up
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def sample_point(rng: random.Random, names: list[str], prime: int) -> dict[str, int]:
    """One uniform nonzero value per name, drawn in the order given; pass the
    names sorted for draws that are reproducible across runs."""
    return {n: column[0] for n, column in sample_columns(rng, names, prime, 1).items()}


def sample_columns(rng: random.Random, names: list[str], prime: int,
                   m: int) -> dict[str, list[int]]:
    """The next m points sample_point would draw, one column per name."""
    # Never sample 0: most symbols sit in denominators.  This is CPython's
    # randrange(1, prime) inlined (rejection sampling on getrandbits), so the
    # values are the same at a third of the cost.
    draw, width = rng.getrandbits, prime - 1
    bits = width.bit_length()
    flat = []
    for _ in range(m * len(names)):
        r = draw(bits)
        while r >= width:
            r = draw(bits)
        flat.append(1 + r)
    k = len(names)
    return {n: flat[j::k] for j, n in enumerate(names)}


# Bases 2..41 make Miller-Rabin deterministic below 3.3e24 (Sorenson and
# Webster 2015); larger moduli get further rounds with bases seeded by n.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_BELOW = 3_317_044_064_679_887_385_961_981
_MR_EXTRA_ROUNDS = 32


@functools.lru_cache(maxsize=16)
def is_prime(n: int) -> bool:
    """Miller-Rabin primality test; cached because every check asks again."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    bases = list(_MR_BASES)
    if n >= _MR_DETERMINISTIC_BELOW:
        rng = random.Random(n)
        bases += [rng.randrange(2, n - 1) for _ in range(_MR_EXTRA_ROUNDS)]
    for b in bases:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_sampling(trials: int, prime: int) -> None:
    """Raise ValueError unless 1 <= trials <= MAX_TRIALS and prime is a
    prime above 2^60 and at most MAX_PRIME_BITS bits wide.

    The sampled field must be a field: projective evaluation relies on every
    nonzero denominator being invertible, and the error bound on p - 1
    nonzero values.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must be at most {MAX_TRIALS}, got {trials}")
    if prime <= 1 << 60:
        raise ValueError(f"prime must exceed 2^60, got {prime}")
    if prime.bit_length() > MAX_PRIME_BITS:
        raise ValueError(f"prime must be at most {MAX_PRIME_BITS} bits wide, "
                         f"got {prime.bit_length()} bits")
    if not is_prime(prime):
        raise ValueError(f"prime {prime} is composite")


def identities_equal(
    a: Expr,
    b: Expr,
    constraint: ConstraintRelation | None = None,
    *,
    trials: int = DEFAULT_TRIALS,
    prime: int = DEFAULT_PRIME,
    seed: int = 0,
    label: str = "",
    exact: bool = False,
) -> IdentityResult:
    """Decide whether a and b agree as rational functions (mod constraint).

    The rules of the module docstring, in order: lattice ("exact-proved"
    with exact, and no residual is built), sampling.  The lattice returns
    the sampling loop's result: every trial equal and none resampled.  With
    exact, an "equal" from sampling goes on to the exact path.
    """
    check_sampling(trials, prime)
    lattice = _reduced_monomial(a, constraint)
    if lattice is not None and lattice == _reduced_monomial(b, constraint):
        # Monomials have no pole at a point with nonzero coordinates.
        return IdentityResult("exact-proved" if exact else "equal", trials=trials)
    r = sub(a, b)
    if constraint is not None:
        r = constraint.apply(r)
    result = _sample(r, trials, prime, seed, label)

    if exact and result.verdict == "equal":
        try:
            if exact_zero(r):
                result.verdict = "exact-proved"
            else:
                # The probabilistic pass accepted but the exact normal form is
                # nonzero: impossible for a correct engine, so fail loudly.
                raise AssertionError(
                    "probabilistic and exact verdicts disagree; engine defect"
                )
        except ExactPathUnavailable:
            pass
    return result


def _reduced_monomial(e: Expr, constraint: ConstraintRelation | None) -> tuple | None:
    """e.monomial with the constraint applied: the eliminated symbol's
    exponent k becomes k times the replacement's exponents.  None when e is
    not a monomial, or when e mentions that symbol, even with exponent 0,
    and the replacement is not a monomial: the substituted program could
    then divide by zero where sampling would resample."""
    m = e.monomial
    if m is None or constraint is None or constraint.eliminated not in e.free:
        return m
    x = constraint.eliminated
    k = dict(m).get(x, 0)
    return monomial_product([(m, 1), (((x, 1),), -k), (constraint.replacement.monomial, k)])


#: The most points one batch runs: _run_lanes keeps a list of lanes per
#: instruction, so a batch's memory grows with program size times lanes.
_LANE_CAP = 256


def _sample(r, trials, prime, seed, label) -> IdentityResult:
    """Test the residual r = a - b (constrained) at sampled points; a
    refutation returns its point."""
    names = sorted(r.free)
    rng = rng_for(seed, label)

    result = IdentityResult(verdict="equal")
    budget = 100 * trials
    # The probe: one point through evaluate, which refutes most false
    # identities at once.
    point = sample_point(rng, names, prime)
    try:
        refuted = evaluate(r, point, prime) != 0
        done = 1
    except DivisionByZero:
        refuted, done = False, 0
        result.resamples = 1
    # The rest in batches: each lane is scanned in order as one trial of the
    # point-by-point loop, so every count and witness is the loop's.
    while not refuted and done < trials:
        attempts = result.resamples + done
        if attempts >= budget:
            raise DegenerateComparison(f"exhausted {budget} sampling attempts"
                                       + (f" for '{label}'" if label else ""))
        m = min(trials - done, budget - attempts, _LANE_CAP)
        columns = sample_columns(rng, names, prime, m)
        for i, v in enumerate(_run_lanes(_compile(r)[0], columns, m, prime)):
            if v is None:
                result.resamples += 1
            else:
                done += 1
                if v:
                    point = {n: columns[n][i] for n in names}
                    refuted = True
                    break
    if refuted:
        result.verdict = "unequal"
        result.witness = point
    result.trials = done
    return result


# ---------------------------------------------------------------------------
# exact path: normalize to a single polynomial fraction and test the numerator
#
# A polynomial is a dict from monomial to nonzero int coefficient.  A monomial
# is one int with a fixed-width bit field per variable (packed exponent
# vectors, Monagan and Pearce 2007), so multiplying monomials is one int
# addition.  The width holds the program's degree bound, so no exponent ever
# carries into its neighbour's field.
# _normalize runs the pair rules of expr._run_projective over Z[x], one rule
# per instruction kind, and never reduces a pair: the last numerator is the
# zero polynomial iff the rational function is identically zero.  Scaling a
# pair by a nonzero constant or a monomial changes no term count, so the cap
# trips at the same node as in tests/test_identity.py's Fraction reference,
# which divides each pair through by a coefficient and a monomial.

_TERM_CAP = 400_000
_SIZE_BOUND = 20_000

#: Per (_SIZE_BOUND, _TERM_CAP), each node's outcome as a residual: True, False
#: or why the exact path is unavailable.  Unbounded, like the intern table.
_OUTCOMES: dict[tuple[int, int], dict[Expr, bool | str]] = {}


def _poly_add(p, q):
    out = dict(p)
    for m, c in q.items():
        nc = out.get(m, 0) + c
        if nc:
            out[m] = nc
        else:
            out.pop(m, None)
    return out


def _poly_mul(p, q):
    if not p or not q:
        return {}
    # A product has at most len(p) * len(q) terms: its size needs no test.
    if len(p) * len(q) > _TERM_CAP:
        raise _TermBlowUp
    out: dict = {}
    get = out.get
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = m1 + m2
            out[m] = get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _poly_pow(p, n):
    result = None
    base = p
    while n:
        if n & 1:
            result = base if result is None else _poly_mul(result, base)
        n >>= 1
        if n:
            base = _poly_mul(base, base)
    return result


def _degree_bound(code) -> int:
    """A bound on every exponent the program can produce: 0 for a constant,
    1 for a symbol, the sum over the operands of a sum, product or quotient,
    and k times the base of a k-th power."""
    bound: list[int] = []
    for kind, arg in code:
        if kind == "num":
            bound.append(0)
        elif kind == "sym":
            bound.append(1)
        elif kind == "pow":
            bound.append(arg[1] * bound[arg[0]])
        else:
            bound.append(sum(bound[k] for k in arg))
    return max(bound)


def exact_zero(e: Expr) -> bool:
    """Prove or refute e == 0 exactly.

    Runs the compiled program of e (see expr.evaluate) over polynomial
    fractions.  Raises ExactPathUnavailable when e has more than _SIZE_BOUND
    nodes, an intermediate expansion exceeds _TERM_CAP terms or a quotient
    divides by an identically zero expression.  Outcomes are remembered per
    node in _OUTCOMES, under the bound and cap the run sees.

    A run that trips the cap stores "term blow-up" as the outcome of the node
    it was building: 1. packing maps exponent vectors one to one, so a node's
    term counts, and its cap tests, do not depend on the program; its
    descendants passed them in that run, and its program is no larger than
    the residual's, so the node alone trips at itself.  A node decided True
    or False never trips later, so no outcome is overwritten with another.
    A residual reaching a node stored as "term blow-up" is that at once if
    its program runs over F_p at one fixed point (else it is normalized in
    full), as the full run would end: by 1 the node trips wherever it is
    reached, and 2. a program that runs at a point divides by no identically
    zero expression (evaluation is a ring homomorphism on the functions
    defined there), so any failure before that node is also a blow-up.
    """
    memo = _OUTCOMES.setdefault((_SIZE_BOUND, _TERM_CAP), {})
    outcome = memo.get(e)
    if outcome is None:
        outcome = memo[e] = _normalize(e, memo)
    if isinstance(outcome, str):
        raise ExactPathUnavailable(outcome)
    return outcome


def _normalize(e: Expr, memo: dict[Expr, bool | str]) -> bool | str:
    """Whether e is identically zero, or why the exact path is unavailable."""
    code, nodes = _compile(e)
    if len(code) > _SIZE_BOUND:
        return f"expression exceeds {_SIZE_BOUND} nodes"
    order = sorted(e.free)
    if "term blow-up" in map(memo.get, nodes):  # sound once certified: see exact_zero
        point = sample_point(rng_for(0, "exact:certificate"), order, DEFAULT_PRIME)
        with contextlib.suppress(DivisionByZero):
            evaluate(e, point, DEFAULT_PRIME)
            return "term blow-up"
    width = max(1, _degree_bound(code).bit_length())
    one = {0: 1}
    monomial = {n: 1 << (i * width) for i, n in enumerate(order)}

    vals: list[tuple[dict, dict]] = []
    try:
        for i, (kind, arg) in enumerate(code):
            if kind == "num":
                pair = ({0: arg.numerator}, {0: arg.denominator}) if arg else ({}, one)
            elif kind == "sym":
                pair = ({monomial[arg]: 1}, one)
            elif kind == "add":
                n_acc, d_acc = vals[arg[0]]
                for k in arg[1:]:
                    n2, d2 = vals[k]
                    n_acc = _poly_add(_poly_mul(n_acc, d2), _poly_mul(n2, d_acc))
                    d_acc = _poly_mul(d_acc, d2)
                pair = (n_acc, d_acc)
            elif kind == "mul":
                n_acc, d_acc = vals[arg[0]]
                for k in arg[1:]:
                    n2, d2 = vals[k]
                    n_acc = _poly_mul(n_acc, n2)
                    d_acc = _poly_mul(d_acc, d2)
                pair = (n_acc, d_acc)
            elif kind == "pow":
                pair = tuple(_poly_pow(f, arg[1]) for f in vals[arg[0]])
            else:  # div
                (n1, d1), (n2, d2) = vals[arg[0]], vals[arg[1]]
                if not n2:
                    return "division by an identically zero expression"
                pair = (_poly_mul(n1, d2), _poly_mul(d1, n2))
            vals.append(pair)
    except _TermBlowUp:
        memo[nodes[i]] = "term blow-up"
        return "term blow-up"
    return not vals[-1][0]
