"""Identity testing for rational expressions, modulo a constraint relation.

The workhorse is evaluation-first testing: the difference of two expressions
is evaluated at independent uniform points of a large prime field, after
eliminating the constrained symbol.  Any nonzero value disproves the
identity, and that point alone is returned as the witness; agreement at every
trial accepts it with error probability at most (deg/p) per trial.

A comparison of an expression with itself is decided without sampling when
its residual cannot divide by zero at any point with nonzero coordinates,
which are the only points drawn: the residual is then 0 at every such point,
so the decision is exact and the result is the one sampling would return.
The (deg/p) bound concerns the other comparisons only.

The first point is a probe, evaluated alone: most false identities fail
there.  The remaining trials run the residual's compiled program over their
points in batches of at most _LANE_CAP, one lane per point, which needs no
modular inverse since only whether a value is zero matters.  The points are
drawn and the lanes scanned in the order of a point-by-point loop, so
verdicts, witnesses and counts are that loop's.

An exact secondary path normalizes the difference to a single polynomial
fraction and proves the zero identity outright.  It is gated by an
expression-size bound because fully expanded normal forms of long Weyl-word
composites blow up.  It remembers its outcome per residual, and the nodes at
which it trips its term cap, so a residual reaching one fails at once.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import math
import random
from dataclasses import dataclass

from .expr import (
    DivisionByZero,
    Expr,
    _compile,
    _run_lanes,
    evaluate,
    sub,
    substitute,
)

#: Default modulus 2^61 - 1 (prime), comfortably above the 2^60 floor.
DEFAULT_PRIME = (1 << 61) - 1
DEFAULT_TRIALS = 16
#: The most trials a comparison may ask for, so that a mistyped --trials is
#: refused at once instead of running for hours.
MAX_TRIALS = 10_000


class DegenerateComparison(RuntimeError):
    """Every sampled point hit a denominator zero; the comparison says nothing."""


class ExactPathUnavailable(RuntimeError):
    """The exact normal form exceeded the configured size budget."""


class _TermBlowUp(ExactPathUnavailable):
    """A product would exceed the term cap; its node is then remembered."""


@dataclass(frozen=True, eq=False)
class ConstraintRelation:
    """Eliminate one symbol by a replacement expression (e.g. the nu8 image
    of kappa1^2 kappa2^2 = q nu1...nu8 solved for nu8)."""

    eliminated: str
    replacement: Expr

    def __post_init__(self):
        if self.eliminated in self.replacement.free:
            raise ValueError("replacement must not contain the eliminated symbol")

    def apply(self, e: Expr) -> Expr:
        return substitute(e, {self.eliminated: self.replacement})


@dataclass
class IdentityResult:
    verdict: str                      # "equal" | "unequal" | "exact-proved"
    witness: dict[str, int] | None = None
    trials: int = 0
    resamples: int = 0

    def __bool__(self):
        return self.verdict in ("equal", "exact-proved")


def rng_for(seed: int, label: str) -> random.Random:
    """Deterministic per-check generator: stable across runs and platforms."""
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
    prime above 2^60.

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

    A self-comparison (a is b) whose residual has no possible pole at a point
    with nonzero coordinates is decided exactly, without sampling: the result
    is the one the sampling loop would return, every trial equal and none
    resampled.  Every other comparison is sampled.
    """
    check_sampling(trials, prime)
    r = sub(a, b)
    if constraint is not None:
        r = constraint.apply(r)
    if a is b and _pole_free(r, prime):
        # r computes a - a without dividing by zero at any point sample_point
        # can draw, so it is 0 at each of the loop's points.
        result = IdentityResult(verdict="equal", trials=trials)
    else:
        result = _sample(r, a, b, trials, prime, seed, label)

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


#: The most points one batch runs: _run_lanes keeps a list of lanes per
#: instruction, so a batch's memory grows with program size times lanes.
_LANE_CAP = 256


def _sample(r, a, b, trials, prime, seed, label) -> IdentityResult:
    """Test the residual r = a - b (constrained) at sampled points; a
    refutation returns its point.  a and b serve only to name an unlabeled
    comparison that exhausts its budget."""
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
            raise DegenerateComparison(
                f"exhausted {budget} sampling attempts for '{label or to_label(a, b)}'"
            )
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


@functools.lru_cache(maxsize=1024)
def _pole_free(e: Expr, p: int) -> bool:
    """Whether e's program divides by zero at no point of F_p whose
    coordinates are all nonzero.

    A slot is a unit, nonzero at every such point, when it is a symbol, a
    constant whose numerator and denominator are nonzero mod p, or a
    product, power or quotient of units; a sum never is.  The program is
    pole-free when every divisor and every base of a negative power is a
    unit and no constant's denominator is divisible by p.  Remembered per
    residual and prime: a suite compares the same images again.
    """
    unit: list[bool] = []
    for kind, arg in _compile(e)[0]:
        if kind == "num":
            if arg.denominator % p == 0:
                return False
            unit.append(arg.numerator % p != 0)
        elif kind == "sym":
            unit.append(True)
        elif kind == "add":
            unit.append(False)
        elif kind == "pow":
            if arg[1] < 0 and not unit[arg[0]]:
                return False
            unit.append(unit[arg[0]])
        else:  # mul, div
            if kind == "div" and not unit[arg[1]]:
                return False
            unit.append(all(unit[k] for k in arg))
    return True


def to_label(a: Expr, b: Expr) -> str:
    sa, sb = str(a), str(b)
    return f"{sa[:30]} == {sb[:30]}"


# ---------------------------------------------------------------------------
# exact path: normalize to a single polynomial fraction and test the numerator
#
# A polynomial is a dict from monomial to nonzero int coefficient.  A monomial
# is one int with a fixed-width bit field per variable (packed exponent
# vectors, Monagan and Pearce 2007), so multiplying monomials is one int
# addition.  The width holds the program's degree bound, so no exponent ever
# carries into its neighbour's field.
# No polynomial GCD is attempted: the numerator of the combined fraction is
# the zero polynomial iff the rational function is identically zero, which is
# all the zero-proof needs.  _strip divides a pair by the gcd of all its
# coefficients to keep them small.  Scaling a pair by a nonzero constant or
# by a monomial changes no polynomial's number of terms, so the term cap
# trips at the same step whichever such normalization is made.  A common
# monomial is not cancelled: in a packed monomial it costs nothing to carry.

_TERM_CAP = 400_000
_SIZE_BOUND = 20_000

#: Per term cap, the nodes at which the normalizer tripped it (interned, immortal).
_BLOWN: dict[int, set[Expr]] = {}


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
        raise _TermBlowUp("term blow-up")
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


def _strip(numer, denom):
    """Divide a fraction pair by the integer content it has in common."""
    if not numer:
        return numer, denom
    content = math.gcd(*numer.values(), *denom.values())
    if content != 1:
        numer = {m: c // content for m, c in numer.items()}
        denom = {m: c // content for m, c in denom.items()}
    return numer, denom


def _degree_bound(code) -> int:
    """A bound on every exponent the program can produce: 0 for a constant,
    1 for a symbol, the sum over the operands of a sum, product or quotient,
    and |k| times the base of a k-th power."""
    bound: list[int] = []
    for kind, arg in code:
        if kind == "num":
            bound.append(0)
        elif kind == "sym":
            bound.append(1)
        elif kind == "pow":
            bound.append(abs(arg[1]) * bound[arg[0]])
        else:
            bound.append(sum(bound[k] for k in arg))
    return max(bound)


def exact_zero(e: Expr) -> bool:
    """Prove or refute e == 0 exactly.

    Runs the compiled program of e (see expr.evaluate) over polynomial
    fractions.  Raises ExactPathUnavailable when e has more than _SIZE_BOUND
    nodes or an intermediate expansion exceeds _TERM_CAP terms.  The outcome is
    remembered per residual, bound and cap: a suite asks again about the
    residuals it has decided.

    A residual reaching a node that tripped the current cap is "term blow-up"
    at once if its program runs over F_p at one fixed point (else it is
    normalized in full), as the full run would end: 1. packing is a bijection
    of exponent vectors, so the term counts of a node's pair, and its cap
    tests, do not depend on the program: the node trips wherever it is
    reached; 2. a program that runs at a point divides by no identically zero
    expression (evaluation is a ring homomorphism on the functions defined
    there), so any failure before that node is also a blow-up.
    """
    outcome = _exact_outcome(e, _SIZE_BOUND, _TERM_CAP)
    if isinstance(outcome, str):
        raise ExactPathUnavailable(outcome)
    return outcome


@functools.lru_cache(maxsize=1024)
def _exact_outcome(e: Expr, size_bound: int, cap: int) -> bool | str:
    """_normalize_is_zero's verdict, or the message of its
    ExactPathUnavailable.  size_bound and cap are the _SIZE_BOUND and
    _TERM_CAP the run sees, passed only to key the cache.  Entries are small:
    the residual lives on in the intern table anyway."""
    try:
        return _normalize_is_zero(e)
    except ExactPathUnavailable as err:
        return str(err)


def _normalize_is_zero(e: Expr) -> bool:
    code, nodes = _compile(e)
    if len(code) > _SIZE_BOUND:
        raise ExactPathUnavailable(f"expression exceeds {_SIZE_BOUND} nodes")
    order = sorted(e.free)
    blown = _BLOWN.setdefault(_TERM_CAP, set())
    if not blown.isdisjoint(nodes):  # sound once certified: see exact_zero
        point = sample_point(rng_for(0, "exact:certificate"), order, DEFAULT_PRIME)
        with contextlib.suppress(DivisionByZero):
            evaluate(e, point, DEFAULT_PRIME)
            raise ExactPathUnavailable("term blow-up")
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
                    n_acc, d_acc = _strip(n_acc, d_acc)
                pair = (n_acc, d_acc)
            elif kind == "mul":
                n_acc, d_acc = vals[arg[0]]
                for k in arg[1:]:
                    n2, d2 = vals[k]
                    n_acc = _poly_mul(n_acc, n2)
                    d_acc = _poly_mul(d_acc, d2)
                pair = _strip(n_acc, d_acc)
            elif kind == "pow":
                n1, d1 = vals[arg[0]]
                k = arg[1]
                if k < 0:
                    n1, d1 = d1, n1
                    k = -k
                if not d1:
                    raise ExactPathUnavailable("inverse of an identically zero expression")
                pair = (_poly_pow(n1, k), _poly_pow(d1, k))
            else:  # div
                (n1, d1), (n2, d2) = vals[arg[0]], vals[arg[1]]
                if not n2:
                    raise ExactPathUnavailable("division by an identically zero expression")
                pair = _strip(_poly_mul(n1, d2), _poly_mul(d1, n2))
            vals.append(pair)
    except _TermBlowUp:
        blown.add(nodes[i])
        raise
    numer, _denom = vals[-1]
    return not numer
