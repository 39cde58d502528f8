"""Identity testing for rational expressions, modulo a constraint relation.

The workhorse is evaluation-first testing: the difference of two expressions
is evaluated at independent uniform points of a large prime field, after
eliminating the constrained symbol.  Any nonzero value disproves the
identity and the sampled point is returned as a witness; agreement at every
trial accepts it with error probability at most (deg/p) per trial.

An exact secondary path normalizes the difference to a single polynomial
fraction and proves the zero identity outright.  It is gated by an
expression-size bound because fully expanded normal forms of long Weyl-word
composites blow up.
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .expr import (
    DivisionByZero,
    Expr,
    dag_size,
    evaluate,
    sub,
    substitute,
)

#: Default modulus 2^61 - 1 (prime), comfortably above the 2^60 floor.
DEFAULT_PRIME = (1 << 61) - 1
DEFAULT_TRIALS = 16
DEFAULT_SIZE_BOUND = 20_000


class DegenerateComparison(RuntimeError):
    """Every sampled point hit a denominator zero; the comparison says nothing."""


class ExactPathUnavailable(RuntimeError):
    """The exact normal form exceeded the configured size budget."""


@dataclass(frozen=True)
class Valuation:
    """A total assignment of field elements to symbols.

    `prime` is None for exact rationals, otherwise the field is F_prime.
    """

    values: Mapping[str, object]
    prime: int | None = None

    def __call__(self, e: Expr):
        return evaluate(e, self.values, self.prime)


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
    witness_values: tuple | None = None   # (value of a, value of b) at the witness
    trials: int = 0
    resamples: int = 0

    def __bool__(self):
        return self.verdict in ("equal", "exact-proved")


def rng_for(seed: int, label: str) -> random.Random:
    """Deterministic per-check generator: stable across runs and platforms."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def sample_point(rng: random.Random, names, prime: int) -> dict[str, int]:
    """One uniform nonzero value per name, drawn in the order given; pass the
    names sorted for draws that are reproducible across runs."""
    # Never sample 0: most symbols sit in denominators.
    return {n: rng.randrange(1, prime) for n in names}


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
    """Raise ValueError unless trials >= 1 and prime is a prime above 2^60.

    The sampled field must be a field: projective evaluation relies on every
    nonzero denominator being invertible, and the error bound on p - 1
    nonzero values.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
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
    size_bound: int = DEFAULT_SIZE_BOUND,
) -> IdentityResult:
    """Decide whether a and b agree as rational functions (mod constraint)."""
    check_sampling(trials, prime)
    r = sub(a, b)
    if constraint is not None:
        r = constraint.apply(r)
    names = sorted(r.free)
    rng = rng_for(seed, label)

    result = IdentityResult(verdict="equal")
    budget = 100 * trials
    done = 0
    while done < trials:
        if result.resamples + done >= budget:
            raise DegenerateComparison(
                f"exhausted {budget} sampling attempts for '{label or to_label(a, b)}'"
            )
        point = sample_point(rng, names, prime)
        try:
            v = evaluate(r, point, prime)
        except DivisionByZero:
            result.resamples += 1
            continue
        done += 1
        if v != 0:
            # Only a refutation needs the constrained sides: for its witness values.
            if constraint is not None:
                a, b = constraint.apply(a), constraint.apply(b)
            va = evaluate(a, point, prime)
            vb = evaluate(b, point, prime)
            result.verdict = "unequal"
            result.witness = point
            result.witness_values = (va, vb)
            break
    result.trials = done

    if exact and result.verdict == "equal":
        try:
            if exact_zero(r, size_bound=size_bound):
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


def to_label(a: Expr, b: Expr) -> str:
    sa, sb = str(a), str(b)
    return f"{sa[:30]} == {sb[:30]}"


# ---------------------------------------------------------------------------
# exact path: normalize to a single polynomial fraction and test the numerator
#
# Polynomials are dicts mapping exponent tuples to Fraction coefficients.
# No polynomial GCD is attempted: the numerator of the combined fraction is
# the zero polynomial iff the rational function is identically zero, which is
# all the zero-proof needs.  A cheap monomial/content cancellation keeps the
# intermediate fractions from carrying dead weight.

_TERM_CAP = 400_000


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
    if len(p) * len(q) > _TERM_CAP:
        raise ExactPathUnavailable("term blow-up")
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            nc = out.get(m, 0) + c1 * c2
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
    if len(out) > _TERM_CAP:
        raise ExactPathUnavailable("term blow-up")
    return out


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
    """Cancel the common monomial and rational content of a fraction pair."""
    if not numer or not denom:
        return numer, denom
    nvars = len(next(iter(numer)))
    mins = [None] * nvars
    for poly in (numer, denom):
        for m in poly:
            for i, e in enumerate(m):
                if mins[i] is None or e < mins[i]:
                    mins[i] = e
    if any(mins):
        numer = {tuple(e - m for e, m in zip(mon, mins)): c for mon, c in numer.items()}
        denom = {tuple(e - m for e, m in zip(mon, mins)): c for mon, c in denom.items()}
    # Divide through by the first numerator coefficient to tame growth.
    first = next(iter(numer.values()))
    if first != 1:
        numer = {m: c / first for m, c in numer.items()}
        denom = {m: c / first for m, c in denom.items()}
    return numer, denom


def exact_zero(e: Expr, *, size_bound: int = DEFAULT_SIZE_BOUND) -> bool:
    """Prove or refute e == 0 exactly.

    Raises ExactPathUnavailable when e exceeds the size bound or an
    intermediate expansion exceeds the term cap.
    """
    if dag_size(e) > size_bound:
        raise ExactPathUnavailable(f"expression exceeds {size_bound} nodes")
    order = tuple(sorted(e.free))
    index = {n: i for i, n in enumerate(order)}
    nvars = len(order)
    one = {(0,) * nvars: Fraction(1)}

    memo: dict[Expr, tuple[dict, dict]] = {}
    stack = [e]
    while stack:
        node = stack[-1]
        if node in memo:
            stack.pop()
            continue
        if node.kind == "num":
            memo[node] = ({(0,) * nvars: node.value} if node.value else {}, dict(one))
            stack.pop()
            continue
        if node.kind == "sym":
            mono = tuple(1 if i == index[node.name] else 0 for i in range(nvars))
            memo[node] = ({mono: Fraction(1)}, dict(one))
            stack.pop()
            continue
        pending = [ch for ch in node.children if ch not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        kids = [memo[ch] for ch in node.children]
        if node.kind == "add":
            n_acc, d_acc = kids[0]
            for n2, d2 in kids[1:]:
                n_acc = _poly_add(_poly_mul(n_acc, d2), _poly_mul(n2, d_acc))
                d_acc = _poly_mul(d_acc, d2)
                n_acc, d_acc = _strip(n_acc, d_acc) if n_acc else (n_acc, d_acc)
            memo[node] = (n_acc, d_acc)
        elif node.kind == "mul":
            n_acc, d_acc = kids[0]
            for n2, d2 in kids[1:]:
                n_acc = _poly_mul(n_acc, n2)
                d_acc = _poly_mul(d_acc, d2)
            memo[node] = _strip(n_acc, d_acc) if n_acc else (n_acc, d_acc)
        elif node.kind == "pow":
            n1, d1 = kids[0]
            k = node.exp
            if k < 0:
                n1, d1 = d1, n1
                k = -k
            if not d1:
                raise ExactPathUnavailable("inverse of an identically zero expression")
            memo[node] = (_poly_pow(n1, k), _poly_pow(d1, k))
        elif node.kind == "div":
            (n1, d1), (n2, d2) = kids
            if not n2:
                raise ExactPathUnavailable("division by an identically zero expression")
            pair = (_poly_mul(n1, d2), _poly_mul(d1, n2))
            memo[node] = _strip(*pair) if pair[0] else pair
    numer, _denom = memo[e]
    return not numer
