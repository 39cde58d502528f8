"""Identity testing for rational expressions, modulo a constraint relation.

A comparison is decided by the first of two rules that applies:
1. lattice: two Laurent monomials with coefficient 1, such as the images of
   q, nu1..nu8, kappa1, kappa2, are equal when their exponents agree after
   the constrained symbol's exponent is carried over to its replacement,
   which must itself be such a monomial if either side mentions the symbol;
2. sampling: the constrained difference is evaluated at independent uniform
   points of a large prime field.  A nonzero value disproves the identity,
   and that point alone is returned as the witness; agreement at every trial
   accepts it.
Only points with nonzero coordinates are drawn, so rule 1 is exact and
returns what sampling would; the error bound below concerns rule 2.  Rule
1's verdict and the constrained residual that rule 2 samples depend on no
seed, so both are kept per pair (a, b, constraint), the last
RESIDUAL_CACHE_SIZE of them: a comparison made again only samples.

The error bound.  A nonzero residual whose numerator has degree at most D
vanishes at a uniform point of the p - 1 nonzero values per coordinate with
probability at most D/(p - 1) (Schwartz, J. ACM 27:701, 1980), so t
independent trials all agree with probability at most (D/(p - 1))^t.  The
default t is trials_for(p), the fewest with (p - 1)^t >= (2^61 - 2)^16.  For
p >= 2^61 - 1 that t is at most 16, so D^t <= D^16 for every D >= 1, and
    (D/(p - 1))^t = D^t/(p - 1)^t <= D^16/(2^61 - 2)^16:
no residual gets a weaker bound than 16 trials over 2^61 - 1 gave it.  Over
the default p = 2^89 - 1, t = 11: 11 * 89 = 979 >= 976 = 16 * 61 gives
(p - 1)^11 > 2^978 > (2^61 - 2)^16, while (p - 1)^10 < 2^890.  Between 2^60
and 2^61 - 1, t = 17, and as (p - 1)^17 >= 2^1020 = 2^44 * 2^976, no
residual with D <= 2^44 gets a weaker bound either.

The points.  Point j of symbol x is value j of x's own stream, read from
the SHAKE-128 output of the seed and x (stream_values), so every comparison
under one seed reads the same points, whatever its label: a comparison's
attempt j reads point j.  Attempt 0 is a probe, evaluated alone: most false
identities fail there.  The remaining trials run the residual's compiled
program over their points in batches of at most _LANE_CAP, one lane per
point, which needs no modular inverse since only whether a value is zero
matters.  The lanes are scanned in the order of a point-by-point loop, so
verdicts, witnesses and counts are that loop's.  The first values of
each stream, its head, are read once per process (_stream_head): they are
coordinates, the same for every call at one seed.  Each public suite call
builds one Points object, which its comparisons share, and a lone
identities_equal builds its own; the object keeps the value of every node
evaluated at the probe and at each batch, so a node that several residuals
share is evaluated once per point, and it is dropped when the call returns:
no node value and no verdict outlives a call.

Sharing the points leaves each comparison's bound (D/(p - 1))^t as it was:
its trials still read independent, uniform, nonzero points, and a point at
a pole still moves it on to the next point of the stream.  The comparisons
of one call are now dependent, so a check's error is bounded, as before, by
the union bound over its comparisons, which needs no independence.

An exact secondary path normalizes the difference to a single polynomial
fraction and proves the zero identity outright.  A residual the probe does
not refute is asked there at once, or after the trials when the probe hit a
pole, so a proof ends a comparison after its first trial.  The path is gated
by an expression-size bound because fully expanded normal forms of long
Weyl-word composites blow up.  Each residual's outcome, its verdict or why
the path is unavailable, is kept in a bounded LRU cache, one per residual.
"""

from __future__ import annotations

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
from .report import Frozen, Record, Value

#: Default modulus, the Mersenne prime 2^89 - 1: every residue above the 2^60
#: floor already takes three of CPython's 30-bit digits, and this one fills 89
#: of their 90 bits.
DEFAULT_PRIME = (1 << 89) - 1
#: Every default trial count bounds a comparison's error at least as tightly
#: as 16 trials over 2^61 - 1: (p - 1)^trials >= (2^61 - 2)^16.
_TRIAL_TARGET = ((1 << 61) - 2) ** 16


def trials_for(prime: int) -> int:
    """The fewest trials t with (prime - 1)^t >= (2^61 - 2)^16, in integers."""
    if prime < 3:
        raise ValueError(f"prime must exceed 2, got {prime}")
    t, power = 1, prime - 1
    while power < _TRIAL_TARGET:
        t, power = t + 1, power * (prime - 1)
    return t


DEFAULT_TRIALS = trials_for(DEFAULT_PRIME)
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
        """e with the eliminated symbol replaced."""
        return substitute(e, {self.eliminated: self.replacement})


class IdentityResult(Record):
    __slots__ = ("verdict", "witness", "trials", "resamples")

    def __init__(self, verdict: str,  # "equal" | "unequal" | "exact-proved"
                 witness: dict[str, int] | None = None, trials: int = 0, resamples: int = 0):
        self.verdict, self.witness, self.trials, self.resamples = verdict, witness, trials, resamples

    def __bool__(self):
        return self.verdict in ("equal", "exact-proved")


#: Values per block of a symbol's stream: a batch of at most _LANE_CAP lanes
#: reads at most two blocks.
_BLOCK = 256


def stream_values(seed: int, name: str, prime: int, start: int, end: int) -> list[int]:
    """Values start .. end - 1 of name's stream under seed, each uniform on
    1 .. prime - 1.  Value j is value j mod _BLOCK of block j div _BLOCK;
    block k reads the SHAKE-128 output of "seed:point:name:k" as
    little-endian words of ceil(b/8) bytes, b the bit width of prime - 1,
    and takes the low b bits r of each word as the value 1 + r when r is
    below prime - 1, skipping the word otherwise (rejection sampling, as
    randrange(1, prime) does).  A block is read only as far as asked, and no
    block depends on another, so reading a value costs the values before it
    in its block alone."""
    import hashlib   # here, not at module level: it loads OpenSSL at start-up
    width = prime - 1
    bits = width.bit_length()
    size, mask = (bits + 7) // 8, (1 << bits) - 1
    out: list[int] = []
    for k in range(start // _BLOCK, (end - 1) // _BLOCK + 1):
        base = k * _BLOCK
        lo, hi = max(start, base) - base, min(end, base + _BLOCK) - base
        xof, words = hashlib.shake_128(f"{seed}:point:{name}:{k}".encode()), hi
        while True:
            data = xof.digest(words * size)
            block = [1 + r for r in (int.from_bytes(data[i:i + size], "little") & mask
                                     for i in range(0, len(data), size)) if r < width]
            if len(block) >= hi:
                break
            words *= 2   # words were skipped: read further into the output
        out += block[lo:hi]
    return out


# Bases 2..41 make Miller-Rabin deterministic below 3.3e24 (Sorenson and
# Webster 2015); larger moduli get further rounds with bases seeded by n.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_BELOW = 3_317_044_064_679_887_385_961_981
_MR_EXTRA_ROUNDS = 32


@functools.lru_cache(maxsize=16)
def is_prime(n: int) -> bool:
    """Primality test; cached, as each config built asks again.  A Mersenne
    number 2^k - 1 is prime iff k is and the Lucas-Lehmer sequence ends in 0,
    a deterministic test of k - 2 squarings; other numbers get Miller-Rabin."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n & (n + 1) == 0:   # n = 2^k - 1 > 41, so k is at least 6
        k = n.bit_length()
        if not is_prime(k):
            return False
        s = 4
        for _ in range(k - 2):
            s = (s * s - 2) % n
        return s == 0
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


class CheckConfig(Value):
    """How comparisons run, valid once built: __init__ raises ValueError
    unless 1 <= trials <= MAX_TRIALS and prime is a prime above 2^60 and at
    most MAX_PRIME_BITS bits wide.  The sampled field must be a field:
    projective evaluation relies on every nonzero denominator being
    invertible, and the error bound on p - 1 nonzero values.  trials=None
    runs trials_for(prime) trials: 11 over the default 2^89 - 1, 16 over
    2^61 - 1; the field then holds that count."""

    __slots__ = ("trials", "prime", "seed", "exact", "use_constraint")

    def __init__(self, trials: int | None = None, prime: int = DEFAULT_PRIME, seed: int = 0,
                 exact: bool = False, use_constraint: bool = True):
        if trials is not None and trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        if trials is not None and trials > MAX_TRIALS:
            raise ValueError(f"trials must be at most {MAX_TRIALS}, got {trials}")
        if prime <= 1 << 60:
            raise ValueError(f"prime must exceed 2^60, got {prime}")
        if prime.bit_length() > MAX_PRIME_BITS:
            raise ValueError(f"prime must be at most {MAX_PRIME_BITS} bits wide, "
                             f"got {prime.bit_length()} bits")
        if not is_prime(prime):
            raise ValueError(f"prime {prime} is composite")
        super().__init__(trials_for(prime) if trials is None else trials, prime, seed,
                         exact, use_constraint)

    def constraint(self, fam) -> ConstraintRelation | None:
        """The family's constraint, or None when checks run without it."""
        return fam.constraint if self.use_constraint else None


def identities_equal(a: Expr, b: Expr, constraint: ConstraintRelation | None = None,
                     cfg: CheckConfig = CheckConfig(), *, label: str = "",
                     points: Points | None = None) -> IdentityResult:
    """Decide whether a and b agree as rational functions (mod constraint).

    The rules of the module docstring, in order: lattice ("exact-proved"
    with cfg.exact, and no residual is built), sampling.  The lattice returns
    the sampling loop's result: every trial equal and none resampled, or
    with cfg.exact one trial and a proof.  With cfg.exact, sampling asks the
    exact path too (see _sample).  Sampling reads points, built from a
    config with cfg's prime and seed, or a Points(cfg) of its own; the label
    only names the comparison in a DegenerateComparison message.
    """
    r = _residual(a, b, constraint)
    if r is None:
        # Monomials have no pole at a point with nonzero coordinates.
        return IdentityResult("exact-proved" if cfg.exact else "equal",
                              trials=1 if cfg.exact else cfg.trials)
    if points is None:
        points = Points(cfg)
    elif (points.prime, points.seed) != (cfg.prime, cfg.seed):
        raise ValueError("points were drawn for another prime or seed")
    return _sample(r, cfg, points, label)


#: Residuals kept, by the pair and the constraint or None: a benchmark pass
#: builds at most 112 distinct ones.
RESIDUAL_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=RESIDUAL_CACHE_SIZE)
def _residual(a: Expr, b: Expr, constraint: ConstraintRelation | None) -> Expr | None:
    """a - b with the constraint applied, or None when the lattice decides
    that a equals b.  Neither depends on a seed, and the nodes are interned
    and the relation read-only, so the last RESIDUAL_CACHE_SIZE are kept."""
    if lattice_equal(a, b, constraint):
        return None
    r = sub(a, b)
    return r if constraint is None else constraint.apply(r)


def lattice_equal(a: Expr, b: Expr, constraint: ConstraintRelation | None) -> bool:
    """Whether rule 1 of the module docstring finds a equal to b."""
    lattice = _reduced_monomial(a, constraint)
    return lattice is not None and lattice == _reduced_monomial(b, constraint)


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
#: Stream heads kept, by seed, name, prime and length: a benchmark pass reads
#: at most 50.  A head holds at most _LANE_CAP values, so over the default
#: prime the cache holds at most about 3 MB.
HEAD_CACHE_SIZE = 256


@functools.lru_cache(maxsize=HEAD_CACHE_SIZE)
def _stream_head(seed: int, name: str, prime: int, keep: int) -> tuple[int, ...]:
    """Values 0 .. keep - 1 of name's stream under seed: coordinates alone,
    which every call at the seed reads, so the last HEAD_CACHE_SIZE heads
    are kept for the process."""
    return tuple(stream_values(seed, name, prime, 0, keep))


class Points:
    """The sample points of one suite call, and the value of every node
    evaluated at them.

    Point j of symbol x is value j of stream_values(seed, x, ...), so every
    comparison under one seed reads the same points whatever its label.
    probe maps a node to its projective pair at point 0 (see
    expr._run_projective), and batch(start, m) to its lanes at points
    start .. start + m - 1 (see expr._run_lanes), so a node that several
    residuals share is evaluated once per point.  The first min(trials,
    _LANE_CAP) points of each stream come from the process's stream heads,
    and point 0 and each batch's columns within them are built once per
    object, with the lane memos of those batches: a comparison that
    resamples past them reads its points afresh and keeps nothing, so its
    memory is one batch's whatever its budget.  An object serves one call;
    no node value outlives it.
    """

    __slots__ = ("prime", "seed", "probe", "_keep", "_first", "_columns", "_batches")

    def __init__(self, cfg: CheckConfig):
        self.prime, self.seed = cfg.prime, cfg.seed
        self.probe: dict = {}
        self._keep = min(cfg.trials, _LANE_CAP)
        self._first: dict[str, int] = {}
        self._columns: dict[tuple[int, int], dict[str, list[int]]] = {}
        self._batches: dict[tuple[int, int], dict] = {}

    def _head(self, name: str) -> tuple[int, ...]:
        return _stream_head(self.seed, name, self.prime, self._keep)

    def first(self, names) -> dict[str, int]:
        """Point 0, at least at names."""
        point = self._first
        for n in names:
            if n not in point:
                point[n] = self._head(n)[0]
        return point

    def columns(self, names, start: int, m: int) -> dict[str, list[int]]:
        """Points start .. start + m - 1, one column per name, at least."""
        end, keep = start + m, self._keep
        if end > keep:
            return {n: [*self._head(n)[start:keep],
                        *stream_values(self.seed, n, self.prime, max(start, keep), end)]
                    for n in names}
        columns = self._columns.get((start, m))
        if columns is None:
            columns = self._columns[start, m] = {}
        for n in names:
            if n not in columns:
                columns[n] = list(self._head(n)[start:end])
        return columns

    def batch(self, start: int, m: int) -> dict | None:
        """The lane memo of points start .. start + m - 1, None past the kept
        points."""
        if start + m > self._keep:
            return None
        memo = self._batches.get((start, m))
        if memo is None:
            memo = self._batches[start, m] = {}
        return memo


def _prove(r) -> bool | str:
    """exact_zero(r), or why the exact path is unavailable."""
    try:
        return exact_zero(r)
    except ExactPathUnavailable as err:
        return str(err)


def _sample(r, cfg: CheckConfig, points: Points, label) -> IdentityResult:
    """Test the residual r = a - b (constrained) at the points, in the order
    of a trial-by-trial loop whose attempt j reads point j; a refutation
    returns its point.  With cfg.exact, a residual the trials do not refute
    goes to the exact path, right after the probe when the probe drew its
    point: a proof ends the comparison there.  A nonzero normal form or an
    unavailable path leaves the verdict to the trials."""
    names = sorted(r.free)
    prime, trials = points.prime, cfg.trials

    result = IdentityResult(verdict="equal")
    budget = 100 * trials
    # The probe: point 0 through evaluate, which refutes most false
    # identities at once.
    point = points.first(names)
    try:
        refuted = evaluate(r, point, prime, memo=points.probe) != 0
        done = 1
    except DivisionByZero:
        refuted, done = False, 0
        result.resamples = 1
    if refuted:
        witness = {n: point[n] for n in names}
    proof = _prove(r) if cfg.exact and done and not refuted else None
    if proof is True:
        return IdentityResult("exact-proved", trials=done)
    # The rest in batches: each lane is scanned in order as one trial of the
    # point-by-point loop, so every count and witness is the loop's.
    while not refuted and done < trials:
        attempts = result.resamples + done
        if attempts >= budget:
            raise DegenerateComparison(f"exhausted {budget} sampling attempts"
                                       + (f" for '{label}'" if label else ""))
        m = min(trials - done, budget - attempts, _LANE_CAP)
        columns = points.columns(names, attempts, m)
        code, nodes = _compile(r)
        lanes = _run_lanes(code, nodes, columns, m, prime, points.batch(attempts, m))
        for i, v in enumerate(lanes):
            if v is None:
                result.resamples += 1
            else:
                done += 1
                if v:
                    witness = {n: columns[n][i] for n in names}
                    refuted = True
                    break
    if refuted:
        result.verdict = "unequal"
        result.witness = witness
    elif cfg.exact:
        proof = _prove(r) if proof is None else proof
        if proof is False:   # every trial agrees with a nonzero normal form
            raise AssertionError("probabilistic and exact verdicts disagree; engine defect")
        if proof is True:
            result.verdict = "exact-proved"
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
# per instruction kind, but a quotient tests its divisor for the zero
# polynomial instead of carrying a pole, so it is (n d', d n').  It never
# reduces a pair: the last numerator is the zero polynomial iff the rational
# function is identically zero.  Scaling a pair by a nonzero constant or a
# monomial changes no term count, so the cap trips at the same node as in
# tests/test_identity.py's Fraction reference, which divides each pair
# through by a coefficient and a monomial.

#: The most term pairs one product may form.  Over the 18 --exact verify
#: runs (three commands, three families, with and without the constraint)
#: no proof forms more than 73,920, and under a cap of 400,000 the 14 of 86
#: residuals that end in term blow-up took 616 of the 725 ms spent in the
#: exact path.  tests/test_identity.py keeps the cap a third above every proof.
_TERM_CAP = 100_000
_SIZE_BOUND = 20_000

#: Residual outcomes kept, by the residual alone: the bound and the cap are
#: constants.  The 18 --exact verify runs normalize 86 distinct residuals.
EXACT_CACHE_SIZE = 256


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
    divides by an identically zero expression.  The last EXACT_CACHE_SIZE
    outcomes are kept, one per residual.
    """
    outcome = _normalize(e)
    if isinstance(outcome, str):
        raise ExactPathUnavailable(outcome)
    return outcome


@functools.lru_cache(maxsize=EXACT_CACHE_SIZE)
def _normalize(e: Expr) -> bool | str:
    """Whether e is identically zero, or why the exact path is unavailable."""
    code = _compile(e)[0]
    if len(code) > _SIZE_BOUND:
        return f"expression exceeds {_SIZE_BOUND} nodes"
    order = sorted(e.free)
    width = max(1, _degree_bound(code).bit_length())
    one = {0: 1}
    monomial = {n: 1 << (i * width) for i, n in enumerate(order)}

    vals: list[tuple[dict, dict]] = []
    try:
        for kind, arg in code:
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
        return "term blow-up"
    return not vals[-1][0]
