"""The pieces the orbit solvers keep: hints that cost time, never a result."""

import json
import sys
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st
from test_evolution import _LONG_STEPS, _NONZERO, _SMALL, _step_outcome

from qpweyl import evolution
from qpweyl.evolution import PoleError, make_state, orbit_step, state_from_record

_START = st.tuples(_NONZERO, st.lists(_NONZERO, min_size=7, max_size=7),
                   _NONZERO, _NONZERO, _SMALL, _SMALL)
_SMOOTH = (2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29) ** 40


def _sample():
    with open(Path(__file__).resolve().parents[1] / "sample-params.json", encoding="utf-8") as fh:
        return state_from_record(json.load(fh))


def _swapped(st0):
    return make_state(st0.q, st0.nu[:7], st0.kappa1, st0.kappa2, st0.g, st0.f)


def _there_and_back(family):
    """The directions of the family's longest printable sample orbit, forward
    and then back."""
    return ["forward"] * _LONG_STEPS[family] + ["backward"] * _LONG_STEPS[family]


def _walk(fam, st0, directions):
    """The states after each step, ending with (step, where) at a pole."""
    out, cur = [], st0
    for direction in directions:
        try:
            cur = orbit_step(fam, cur, direction)
        except PoleError as err:
            out.append((err.step, err.where))
            break
        out.append(cur)
    return out


def _entry(state):
    """The hint table's entry (state, up, pieces of f, pieces of g) for a
    state orbit_step built, or None."""
    return next((e for e in evolution._built if e is not None and e[0] is state), None)


def _plant(*entries):
    """Make the hint table hold exactly these entries."""
    evolution._built[:] = list(entries) + [None] * (evolution._BUILT_SLOTS - len(entries))


def _misled(pieces, bad, short):
    """pieces with every entry replaced by bad, one fewer of them when short."""
    return tuple([bad] * (len(p) - short) for p in pieces)


@pytest.mark.parametrize("family", ["D5", "E6", "E7"])
@pytest.mark.parametrize("direction", ["forward", "backward"])
@settings(max_examples=60, deadline=None)
@given(start=_START, other=_START, warm=st.integers(min_value=1, max_value=3), turn=st.booleans())
def test_hints_never_change_a_step(families, family, direction, start, other, warm, turn):
    """A step from a state orbit_step built, with hints at every size, equals
    the step with the hint table cleared, the step with another state's
    pieces planted under this state, and the steps with misleading numbers
    for pieces, one per factor or one fewer, as another family's solve
    leaves them.  The warm-up steps run in the step's direction, or against
    it (a turn)."""
    fam = families[family]
    other_way = {"forward": "backward", "backward": "forward"}[direction]
    before = [other_way if turn else direction] * warm
    with mock.patch.object(evolution, "HINT_BITS", 0):
        donor = _walk(fam, make_state(*other), before)
        assume(donor and not isinstance(donor[-1], tuple))
        donor_entry = _entry(donor[-1])
        walked = _walk(fam, make_state(*start), before)
        assume(walked and not isinstance(walked[-1], tuple))
        cur = walked[-1]
        mine = _entry(cur)
        assert mine is not None, "the warm-up kept no pieces for the state it reached"
        normal = _step_outcome(fam, cur, direction)
        _plant()
        cleared = _step_outcome(fam, cur, direction)
        _plant((cur,) + donor_entry[1:])
        planted = _step_outcome(fam, cur, direction)
        # Pieces that share the new coordinates' primes, or every small prime,
        # with the factors: their gcds with a factor need not divide the
        # operand it is cancelled against.
        bad = _SMOOTH
        if not isinstance(normal, tuple):
            for v in (normal.f, normal.g):
                bad *= v.numerator * v.denominator
        misleading = []
        for short in (0, 1):
            _plant((cur, mine[1], _misled(mine[2], bad, short), _misled(mine[3], bad, short)))
            misleading.append(_step_outcome(fam, cur, direction))
    assert [normal] * 4 == [cleared, planted, *misleading]


def _cancellations():
    """(finals, spies): while the patch spies is active, finals gets, for
    each factor product cancelled against an operand, the operand's bits and
    the smaller operand of the exact _cancel that ran last."""
    cancel, cancel_factors = evolution._cancel, evolution._cancel_factors
    calls, finals = [], []

    def cancel_spy(a, b):
        calls.append(min(abs(a).bit_length(), abs(b).bit_length()))
        return cancel(a, b)

    def cancel_factors_spy(factors, extra, b, pieces):
        calls.clear()
        out = cancel_factors(factors, extra, b, pieces)
        finals.append((abs(b).bit_length(), calls[-1]))
        return out

    return finals, mock.patch.multiple(evolution, _cancel=cancel_spy,
                                       _cancel_factors=cancel_factors_spy)


@pytest.mark.parametrize("family", ["D5", "E6", "E7"])
def test_large_cancellations_are_finished_by_a_small_exact_cancel(families, family):
    """Along the sample orbit, forward and then back, after the first step
    every cancellation of a factor product against an operand of 1,000 bits
    or more ends in an exact _cancel whose smaller operand is under 64 bits:
    the hints found all but a few bits of the common factor."""
    fam = families[family]
    finals, spies = _cancellations()
    cur = _sample()
    with spies:
        large = []
        for i, direction in enumerate(_there_and_back(family)):
            finals.clear()
            cur = orbit_step(fam, cur, direction)
            if i:
                large += [smaller for bits, smaller in finals if bits >= 1000]
    assert len(large) >= 50, len(large)
    assert max(large) < 64, sorted(large)[-5:]


def test_a_full_hint_table_keeps_every_hint(families):
    """As many orbits as the hint table holds (4), stepped round-robin
    forward and then back, equal the same orbits stepped one after another,
    and after each orbit's first step every cancellation against an operand
    of 1,000 bits or more still ends in an exact _cancel whose smaller
    operand is under 64 bits: no orbit's hints are pushed out by the others."""
    sample = _sample()
    starts = [("D5", sample), ("E6", sample), ("E7", sample), ("D5", _swapped(sample))]
    walks = [(families[name], st0, _there_and_back(name)) for name, st0 in starts]
    want = [_walk(fam, st0, directions) for fam, st0, directions in walks]
    got = [[] for _ in walks]
    finals, spies = _cancellations()
    large = []
    _plant()
    with spies:
        for i in range(max(len(directions) for _, _, directions in walks)):
            for k, (fam, st0, directions) in enumerate(walks):
                if i < len(directions):
                    finals.clear()
                    got[k].append(orbit_step(fam, got[k][-1] if i else st0, directions[i]))
                    if i:
                        large += [smaller for bits, smaller in finals if bits >= 1000]
    assert got == want
    assert len(large) >= 100, len(large)
    assert max(large) < 64, sorted(large)[-5:]


def test_threads_step_orbits_from_an_empty_piece_table(families):
    """D5, E6 and E7 orbits and their f/g swaps, forward and then back, from
    4 threads at once, equal the serial orbits."""
    sample = _sample()
    jobs = [(name, st0) for name in ("D5", "E6", "E7") for st0 in (sample, _swapped(sample))]

    def run(job):
        name, st0 = job
        return _walk(families[name], st0, _there_and_back(name))

    want = [run(job) for job in jobs]
    assert all(w[-1] == st0 for w, (_, st0) in zip(want, jobs))
    got = [None] * len(jobs)
    barrier = threading.Barrier(4)

    def worker(k):
        barrier.wait(timeout=60)
        for i in range(k, len(jobs), 4):
            got[i] = run(jobs[i])

    _plant()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == want
