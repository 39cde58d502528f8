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


def _clear_pieces():
    evolution._pieces[:] = [None] * evolution._PIECE_SLOTS


@pytest.mark.parametrize("family", ["D5", "E6", "E7"])
@pytest.mark.parametrize("direction", ["forward", "backward"])
@settings(max_examples=60, deadline=None)
@given(start=_START, other=_START, warm=st.integers(min_value=1, max_value=3), turn=st.booleans())
def test_hints_never_change_a_step(families, family, direction, start, other, warm, turn):
    """A step from a state whose coordinates have pieces, with hints at every
    size, equals the step with the piece table cleared and the step with
    another state's pieces, or misleading numbers, planted under this
    state's coordinates.  The warm-up steps run in the step's direction, or against
    it (a turn)."""
    fam = families[family]
    other_way = {"forward": "backward", "backward": "forward"}[direction]
    before = [other_way if turn else direction] * warm
    with mock.patch.object(evolution, "HINT_BITS", 0):
        donor = _walk(fam, make_state(*other), before)
        assume(donor and not isinstance(donor[-1], tuple))
        donor_pieces = {entry[1:3]: entry[3:] for entry in evolution._pieces
                        if entry is not None and entry[0] in (donor[-1].f, donor[-1].g)}
        walked = _walk(fam, make_state(*start), before)
        assume(walked and not isinstance(walked[-1], tuple))
        cur = walked[-1]
        mine = [entry for entry in evolution._pieces
                if entry is not None and entry[0] in (cur.f, cur.g)]
        assert mine, "the warm-up kept no pieces for the state it reached"
        normal = _step_outcome(fam, cur, direction)
        _clear_pieces()
        cleared = _step_outcome(fam, cur, direction)
        _clear_pieces()
        for i, entry in enumerate(mine):
            evolution._pieces[i] = entry[:3] + donor_pieces.get(entry[1:3], entry[3:])
        planted = _step_outcome(fam, cur, direction)
        # Pieces that share the new coordinates' primes, or every small prime,
        # with the factors: their gcds with a factor need not divide the
        # operand it is cancelled against.
        bad = _SMOOTH
        if not isinstance(normal, tuple):
            for v in (normal.f, normal.g):
                bad *= v.numerator * v.denominator
        _clear_pieces()
        for i, (z, family_name, rel, up, tops, bots) in enumerate(mine):
            evolution._pieces[i] = (z, family_name, rel, up, [bad] * len(tops), [bad] * len(bots))
        misleading = _step_outcome(fam, cur, direction)
    assert normal == cleared == planted == misleading


@pytest.mark.parametrize("family", ["D5", "E6", "E7"])
def test_large_cancellations_are_finished_by_a_small_exact_cancel(families, family):
    """Along the sample orbit, forward and then back, after the first step
    every cancellation of a factor product against an operand of 1,000 bits
    or more ends in an exact _cancel whose smaller operand is under 64 bits:
    the hints found all but a few bits of the common factor."""
    fam, n = families[family], _LONG_STEPS[family]
    cancel, cancel_factors = evolution._cancel, evolution._cancel_factors
    calls, finals = [], []

    def cancel_spy(a, b):
        calls.append(min(abs(a).bit_length(), abs(b).bit_length()))
        return cancel(a, b)

    def cancel_factors_spy(factors, extra, b, pieces, flip):
        calls.clear()
        out = cancel_factors(factors, extra, b, pieces, flip)
        finals.append((abs(b).bit_length(), calls[-1]))
        return out

    cur = _sample()
    with mock.patch.multiple(evolution, _cancel=cancel_spy, _cancel_factors=cancel_factors_spy):
        large = []
        for i, direction in enumerate(["forward"] * n + ["backward"] * n):
            finals.clear()
            cur = orbit_step(fam, cur, direction)
            if i:
                large += [smaller for bits, smaller in finals if bits >= 1000]
    assert len(large) >= 50, len(large)
    assert max(large) < 64, sorted(large)[-5:]


def test_threads_step_orbits_from_an_empty_piece_table(families):
    """D5, E6 and E7 orbits and their f/g swaps, forward and then back, from
    4 threads at once, equal the serial orbits."""
    sample = _sample()
    jobs = [(name, st0) for name in ("D5", "E6", "E7") for st0 in (sample, _swapped(sample))]

    def run(job):
        name, st0 = job
        n = _LONG_STEPS[name]
        return _walk(families[name], st0, ["forward"] * n + ["backward"] * n)

    want = [run(job) for job in jobs]
    assert all(w[-1] == st0 for w, (_, st0) in zip(want, jobs))
    got = [None] * len(jobs)
    barrier = threading.Barrier(4)

    def worker(k):
        barrier.wait(timeout=60)
        for i in range(k, len(jobs), 4):
            got[i] = run(jobs[i])

    _clear_pieces()
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
