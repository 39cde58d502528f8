"""Print the seconds a fresh process spends importing qpweyl and building the
D5, E6 and E7 tables, linear equations and time evolutions, and the
calibration factor measured around it (see calibrate.py).

Usage: python3 bench/setup_probe.py <directory holding the qpweyl package>
"""

import sys
from time import perf_counter

import calibrate

samples = [calibrate.reference() for _ in range(20)]
start = perf_counter()
sys.path.insert(0, sys.argv[1])
import qpweyl  # noqa: E402

for name in qpweyl.FAMILY_NAMES:
    family = qpweyl.make_family(name)
    qpweyl.build_L1(family)
    qpweyl.time_evolution(family)
elapsed = perf_counter() - start
samples += [calibrate.reference() for _ in range(20)]
print(repr(elapsed), repr(calibrate.factor(samples)))
