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
