"""Per-layer tracing of qpweyl from outside the package.

``Tracer.install`` replaces public functions of the package by wrappers at
the place where each name is looked up (``qpweyl.identity.evaluate``,
``qpweyl.weyl.compose``, ``ConstraintRelation.apply``, ...).  Each call
records a span (name, start, end, parent, request) in memory; ``uninstall``
restores the originals.  Self time is a span's duration minus the durations
of its child spans.  The layer of a span is the part of its name before the
first dot: ``cli``, ``expr``, ``identity``, ``weyl``, ``lax`` and
``evolution``, plus ``bench`` for the harness itself.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

from qpweyl import cli, evolution, expr, identity, lax, weyl
from qpweyl.identity import ConstraintRelation, ExactPathUnavailable
from qpweyl.weyl import FamilyDescriptor

LAYERS = ("cli", "expr", "identity", "weyl", "lax", "evolution")

#: (owner, attribute, span name): every place a traced name is looked up.
SITES = (
    (cli, "main", "cli.main"),
    (cli, "make_family", "weyl.make_family"),
    (cli, "verify_relations", "weyl.verify_relations"),
    (weyl, "verify_involutions", "weyl.verify_involutions"),
    (cli, "word_to_transform", "weyl.word_to_transform"),
    (lax, "word_to_transform", "weyl.word_to_transform"),
    (evolution, "word_to_transform", "weyl.word_to_transform"),
    (weyl, "compose", "weyl.compose"),
    (evolution, "compose", "weyl.compose"),
    (FamilyDescriptor, "with_generator", "weyl.with_generator"),
    (weyl, "identities_equal", "identity.identities_equal"),
    (lax, "identities_equal", "identity.identities_equal"),
    (evolution, "identities_equal", "identity.identities_equal"),
    (ConstraintRelation, "apply", "identity.constraint"),
    (identity, "exact_zero", "identity.exact_zero"),
    (identity, "evaluate", "expr.evaluate"),
    (identity, "substitute", "expr.substitute"),
    (weyl, "substitute", "expr.substitute"),
    (evolution, "substitute", "expr.substitute"),
    (lax, "substitute", "expr.substitute"),
    (weyl, "parse", "expr.parse"),
    (evolution, "parse", "expr.parse"),
    (lax, "parse", "expr.parse"),
    (cli, "parse", "expr.parse"),
    (cli, "to_string", "expr.to_string"),
    (cli, "to_latex", "expr.to_string"),
    (cli, "verify_gauge_claims", "lax.verify_gauge_claims"),
    (lax, "build_L1", "lax.gauge_build"),
    (lax, "apply_gauge", "lax.gauge_build"),
    (lax, "substitute_params", "lax.gauge_build"),
    (lax, "equations_equivalent", "lax.equations_equivalent"),
    (cli, "verify_theorem_i", "evolution.verify_theorem_i"),
    (evolution, "verify_theorem_i", "evolution.verify_theorem_i"),
    (cli, "verify_theorem_ii", "evolution.verify_theorem_ii"),
    (evolution, "time_evolution", "evolution.time_evolution"),
    (evolution, "orbit_step", "evolution.orbit_step"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []          # (name, start, end, parent, request)
        self.stack: list[int] = []
        self.request = -1
        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()
        self.residuals: list = []      # residual node of each identity check
        self.steps: list = []          # (request, direction, seconds) per orbit step
        self._want_residual = False
        self._saved: list = []
        self._hooks = {
            "expr.evaluate": self._on_evaluate,
            "identity.identities_equal": self._on_identity,
            "identity.exact_zero": self._on_exact,
            "expr.to_string": self._on_print,
            "evolution.orbit_step": self._on_step,
        }

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        hook = self._hooks.get(name)
        before = name == "identity.identities_equal"

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            if before:
                self._want_residual = True
            result = error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.request)
                if hook is not None:
                    hook(args, kwargs, result, error, end - start)

        return traced

    def install(self) -> None:
        for owner, attr, name in SITES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- hooks ------------------------------------------------------------

    def _on_evaluate(self, args, kwargs, result, error, seconds):
        if self._want_residual:
            self._want_residual = False
            self.residuals.append(args[0])
        prime = args[2] if len(args) > 2 else kwargs.get("p")
        if prime is not None:
            self.counts["eval_fp"] += 1
            self.seconds["eval_fp"] += seconds

    def _on_identity(self, args, kwargs, result, error, seconds):
        self.counts["checks"] += 1
        if result is not None:
            self.counts["trials"] += result.trials
            self.counts["resamples"] += result.resamples
            self.counts["refuted"] += result.verdict == "unequal"

    def _on_exact(self, args, kwargs, result, error, seconds):
        self.counts["exact_attempts"] += 1
        if isinstance(error, ExactPathUnavailable):
            self.counts["exact_unavailable"] += 1
            self.seconds["exact_wasted"] += seconds
        elif result:
            self.counts["exact_proved"] += 1

    def _on_print(self, args, kwargs, result, error, seconds):
        if result is not None:
            self.counts["print_bytes"] += len(result.encode())

    def _on_step(self, args, kwargs, result, error, seconds):
        direction = args[2] if len(args) > 2 else kwargs.get("direction", "forward")
        self.steps.append((self.request, direction, seconds))
        if isinstance(error, evolution.PoleError):
            self.counts["poles"] += 1

    # -- results ----------------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: (calls, inclusive seconds); per layer: self seconds."""
        calls: Counter = Counter()
        inclusive: defaultdict = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            inclusive[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time: defaultdict = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name.split(".", 1)[0]] += end - start - child[i]
        return calls, inclusive, self_time

    def late_step_seconds(self) -> float:
        """Mean duration of the last quarter of the forward steps of each orbit."""
        by_request: defaultdict = defaultdict(list)
        for request, direction, seconds in self.steps:
            if direction == "forward":
                by_request[request].append(seconds)
        late = []
        for durations in by_request.values():
            late += durations[-max(1, len(durations) // 4):]
        return sum(late) / len(late) if late else 0.0

    def write_jsonl(self, path) -> None:
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                handle.write(json.dumps({"id": i, "name": name, "start": start - base,
                                         "end": end - base, "parent": parent,
                                         "request": request}) + "\n")


def intern_nodes() -> int:
    """Size of the hash-consing table, which never evicts."""
    return len(expr._INTERN)
