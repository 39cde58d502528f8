"""Check records shared by the verification suites and the CLI, and the bases
of the package's record classes, which a fresh process builds faster than dataclasses."""

from __future__ import annotations


class Record:
    """A mutable record whose fields are the names in __slots__, in order: as a
    dataclass, equal to a record of its class with equal fields, unhashable."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def _replace(self, **changes):   # a copy with the given fields changed
        return type(self)(**({name: getattr(self, name) for name in self.__slots__} | changes))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """A Record compared by identity, whose fields __init__ sets once, in
    __slots__ order; assigning or deleting one raises AttributeError."""

    __slots__ = ()
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):   # and, without a value, __delattr__
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __setstate__(self, state):   # copy and pickle: (None, the fields by name)
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class Value(Frozen):
    """A Frozen record that compares, and hashes, by its fields."""

    __slots__ = ()
    __eq__ = Record.__eq__

    def __hash__(self) -> int:
        return hash(self._fields())


class CheckResult(Record):
    __slots__ = ("id", "status", "witness", "detail")

    def __init__(self, id: str, status: str,      # "pass" | "fail" | "degenerate"
                 witness: dict[str, int] | None = None, detail: str = ""):
        self.id, self.status, self.witness, self.detail = id, status, witness, detail

    @property
    def ok(self) -> bool:
        return self.status == "pass"


class Report(Record):
    __slots__ = ("checks",)

    def __init__(self, checks: list[CheckResult] | None = None):
        self.checks = [] if checks is None else checks

    def add(self, check: CheckResult) -> CheckResult:
        self.checks.append(check)
        return check

    def extend(self, other: "Report") -> None:
        self.checks.extend(other.checks)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def summary(self) -> dict[str, int]:
        counts = {"pass": 0, "fail": 0, "degenerate": 0}
        for c in self.checks:
            counts[c.status] = counts.get(c.status, 0) + 1
        counts["total"] = len(self.checks)
        return counts

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.ok]
