"""Check records shared by the verification suites and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckResult:
    id: str
    status: str                       # "pass" | "fail" | "degenerate"
    witness: dict[str, int] | None = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "pass"


@dataclass
class Report:
    checks: list[CheckResult] = field(default_factory=list)

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
