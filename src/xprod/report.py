"""Condition reports with deterministic smallest witnesses."""

from __future__ import annotations

from .record import record


@record
class Witness:
    """A failing basis tuple together with both evaluated sides.

    ``indices`` are basis indices of the condition's input factors in the
    order the condition quantifies over them; ``left`` and ``right`` are the
    two evaluated side vectors, so the inequality can be reproduced by hand.
    ``identity`` names the violated identity when a condition bundles more
    than one.
    """

    indices: tuple[int, ...]
    left: tuple
    right: tuple
    identity: str = ""


@record
class ConditionResult:
    name: str
    passed: bool
    witness: Witness | None = None
    informational: bool = False


@record
class Report:
    """Ordered list of named condition results."""

    entries: tuple[ConditionResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(e.passed for e in self.entries if not e.informational)

    def get(self, name: str) -> ConditionResult:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def failed_names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries if not e.passed and not e.informational)

    def restricted(self, names) -> "Report":
        wanted = set(names)
        return Report(tuple(e for e in self.entries if e.name in wanted))


def merge(*reports: Report) -> Report:
    entries: list[ConditionResult] = []
    for r in reports:
        entries.extend(r.entries)
    return Report(tuple(entries))
