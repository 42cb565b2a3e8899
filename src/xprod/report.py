"""Condition reports with deterministic smallest witnesses, and the errors they raise."""

from __future__ import annotations

from .errors import AxiomFailure, InternalCheckError
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

    def require(self, message: str) -> "Report":
        """This report when every entry passes, else :class:`AxiomFailure`."""
        if not self.all_pass:
            raise AxiomFailure(self, message)
        return self

    def disagreement(self, what: str, routes) -> InternalCheckError:
        """The error for ``what`` failing this report though the first route implies it passes."""
        witness = next(e.witness for e in self.entries if not e.passed and not e.informational)
        return InternalCheckError(f"{', '.join(self.failed_names())} of {what}", routes, witness)

    def restricted(self, names) -> "Report":
        wanted = set(names)
        return Report(tuple(e for e in self.entries if e.name in wanted))
