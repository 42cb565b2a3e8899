"""Exception types shared across the package.  Each class names the command line's
exit code: 1 an axiom failure, 2 an input error, 3 :class:`InternalCheckError` alone,
also for a check the paper's theorems settle.  A law that fails at a basis tuple
raises a :class:`LawFailure` holding its check's ``Witness``; :class:`NotAssociative`,
which escapes only for a given table, holds a basis triple and both sides."""

from __future__ import annotations


class XprodError(Exception):
    """Base class for all errors raised by this package.  A subclass must name
    its code, as in ``class ShapeMismatch(XprodError, exit_code=2)``; the base
    itself is never raised, and would be an internal error."""

    exit_code = 3

    def __init_subclass__(cls, exit_code, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.exit_code = exit_code


class ShapeMismatch(XprodError, exit_code=2):
    """Dimensions of maps, vectors or shapes do not line up."""


class FieldMismatch(XprodError, exit_code=2):
    """Operands live over different fields."""


class NotAssociative(XprodError, exit_code=1):
    """Structure constants fail associativity on a basis triple."""

    def __init__(self, witness, left, right):
        self.witness = tuple(witness)
        self.left = tuple(left)
        self.right = tuple(right)
        super().__init__(f"associativity fails at basis triple {self.witness}")


class LawFailure(XprodError, exit_code=1):
    """A law fails at a basis tuple: ``witness`` is the :class:`~xprod.report.Witness`
    its check found, and ``which`` names the condition where a subclass reports
    several.  The message is the subclass's ``template`` read off both."""

    template = "{w.identity} fails at basis vector {w.indices[0]}"

    def __init__(self, witness, which=None):
        self.witness, self.which = witness, which
        super().__init__(self.template.format(w=witness, which=which))


class NotUnital(LawFailure, exit_code=1):
    """The designated unit fails a unit law on a basis vector."""


class NotCoassociative(LawFailure, exit_code=1):
    """Comultiplication fails coassociativity on a basis vector."""


class CounitFail(LawFailure, exit_code=1):
    """Counit law fails on a basis vector."""


class UnitNotGrouplike(XprodError, exit_code=1):
    """The distinguished coalgebra element is not grouplike or not counital."""


class AxiomFailure(XprodError, exit_code=1):
    """A precondition check produced a failing report."""

    def __init__(self, report, message):
        self.report = report
        super().__init__(f"{message}: {', '.join(report.failed_names())}")


class UnitMismatch(XprodError, exit_code=1):
    """The algebra unit is not the expected tensor of component units."""


class NotAlgebraMap(XprodError, exit_code=1):
    """A map required to be a unital algebra map is not one."""

    def __init__(self, which, report):
        self.which = which
        self.report = report
        super().__init__(f"{which} is not a unital algebra map")


class SplitFail(LawFailure, exit_code=1):
    """A product escapes the subspace required by a splitting condition."""

    template = "splitting condition {which} fails at {w.indices}"


class PremiseFail(LawFailure, exit_code=1):
    """A premise of the universal factorization does not hold."""

    template = "premise {which} fails at {w.indices}"


class SearchSpaceTooLarge(XprodError, exit_code=2):
    """Exhaustive enumeration would exceed the configured cap."""

    def __init__(self, size, cap):
        self.size = size
        self.cap = cap
        super().__init__(f"search space has {size} candidates, cap is {cap}")


class PreconditionFail(XprodError, exit_code=2):
    """An operation was called on data outside its stated domain."""


class InternalCheckError(XprodError, exit_code=3):
    """Two routes to ``what`` disagreed: ``routes`` names them, and ``witness``
    (or None) holds the first basis tuple where they differ, and both sides."""

    def __init__(self, what, routes, witness=None):
        self.routes, self.witness = tuple(routes), witness
        at = "" if witness is None else f" at {witness.indices}"
        super().__init__(f"{what}: {' and '.join(self.routes)} disagree{at}")


class DocumentError(XprodError, exit_code=2):
    """Input document is syntactically or semantically invalid."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")
