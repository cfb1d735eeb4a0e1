"""Exception hierarchy for the NMSL reproduction.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single except clause.  Errors that point at
a location in source text carry a :class:`SourceLocation`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SourceLocation:
    """A position in an input text: file name, 1-based line and column."""

    filename: str = "<input>"
    line: int = 1
    column: int = 1

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"

    def relative_to(self, start: "SourceLocation") -> "SourceLocation":
        """This position as a built declaration keeps it: no file name,
        the line counted from *start*'s, and on that line the column
        counted from *start*'s too (see :meth:`at`)."""
        line = self.line - start.line
        return SourceLocation("", line, self.column - (0 if line else start.column - 1))

    def at(self, start: "SourceLocation") -> "SourceLocation":
        """A position :meth:`relative_to` *start* read back in *start*'s
        file; one with a file name (built by hand) is returned as is."""
        if self.filename:
            return self
        column = self.column + (0 if self.line else start.column - 1)
        return SourceLocation(start.filename, start.line + self.line, column)


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class LocatedError(ReproError):
    """An error anchored at a position in input text."""

    def __init__(self, message: str, location: SourceLocation | None = None):
        self.location = location or SourceLocation()
        self.message = message
        super().__init__(f"{self.location}: {message}")


class Asn1Error(LocatedError):
    """Error while lexing or parsing ASN.1 type notation."""


class BerError(ReproError):
    """Error while encoding or decoding BER octets."""


class MibError(ReproError):
    """Error in MIB tree construction or lookup."""


class OidError(MibError):
    """Malformed object identifier."""


class NmslSyntaxError(LocatedError):
    """Pass-1 (generalized grammar) parse error in an NMSL specification."""


class NmslSemanticError(LocatedError):
    """Pass-2 (action) semantic error in an NMSL specification."""


class ExtensionError(ReproError):
    """Malformed extension-language input."""


class ClprError(ReproError):
    """Error in the CLP(R) engine."""


class ClprSyntaxError(LocatedError, ClprError):
    """Parse error in CLP(R) program text."""


class ConstraintError(ClprError):
    """An arithmetic constraint could not be represented or solved."""


class ConsistencyError(ReproError):
    """Error while building or running a consistency check."""


class CodegenError(ReproError):
    """Error while generating or shipping configuration output."""


class TransportError(CodegenError):
    """A configuration shipment could not be delivered (after retries)."""


class SnmpError(ReproError):
    """Error in the SNMP substrate."""


class AgentDownError(SnmpError):
    """The addressed agent has crashed and is not serving requests."""


class SimulationError(ReproError):
    """Error in the discrete-event network simulator."""


class RolloutError(ReproError):
    """Error in the fault-tolerant configuration rollout layer."""


class DeliveryError(RolloutError):
    """A protocol exchange with an element failed outright."""


class DeliveryTimeout(DeliveryError):
    """A protocol exchange produced no answer within the deadline."""


class JournalError(RolloutError):
    """The rollout journal is unreadable, inconsistent, or mismatched."""


class RolloutVetoed(RolloutError):
    """A campaign was refused by its relational gate.

    Raised before any element is touched when the impact set backing a
    gated rollout contains unwaived blocking findings (an NM401
    access-widening grant, typically) — shipping would widen access
    without an explicit waiver.
    """


class CoordinatorCrash(RolloutError):
    """The coordinator process was killed mid-campaign (chaos hook).

    Raised by :class:`~repro.rollout.coordinator.RolloutCoordinator` when
    its ``crash_coordinator_after`` chaos hook fires; the durable journal
    written up to that point is what :meth:`resume` recovers from.
    """


class HealError(ReproError):
    """Error in the self-healing reconciliation layer."""


class ServiceError(ReproError):
    """Error in the ``nmsld`` management-plane service layer."""


class DeadlineExceeded(ServiceError):
    """A cooperative deadline expired while a request was being served.

    Raised by :meth:`repro.deadline.Deadline.check` — long-running
    engines (the consistency checker, the rollout coordinator, the heal
    reconciler) poll their request's deadline at safe points and abort
    with this instead of running to completion.  The service layer maps
    it to a structured 504-style response.
    """

    def __init__(self, where: str, at_s: float, now_s: float):
        self.where = where
        self.at_s = at_s
        self.now_s = now_s
        super().__init__(
            f"deadline expired in {where or 'request'}: "
            f"now={now_s:.6f}s deadline={at_s:.6f}s"
        )
