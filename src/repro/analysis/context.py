"""Shared analysis state handed to every pass.

An :class:`AnalysisContext` wraps one compiled specification plus the MIB
tree and lazily derives the expensive structures the semantic passes
share: the consistency :class:`FactSet`, interned :class:`MibView`
objects, and the PR-1 :class:`PermissionIndex`.  Building the context is
cheap; each derived structure is computed on first use and reused by all
passes in the run.

Extension-table information (``extensions``, ``keyword_table``,
``extension_decltypes``) is optional: it is present when the context is
built through :meth:`repro.nmsl.compiler.NmslCompiler.analysis_context`
and absent for bare ``Specification`` objects, in which case the
dead-extension pass simply has nothing to analyze.  ``checker`` is
optional too: given a warm ``ConsistencyChecker`` of the specification
(``nmsld``'s session), the passes read its fact set and views.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.consistency.facts import FactSet, IncrementalFactGenerator
from repro.consistency.index import PermissionIndex
from repro.mib.tree import MibTree
from repro.mib.view import MibView
from repro.nmsl.actions import KeywordTable
from repro.nmsl.extension import Extension
from repro.nmsl.specs import Specification


@dataclass
class AnalysisContext:
    """Everything an analysis pass may consult."""

    specification: Specification
    tree: MibTree
    filename: str = "<nmsl>"
    extensions: Tuple[Extension, ...] = ()
    extension_files: Tuple[str, ...] = ()
    extension_decltypes: Tuple[str, ...] = ()
    keyword_table: Optional[KeywordTable] = None
    checker: Optional[object] = None

    _facts: Optional[FactSet] = field(default=None, init=False, repr=False)
    _index: Optional[PermissionIndex] = field(
        default=None, init=False, repr=False
    )
    #: Interns the views: ``checker`` when given, else one of our own.
    _generator: object = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._generator = self.checker or IncrementalFactGenerator(self.tree)

    @property
    def facts(self) -> FactSet:
        if self._facts is None:
            self._facts = (
                self.checker.facts if self.checker is not None
                else self._generator.generate(self.specification)
            )
        return self._facts

    @property
    def index(self) -> PermissionIndex:
        if self._index is None:
            # The generator's interner, not a bound method of this
            # context: index -> context would be a reference cycle, and
            # a request's context must die by reference count.
            self._index = PermissionIndex(self.facts, self._generator.view)
        return self._index

    def view(self, paths: Sequence[str]) -> MibView:
        """The interned view for a paths-tuple (unknown paths dropped)."""
        return self._generator.view(paths)

    def is_user_type_path(self, path: str) -> bool:
        """Does *path* name a user-specified type rather than MIB data?

        Mirrors the compiler's lookup rule (paper Figure 4.2 defines
        ``ipAddrTable`` as a type of its own): the head segment or the
        whole path may name a ``type`` specification.
        """
        head = path.split(".")[0]
        types = self.specification.types
        return head in types or path in types
