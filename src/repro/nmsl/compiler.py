"""The NMSL Compiler driver (paper Figure 3.1 / Section 6).

``NmslCompiler`` ties the pieces together:

1. **pass 1** — :class:`repro.nmsl.generic.GenericParser` parses the
   generalized grammar;
2. **pass 2** — :class:`repro.nmsl.semantics.SpecificationBuilder` runs
   the generic actions (semantic checks, typed-spec construction);
3. **output** — :meth:`generate` runs the output-specific actions for one
   requested output type ("Each run of the compiler executes the generic
   actions and one type of output specific action").

Extensions are applied at construction: their keyword entries and
decltypes are prepended to the keyword table, their declaration-level
actions prepended to the output registry, and their clause-level actions
installed in the clause-action table.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.asn1.types import Asn1Module
from repro.errors import CodegenError, NmslSemanticError
from repro.mib.mib1 import build_mib1
from repro.mib.tree import MibTree
from repro.nmsl.actions import (
    KeywordTable,
    OutputContext,
    OutputRegistry,
)
from repro.nmsl.extension import ClauseRenderer, Extension
from repro.nmsl.generic import Declaration, GenericParser
from repro.nmsl.outputs import EPILOGUE, register_base_outputs
from repro.nmsl.semantics import BuildReport, DeclarationStore, SpecificationBuilder
from repro.nmsl.specs import Specification


@dataclass
class CompilerOptions:
    """Configuration for a compiler instance.

    ``extension_files`` optionally names the source file of each entry in
    ``extensions`` (same order); the static analyzer uses it to anchor
    dead-extension-entry diagnostics.
    """

    filename: str = "<nmsl>"
    strict: bool = True
    extensions: Tuple[Extension, ...] = ()
    extension_files: Tuple[str, ...] = ()
    register_codegen: bool = True


@dataclass
class CompileResult:
    """Everything produced by one compile run: of pass 1, only the
    source order of the declarations, as ``(decltype, name)``."""

    order: List[Tuple[str, str]]
    specification: Specification
    report: BuildReport

    def __post_init__(self):
        # Handed pass 1's declarations (parse() and build() run by hand),
        # keep their order and nothing else.
        if self.order and isinstance(self.order[0], Declaration):
            self.order = [(d.decltype, d.name) for d in self.order]

    @property
    def ok(self) -> bool:
        return not self.report.errors


@dataclass
class OutputUnit:
    """One chunk of generated output, attributed to its declaration."""

    name: str
    decltype: str
    text: str


@dataclass
class OutputBundle:
    """All output of one :meth:`NmslCompiler.generate` run."""

    tag: str
    units: List[OutputUnit] = field(default_factory=list)

    def text(self) -> str:
        return "\n".join(unit.text for unit in self.units if unit.text) + "\n"

    def unit_for(self, name: str) -> Optional[OutputUnit]:
        for unit in self.units:
            if unit.name == name:
                return unit
        return None


class NmslCompiler:
    """The NMSL compiler with extension support."""

    def __init__(self, options: Optional[CompilerOptions] = None):
        self.options = options or CompilerOptions()
        self.module = Asn1Module()
        self.tree: MibTree = build_mib1(self.module)
        self.keyword_table = KeywordTable()
        self.registry = output_registry(self.options.register_codegen)
        #: clause-level extension actions: (tag, decltype, keyword) -> renderer
        self.clause_actions: Dict[Tuple[str, str, str], ClauseRenderer] = {}
        self.extension_decltypes: List[str] = []
        for extension in self.options.extensions:
            self.apply_extension(extension)

    # ------------------------------------------------------------------
    # Extensions.
    # ------------------------------------------------------------------
    def apply_extension(self, extension: Extension) -> None:
        """Prepend an extension's tables (paper Section 6.3 semantics)."""
        for entry in extension.keywords:
            self.keyword_table.prepend(entry)
        self.extension_decltypes.extend(extension.decltypes)
        for action in extension.actions:
            if action.keyword is None:
                renderer = action.renderer()

                def decl_action(context, spec, _render=renderer):
                    name = getattr(spec, "name", "")
                    return _render(name, ())

                self.registry.prepend(action.tag, action.decltype, decl_action)
            else:
                key = (action.tag, action.decltype, action.keyword)
                self.clause_actions[key] = action.renderer()

    # ------------------------------------------------------------------
    # Compilation.
    # ------------------------------------------------------------------
    def parse(self, text: str) -> List[Declaration]:
        """Pass 1 only."""
        return GenericParser(text, self.options.filename).parse_declarations()

    def recipe(self) -> tuple:
        """What a build reads besides the text and the MIB tree: the
        keyword table, the extension decltypes, the clause actions' keys."""
        return (tuple(self.keyword_table.entries), tuple(self.extension_decltypes),
                tuple(sorted(self.clause_actions)))

    def compile(
        self, text: str, strict: Optional[bool] = None,
        store: Optional[DeclarationStore] = None,
    ) -> CompileResult:
        """Pass 1 + pass 2: returns the typed specification.  Pass 2
        builds each declaration as pass 1 reads it, and only the order
        of the declarations is kept.  Given a *store*, a declaration
        whose text it holds is taken from it instead of being built, and
        one built clean is put in it."""
        o = obs.current()
        stored = store is not None
        with o.span("compile", file=self.options.filename) as span:
            parser = GenericParser(text, self.options.filename, spans=stored)
            builder = SpecificationBuilder(
                self.tree,
                self.module,
                self.keyword_table,
                extension_decltypes=self.extension_decltypes,
                shelf=store.shelf(self.recipe()) if stored else None,
            )
            effective_strict = self.options.strict if strict is None else strict
            with o.span("compile.pass2"):
                specification = builder.build(
                    parser.iter_declarations(builder.reuse if stored else None),
                    strict=effective_strict,
                )
            order = builder.order
            if o.enabled:
                span.annotate(
                    bytes=len(text.encode("utf-8")),
                    clauses=builder.clauses,
                    tokens=parser.tokens_built,
                    declarations=len(order),
                    errors=len(builder.report.errors),
                    warnings=len(builder.report.warnings),
                )
                if stored:
                    span.annotate(built=len(order) - builder.reused, reused=builder.reused)
        if o.enabled:
            o.counter("repro_compile_runs_total", "compile invocations").inc()
            if builder.report.errors:
                o.counter(
                    "repro_compile_errors_total", "semantic errors reported"
                ).inc(len(builder.report.errors))
            if builder.report.warnings:
                o.counter(
                    "repro_compile_warnings_total", "semantic warnings reported"
                ).inc(len(builder.report.warnings))
        return CompileResult(
            order=order,
            specification=specification,
            report=builder.report,
        )

    def analysis_context(self, result: CompileResult):
        """An :class:`AnalysisContext` for this compile, with extension
        tables attached so every static-analysis pass can run."""
        from repro.analysis.context import AnalysisContext

        return AnalysisContext(
            specification=result.specification,
            tree=self.tree,
            filename=self.options.filename,
            extensions=self.options.extensions,
            extension_files=self.options.extension_files,
            extension_decltypes=tuple(self.extension_decltypes),
            keyword_table=self.keyword_table,
        )

    # ------------------------------------------------------------------
    # Output generation.
    # ------------------------------------------------------------------
    def generate(self, tag: str, result: CompileResult, facts=None) -> OutputBundle:
        """All output units of *tag* (see :meth:`units`), in one bundle."""
        return OutputBundle(tag, list(self.units(tag, result, facts)))

    def units(
        self, tag: str, result: CompileResult, facts=None
    ) -> Iterator[OutputUnit]:
        """Run the output-specific actions for *tag* over every
        declaration, yielding each unit as it is rendered.

        *facts* is the :class:`~repro.consistency.facts.FactSet` of
        ``result.specification`` when the caller already holds one (a
        checker's ``checked_facts``); the actions read it instead of
        expanding their own.  A declaration of an extension decltype is
        handed over raw, from ``specification.extras``.
        """
        specification = result.specification
        tables = {
            "type": specification.types,
            "process": specification.processes,
            "system": specification.systems,
            "domain": specification.domains,
        }
        extras = {key: iter(raw) for key, raw in specification.extras.items()}
        with generation(
            tag, specification, self.registry, self.clause_actions,
            tree=self.tree, facts=facts,
        ) as run:
            for decltype, name in result.order:
                spec = tables[decltype].get(name) if decltype in tables else (
                    next(extras.get(decltype, iter(())), None)
                )
                text = run.unit(decltype, name, spec)
                if text is not None:
                    yield OutputUnit(name, decltype, text)
            epilogue = run.actions.get(EPILOGUE)
            if epilogue is not None:
                chunk = epilogue(run.context, specification)
                if chunk:
                    run.units += 1
                    yield OutputUnit("", EPILOGUE, chunk)


def output_registry(register_codegen: bool = True) -> OutputRegistry:
    """The basic language's output actions: ``consistency``'s and, unless
    *register_codegen* is false, every configuration output type's."""
    registry = OutputRegistry()
    register_base_outputs(registry)
    if register_codegen:
        from repro.codegen import register_all

        register_all(registry)
    return registry


class Generation:
    """One output run of a tag: the context its actions read, the
    actions, and the units they render (see :func:`generation`)."""

    def __init__(self, tag, registry, clause_actions, context):
        self.tag = tag
        self.context = context
        #: decltype -> this tag's action, looked up once per run.
        self.actions = registry.actions(tag)
        #: (decltype, keyword) -> this tag's extension clause renderer.
        self.clause_actions = {
            (decltype, keyword): renderer
            for (clause_tag, decltype, keyword), renderer in clause_actions.items()
            if clause_tag == tag
        }
        #: output units rendered so far (the ``units`` the run reports).
        self.units = 0

    def unit(self, decltype: str, name: str, spec) -> Optional[str]:
        """The output unit of declaration *name*: the action's chunk of
        *spec*, then the chunks of its extension clauses, joined;
        ``None`` when there is none."""
        chunks: List[str] = []
        action = self.actions.get(decltype)
        if action is not None and spec is not None:
            o = obs.current()
            if o.enabled:
                with o.span(
                    "codegen.action", tag=self.tag, decltype=decltype,
                    declaration=name,
                ):
                    chunk = action(self.context, spec)
                o.counter(
                    "repro_codegen_actions_total",
                    "output-specific actions dispatched",
                    tag=self.tag,
                    decltype=decltype,
                ).inc()
            else:
                chunk = action(self.context, spec)
            if chunk:
                chunks.append(chunk)
        if self.clause_actions:
            stored = self.context.specification.extension_clauses.get(
                (decltype, name), ()
            )
            for keyword, args in stored:
                renderer = self.clause_actions.get((decltype, keyword))
                if renderer is not None:
                    chunks.append(renderer(name, args))
        if not chunks:
            return None
        self.units += 1
        return "\n".join(chunks)


@contextmanager
def generation(
    tag: str,
    specification: Specification,
    registry: OutputRegistry,
    clause_actions: Mapping[Tuple[str, str, str], ClauseRenderer],
    *,
    tree: MibTree,
    facts=None,
) -> Iterator[Generation]:
    """One output run of *tag* over *specification*, traced.

    The compiler's walk of its declarations and
    :func:`repro.codegen.base.element_documents`' walk of the typed
    tables both run in here: one ``codegen.generate`` span, a
    ``codegen.action`` span per action dispatched, and the
    ``repro_codegen_*`` metrics.  *facts*, when given, must have been
    expanded from *specification*.  A tag nothing renders is refused.
    """
    o = obs.current()
    with o.span("codegen.generate", tag=tag) as span:
        if facts is not None and facts.specification is not specification:
            raise CodegenError(
                "the fact set handed to generate() was expanded "
                "from another specification"
            )
        run = Generation(tag, registry, clause_actions, OutputContext(
            specification=specification, options={"tree": tree, "facts": facts}
        ))
        if not run.actions and not run.clause_actions:
            known = ", ".join(sorted(set(registry.tags())))
            raise CodegenError(
                f"no output actions registered for tag {tag!r} "
                f"(known: {known})"
            )
        yield run
        span.annotate(units=run.units)
    if o.enabled:
        o.histogram(
            "repro_codegen_generate_seconds",
            _help="per-generator (per-tag) output time",
            tag=tag,
        ).observe(round(span.elapsed, 9))
        o.counter(
            "repro_codegen_units_total",
            "output units produced",
            tag=tag,
        ).inc(run.units)

def compile_text(
    text: str,
    extensions: Sequence[Extension] = (),
    strict: bool = True,
    filename: str = "<nmsl>",
) -> Tuple[NmslCompiler, CompileResult]:
    """Convenience: build a compiler and compile *text* in one call."""
    compiler = NmslCompiler(
        CompilerOptions(
            filename=filename, strict=strict, extensions=tuple(extensions)
        )
    )
    return compiler, compiler.compile(text)
