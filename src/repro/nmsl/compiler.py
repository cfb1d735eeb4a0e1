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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

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
from repro.nmsl.semantics import BuildReport, SpecificationBuilder
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
    """Everything produced by one compile run."""

    declarations: List[Declaration]
    specification: Specification
    report: BuildReport

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
        self.registry = OutputRegistry()
        register_base_outputs(self.registry)
        if self.options.register_codegen:
            from repro.codegen import register_all

            register_all(self.registry)
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
        o = obs.current()
        with o.span("compile.pass1", file=self.options.filename) as span:
            parser = GenericParser(text, self.options.filename)
            declarations = parser.parse_declarations()
            if o.enabled:
                span.annotate(
                    bytes=len(text.encode("utf-8")),
                    clauses=sum(len(d.clauses) for d in declarations),
                    tokens=parser.tokens_built,
                )
        return declarations

    def compile(self, text: str, strict: Optional[bool] = None) -> CompileResult:
        """Pass 1 + pass 2: returns the typed specification."""
        o = obs.current()
        with o.span("compile", file=self.options.filename) as span:
            declarations = self.parse(text)
            builder = SpecificationBuilder(
                self.tree,
                self.module,
                self.keyword_table,
                extension_decltypes=self.extension_decltypes,
            )
            effective_strict = self.options.strict if strict is None else strict
            with o.span("compile.pass2", declarations=len(declarations)):
                specification = builder.build(
                    declarations, strict=effective_strict
                )
            span.annotate(
                declarations=len(declarations),
                errors=len(builder.report.errors),
                warnings=len(builder.report.warnings),
            )
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
            declarations=declarations,
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
        """Run the output-specific actions for *tag* over every declaration.

        *facts* is the :class:`~repro.consistency.facts.FactSet` of
        ``result.specification`` when the caller already holds one (a
        checker's ``checked_facts``); the actions read it instead of
        expanding their own.
        """
        o = obs.current()
        with o.span("codegen.generate", tag=tag) as span:
            specification = result.specification
            options = {"tree": self.tree, "module": self.module}
            if facts is not None:
                if facts.specification is not specification:
                    raise CodegenError(
                        "the fact set handed to generate() was expanded "
                        "from another specification"
                    )
                options["facts"] = facts
            context = OutputContext(specification=specification, options=options)
            bundle = OutputBundle(tag=tag)
            produced_any = False
            for declaration in result.declarations:
                spec_obj = self._typed_spec_for(specification, declaration)
                chunks: List[str] = []
                action = self.registry.lookup(tag, declaration.decltype)
                if action is not None and spec_obj is not None:
                    context.declaration = declaration
                    if o.enabled:
                        with o.span(
                            "codegen.action",
                            tag=tag,
                            decltype=declaration.decltype,
                            declaration=declaration.name,
                        ):
                            chunk = action(context, spec_obj)
                        o.counter(
                            "repro_codegen_actions_total",
                            "output-specific actions dispatched",
                            tag=tag,
                            decltype=declaration.decltype,
                        ).inc()
                    else:
                        chunk = action(context, spec_obj)
                    if chunk:
                        chunks.append(chunk)
                chunks.extend(
                    self._clause_chunks(tag, declaration, specification)
                )
                if chunks:
                    produced_any = True
                    bundle.units.append(
                        OutputUnit(
                            name=declaration.name,
                            decltype=declaration.decltype,
                            text="\n".join(chunks),
                        )
                    )
            epilogue = self.registry.lookup(tag, EPILOGUE)
            if epilogue is not None:
                context.declaration = None
                chunk = epilogue(context, specification)
                if chunk:
                    produced_any = True
                    bundle.units.append(OutputUnit("", EPILOGUE, chunk))
            if not produced_any and tag not in self.registry.tags():
                known = ", ".join(sorted(set(self.registry.tags())))
                raise CodegenError(
                    f"no output actions registered for tag {tag!r} "
                    f"(known: {known})"
                )
            span.annotate(units=len(bundle.units))
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
            ).inc(len(bundle.units))
        return bundle

    def _clause_chunks(
        self, tag: str, declaration: Declaration, specification: Specification
    ) -> List[str]:
        stored = specification.extension_clauses.get(
            (declaration.decltype, declaration.name), []
        )
        chunks = []
        for keyword, args in stored:
            renderer = self.clause_actions.get((tag, declaration.decltype, keyword))
            if renderer is not None:
                chunks.append(renderer(declaration.name, args))
        return chunks

    @staticmethod
    def _typed_spec_for(specification: Specification, declaration: Declaration):
        table = {
            "type": specification.types,
            "process": specification.processes,
            "system": specification.systems,
            "domain": specification.domains,
        }.get(declaration.decltype)
        if table is None:
            return declaration  # extension decltype: hand over raw declaration
        return table.get(declaration.name)


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
