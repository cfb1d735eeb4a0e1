"""Pass 2 generic actions: semantic checking and typed-spec construction.

The :class:`SpecificationBuilder` walks generalized declarations, segments
each clause with the keyword table, validates it ("their first task is to
determine if the specifications parsed by the first pass are valid") and
builds the typed model of :mod:`repro.nmsl.specs`.  A final :meth:`link`
phase checks cross-references between specifications (process invocations,
domain membership, query targets).

Errors are collected, not raised one at a time, so an administrator sees
every problem in one run; ``strict`` mode raises at the end when any were
found.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from functools import partial
from sys import intern
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.asn1.parser import parse_type as parse_asn1_type
from repro.asn1.types import Asn1Module
from repro.errors import (
    Asn1Error,
    MibError,
    NmslSemanticError,
    ReproError,
    SourceLocation,
)
from repro.mib.tree import Access, MibTree
from repro.nmsl.actions import KeywordTable, Subclause, segment_clause
from repro.nmsl.frequency import FrequencySpec
from repro.nmsl.generic import Declaration, GenericClause, GenericParser
from repro.nmsl.lexer import NUMBER, PERIOD, PUNCT, STRING, WORD, NmslToken
from repro.nmsl.specs import (
    TABLE_OF,
    WILDCARD,
    DomainSpec,
    ExportSpec,
    InterfaceSpec,
    ProcessInvocation,
    ProcessSpec,
    ProxySpec,
    QuerySpec,
    Specification,
    SystemSpec,
    TypeSpec,
    PUBLIC_DOMAIN,
)

#: Parameter type name whose values name processes/systems (Figure 4.4).
PROCESS_PARAM_TYPE = "Process"


def join_wrapped_paths(tokens: Sequence[NmslToken]) -> List[NmslToken]:
    """Merge ``WORD PERIOD WORD`` runs into single dotted-path tokens.

    The paper wraps long MIB paths across lines (Figure 4.4:
    ``mgmt.mib.ip.ipAddrTable.`` / ``IpAddrEntry.ipAdEntAddr``); the lexer
    splits the trailing dot off, so rejoin it here.
    """
    merged: List[NmslToken] = []
    for token in tokens:
        if (
            len(merged) >= 2
            and merged[-1].kind == PERIOD
            and merged[-2].kind == WORD
            and token.kind == WORD
        ):
            merged.pop()  # the PERIOD
            previous = merged.pop()
            merged.append(
                NmslToken(
                    WORD,
                    previous.text + "." + token.text,
                    previous.location,
                    previous.start,
                    token.end,
                )
            )
            continue
        merged.append(token)
    return merged


@dataclass
class BuildReport:
    """Problems found during pass 2."""

    errors: List[NmslSemanticError] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    def error(self, message: str, location: Optional[SourceLocation] = None) -> None:
        self.errors.append(NmslSemanticError(message, location))

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def summary(self) -> str:
        lines = [str(error) for error in self.errors]
        lines.extend(f"warning: {warning}" for warning in self.warnings)
        return "\n".join(lines)


class SpecificationBuilder:
    """Builds a :class:`Specification` from generalized declarations,
    taking from and putting on *shelf* (:class:`DeclarationStore`)."""

    def __init__(
        self,
        mib_tree: MibTree,
        asn1_module: Optional[Asn1Module] = None,
        keyword_table: Optional[KeywordTable] = None,
        extension_decltypes: Sequence[str] = (),
        shelf: Optional[Dict[str, Dict[str, tuple]]] = None,
    ):
        self._tree = mib_tree
        self._module = asn1_module or Asn1Module()
        self._table = keyword_table or KeywordTable()
        self._extension_decltypes = tuple(extension_decltypes)
        self.report = BuildReport()
        self._spec = Specification()
        #: (decltype, clause text) -> its parse (see :meth:`_memoized`).
        self._memo: Dict[Tuple[str, str], object] = {}
        self._shelf = {} if shelf is None else shelf
        #: (decltype, name) of each declaration, in source order; their
        #: clauses; how many were reused.
        self.order: List[Tuple[str, str]] = []
        self.clauses = self.reused = 0
        #: Where the declaration being built starts; the user types its
        #: paths resolved against.
        self._start, self._needs = SourceLocation(), []

    # ------------------------------------------------------------------
    # Top level.
    # ------------------------------------------------------------------
    def build(
        self, declarations: Iterable[Declaration], strict: bool = True
    ) -> Specification:
        """Build *declarations* (a list, or pass 1's stream), then link."""
        for declaration in declarations:
            self._build_declaration(declaration)
        with obs.current().span("compile.link"):
            self.link()
        if strict and self.report.errors:
            raise NmslSemanticError(
                "specification has semantic errors:\n" + self.report.summary(),
                self.report.errors[0].location,
            )
        return self._spec

    def _dispatched(self, decltype: str, name: str, clauses: int) -> None:
        # One string per decltype, not one per declaration.
        self.order.append((intern(decltype), name))
        self.clauses += clauses
        o = obs.current()
        if o.enabled:
            o.counter(
                "repro_compile_declarations_total",
                "declarations dispatched by keyword (pass 2)",
                decltype=decltype,
            ).inc()

    def _table_of(self, decltype: str) -> dict:
        return getattr(self._spec, TABLE_OF[decltype])

    def reuse(self, parser: GenericParser) -> bool:
        """Whether the declaration at *parser*'s cursor was taken from the
        shelf: found by decltype and name, its name not yet taken, every
        type it needs declared and its text the same (:meth:`GenericParser.skip`).
        The object is entered under its own name string."""
        first = parser.cursor
        entries = self._shelf.get(first.text)
        entry = entries and entries.get(parser.name_ahead().text)
        if not entry:
            return False
        decltype = intern(first.text)
        ref, length, digest, tokens, clauses, needs = entry
        spec = ref()
        if (
            spec is None
            or spec.name in self._table_of(decltype)
            or not all(map(self._spec.types.__contains__, needs))
            or not parser.skip(length, digest, tokens)
        ):
            return False
        self._dispatched(decltype, spec.name, clauses)
        self._spec.add(decltype, spec, first.location)
        self.reused += 1
        return True

    def _mark(self, decltype: str) -> Tuple[int, ...]:
        spec, report = self._spec, self.report
        return (self._table_of(decltype).revision, spec.extras.revision,
                spec.extension_clauses.revision, len(report.errors) + len(report.warnings))

    def _build_declaration(self, declaration: Declaration) -> None:
        decltype, name = declaration.decltype, declaration.name
        self._dispatched(decltype, name, len(declaration.clauses))
        handler = {
            "type": self._build_type,
            "process": self._build_process,
            "system": self._build_system,
            "domain": self._build_domain,
        }.get(declaration.decltype)
        if handler is None:
            if declaration.decltype in self._extension_decltypes:
                self._spec.extras.setdefault(declaration.decltype, []).append(
                    declaration
                )
                return
            self.report.error(
                f"unknown specification type {declaration.decltype!r}",
                declaration.location,
            )
            return
        self._start, self._needs = declaration.location, []
        entries = self._shelf.get(decltype)
        mark = entries is not None and declaration.span and self._mark(decltype)
        try:
            handler(declaration)
        except ReproError as exc:
            self.report.error(str(exc), declaration.location)
        if mark and self._mark(decltype) == (mark[0] + 1, *mark[1:]):
            # Built clean into exactly one table entry: shelved, weakly.
            spec = self._table_of(decltype)[name]
            forget = partial(_forget, entries, spec.name)
            entries[spec.name] = (weakref.ref(spec, forget), *declaration.span,
                                  len(declaration.clauses), tuple(self._needs))

    # ------------------------------------------------------------------
    # type specifications (Figure 4.1).
    # ------------------------------------------------------------------
    def _build_type(self, declaration: Declaration) -> None:
        body_clauses = [
            clause
            for clause in declaration.clauses
            if clause.first_keyword() != "access"
        ]
        access_clauses = declaration.clauses_starting("access")
        if not body_clauses:
            self.report.error(
                f"type {declaration.name!r} has no ASN.1 body", declaration.location
            )
            return
        if len(body_clauses) > 1:
            self.report.error(
                f"type {declaration.name!r} has multiple bodies",
                body_clauses[1].location,
            )
        try:
            asn1_type = parse_asn1_type(body_clauses[0].raw_text)
        except Asn1Error as exc:
            self.report.error(
                f"type {declaration.name!r}: invalid ASN.1 body: {exc.message}",
                body_clauses[0].location,
            )
            return
        access: Optional[Access] = None
        if access_clauses:
            subclauses = segment_clause(access_clauses[0], "type", self._table)
            access = self._parse_access(subclauses[0], declaration.name)
        spec = TypeSpec(name=declaration.name, asn1_type=asn1_type, access=access)
        self._spec.add("type", spec, declaration.location)
        if declaration.name not in self._module:
            self._module.define(declaration.name, asn1_type)

    # ------------------------------------------------------------------
    # process specifications (Figure 4.3).
    # ------------------------------------------------------------------
    def _build_process(self, declaration: Declaration) -> None:
        params = self._parse_params(declaration)
        supports: Tuple[str, ...] = ()
        exports: List[ExportSpec] = []
        queries: List[QuerySpec] = []
        proxies: List[ProxySpec] = []
        memoized = partial(self._memoized, declaration.decltype)
        for clause in declaration.clauses:
            keyword = clause.first_keyword()
            if keyword == "supports":
                supports += memoized(clause, self._parse_supports, "process")
            elif keyword == "exports":
                spec = memoized(clause, self._parse_exports, "process")
                if spec is not None:
                    exports.append(spec)
            elif keyword == "queries":
                spec = memoized(clause, self._parse_queries, declaration)
                if spec is not None:
                    queries.append(spec)
            elif keyword == "proxies":
                spec = memoized(clause, self._parse_proxies)
                if spec is not None:
                    proxies.append(spec)
            else:
                self._handle_extra_clause(declaration, clause, "process")
        self._spec.add(
            "process",
            ProcessSpec(
                name=declaration.name,
                params=tuple(params),
                supports=supports,
                exports=tuple(exports),
                queries=tuple(queries),
                proxies=tuple(proxies),
            ),
            declaration.location,
        )

    def _parse_params(self, declaration: Declaration) -> List[Tuple[str, str]]:
        params: List[Tuple[str, str]] = []
        for group in declaration.params:
            tokens = [token for token in group if token.kind != PERIOD]
            if (
                len(tokens) == 3
                and tokens[0].kind == WORD
                and tokens[1].matches(PUNCT, ":")
                and tokens[2].kind == WORD
            ):
                params.append((tokens[0].text, tokens[2].text))
            else:
                texts = " ".join(token.text for token in group)
                self.report.error(
                    f"process {declaration.name!r}: malformed parameter "
                    f"{texts!r} (expected 'name: Type')",
                    declaration.location,
                )
        return params

    def _parse_supports(self, clause: GenericClause, decltype: str) -> Tuple[str, ...]:
        subclauses = segment_clause(clause, decltype, self._table)
        paths = tuple(self._vlist(subclauses[0]))
        for path in paths:
            self._check_mib_path(path, clause.location)
        for stray in subclauses[1:]:
            self.report.error(
                f"unexpected {stray.keyword!r} in supports clause", clause.location
            )
        return paths

    def _parse_exports(
        self, clause: GenericClause, decltype: str
    ) -> Optional[ExportSpec]:
        subclauses = segment_clause(clause, decltype, self._table)
        variables: Tuple[str, ...] = ()
        to_domain: Optional[str] = None
        access = Access.READ_ONLY
        frequency = FrequencySpec.unconstrained()
        for subclause in subclauses:
            if subclause.keyword == "exports":
                variables = tuple(self._vlist(subclause))
                for path in variables:
                    self._check_mib_path(path, clause.location)
            elif subclause.keyword == "to":
                names = subclause.words()
                if len(names) != 1:
                    self.report.error(
                        "exports 'to' needs exactly one domain name",
                        clause.location,
                    )
                    return None
                to_domain = names[0]
            elif subclause.keyword == "access":
                access = self._parse_access(subclause, "exports") or access
            elif subclause.keyword == "frequency":
                frequency = self._parse_frequency(subclause, clause.location)
            else:
                self.report.error(
                    f"unexpected {subclause.keyword!r} in exports clause",
                    clause.location,
                )
        if not variables:
            self.report.error("exports clause lists no variables", clause.location)
            return None
        if to_domain is None:
            self.report.error("exports clause missing 'to <domain>'", clause.location)
            return None
        return ExportSpec(
            variables=variables,
            to_domain=to_domain,
            access=access,
            frequency=frequency,
            location=self._where(clause),
        )

    def _parse_queries(
        self, clause: GenericClause, declaration: Declaration
    ) -> Optional[QuerySpec]:
        subclauses = segment_clause(clause, "process", self._table)
        target: Optional[str] = None
        requests: Tuple[str, ...] = ()
        using: List[Tuple[str, str]] = []
        frequency = FrequencySpec.unconstrained()
        kind = "requests"
        access = Access.READ_ONLY
        for subclause in subclauses:
            if subclause.keyword == "queries":
                names = subclause.words()
                if len(names) != 1:
                    self.report.error(
                        "queries clause needs exactly one target", clause.location
                    )
                    return None
                target = names[0]
            elif subclause.keyword in ("requests", "modifies", "executes"):
                if requests:
                    self.report.error(
                        "a queries clause may contain only one of "
                        "requests/modifies/executes",
                        clause.location,
                    )
                    return None
                requests = tuple(self._vlist(subclause))
                for path in requests:
                    self._check_mib_path(path, clause.location)
                kind = subclause.keyword
                access = {
                    "requests": Access.READ_ONLY,
                    "modifies": Access.READ_WRITE,
                    "executes": Access.ANY,
                }[kind]
                if kind == "modifies":
                    for path in requests:
                        self._check_writable(path, clause.location)
            elif subclause.keyword == "using":
                using = self._parse_using(subclause, clause.location)
            elif subclause.keyword == "frequency":
                frequency = self._parse_frequency(subclause, clause.location)
            else:
                self.report.error(
                    f"unexpected {subclause.keyword!r} in queries clause",
                    clause.location,
                )
        if target is None:
            self.report.error("queries clause missing target", clause.location)
            return None
        if not requests:
            self.report.error(
                f"queries clause for {target!r} requests nothing", clause.location
            )
            return None
        return QuerySpec(
            target=target,
            requests=requests,
            using=tuple(using),
            frequency=frequency,
            access=access,
            kind=kind,
            location=self._where(clause),
        )

    def _parse_proxies(self, clause: GenericClause) -> Optional[ProxySpec]:
        """``proxies <system> [via <protocol>]`` (paper Section 3.1)."""
        subclauses = segment_clause(clause, "process", self._table)
        target: Optional[str] = None
        protocol = ""
        for subclause in subclauses:
            words = subclause.words()
            if subclause.keyword == "proxies":
                if len(words) != 1:
                    self.report.error(
                        "proxies clause needs exactly one target element",
                        clause.location,
                    )
                    return None
                target = words[0]
            elif subclause.keyword == "via":
                protocol = words[0] if words else ""
            else:
                self.report.error(
                    f"unexpected {subclause.keyword!r} in proxies clause",
                    clause.location,
                )
        if target is None:
            self.report.error("proxies clause missing a target", clause.location)
            return None
        return ProxySpec(
            target_system=target, protocol=protocol, location=self._where(clause)
        )

    def _parse_using(
        self, subclause: Subclause, location: SourceLocation
    ) -> List[Tuple[str, str]]:
        """Parse ``path := value {, path := value}``."""
        tokens = join_wrapped_paths(subclause.tokens)
        assignments: List[Tuple[str, str]] = []
        index = 0
        while index < len(tokens):
            if tokens[index].matches(PUNCT, ","):
                index += 1
                continue
            if (
                index + 2 < len(tokens)
                and tokens[index].kind == WORD
                and tokens[index + 1].matches(PUNCT, ":=")
            ):
                path = tokens[index].text
                value = tokens[index + 2].text
                self._check_mib_path(path, location)
                assignments.append((path, value))
                index += 3
            else:
                self.report.error(
                    f"malformed using assignment near {tokens[index].text!r}",
                    location,
                )
                return assignments
        return assignments

    # ------------------------------------------------------------------
    # system specifications (Figure 4.5).
    # ------------------------------------------------------------------
    def _build_system(self, declaration: Declaration) -> None:
        cpu = ""
        opsys = ""
        opsys_version = ""
        interfaces: List[InterfaceSpec] = []
        supports: Tuple[str, ...] = ()
        processes: List[ProcessInvocation] = []
        memoized = partial(self._memoized, declaration.decltype)
        for clause in declaration.clauses:
            keyword = clause.first_keyword()
            if keyword == "cpu":
                word = memoized(
                    clause, self._parse_word, "system", "cpu clause needs one value"
                )
                if word is not None:
                    cpu = word
            elif keyword == "interface":
                interface = memoized(clause, self._parse_interface)
                if interface is not None:
                    interfaces.append(interface)
            elif keyword == "opsys":
                opsys, opsys_version = memoized(clause, self._parse_opsys)
            elif keyword == "supports":
                supports += memoized(clause, self._parse_supports, "system")
            elif keyword == "process":
                invocation = memoized(clause, self._parse_invocation, "system")
                if invocation is not None:
                    processes.append(invocation)
            else:
                self._handle_extra_clause(declaration, clause, "system")
        self._spec.add(
            "system",
            SystemSpec(
                name=declaration.name,
                cpu=cpu,
                interfaces=tuple(interfaces),
                opsys=opsys,
                opsys_version=opsys_version,
                supports=supports,
                processes=tuple(processes),
            ),
            declaration.location,
        )

    def _parse_interface(self, clause: GenericClause) -> Optional[InterfaceSpec]:
        subclauses = segment_clause(clause, "system", self._table)
        name = ""
        network = ""
        if_type = ""
        speed = 0
        protocols: Tuple[str, ...] = ()
        for subclause in subclauses:
            words = subclause.words()
            if subclause.keyword == "interface":
                name = words[0] if words else ""
            elif subclause.keyword == "net":
                network = words[0] if words else ""
            elif subclause.keyword == "protocols":
                protocols = tuple(words)
            elif subclause.keyword == "type":
                if_type = words[0] if words else ""
            elif subclause.keyword == "speed":
                speed = self._parse_speed(subclause, clause.location)
            else:
                self.report.error(
                    f"unexpected {subclause.keyword!r} in interface clause",
                    clause.location,
                )
        if not name:
            self.report.error("interface clause missing a name", clause.location)
            return None
        if not network:
            self.report.error(
                f"interface {name!r} missing 'net <network>'", clause.location
            )
            return None
        return InterfaceSpec(
            name=name,
            network=network,
            if_type=if_type,
            speed_bps=speed,
            protocols=protocols,
            location=self._where(clause),
        )

    def _parse_speed(self, subclause: Subclause, location: SourceLocation) -> int:
        tokens = subclause.tokens
        if (
            len(tokens) >= 1
            and tokens[0].kind == NUMBER
        ):
            if len(tokens) >= 2 and not tokens[1].is_word("bps"):
                self.report.error(
                    f"speed unit must be 'bps', found {tokens[1].text!r}", location
                )
            try:
                speed = int(tokens[0].text)
            except ValueError:
                self.report.error(
                    f"speed must be an integer, found {tokens[0].text!r}", location
                )
                return 0
            if speed < 0:
                self.report.error(
                    f"speed must not be negative, found {tokens[0].text!r}",
                    location,
                )
                return 0
            return speed
        self.report.error("speed clause needs '<integer> bps'", location)
        return 0

    def _parse_opsys(self, clause: GenericClause) -> Tuple[str, str]:
        subclauses = segment_clause(clause, "system", self._table)
        name = ""
        version = ""
        for subclause in subclauses:
            words = subclause.words()
            if subclause.keyword == "opsys":
                name = words[0] if words else ""
            elif subclause.keyword == "version":
                version = words[0] if words else ""
        if not name:
            self.report.error("opsys clause missing a name", clause.location)
        return name, version

    def _parse_invocation(
        self, clause: GenericClause, decltype: str
    ) -> Optional[ProcessInvocation]:
        tokens = clause.tokens[1:]  # drop the 'process' keyword
        if not tokens or tokens[0].kind not in (WORD, STRING):
            self.report.error(
                "process clause missing a process name", clause.location
            )
            return None
        name = tokens[0].text
        args: List[object] = []
        rest = tokens[1:]
        if rest:
            if not (rest[0].matches(PUNCT, "(") and rest[-1].matches(PUNCT, ")")):
                self.report.error(
                    f"malformed process invocation {name!r}", clause.location
                )
                return None
            for token in rest[1:-1]:
                if token.matches(PUNCT, ","):
                    continue
                if token.matches(PUNCT, "*"):
                    args.append(WILDCARD)
                elif token.kind == NUMBER:
                    text = token.text
                    args.append(float(text) if "." in text else int(text))
                elif token.kind in (WORD, STRING):
                    args.append(token.text)
                else:
                    self.report.error(
                        f"bad argument {token.text!r} in invocation of {name!r}",
                        clause.location,
                    )
        return ProcessInvocation(
            process_name=name, args=tuple(args), location=self._where(clause)
        )

    # ------------------------------------------------------------------
    # domain specifications (Figure 4.7).
    # ------------------------------------------------------------------
    def _build_domain(self, declaration: Declaration) -> None:
        systems: List[str] = []
        subdomains: List[str] = []
        processes: List[ProcessInvocation] = []
        exports: List[ExportSpec] = []
        memoized = partial(self._memoized, declaration.decltype)
        for clause in declaration.clauses:
            keyword = clause.first_keyword()
            if keyword in ("system", "domain"):
                complaint = f"{keyword} member clause needs one name"
                name = memoized(clause, self._parse_word, "domain", complaint)
                if name is not None:
                    (systems if keyword == "system" else subdomains).append(name)
            elif keyword == "process":
                invocation = memoized(clause, self._parse_invocation, "domain")
                if invocation is not None:
                    processes.append(invocation)
            elif keyword == "exports":
                spec = memoized(clause, self._parse_exports, "domain")
                if spec is not None:
                    exports.append(spec)
            else:
                self._handle_extra_clause(declaration, clause, "domain")
        self._spec.add(
            "domain",
            DomainSpec(
                name=declaration.name,
                systems=tuple(systems),
                subdomains=tuple(subdomains),
                processes=tuple(processes),
                exports=tuple(exports),
            ),
            declaration.location,
        )

    # ------------------------------------------------------------------
    # Shared clause and subclause parsers.
    # ------------------------------------------------------------------
    def _where(self, clause: GenericClause) -> SourceLocation:
        """Where *clause* is, relative to its declaration's start."""
        return clause.location.relative_to(self._start)

    def _memoized(self, decltype: str, clause: GenericClause, parse, *args):
        """``parse(clause, *args)``, once per clause text in *decltype*.

        Only a result that added no error or warning, and named no user
        type (those are the declaration's to record, :meth:`reuse`), is
        kept; a later clause of the same text gets it back, itself when
        it has no ``location`` or one at the same place in its
        declaration, else copied with its own.  That is exact: the
        parsers read only the clause, the MIB tree and ``spec.types``, and types only
        grow during a build, so a path known once stays known.
        """
        key = (decltype, clause.raw_text)
        hit = self._memo.get(key)
        if hit is not None:
            if hasattr(hit, "location") and hit.location != self._where(clause):
                return replace(hit, location=self._where(clause))
            return hit
        report = self.report
        before = len(report.errors) + len(report.warnings), len(self._needs)
        result = parse(clause, *args)
        if result is not None and before == (
            len(report.errors) + len(report.warnings), len(self._needs)
        ):
            self._memo[key] = result
        return result

    def _parse_word(
        self, clause: GenericClause, decltype: str, complaint: str
    ) -> Optional[str]:
        """The one word of a ``cpu``, ``system`` or ``domain`` clause."""
        words = segment_clause(clause, decltype, self._table)[0].words()
        if len(words) != 1:
            self.report.error(complaint, clause.location)
            return None
        return words[0]

    def _vlist(self, subclause: Subclause) -> List[str]:
        tokens = join_wrapped_paths(subclause.tokens)
        return [token.text for token in tokens if token.kind in (WORD, STRING)]

    def _parse_access(
        self,
        subclause: Subclause,
        context: str,
        location: Optional[SourceLocation] = None,
    ) -> Optional[Access]:
        words = subclause.words()
        where = subclause.tokens[0].location if subclause.tokens else location
        if len(words) != 1:
            self.report.error(
                f"{context}: access clause needs one mode", where or location
            )
            return None
        try:
            return Access.parse(words[0])
        except MibError as exc:
            self.report.error(f"{context}: {exc}", where or location)
            return None

    def _parse_frequency(
        self, subclause: Subclause, location: SourceLocation
    ) -> FrequencySpec:
        tokens = subclause.tokens
        if tokens:  # anchor errors at the clause body, not the clause head
            location = tokens[0].location
        if len(tokens) == 1 and tokens[0].is_word("infrequent"):
            return FrequencySpec.infrequent()
        op = ""
        index = 0
        if index < len(tokens) and tokens[index].kind == PUNCT:
            op = tokens[index].text
            index += 1
        if index >= len(tokens) or tokens[index].kind != NUMBER:
            self.report.error("frequency clause needs a numeric value", location)
            return FrequencySpec.unconstrained()
        value_location = tokens[index].location
        value = float(tokens[index].text)
        index += 1
        if index >= len(tokens) or tokens[index].kind != WORD:
            self.report.error(
                "frequency clause needs a time unit (hours/minutes/seconds)",
                value_location,
            )
            return FrequencySpec.unconstrained()
        unit = tokens[index].text
        try:
            return FrequencySpec.from_clause(op, value, unit, value_location)
        except NmslSemanticError as exc:
            self.report.error(exc.message, exc.location)
            return FrequencySpec.unconstrained()

    def _check_writable(self, path: str, location: SourceLocation) -> None:
        """A ``modifies`` target must contain at least one writable object."""
        if not self._tree.knows(path):
            return  # unknown-path error already reported
        node = self._tree.resolve(path)
        leaves = [node] if node.is_leaf else list(self._tree.leaves(node.oid))
        if leaves and not any(leaf.access.allows_write() for leaf in leaves):
            self.report.error(
                f"modifies target {path!r} contains no writable objects "
                "(MIB access is read-only)",
                location,
            )

    def _check_mib_path(self, path: str, location: SourceLocation) -> None:
        if self._tree.knows(path):
            return
        # Paths may also name user-specified types (paper Figure 4.2
        # defines ipAddrTable as a type of its own).
        for name in (path.split(".")[0], path):
            if name in self._spec.types:
                self._needs.append(name)
                return
        self.report.error(f"unknown MIB path {path!r}", location)

    # ------------------------------------------------------------------
    # Extension clauses.
    # ------------------------------------------------------------------
    def _handle_extra_clause(
        self, declaration: Declaration, clause: GenericClause, decltype: str
    ) -> None:
        keyword = clause.first_keyword()
        if keyword is not None and self._table.is_keyword(keyword, decltype):
            subclauses = segment_clause(clause, decltype, self._table)
            store = self._spec.extension_clauses.setdefault(
                (declaration.decltype, declaration.name), []
            )
            store.append((keyword, tuple(subclauses[0].words())))
            return
        self.report.error(
            f"clause {clause.raw_text.splitlines()[0]!r} is not valid in a "
            f"{decltype} specification",
            clause.location,
        )

    def link(self) -> None:
        """Cross-reference checks after all declarations are built."""
        spec = self._spec
        for system in spec.systems.values():
            for invocation in system.processes:
                self._check_invocation(invocation, "system", system.name)
        for domain in spec.domains.values():
            for invocation in domain.processes:
                self._check_invocation(invocation, "domain", domain.name)
            for name in domain.systems:
                if name not in spec.systems:
                    self.report.error(
                        f"domain {domain.name!r} lists unknown system {name!r}",
                        spec.locate("domain", domain.name),
                    )
            for name in domain.subdomains:
                if name not in spec.domains:
                    self.report.error(
                        f"domain {domain.name!r} lists unknown sub-domain {name!r}",
                        spec.locate("domain", domain.name),
                    )
        self._check_domain_cycles()
        for process in spec.processes.values():
            param_names = set(process.param_names())
            for query in process.queries:
                if query.target in param_names:
                    continue
                if query.target in spec.processes:
                    continue
                self.report.error(
                    f"process {process.name!r} queries unknown target "
                    f"{query.target!r} (not a parameter or process)",
                    spec.locate("process", process.name, query.location),
                )
            for export in process.exports:
                self._check_export_domain(export, f"process {process.name!r}")
            for proxy in process.proxies:
                if proxy.target_system not in spec.systems:
                    self.report.error(
                        f"process {process.name!r} proxies unknown element "
                        f"{proxy.target_system!r}",
                        spec.locate("process", process.name, proxy.location),
                    )
        for domain in spec.domains.values():
            for export in domain.exports:
                self._check_export_domain(export, f"domain {domain.name!r}")

    def _check_invocation(
        self, invocation: ProcessInvocation, kind: str, name: str
    ) -> None:
        spec = self._spec
        owner = f"{kind} {name!r}"
        if invocation.process_name not in spec.processes:
            self.report.error(
                f"{owner} instantiates unknown process "
                f"{invocation.process_name!r}",
                spec.locate(kind, name, invocation.location),
            )
            return
        process = spec.processes[invocation.process_name]
        if invocation.args and len(invocation.args) != len(process.params):
            self.report.error(
                f"{owner}: {invocation.describe()} passes "
                f"{len(invocation.args)} arguments but process "
                f"{process.name!r} declares {len(process.params)} parameters",
                spec.locate(kind, name, invocation.location),
            )

    def _check_export_domain(self, export: ExportSpec, owner: str) -> None:
        if export.to_domain == PUBLIC_DOMAIN:
            return
        if export.to_domain not in self._spec.domains:
            self.report.warn(
                f"{owner} exports to domain {export.to_domain!r} which is not "
                "specified here (assumed foreign)"
            )

    def _check_domain_cycles(self) -> None:
        """Depth first from each domain in turn, with an explicit stack:
        a containment chain may be deeper than Python's recursion limit."""
        domains = self._spec.domains
        done: Dict[str, bool] = {}  # False while on the path, then True
        for root in domains:
            path: List[str] = []  # the domains being visited, outermost first
            pending = [iter((root,))]
            while pending:
                for sub in pending[-1]:
                    if sub not in domains or done.get(sub):
                        continue
                    if sub in done:
                        cycle = " -> ".join(path + [sub])
                        self.report.error(f"domain containment cycle: {cycle}")
                        continue
                    done[sub] = False
                    path.append(sub)
                    pending.append(iter(domains[sub].subdomains))
                    break
                else:
                    pending.pop()
                    if path:
                        done[path.pop()] = True


def _forget(entries: dict, name: str, ref) -> None:
    # Unless a newer entry took the name; a thread putting one between
    # the test and the pop loses it, which costs a rebuild, not a result.
    if entries.get(name, (ref,))[0] is ref:
        entries.pop(name, None)


class DeclarationStore(dict):
    """The ``process``, ``system`` and ``domain`` declarations compiles
    built clean, for the next compile of a changed text (DESIGN.md §3.1):
    a shelf per recipe (:meth:`NmslCompiler.recipe`), on it per decltype
    and name a tuple of the object, held weakly, the length and sha256 of
    its text, the tokens and clauses counted in it and the user types it
    needs.  Threads may share a store: a tuple is replaced whole."""

    def shelf(self, recipe: tuple) -> Dict[str, Dict[str, tuple]]:
        return self.setdefault(recipe, {"process": {}, "system": {}, "domain": {}})
