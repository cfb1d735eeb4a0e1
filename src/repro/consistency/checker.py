"""The Consistency Checker: prove inconsistency, report causes.

One checker, as in paper Figure 3.1.  :class:`ConsistencyChecker`
expands the specification into facts
(:class:`~repro.consistency.facts.IncrementalFactGenerator`, interned
views), decides reference→permission coverage through the
:class:`~repro.consistency.index.PermissionIndex` (per-server OID-prefix
buckets instead of permission scans), reuses the verdicts it holds when
the fact set is unchanged, rechecks an evolution delta by patching the
owners it touches (:meth:`ConsistencyChecker.recheck`), and can shard
a full check's reduction step per administrative domain across a
process pool (``check(jobs=)``).  This is what the Section 3.1 scale
goal demands.

It holds no copy of the reduction rule.  Every reference goes through
the functions of :mod:`repro.consistency.causes` the ``scan`` oracle
calls — the rule is :data:`~repro.consistency.causes.DIMENSIONS` there —
with the checker's memoised view test and its index passed in: a
covered reference costs one index lookup, and the (rare) uncovered one
is explained by the scan, which writes every report.  The independent
executable models the checker is held to (``scan``, the
faithful CLP(R) path, the rule-text-driven datalog path) live beside it
in :mod:`repro.consistency.oracles`; the differential suite drives
every one of them against this class.

The checker's fact set and verdict memos are keyed on the declarations
they were expanded from: reused exactly while the specification holds
the same objects under the same names in the same order (an identity
walk, no value fingerprint), so mutating it between ``check()`` calls is
safe.  Equal values under other objects (a re-parse) are matched
through :meth:`ConsistencyChecker.recheck`'s diff instead.
"""

from __future__ import annotations

import contextlib
import multiprocessing
from concurrent.futures import ThreadPoolExecutor
from operator import is_
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.collector import bulk_load, collector_watch, frozen_fork_heap

from repro.consistency.causes import (
    Candidates,
    candidate_servers,
    check_reference,
    fit,
    instantiation_outcomes,
)
from repro.consistency.facts import (
    FactGenerator,
    FactPatch,
    FactSet,
    IncrementalFactGenerator,
)
from repro.consistency.index import PermissionIndex
from repro.consistency.relations import Reference
from repro.consistency.report import ConsistencyResult, Inconsistency
from repro.mib.tree import MibTree
from repro.mib.view import MibView
from repro.nmsl.specs import Specification

#: Below this many references a shard pool costs more than it saves.
_MIN_REFERENCES_PER_JOB = 64

#: Serial reductions between cooperative deadline polls (cheap: one
#: clock read per poll, so the unloaded path stays unmeasurable).
_DEADLINE_POLL_REFERENCES = 32

#: Fork-inherited state for reduction workers: (checker, facts, buckets).
#: Set immediately before the pool forks and cleared after the merge, so
#: workers read the parent's checker without pickling the fact set.
_WORKER_STATE: Optional[Tuple] = None

#: The tables a fact set is expanded from, in the order their record is
#: checked; an extension table maps to lists callers append to in place.
_TABLES = ("types", "processes", "systems", "domains")
_EXTENSIONS = ("extras", "extension_clauses")


def _flags(verdicts: Sequence[Tuple[Inconsistency, ...]]) -> Set[int]:
    """The positions of the non-empty verdicts."""
    return {position for position, verdict in enumerate(verdicts) if verdict}


def same_items(items, recorded) -> bool:
    """Whether two sequences (or two tables' key sequences) hold the
    same objects in the same order: an identity walk that allocates
    nothing."""
    return len(items) == len(recorded) and all(map(is_, items, recorded))


@contextlib.contextmanager
def _watched(o, span):
    """Annotate *span* with the collector passes that ran inside it.

    Only for a live, wall-clock trace: a disabled run installs no
    callback, and a deterministic one must not record wall time.
    """
    if not o.enabled or o.deterministic:
        yield
        return
    with collector_watch() as tally:
        yield
    span.annotate(
        gc_collections=tally["gc_collections"],
        gc_pause_s=round(tally["gc_pause_s"], 6),
    )


def _reduce_shard_worker(bucket_index: int):
    """Reduce one shard bucket inside a forked worker process.

    Returns ``(verdicts, tallies)``: the per-position verdict tuples and
    the memo/index counter deltas this worker accrued, which the parent
    folds back into its own tallies so obs metrics aggregate across
    workers.  Module-level so the fork-context pool can name it.
    """
    checker, facts, buckets = _WORKER_STATE
    o = obs.current()
    tracer = getattr(o, "tracer", None)
    # Everything recorded past this mark was closed by *this* worker;
    # the fork inherited the parent's records below it.
    span_mark = len(tracer) if tracer is not None else 0
    hits_before = dict(checker._memo_hits)
    misses_before = dict(checker._memo_misses)
    index = checker._permission_index(facts)
    index_before = (index.hits, index.misses)
    # The fork preserved this thread's span stack, so the shard span
    # parents onto the request's in-flight consistency.check span and
    # carries its trace id into the worker subtree.
    with o.span(
        "consistency.shard",
        bucket=bucket_index,
        references=len(buckets[bucket_index]),
    ):
        results = [
            (position, checker._reference_problems(reference, facts))
            for position, reference in buckets[bucket_index]
        ]
    tallies = {
        "memo_hits": {
            memo: checker._memo_hits[memo] - hits_before[memo]
            for memo in checker._memo_hits
        },
        "memo_misses": {
            memo: checker._memo_misses[memo] - misses_before[memo]
            for memo in checker._memo_misses
        },
        "index_hits": index.hits - index_before[0],
        "index_misses": index.misses - index_before[1],
        "spans": (
            tracer.export_spans(since=span_mark)
            if tracer is not None
            else []
        ),
    }
    return results, tallies


class ConsistencyChecker:
    """Indexed, incremental consistency checking over a typed specification."""

    def __init__(
        self,
        specification: Specification,
        tree: MibTree,
        *,
        shard_threshold: Optional[int] = None,
    ):
        self._spec = specification
        self._tree = tree
        #: Generates the facts; interns their views across versions.
        self._generator = IncrementalFactGenerator(tree)
        #: Minimum pending references before ``jobs`` shards the
        #: reduction; overridable so the sharding oracle tests can force
        #: multi-process reduction on small corpora.
        self._shard_threshold = (
            _MIN_REFERENCES_PER_JOB if shard_threshold is None
            else shard_threshold
        )
        self._facts: Optional[FactSet] = None
        #: table name -> (keys, entries) the facts were expanded from.
        self._expanded_from: Dict[str, Tuple[List, List]] = {}
        #: Verdicts of the last check, aligned by position with the
        #: reference list they were computed over (recheck fuel), and
        #: the positions among them whose verdict is not empty (replaced
        #: together: the flags describe the list beside them).
        self._verdict_list: Optional[List[Tuple[Inconsistency, ...]]] = None
        self._flagged: Set[int] = set()
        self._checked_references: Optional[List[Reference]] = None
        # Per-fact-set state (reset whenever the facts are regenerated):
        self._index: Optional[PermissionIndex] = None
        self._candidate_memo: Dict[str, Tuple] = {}
        # Pure view-pair memos (views are interned; results never stale):
        self._cover_memo: Dict[Tuple[int, int], bool] = {}
        self._fit_memo: Dict[Tuple[int, int], Tuple] = {}
        self._memo_pins: List[MibView] = []  # keep ids in the memos alive
        #: Instantiation verdicts for the current fact-set object: the
        #: outcome per instance (aligned with ``facts.instances``, so a
        #: patch can splice an owner's), then the problems and warnings
        #: among them (identity-keyed: regeneration makes a new FactSet).
        self._instantiation_memo: Optional[
            Tuple[FactSet, List, Tuple[Inconsistency, ...], Tuple[str, ...]]
        ] = None
        self._verdict_changes: List[Tuple] = []  # see verdict_changes()
        # Plain-int memo tallies — cheap enough to keep unconditionally;
        # published to repro.obs after each check when enabled.
        self._memo_hits: Dict[str, int] = {
            "cover": 0, "fit": 0, "candidate": 0
        }
        self._memo_misses: Dict[str, int] = {
            "cover": 0, "fit": 0, "candidate": 0
        }
        self._published: Dict[Tuple, float] = {}
        self._published_registry = None

    @property
    def specification(self) -> Specification:
        return self._spec

    @property
    def facts(self) -> FactSet:
        """The expanded fact set, reused while the specification holds
        the declarations it was expanded from.

        Regenerated (and all per-fact-set memos dropped) when an entry
        of any table was replaced, added, removed, renamed or moved —
        including in place, in the specification the checker was built
        with.  The test is identity only; equal values under other
        objects are :meth:`recheck`'s to match, through its diff.
        """
        facts = self._facts
        if facts is not None and self._expansion_holds(self._spec):
            if facts.expansion:
                # Wholesale reuse: this access expanded no declarations.
                facts.note_expansion(0)
            return facts
        with bulk_load():
            self._record_expansion(self._spec)
            self._facts = self._generator.generate(self._spec)
        self._index = None
        self._candidate_memo = {}
        return self._facts

    def _expansion_holds(self, spec: Specification) -> bool:
        """Whether *spec* holds, by identity and in order, what the facts
        were expanded from (stops at the first difference)."""
        for name, (keys, entries) in self._expanded_from.items():
            table = getattr(spec, name)
            same = same_items if name in _EXTENSIONS else is_
            if not (
                len(table) == len(keys)
                and all(map(same, table.values(), entries))
                and all(map(is_, table, keys))
            ):
                return False
        return True

    def _record_expansion(
        self, spec: Specification, shared_with: Optional[Specification] = None
    ) -> None:
        """Record *spec*'s tables (an extension table's lists as copies)
        as what the facts are expanded from; a table it shares with
        *shared_with*, recorded before, keeps its record."""
        for name in _TABLES + _EXTENSIONS:
            table = getattr(spec, name)
            if shared_with is None or table is not getattr(shared_with, name):
                values = table.values()
                copies = map(tuple, values) if name in _EXTENSIONS else values
                self._expanded_from[name] = (list(table), list(copies))

    # ------------------------------------------------------------------
    # The check.
    # ------------------------------------------------------------------
    def check(
        self,
        check_capacity: bool = False,
        jobs: int = 1,
        deadline=None,
    ) -> ConsistencyResult:
        o = obs.current()
        with o.span(
            "consistency.check", engine="indexed", jobs=jobs
        ) as span, _watched(o, span):
            if deadline is not None:
                deadline.check("consistency.check")
            with o.span("consistency.facts"):
                facts = self.facts
            # Verdicts are a function of the fact set alone, so a check
            # of the one already reduced only re-assembles the report.
            warm = (
                self._verdict_list is not None
                and self._checked_references is facts.references
            )
            with contextlib.nullcontext() if warm else bulk_load():
                # Memoised here, inside the bulk scope; _assemble reads it.
                self._instantiation_problems(facts)
                if not warm:
                    # Dropped first: a reduction that is abandoned (a
                    # deadline) must not leave stale verdicts to reuse.
                    self._verdict_list = None
                    with o.span(
                        "consistency.reduce", references=len(facts.references)
                    ):
                        verdicts = self._reduce(
                            facts,
                            list(enumerate(facts.references)),
                            jobs,
                            deadline=deadline,
                        )
                    self._checked_references = facts.references
                    self._verdict_list = [
                        verdicts[position]
                        for position in range(len(facts.references))
                    ]
                    self._flagged = _flags(self._verdict_list)
                    # Prime the per-domain taint index now, while we
                    # are on the full-check clock, so the first
                    # incremental recheck does not pay for it.
                    facts.domain_reference_taint()
            problems, warnings = self._assemble(facts, check_capacity)
            span.annotate(inconsistencies=len(problems))
            if o.enabled:
                self._publish_metrics(o, facts, consistent=not problems)

        stats = {
            "instances": len(facts.instances),
            "references": len(facts.references),
            "permissions": len(facts.permissions),
            "containment_edges": facts.containment_edges(),
            "engine": "indexed",
            "jobs": jobs,
            "seconds": span.elapsed,
        }
        stats.update(
            {f"facts_{key}": value for key, value in facts.expansion.items()}
        )
        return ConsistencyResult(
            consistent=not problems,
            inconsistencies=problems,
            warnings=warnings,
            stats=stats,
        )

    # ------------------------------------------------------------------
    # Incremental re-checking (the evolution API).
    # ------------------------------------------------------------------
    def recheck(
        self,
        delta,
        check_capacity: bool = False,
        deadline=None,
    ) -> ConsistencyResult:
        """Re-check after an evolution delta, reusing unaffected verdicts.

        *delta* is an :class:`repro.consistency.evolution.EvolutionDelta`
        (or a plain new :class:`Specification`, diffed against the
        current one).  What the diff contains decides the path.  An
        *owner-local* delta — changed system and domain declarations,
        containment and the process table untouched — re-expands only
        those owners inside the cached fact set and re-reduces only the
        references the taint index ties to them.  Any other delta
        regenerates the facts and re-reduces the references whose
        client, server or containing domains changed.  Every other
        verdict is reused, and the result equals a from-scratch
        :meth:`check` of the new specification (asserted by the
        differential and property suites).
        """
        from repro.consistency.evolution import (
            EvolutionDelta,
            affected_entities,
            diff_specifications,
            reference_affected,
        )

        if isinstance(delta, Specification):
            delta = EvolutionDelta(
                specification=delta,
                diff=diff_specifications(self._spec, delta),
            )
        o = obs.current()
        with o.span(
            "consistency.recheck", engine="indexed"
        ) as span, _watched(o, span), contextlib.ExitStack() as scope:
            previous_list = (
                self._verdict_list if self._facts is not None else None
            )
            if not delta.diff and not self._expansion_holds(self._spec):
                # Changed in place, so diffed against itself: no verdict
                # of the facts that staled is reused.
                previous_list = None
            previous_references = self._checked_references
            previous_flagged = self._flagged
            # Dropped until this recheck completes: if it is abandoned (a
            # deadline) the next check or recheck starts from nothing
            # rather than from verdicts the patch below has staled.
            self._verdict_list = None
            self._verdict_changes = []
            # A patch is whole before the reduction — the one step a
            # deadline can abandon — starts.
            patch = (
                self._patch_facts(delta) if previous_list is not None else None
            )
            if patch is None:
                # Regenerating and re-reducing in bulk allocates by the
                # hundred thousand; a patch next to nothing.
                scope.enter_context(bulk_load())
            self._spec = delta.specification
            old_facts = self._facts
            with o.span("consistency.facts"):
                facts = old_facts if patch is not None else self.facts
            self._instantiation_problems(facts)  # memoised for _assemble

            # Before the reduction ``new_list`` holds, for every
            # reference, the verdict it had (none if it is new), and
            # ``flagged`` — on the patch path — the positions of the
            # non-empty ones; ``gone`` collects the references that no
            # longer exist.
            key = self._reference_key
            references = facts.references

            def carried(old_references, verdicts) -> Dict[Tuple, Tuple]:
                return dict(
                    zip(map(key, old_references), zip(old_references, verdicts))
                )

            if patch is not None:
                new_list = list(previous_list)
                flagged = previous_flagged
                gone: Dict[Tuple, Tuple] = {}
                for start, replaced, length in patch.references:
                    end = start + len(replaced)
                    had = carried(replaced, new_list[start:end])
                    new_list[start:end] = [
                        had.pop(key(reference), (None, ()))[1]
                        for reference in references[start:start + length]
                    ]
                    gone.update(had)
                    # The flags move with the splice: none inside it,
                    # those past it shifted, the spliced range re-read.
                    shift = length - len(replaced)
                    flagged = {
                        position + shift if position >= end else position
                        for position in flagged
                        if not start <= position < end
                    }
                    flagged.update(
                        position
                        for position in range(start, start + length)
                        if new_list[position]
                    )
                pending = [
                    (position, references[position])
                    for position in sorted(patch.pending)
                ]
            else:
                new_list = [()] * len(references)
                gone = (
                    {}
                    if previous_list is None or previous_references is None
                    else carried(previous_references, previous_list)
                )
                # Tainted through containment as it is and as it was: a
                # removed domain's members are only in the old tables.
                affected = (
                    affected_entities(delta.diff, facts)
                    | affected_entities(delta.diff, old_facts)
                    if gone
                    else ()
                )
                pending = []
                for position, reference in enumerate(references):
                    had = gone.pop(key(reference), None)
                    if had is not None:
                        new_list[position] = had[1]
                        if not reference_affected(reference, affected):
                            continue
                    pending.append((position, reference))
            del old_facts  # a regenerated-over fact set dies here, not later
            with o.span("consistency.reduce", references=len(pending)):
                computed = self._reduce(facts, pending, deadline=deadline)
            changes = self._verdict_changes
            for position, reference in pending:
                verdict = computed[position]
                if new_list[position] != verdict:
                    changes.append((reference, new_list[position], verdict))
                new_list[position] = verdict
            changes.extend(
                (reference, verdict, ())
                for reference, verdict in gone.values()
                if verdict
            )
            if patch is not None:
                for position, _reference in pending:
                    if new_list[position]:
                        flagged.add(position)
                    else:
                        flagged.discard(position)
            else:
                flagged = _flags(new_list)
            rechecked = len(pending)
            reused = len(references) - rechecked
            self._verdict_list = new_list
            self._flagged = flagged
            self._checked_references = references
            problems, warnings = self._assemble(facts, check_capacity)
            patched = patch is not None and bool(delta.diff)
            span.annotate(rechecked=rechecked, reused=reused, patched=patched)

        stats = {
            "instances": len(facts.instances),
            "references": len(facts.references),
            "permissions": len(facts.permissions),
            "rechecked": rechecked,
            "reused": reused,
            "diff_entries": len(delta.diff),
            "patched": patched,
            "engine": "indexed",
            "seconds": span.elapsed,
        }
        stats.update(
            {f"facts_{key}": value for key, value in facts.expansion.items()}
        )
        if o.enabled:
            self._publish_metrics(o, facts, consistent=not problems)
        return ConsistencyResult(
            consistent=not problems,
            inconsistencies=problems,
            warnings=warnings,
            stats=stats,
        )

    def cache_tallies(self) -> Dict[str, int]:
        """Cumulative memo + index hit/miss totals.

        Callers that want *per-request* cache behaviour (the service's
        resource accounting) snapshot this before and after a check and
        difference the totals.
        """
        hits = sum(self._memo_hits.values())
        misses = sum(self._memo_misses.values())
        if self._index is not None:
            hits += self._index.hits
            misses += self._index.misses
        return {"hits": hits, "misses": misses}

    # ------------------------------------------------------------------
    # Metrics publication (tallies stay plain ints on the hot path).
    # ------------------------------------------------------------------
    def _publish_metrics(self, o, facts: FactSet, consistent: bool) -> None:
        """Flush cumulative tallies into the active metrics registry.

        Tallies accumulate for the checker's lifetime; only the delta
        since the last publish to *this* registry is added, so repeated
        checks never double-count and a fresh ``obs.scope()`` starts
        from zero.
        """
        if self._published_registry is not o.metrics:
            self._published = {}
            self._published_registry = o.metrics
        o.counter(
            "repro_consistency_checks_total",
            "consistency checks run",
            engine="indexed",
        ).inc()
        for kind, count in (
            ("instances", len(facts.instances)),
            ("references", len(facts.references)),
            ("permissions", len(facts.permissions)),
            ("containment_edges", facts.containment_edges()),
        ):
            o.gauge(
                "repro_consistency_facts",
                "fact counts from the last checked fact set",
                kind=kind,
            ).set(count)
        hits = misses = 0
        for memo in sorted(self._memo_hits):
            hits += self._memo_hits[memo]
            misses += self._memo_misses[memo]
            self._flush_counter(
                o,
                "repro_consistency_memo_hits_total",
                self._memo_hits[memo],
                "coverage-memo lookups answered from cache",
                memo=memo,
            )
            self._flush_counter(
                o,
                "repro_consistency_memo_misses_total",
                self._memo_misses[memo],
                "coverage-memo lookups computed fresh",
                memo=memo,
            )
        if self._index is not None:
            self._flush_counter(
                o,
                "repro_consistency_index_hits_total",
                self._index.hits,
                "PermissionIndex lookups that found a covering permission",
            )
            self._flush_counter(
                o,
                "repro_consistency_index_misses_total",
                self._index.misses,
                "PermissionIndex lookups that found none",
            )
        if hits + misses:
            o.gauge(
                "repro_consistency_cache_hit_ratio",
                "memo hits / lookups over this checker's lifetime",
            ).set(round(hits / (hits + misses), 9))

    def _flush_counter(
        self, o, name: str, value: float, help_text: str, **labels: str
    ) -> None:
        key = (name, tuple(sorted(labels.items())))
        last = self._published.get(key, 0)
        if value > last:
            o.counter(name, help_text, **labels).inc(value - last)
            self._published[key] = value

    @staticmethod
    def _reference_key(reference: Reference) -> Tuple:
        return (
            reference.client,
            reference.server,
            reference.variables,
            reference.access,
            reference.frequency.as_tuple(),
            reference.client_domains,
        )

    # ------------------------------------------------------------------
    # Incremental helpers: instantiation verdicts and the owner patch.
    # ------------------------------------------------------------------
    def _instantiation_problems(
        self, facts: FactSet
    ) -> Tuple[Tuple[Inconsistency, ...], Tuple[str, ...]]:
        """Instantiation verdicts, memoized per fact-set object:
        regeneration builds a new ``FactSet``, and :meth:`_patch_facts`
        splices the outcomes of the owners it re-expands."""
        memo = self._instantiation_memo
        if memo is None or memo[0] is not facts:
            self._remember_instantiations(
                facts,
                instantiation_outcomes(facts, facts.instances, self._fit),
            )
        return self._instantiation_memo[2:]

    def _assemble(
        self, facts: FactSet, check_capacity: bool
    ) -> Tuple[List[Inconsistency], Tuple[str, ...]]:
        """The result's problems — the instantiation ones, then the
        flagged verdicts in reference order — and its warnings (the
        memoised instantiation tuple itself when nothing is added)."""
        inst_problems, inst_warnings = self._instantiation_problems(facts)
        problems = list(inst_problems)
        verdicts = self._verdict_list
        for position in sorted(self._flagged):
            problems.extend(verdicts[position])
        capacity = self._check_capacity(facts) if check_capacity else ()
        if facts.warnings or capacity:
            inst_warnings = (*facts.warnings, *inst_warnings, *capacity)
        return problems, inst_warnings

    def _remember_instantiations(self, facts: FactSet, outcomes: List) -> None:
        self._instantiation_memo = (
            facts,
            outcomes,
            tuple(o for o in outcomes if o.__class__ is Inconsistency),
            tuple(o for o in outcomes if o.__class__ is str),
        )

    def _patch_facts(self, delta):
        """Patch the cached facts in place if *delta* is owner-local:
        every diff entry a *changed* system or domain whose containment
        fields are as they were, nothing else the facts are expanded
        from moved (DESIGN.md §3.2 has why that is sound).  An empty
        diff (a value-equal re-parse) patches nothing: the facts are
        rebound to the new specification.  Returns the
        :class:`FactPatch`, or None — all state untouched — otherwise.
        """
        facts = self._facts
        if self._checked_references is not facts.references:
            return None
        old_spec, new_spec = self._spec, delta.specification
        owners: List[Tuple[str, str]] = []
        for entry in delta.diff.entries:
            if entry.change != "changed" or entry.kind == "process":
                return None
            name = entry.name
            if entry.kind == "domain":
                old, new = old_spec.domains.get(name), new_spec.domains.get(name)
                if (
                    old is None
                    or new is None
                    or sorted(old.systems) != sorted(new.systems)
                    or sorted(old.subdomains) != sorted(new.subdomains)
                ):
                    return None
            elif name not in new_spec.systems or not facts.owners.direct.get(name):
                return None  # a homeless element has no domain to taint
            if name in new_spec.systems and name in new_spec.domains:
                return None  # the two would share instance ordinals
            owners.append((entry.kind, name))
        # Not in the diff, but expanded — or, the order of the tables,
        # in the order of the facts: all as it was, too.
        if not (
            self._same_entries(old_spec.types, new_spec.types)
            and old_spec.extras == new_spec.extras
            and old_spec.extension_clauses == new_spec.extension_clauses
            and all(
                old is new or same_items(old, new) or list(old) == list(new)
                for old, new in (
                    (old_spec.systems, new_spec.systems),
                    (old_spec.domains, new_spec.domains),
                )
            )
        ):
            return None
        if not owners:
            facts.rebind(new_spec)
            self._record_expansion(new_spec, shared_with=old_spec)
            return FactPatch()
        o = obs.current()
        with o.span("consistency.facts.patch", owners=len(owners)) as span:
            patch = facts.patch_owners(
                FactGenerator(
                    new_spec, self._tree, view_of=self._generator.view
                ),
                owners,
            )
            memo = self._instantiation_memo
            if memo is not None and memo[0] is facts:
                outcomes = memo[1]
                moved = False
                for start, old_length, length in patch.instances:
                    fresh = instantiation_outcomes(
                        facts,
                        facts.instances[start:start + length],
                        self._fit,
                    )
                    moved |= any(fresh) or any(
                        outcomes[start:start + old_length]
                    )
                    outcomes[start:start + old_length] = fresh
                if moved:
                    self._remember_instantiations(facts, outcomes)
            # Permission- and instance-dependent state restarts.
            self._index = None
            self._candidate_memo = {}
            self._record_expansion(new_spec, shared_with=old_spec)
            span.annotate(
                instances=sum(length for _s, _o, length in patch.instances),
                references=sum(length for _s, _o, length in patch.references),
                permissions=patch.permissions,
                pending=len(patch.pending),
            )
        return patch

    @staticmethod
    def _same_entries(old: Dict, new: Dict) -> bool:
        """Whether two declaration tables hold the same entries: the
        same objects, or (a re-parse) equal declaration fingerprints."""
        if old is new:
            return True
        if len(old) != len(new):
            return False
        return all(
            name in new
            and (
                new[name] is spec
                or new[name].fingerprint_tuple() == spec.fingerprint_tuple()
            )
            for name, spec in old.items()
        )

    # ------------------------------------------------------------------
    # The reduction step, optionally sharded per administrative domain
    # across forked worker processes.
    # ------------------------------------------------------------------
    def _reduce(
        self,
        facts: FactSet,
        pending: List[Tuple[int, Reference]],
        jobs: int = 1,
        deadline=None,
    ) -> Dict[int, Tuple[Inconsistency, ...]]:
        """Verdicts (by reference position) for the pending references.

        With ``jobs > 1`` and enough pending work, references are
        sharded by client administrative domain, shards are dealt
        round-robin (in sorted key order) onto ``jobs`` buckets, and the
        buckets reduce in parallel — in forked worker processes where
        the platform has ``fork``, threads otherwise.  The merge is
        deterministic: verdicts are keyed by reference position, and
        every verdict is a pure function of (reference, facts), so the
        result is byte-identical to a serial reduction regardless of
        worker scheduling.  Worker memo/index tallies are folded back
        into the parent so obs metrics aggregate across workers.

        A *deadline* (:class:`repro.deadline.Deadline`) is polled every
        :data:`_DEADLINE_POLL_REFERENCES` reductions on the serial path
        and at shard boundaries on the parallel one (deadline clocks are
        closures and do not cross a fork), so an ``nmsld`` request whose
        budget expires mid-check aborts with
        :class:`~repro.errors.DeadlineExceeded` instead of finishing a
        check nobody is waiting for.
        """
        if jobs <= 1 or len(pending) < self._shard_threshold:
            verdicts: Dict[int, Tuple[Inconsistency, ...]] = {}
            for serial, (position, reference) in enumerate(pending):
                if deadline is not None and (
                    serial % _DEADLINE_POLL_REFERENCES == 0
                ):
                    deadline.check("consistency.reduce")
                verdicts[position] = self._reference_problems(reference, facts)
            return verdicts
        if deadline is not None:
            deadline.check("consistency.reduce")
        shards: Dict[str, List[Tuple[int, Reference]]] = {}
        for position, reference in pending:
            key = (
                reference.client_domains[0]
                if reference.client_domains
                else reference.client
            )
            shards.setdefault(key, []).append((position, reference))
        buckets: List[List[Tuple[int, Reference]]] = [[] for _ in range(jobs)]
        for shard_index, key in enumerate(sorted(shards)):
            buckets[shard_index % jobs].extend(shards[key])
        buckets = [bucket for bucket in buckets if bucket]

        verdicts: Dict[int, Tuple[Inconsistency, ...]] = {}
        if "fork" in multiprocessing.get_all_start_methods():
            global _WORKER_STATE
            # Build the shared lazy structures once in the parent so
            # every worker inherits them via copy-on-write instead of
            # rebuilding its own.
            self._permission_index(facts)
            facts.permissions_by_grantor()
            _WORKER_STATE = (self, facts, buckets)
            # Freeze the heap so the collector never rewrites object
            # headers in the workers: at paper scale the fact set is
            # hundreds of MB, and every page a worker's GC pass touches
            # is a page copy-on-write duplicates.
            try:
                with frozen_fork_heap():
                    context = multiprocessing.get_context("fork")
                    with context.Pool(processes=len(buckets)) as pool:
                        outcomes = pool.map(
                            _reduce_shard_worker, range(len(buckets))
                        )
            finally:
                _WORKER_STATE = None
            o = obs.current()
            for results, tallies in outcomes:
                for position, verdict in results:
                    verdicts[position] = verdict
                for memo, delta in tallies["memo_hits"].items():
                    self._memo_hits[memo] += delta
                for memo, delta in tallies["memo_misses"].items():
                    self._memo_misses[memo] += delta
                if self._index is not None:
                    self._index.hits += tallies["index_hits"]
                    self._index.misses += tallies["index_misses"]
                # Re-attach each worker's span subtree, in bucket order
                # (pool.map preserves it), so the splice is as
                # deterministic as the verdict merge.
                o.splice_spans(tallies.get("spans") or [])
        else:
            # No fork on this platform: same shards, same merge, worker
            # threads instead of processes.  Pool threads have empty
            # span stacks, so they adopt the submitting thread's
            # context to keep shard spans inside the request's trace.
            o = obs.current()
            parent_context = o.current_context()

            def reduce_bucket(
                indexed_bucket: Tuple[int, List[Tuple[int, Reference]]]
            ):
                bucket_index, bucket = indexed_bucket
                with o.adopt(parent_context):
                    with o.span(
                        "consistency.shard",
                        bucket=bucket_index,
                        references=len(bucket),
                    ):
                        return [
                            (
                                position,
                                self._reference_problems(reference, facts),
                            )
                            for position, reference in bucket
                        ]

            with ThreadPoolExecutor(max_workers=jobs) as pool:
                for chunk in pool.map(reduce_bucket, enumerate(buckets)):
                    for position, verdict in chunk:
                        verdicts[position] = verdict
        return verdicts

    def _reference_problems(
        self, reference: Reference, facts: FactSet
    ) -> Tuple[Inconsistency, ...]:
        """This reference's problems, from the functions the ``scan``
        oracle calls, with the memoised view test and the index."""
        return check_reference(
            reference,
            facts,
            self._candidates(reference, facts),
            self._generator.view,
            self._covers,
            self._permission_index(facts),
        )

    def _covers(self, container: MibView, contained: MibView) -> bool:
        """Memoized ``container.covers_view(contained)`` over interned views."""
        key = (id(container), id(contained))
        got = self._cover_memo.get(key)
        if got is None:
            self._memo_misses["cover"] += 1
            got = container.covers_view(contained)
            self._cover_memo[key] = got
            self._memo_pins.append(container)
            self._memo_pins.append(contained)
        else:
            self._memo_hits["cover"] += 1
        return got

    def _permission_index(self, facts: FactSet) -> PermissionIndex:
        if self._index is None:
            # The generator's interner, not a bound method of this
            # checker: index -> checker would be a reference cycle, and
            # a dropped checker must die by reference count.
            self._index = PermissionIndex(facts, self._generator.view)
        return self._index

    def _candidates(self, reference: Reference, facts: FactSet) -> Candidates:
        """:func:`causes.candidate_servers`, memoized per target."""
        got = self._candidate_memo.get(reference.server)
        if got is None:
            self._memo_misses["candidate"] += 1
            got = candidate_servers(reference, facts)
            self._candidate_memo[reference.server] = got
        else:
            self._memo_hits["candidate"] += 1
        return got

    def _fit(
        self, supported: MibView, element_view: MibView
    ) -> Tuple[str, Optional[List[str]]]:
        """:func:`causes.fit`, memoized over interned views."""
        key = (id(supported), id(element_view))
        got = self._fit_memo.get(key)
        if got is not None:
            self._memo_hits["fit"] += 1
            return got
        self._memo_misses["fit"] += 1
        got = self._fit_memo[key] = fit(supported, element_view)
        self._memo_pins.append(supported)
        self._memo_pins.append(element_view)
        return got

    # ------------------------------------------------------------------
    # Capacity warnings (element swamping, paper Section 4.1.4).
    # ------------------------------------------------------------------
    def _check_capacity(
        self, facts: FactSet, bits_per_request: float = 8192.0
    ) -> List[str]:
        load: Dict[str, float] = {}
        for reference in facts.references:
            rate = reference.frequency.max_rate_per_second()
            if rate == float("inf"):
                continue
            candidates, _existential, _data_system = self._candidates(
                reference, facts
            )
            for server in candidates or ():
                if server.owner_kind == "system":
                    load[server.owner] = load.get(server.owner, 0.0) + rate
        warnings = []
        for system_name, rate in sorted(load.items()):
            system = self._spec.systems.get(system_name)
            if system is None or not system.total_speed_bps():
                continue
            demand = rate * bits_per_request
            capacity = system.total_speed_bps()
            if demand > 0.1 * capacity:  # >10% of link budget on management
                warnings.append(
                    f"element {system_name!r} may be swamped: management "
                    f"traffic {demand:.0f} bps vs interface speed {capacity} bps"
                )
        return warnings

    # ------------------------------------------------------------------
    # Public accessors for differential clients (repro.consistency.impact).
    # ------------------------------------------------------------------
    def view(self, paths: Sequence[str]) -> MibView:
        """The interned MIB view over ``paths``."""
        return self._generator.view(paths)

    @property
    def checked_facts(self) -> Optional[FactSet]:
        """:attr:`facts` as last reduced: no staleness (identity) walk."""
        return self._facts

    def verdict_changes(self) -> List[Tuple]:
        """``(reference, old problems, new problems)`` for each verdict
        the last :meth:`recheck` moved, in reference order (a new
        reference had none), then for each reference it dropped."""
        return self._verdict_changes
