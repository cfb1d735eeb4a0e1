"""Semi-naive datalog over interned fact tuples, compiled to closures.

The datalog core of the rule-text-driven oracle
(:mod:`repro.consistency.datalog_path`).  An evaluator over parsed
CLP(R) terms pays a ``clause.fresh()`` renaming and a general
unification per candidate fact; this engine trades that generality for
speed on the function-free fragment the consistency rules actually use:

* **facts are plain tuples** — ``("contains", ("domain", "noc"),
  ("system", "romano"))`` — deduplicated ("interned") in one set, so a
  fact derived a million times is stored once and every justification
  references the same object;
* **rules are compiled once** into specialized closures: for each
  (rule, pivot-literal) pair the compiler fixes the join order, assigns
  every variable a slot in a flat environment array, and precomputes per
  body literal which argument paths are constants, which check an
  already-bound slot, and which bind a new one — evaluation never looks
  at the rule again;
* **joins are indexed**: each literal probes a hash index over exactly
  the argument paths that are bound at its position in the join,
  built lazily per (predicate, path-set) and maintained incrementally
  as facts are derived;
* **iteration is semi-naive**: each round fires each compiled closure
  only with the facts derived in the previous round as the pivot, so
  work is proportional to change, not to the whole database.

:func:`naive_fixpoint` is the slow reference implementation — full
re-scan of every rule against every fact combination each round, written
with none of the machinery above — kept as the oracle the property
tests compare the compiled engine against (the same
optimized-vs-reference discipline the rest of the checker follows).

Guard goals (``>=``, ``>`` …) are evaluated on ground substitutions,
matching the guard subset of the CLP(R) rule text.  Negation is not
supported; the consistency path applies its closed-world step as a set
difference afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro import obs
from repro.errors import ClprError

#: A compiled pattern argument is a Var, a nested tuple (constructor
#: with its functor as element 0), or a scalar constant.
Pattern = object

_GUARD_OPS: Dict[str, Callable[[object, object], bool]] = {
    "<": lambda a, b: a < b,
    "=<": lambda a, b: a <= b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "=:=": lambda a, b: a == b,
    "==": lambda a, b: a == b,
    "=\\=": lambda a, b: a != b,
    "!=": lambda a, b: a != b,
}


@dataclass(frozen=True)
class Var:
    """A rule variable (named for diagnostics, compared by name)."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Literal:
    """One positive body (or head) literal: predicate plus patterns."""

    pred: str
    args: Tuple[Pattern, ...]

    def variables(self) -> Set[Var]:
        found: Set[Var] = set()
        _collect_vars(self.args, found)
        return found


@dataclass(frozen=True)
class Guard:
    """A comparison over ground operands: ``(op, left, right)``."""

    op: str
    left: Pattern  # Var or number
    right: Pattern

    def variables(self) -> Set[Var]:
        found: Set[Var] = set()
        _collect_vars((self.left, self.right), found)
        return found


@dataclass(frozen=True)
class Rule:
    """A safe, function-free Horn rule with optional guards."""

    head: Literal
    body: Tuple[Literal, ...]
    guards: Tuple[Guard, ...] = ()

    def __post_init__(self):
        if not self.body:
            raise ClprError(f"rule for {self.head.pred!r} has an empty body")
        bound: Set[Var] = set()
        for literal in self.body:
            bound |= literal.variables()
        loose = self.head.variables()
        for guard in self.guards:
            loose |= guard.variables()
        loose -= bound
        if loose:
            names = ", ".join(sorted(var.name for var in loose))
            raise ClprError(
                f"unsafe rule for {self.head.pred!r}: "
                f"variables {names} not bound by the body"
            )


def _collect_vars(pattern, found: Set[Var]) -> None:
    if isinstance(pattern, Var):
        found.add(pattern)
    elif isinstance(pattern, tuple):
        for element in pattern:
            _collect_vars(element, found)


# ----------------------------------------------------------------------
# The fact store: one interning set, per-predicate lists, lazy indexes.
# ----------------------------------------------------------------------
class TupleFactBase:
    """Derived tuples with provenance and path-indexed retrieval."""

    def __init__(self):
        self._facts: Set[tuple] = set()
        self._by_pred: Dict[str, List[tuple]] = {}
        #: (pred, path-spec) -> key tuple -> facts.  A path-spec is a
        #: tuple of element paths, each a tuple of indices into the
        #: (possibly nested) fact tuple.
        self._indexes: Dict[Tuple[str, tuple], Dict[tuple, List[tuple]]] = {}
        self._specs_by_pred: Dict[str, List[tuple]] = {}
        self._why: Dict[tuple, Tuple[str, Tuple[tuple, ...]]] = {}
        #: rule label -> {"firings": ..., "seconds": ...} (filled by
        #: :func:`seminaive_fixpoint`).
        self.rule_stats: Dict[str, Dict[str, float]] = {}

    def add(
        self,
        fact: tuple,
        why: Optional[Tuple[str, Tuple[tuple, ...]]] = None,
    ) -> bool:
        """Insert; True if new.  The stored set is the intern table."""
        if fact in self._facts:
            return False
        self._facts.add(fact)
        self._by_pred.setdefault(fact[0], []).append(fact)
        if why is not None:
            self._why[fact] = why
        for spec in self._specs_by_pred.get(fact[0], ()):
            key = _key_at(fact, spec)
            if key is not None:
                self._indexes[(fact[0], spec)].setdefault(key, []).append(
                    fact
                )
        return True

    def contains(self, fact: tuple) -> bool:
        return fact in self._facts

    def facts_for(self, pred: str) -> Tuple[tuple, ...]:
        return tuple(self._by_pred.get(pred, ()))

    def all_facts(self) -> Iterable[tuple]:
        return iter(self._facts)

    def matching(
        self, pred: str, spec: tuple, key: tuple
    ) -> Sequence[tuple]:
        """Facts of *pred* whose values at *spec*'s paths equal *key*."""
        index = self._indexes.get((pred, spec))
        if index is None:
            index = {}
            for fact in self._by_pred.get(pred, ()):
                fact_key = _key_at(fact, spec)
                if fact_key is not None:
                    index.setdefault(fact_key, []).append(fact)
            self._indexes[(pred, spec)] = index
            self._specs_by_pred.setdefault(pred, []).append(spec)
        return index.get(key, ())

    def why(self, fact: tuple) -> Optional[Tuple[str, Tuple[tuple, ...]]]:
        return self._why.get(fact)

    def explain(self, fact: tuple, depth: int = 10) -> List[str]:
        """A human-readable derivation trace, root first."""
        lines: List[str] = []

        def visit(current: tuple, indent: int, budget: int) -> None:
            prefix = "  " * indent
            why = self._why.get(current)
            if why is None:
                lines.append(f"{prefix}{current!r}  [given]")
                return
            label, premises = why
            lines.append(f"{prefix}{current!r}  [by rule {label}]")
            if budget <= 0:
                lines.append(f"{prefix}  ...")
                return
            for premise in premises:
                visit(premise, indent + 1, budget - 1)

        visit(fact, 0, depth)
        return lines

    def __len__(self) -> int:
        return len(self._facts)


def _key_at(fact: tuple, spec: tuple) -> Optional[tuple]:
    """Values of *fact* at the spec's paths; None if a path is absent."""
    values = []
    for path in spec:
        value = fact
        for index in path:
            if not isinstance(value, tuple) or index >= len(value):
                return None
            value = value[index]
        values.append(value)
    return tuple(values)


# ----------------------------------------------------------------------
# Rule compilation: one closure per (rule, pivot literal).
# ----------------------------------------------------------------------
class _Step:
    """A compiled body literal: probe, then check/bind against a fact."""

    __slots__ = (
        "pred",
        "arity",
        "const_checks",
        "slot_checks",
        "binds",
        "shape_checks",
        "key_spec",
        "key_parts",
    )

    def __init__(self, pred, arity):
        self.pred = pred
        self.arity = arity
        self.const_checks: List[Tuple[tuple, object]] = []
        self.slot_checks: List[Tuple[tuple, int]] = []
        self.binds: List[Tuple[tuple, int]] = []
        self.shape_checks: List[Tuple[tuple, int]] = []  # (path, length)
        self.key_spec: tuple = ()
        #: key part: (True, constant) or (False, slot)
        self.key_parts: Tuple[Tuple[bool, object], ...] = ()

    def finish(self) -> None:
        # Index over every path whose value is known before the probe:
        # constants and already-bound slots.  Constant functor tags are
        # included, which is what narrows ``contains(domain(D), ...)``
        # to the domain edges without a scan.
        spec: List[tuple] = []
        parts: List[Tuple[bool, object]] = []
        for path, value in self.const_checks:
            spec.append(path)
            parts.append((True, value))
        for path, slot in self.slot_checks:
            spec.append(path)
            parts.append((False, slot))
        self.key_spec = tuple(spec)
        self.key_parts = tuple(parts)

    def key(self, env: List[object]) -> tuple:
        return tuple(
            value if is_const else env[value]
            for is_const, value in self.key_parts
        )

    def match(self, fact: tuple, env: List[object]) -> bool:
        """Check *fact* against the literal, binding new slots in *env*.

        Partial bindings on failure are harmless: slots are only read
        by later steps after a full match succeeds, and re-matched
        candidates overwrite them.
        """
        if len(fact) != self.arity + 1:
            return False
        for path, length in self.shape_checks:
            value = _value_at(fact, path)
            if not isinstance(value, tuple) or len(value) != length:
                return False
        for path, constant in self.const_checks:
            if _value_at(fact, path) != constant:
                return False
        for path, slot in self.binds:
            env[slot] = _value_at(fact, path)
        for path, slot in self.slot_checks:
            if _value_at(fact, path) != env[slot]:
                return False
        return True

    def candidates(
        self, fb: TupleFactBase, env: List[object]
    ) -> Sequence[tuple]:
        if self.key_spec:
            return fb.matching(self.pred, self.key_spec, self.key(env))
        return fb.facts_for(self.pred)


def _value_at(fact: tuple, path: tuple):
    value = fact
    for index in path:
        value = value[index]
    return value


def _compile_args(
    args: Sequence[Pattern],
    base_path: tuple,
    slots: Dict[Var, int],
    bound: Set[Var],
    step: _Step,
    skip: int = 0,
) -> None:
    """Compile patterns at ``base_path + (skip + i,)`` into *step*.

    Top-level calls pass ``skip=1``: element 0 of a fact tuple is the
    predicate name.  Nested constructor tuples carry their functor as a
    checked element, so recursion uses ``skip=0``.
    """
    for offset, pattern in enumerate(args):
        path = base_path + (skip + offset,)
        if isinstance(pattern, Var):
            slot = slots.setdefault(pattern, len(slots))
            if pattern in bound:
                step.slot_checks.append((path, slot))
            else:
                # Repeated new vars inside one literal: first occurrence
                # binds, later ones check — binds run before checks.
                step.binds.append((path, slot))
                bound.add(pattern)
        elif isinstance(pattern, tuple):
            if _is_ground(pattern):
                step.const_checks.append((path, pattern))
            else:
                step.shape_checks.append((path, len(pattern)))
                _compile_args(pattern, path, slots, bound, step)
        else:
            step.const_checks.append((path, pattern))


def _is_ground(pattern) -> bool:
    if isinstance(pattern, Var):
        return False
    if isinstance(pattern, tuple):
        return all(_is_ground(element) for element in pattern)
    return True


def _head_builder(
    head: Literal, slots: Dict[Var, int]
) -> Callable[[List[object], Dict[tuple, tuple]], tuple]:
    """Compile the head into env -> interned fact tuple."""

    def compile_pattern(pattern):
        if isinstance(pattern, Var):
            slot = slots[pattern]
            return lambda env, intern: env[slot]
        if isinstance(pattern, tuple):
            if _is_ground(pattern):
                return lambda env, intern: pattern
            parts = [compile_pattern(element) for element in pattern]
            def build(env, intern, parts=parts):
                value = tuple(part(env, intern) for part in parts)
                return intern.setdefault(value, value)
            return build
        return lambda env, intern: pattern

    parts = [compile_pattern(arg) for arg in head.args]
    pred = head.pred

    def build_head(env: List[object], intern: Dict[tuple, tuple]) -> tuple:
        return (pred,) + tuple(part(env, intern) for part in parts)

    return build_head


def _guard_fn(guard: Guard, slots: Dict[Var, int]):
    op = _GUARD_OPS.get(guard.op)
    if op is None:
        raise ClprError(f"unsupported guard operator {guard.op!r}")

    def operand(value):
        if isinstance(value, Var):
            slot = slots[value]
            return lambda env: env[slot]
        return lambda env: value

    left, right = operand(guard.left), operand(guard.right)

    def check(env: List[object]) -> bool:
        try:
            return op(left(env), right(env))
        except TypeError:
            return False

    return check


def compile_rule(rule: Rule, label: str):
    """Compile to ``[(pivot_pred, fire)]``, one entry per body literal.

    ``fire(delta_facts, fb, out, intern)`` joins each delta fact (as the
    pivot) against the full fact base for the other literals, evaluates
    the guards on the ground environment, and adds each derived head to
    *fb* (appending new ones to *out*) with provenance ``(label,
    premises)``.
    """
    compiled = []
    for pivot_index in range(len(rule.body)):
        order = [rule.body[pivot_index]] + [
            literal
            for index, literal in enumerate(rule.body)
            if index != pivot_index
        ]
        slots: Dict[Var, int] = {}
        bound: Set[Var] = set()
        steps: List[_Step] = []
        for literal in order:
            step = _Step(literal.pred, len(literal.args))
            _compile_args(literal.args, (), slots, bound, step, skip=1)
            step.finish()
            steps.append(step)
        build_head = _head_builder(rule.head, slots)
        guards = [_guard_fn(guard, slots) for guard in rule.guards]
        n_slots = len(slots)
        tail = steps[1:]
        pivot = steps[0]

        def fire(
            delta_facts: Sequence[tuple],
            fb: TupleFactBase,
            out: List[tuple],
            intern: Dict[tuple, tuple],
            pivot=pivot,
            tail=tail,
            build_head=build_head,
            guards=guards,
            n_slots=n_slots,
            label=label,
        ) -> None:
            env: List[object] = [None] * n_slots
            depth_max = len(tail)

            def walk(depth: int, premises: List[tuple]) -> None:
                if depth == depth_max:
                    for guard in guards:
                        if not guard(env):
                            return
                    fact = build_head(env, intern)
                    fact = intern.setdefault(fact, fact)
                    if fb.add(fact, (label, tuple(premises))):
                        out.append(fact)
                    return
                step = tail[depth]
                # Snapshot: the bucket can grow while this join runs
                # (recursive rules derive into their own relation).
                for fact in tuple(step.candidates(fb, env)):
                    if step.match(fact, env):
                        premises.append(fact)
                        walk(depth + 1, premises)
                        premises.pop()

            for fact in delta_facts:
                if pivot.match(fact, env):
                    walk(0, [fact])

        compiled.append((rule.body[pivot_index].pred, fire))
    return compiled


# ----------------------------------------------------------------------
# The engine.
# ----------------------------------------------------------------------
def seminaive_fixpoint(
    base_facts: Iterable[tuple],
    rules: Sequence[Rule],
    max_rounds: int = 10_000,
) -> TupleFactBase:
    """Least fixpoint of *rules* over *base_facts*, semi-naive.

    Every returned fact is an interned tuple; provenance (which rule,
    which premises) is recorded for derived facts and per-rule firing
    counts and times land in :attr:`TupleFactBase.rule_stats`.
    """
    fb = TupleFactBase()
    intern: Dict[tuple, tuple] = {}
    delta: List[tuple] = []
    for fact in base_facts:
        if not isinstance(fact, tuple) or not fact:
            raise ClprError(f"base fact {fact!r} is not a predicate tuple")
        if not _is_ground(fact):
            raise ClprError(f"base fact {fact!r} is not ground")
        fact = intern.setdefault(fact, fact)
        if fb.add(fact):
            delta.append(fact)

    labels = rule_labels(rules)
    compiled = [
        (label, compile_rule(rule, label))
        for rule, label in zip(rules, labels)
    ]
    clock = obs.current().clock
    rounds = 0
    while delta:
        rounds += 1
        if rounds > max_rounds:
            raise ClprError("semi-naive evaluation did not converge")
        delta_by_pred: Dict[str, List[tuple]] = {}
        for fact in delta:
            delta_by_pred.setdefault(fact[0], []).append(fact)
        new_delta: List[tuple] = []
        for label, fires in compiled:
            before = len(new_delta)
            started = clock.now()
            for pivot_pred, fire in fires:
                delta_facts = delta_by_pred.get(pivot_pred)
                if delta_facts:
                    fire(delta_facts, fb, new_delta, intern)
            stats = fb.rule_stats.setdefault(
                label, {"firings": 0, "seconds": 0.0}
            )
            stats["firings"] += len(new_delta) - before
            stats["seconds"] += clock.now() - started
        delta = new_delta
    return fb


def rule_labels(rules: Sequence[Rule]) -> List[str]:
    """Stable labels: head indicator plus per-indicator ordinal."""
    seen: Dict[Tuple[str, int], int] = {}
    labels: List[str] = []
    for rule in rules:
        indicator = (rule.head.pred, len(rule.head.args))
        ordinal = seen.get(indicator, 0)
        seen[indicator] = ordinal + 1
        labels.append(f"{indicator[0]}/{indicator[1]}#{ordinal}")
    return labels


# ----------------------------------------------------------------------
# The reference implementation (the oracle, not the fast path).
# ----------------------------------------------------------------------
def naive_fixpoint(
    base_facts: Iterable[tuple],
    rules: Sequence[Rule],
    max_rounds: int = 10_000,
) -> Set[tuple]:
    """The same fixpoint, by exhaustive re-scan every round.

    No compilation, no indexes, no deltas: each round tries every rule
    against every combination of known facts until nothing new appears.
    Kept deliberately simple so the property suite can hold
    :func:`seminaive_fixpoint` to it.
    """
    known: Set[tuple] = set()
    for fact in base_facts:
        if not _is_ground(fact):
            raise ClprError(f"base fact {fact!r} is not ground")
        known.add(fact)
    for _round in range(max_rounds):
        fresh: Set[tuple] = set()
        for rule in rules:
            for env in _all_solutions(rule.body, 0, {}, known):
                if all(_guard_holds(guard, env) for guard in rule.guards):
                    fact = _substitute(rule.head, env)
                    if fact not in known:
                        fresh.add(fact)
        if not fresh:
            return known
        known |= fresh
    raise ClprError("naive evaluation did not converge")


def _all_solutions(
    body: Sequence[Literal],
    position: int,
    env: Dict[Var, object],
    known: Set[tuple],
):
    if position == len(body):
        yield env
        return
    literal = body[position]
    for fact in known:
        if fact[0] != literal.pred or len(fact) != len(literal.args) + 1:
            continue
        attempt = dict(env)
        if _match_args(literal.args, fact[1:], attempt):
            yield from _all_solutions(body, position + 1, attempt, known)


def _match_args(patterns, values, env: Dict[Var, object]) -> bool:
    if len(patterns) != len(values):
        return False
    for pattern, value in zip(patterns, values):
        if not _match_one(pattern, value, env):
            return False
    return True


def _match_one(pattern, value, env: Dict[Var, object]) -> bool:
    if isinstance(pattern, Var):
        if pattern in env:
            return env[pattern] == value
        env[pattern] = value
        return True
    if isinstance(pattern, tuple):
        if not isinstance(value, tuple) or len(pattern) != len(value):
            return False
        return all(_match_one(p, v, env) for p, v in zip(pattern, value))
    return pattern == value


def _guard_holds(guard: Guard, env: Dict[Var, object]) -> bool:
    op = _GUARD_OPS.get(guard.op)
    if op is None:
        raise ClprError(f"unsupported guard operator {guard.op!r}")
    left = env[guard.left] if isinstance(guard.left, Var) else guard.left
    right = env[guard.right] if isinstance(guard.right, Var) else guard.right
    try:
        return op(left, right)
    except TypeError:
        return False


def _substitute(literal: Literal, env: Dict[Var, object]) -> tuple:
    def value_of(pattern):
        if isinstance(pattern, Var):
            return env[pattern]
        if isinstance(pattern, tuple):
            return tuple(value_of(element) for element in pattern)
        return pattern

    return (literal.pred,) + tuple(value_of(arg) for arg in literal.args)
