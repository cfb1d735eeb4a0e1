"""Seeded inputs and the oracles that do not come from the checker.

Everything a workload feeds the program is made here from the seed:
the internets, the edit stream, the daemon request script.  The
expected answers come from :class:`PaperScaleInternet`'s construction
(``expected_inconsistent_references``) and from :class:`EditOracle`,
which replays the edit log over a model of who polls whom.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.nmsl.specs import ProcessInvocation, Specification
from repro.workloads.generator import SyntheticInternet
from repro.workloads.paper import PaperScaleInternet, PaperScaleParameters


@dataclass(frozen=True)
class Sizes:
    """Input sizes.  Fixed by the workload definitions (there are no
    size flags); the test suite passes tiny ones."""

    text_domains: int = 1_000
    text_hubs: int = 25
    model_domains: int = 10_000
    model_hubs: int = 256


def _parameters(
    n_domains: int, hubs: int, seed: int, extra_silent: Sequence[int] = ()
) -> PaperScaleParameters:
    # Two silent domains (one of them a hub), one fast and one EGP poller:
    # every inconsistency kind the checker reports from references.
    return PaperScaleParameters(
        n_domains=n_domains,
        hub_count=hubs,
        silent_domains=(3, n_domains // 2) + tuple(extra_silent),
        fast_pollers=(5,),
        egp_pollers=(11,),
        seed=seed,
    )


def text_internet(
    sizes: Sizes, seed: int, extra_silent: Sequence[int] = ()
) -> PaperScaleInternet:
    return PaperScaleInternet(
        _parameters(sizes.text_domains, sizes.text_hubs, seed, extra_silent)
    )


def model_internet(sizes: Sizes, seed: int) -> PaperScaleInternet:
    return PaperScaleInternet(
        _parameters(sizes.model_domains, sizes.model_hubs, seed)
    )


def extra_silent_domains(sizes: Sizes, seed: int, count: int) -> List[int]:
    """Leaf domains to silence one at a time (file B, then phase C)."""
    taken = {3, sizes.text_domains // 2}
    rng = random.Random(seed ^ 0x5117)
    picked: List[int] = []
    while len(picked) < count:
        index = rng.randrange(sizes.text_domains)
        if index not in taken:
            taken.add(index)
            picked.append(index)
    return picked


def system_names(parameters: PaperScaleParameters) -> List[str]:
    return [
        SyntheticInternet.system_name(domain, system)
        for domain in range(parameters.n_domains)
        for system in range(parameters.systems_per_domain)
    ]


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# The edit stream.
# ----------------------------------------------------------------------
#: Exports edits before each structural edit.
BLOCK_EXPORTS = 10


@dataclass(frozen=True)
class Edit:
    """One cumulative one-domain edit.

    ``exports`` toggles the domain between silent and exporting;
    ``retarget`` points poller ``app`` of the domain at a host of
    domain ``target``.
    """

    kind: str
    domain: int
    app: int = 0
    target: int = 0


def edit_stream(
    parameters: PaperScaleParameters, seed: int, blocks: int
) -> List[Edit]:
    """``blocks`` × (BLOCK_EXPORTS exports edits, then one retarget)."""
    rng = random.Random(seed)
    n = parameters.n_domains
    edits: List[Edit] = []
    for _block in range(blocks):
        for _slot in range(BLOCK_EXPORTS):
            edits.append(Edit("exports", rng.randrange(n)))
        domain = rng.randrange(n)
        target = rng.randrange(n - 1)
        if target >= domain:
            target += 1  # never the poller's own domain
        edits.append(
            Edit(
                "retarget",
                domain,
                rng.randrange(parameters.applications_per_domain),
                target,
            )
        )
    return edits


def apply_edit(
    specification: Specification, edit: Edit, exports_on: Tuple
) -> Specification:
    """The next revision: one domain replaced, every other declaration
    shared by identity (the deployed-evolution shape)."""
    name = SyntheticInternet.domain_name(edit.domain)
    domain = specification.domains[name]
    if edit.kind == "exports":
        changed = dataclasses.replace(
            domain, exports=() if domain.exports else exports_on
        )
    else:
        processes = list(domain.processes)
        host = SyntheticInternet.system_name(
            edit.target, edit.app % len(domain.systems)
        )
        processes[edit.app] = ProcessInvocation(
            processes[edit.app].process_name, (host,)
        )
        changed = dataclasses.replace(domain, processes=tuple(processes))
    domains = dict(specification.domains)
    domains[name] = changed
    return dataclasses.replace(specification, domains=domains)


def exporting_clause(specification: Specification) -> Tuple:
    """The exports tuple of any exporting leaf domain (all share one)."""
    for domain in specification.domains.values():
        if domain.exports:
            return domain.exports
    raise ValueError("no exporting domain to copy an exports clause from")


class EditOracle:
    """The running expected inconsistency count, from the edit log alone.

    A poller is bad iff it is a fault poller (fast or EGP) or the domain
    it targets is silent — the rule ``expected_inconsistent_references``
    applies to the generating parameters, kept incrementally.
    """

    def __init__(self, internet: PaperScaleInternet):
        p = internet.parameters
        faults = set(p.fast_pollers) | set(p.egp_pollers)
        self._silent = set(p.silent_domains)
        self._targets: Dict[Tuple[int, int], int] = {}
        self._faulty = set()
        self._pollers_of: Counter = Counter()
        for domain in range(p.n_domains):
            for app in range(p.applications_per_domain):
                key = (domain, app)
                if domain * p.applications_per_domain + app in faults:
                    self._faulty.add(key)
                    continue
                target = internet.target_domain(domain, app)
                self._targets[key] = target
                self._pollers_of[target] += 1
        self.expected = len(self._faulty) + sum(
            self._pollers_of[domain] for domain in self._silent
        )

    def apply(self, edit: Edit) -> int:
        if edit.kind == "exports":
            if edit.domain in self._silent:
                self._silent.remove(edit.domain)
                self.expected -= self._pollers_of[edit.domain]
            else:
                self._silent.add(edit.domain)
                self.expected += self._pollers_of[edit.domain]
        elif (edit.domain, edit.app) not in self._faulty:
            key = (edit.domain, edit.app)
            old = self._targets[key]
            self._pollers_of[old] -= 1
            self._pollers_of[edit.target] += 1
            self._targets[key] = edit.target
            self.expected += (edit.target in self._silent) - (old in self._silent)
        return self.expected


# ----------------------------------------------------------------------
# The daemon request script.
# ----------------------------------------------------------------------
#: One round of the phase-B mix (the issue's 1100:300:60:24:16 scaled
#: to whole requests): the light requests, shuffled by the seed ...
MIX_ROUND_LIGHT: Tuple[Tuple[str, int], ...] = (
    ("check", 91),
    ("ping", 25),
    ("compile", 5),
)
#: ... and the heavy ones, evenly spaced in this order whatever the
#: seed.  Each builds a checker's worth of garbage, and every few of
#: them pays for a full collection of the worker's heap: were their
#: order shuffled too, the seed would decide how many slow ones land
#: in a run, and the throughput would measure the shuffle.
MIX_ROUND_HEAVY: Tuple[str, ...] = ("analyze", "diff", "analyze", "diff")
MIX_ROUND_REQUESTS = (
    sum(count for _op, count in MIX_ROUND_LIGHT) + len(MIX_ROUND_HEAVY)
)


def mix_script(
    seed: int, rounds: int, connections: int
) -> List[List[List[Tuple[str, str]]]]:
    """Per round, per connection, the requests: ``(op, spec)`` with spec
    ``A``/``B``.

    Every round has the same composition, so any number of whole rounds
    is the same mix.
    """
    rng = random.Random(seed ^ 0xD1CE)
    stride = MIX_ROUND_REQUESTS // len(MIX_ROUND_HEAVY)
    position = 0
    script: List[List[List[Tuple[str, str]]]] = []
    for _round in range(rounds):
        lanes: List[List[Tuple[str, str]]] = [[] for _ in range(connections)]
        light = [
            (op, "A" if op != "check" or rng.random() < 0.75 else "B")
            for op, count in MIX_ROUND_LIGHT
            for _ in range(count)
        ]
        rng.shuffle(light)
        for slot in range(MIX_ROUND_REQUESTS):
            heavy, offset = divmod(slot, stride)
            if offset == stride // 2 and heavy < len(MIX_ROUND_HEAVY):
                request = (MIX_ROUND_HEAVY[heavy], "A")
            else:
                request = light.pop()
            lanes[position % connections].append(request)
            position += 1
        script.append(lanes)
    return script


def digest_of(items: Iterable) -> str:
    return sha256_text(repr(list(items)))
