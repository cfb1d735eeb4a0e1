"""Every operation's parameters, declared once.

One :class:`Param` per (operation, parameter): the wire name, the type,
the default, the allowed range or choices and, where ``nmslc`` has the
same option, its flag, metavar and help.  ``nmsld`` checks a request's
``params`` against the rows at admission (:func:`resolve`); ``nmslc``
builds the options it shares with the daemon from them, under the wire
names (:meth:`Param.option`); both hand a campaign to
``ManagementRuntime`` (whose defaults are :func:`defaults`) through
:func:`campaign`.  Stdlib only at import.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

#: The output tags a compiler registers without extensions.
TAGS: Tuple[str, ...] = ("BartsSnmpd", "acl-table", "consistency", "osi")
DEFAULT_TAG = "BartsSnmpd"
#: The codes of the default analysis registry's passes.
ANALYSIS_CODES = ("NM101", "NM102", "NM103", "NM201", "NM202", "NM203",
                  "NM204", "NM301", "NM302")
#: Where every seeded campaign and simulation starts unless told.
DEFAULT_SEED = 1989

#: What a value of each type must be, as a refusal says it.
_EXPECTED = {
    bool: "true or false", int: "an integer", float: "a number",
    str: "a non-empty string", list: "a list of non-empty strings",
}


def _parts(text: str) -> Tuple[str, ...]:
    """The entries of a comma-separated list, blanks dropped."""
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _show(value) -> str:
    """A value as a refusal quotes it: JSON, cut short."""
    text = json.dumps(value, sort_keys=True)
    return text if len(text) <= 40 else text[:37] + "..."


@dataclass(frozen=True)
class Param:
    """One parameter of one operation."""

    name: str
    type: type  # bool, int, float, str, or list (of strings)
    default: object = None  # what an absent parameter reads as
    help: str = ""  # nmslc help, a str.format template over ``default``
    flag: Optional[str] = None
    metavar: Optional[str] = None
    #: The allowed values; of a list, or a listed string, each entry's.
    choices: Tuple[str, ...] = ()
    #: A comma-separated string, read as the tuple of its parts.
    listed: bool = False
    positive: bool = False  # numbers > 0, lists non-empty
    required: bool = False
    #: Given, this parameter stands in for the required one it names.
    replaces: Optional[str] = None
    #: The default as the handlers read it, checked once, here.
    checked_default: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        checked = None if self.default is None else self.check("", self.default)
        object.__setattr__(self, "checked_default", checked)

    def check(self, op: str, value):
        """*value* as the handlers read it; ValueError if it does not fit."""
        where = f"{op}: params.{self.name}"
        if not self._fits(value):
            raise ValueError(
                f"{where} must be {_EXPECTED[self.type]}, got {_show(value)}"
            )
        if self.positive and not (value if self.type is list else value > 0):
            wanted = "non-empty" if self.type is list else "positive"
            raise ValueError(f"{where} must be {wanted}, got {_show(value)}")
        if self.listed:
            value = _parts(value)
        for part in value if isinstance(value, (list, tuple)) else (value,):
            if self.choices and part not in self.choices:
                raise ValueError(
                    f"{where} must be one of {', '.join(self.choices)}, "
                    f"got {_show(part)}"
                )
        return float(value) if self.type is float else value

    def _fits(self, value) -> bool:
        if self.type is bool or isinstance(value, bool):
            return self.type is bool and isinstance(value, bool)
        if self.type is float:
            return isinstance(value, (int, float)) and math.isfinite(value)
        if self.type is list:
            return isinstance(value, list) and all(
                isinstance(item, str) and item for item in value
            )
        return isinstance(value, self.type) and value != ""

    def option(self) -> dict:
        """``argparse`` keywords for this row's ``nmslc`` option."""
        text = self.help.format(default=self.default)
        if self.type is bool:
            return {"action": "store_true", "dest": self.name, "help": text}
        option = {"dest": self.name, "default": self.default,
                  "metavar": self.metavar, "help": text}
        if self.listed:
            option["type"] = _parts
        elif self.type in (int, float):
            option["type"] = self.type
        if self.choices and not self.listed:
            option["choices"] = self.choices
        return option


def _op(*rows: Param) -> Dict[str, Param]:
    return {row.name: row for row in rows}


def _tag(verb: str) -> Param:
    return Param("tag", str, DEFAULT_TAG, f"configuration output type to "
                 f"{verb} (default: {{default}})", "--output", "TAG",
                 choices=TAGS)


_SPEC = Param("spec", str, required=True)
#: What ``rollout`` and ``heal`` both drive: one delivery campaign.
_CAMPAIGN = (
    Param("max_attempts", int, 5, "delivery attempts per element before "
          "dead-lettering (default: {default})", "--max-attempts", "N",
          positive=True),
    Param("timeout_s", float, 2.0, "per-exchange deadline in logical "
          "seconds (default: {default})", "--timeout", "SECONDS",
          positive=True),
    Param("jobs", int, 4, "bounded in-flight concurrency (default: "
          "{default})", "--jobs", "N", positive=True),
    Param("seed", int, DEFAULT_SEED, "seed for backoff jitter and chaos "
          "injection (default: {default})", "--seed", "N"),
)
_ELEMENTS = Param("elements", list)

#: op -> its parameters by name, in declaration order.
OPERATIONS: Dict[str, Dict[str, Param]] = {
    "ping": _op(),
    "status": _op(),
    "slo": _op(),
    "compile": _op(_SPEC),
    "check": _op(_SPEC, Param(
        "capacity", bool, False,
        "also warn about elements likely to be swamped", "--capacity")),
    "analyze": _op(
        _SPEC,
        Param("specs", list, positive=True, replaces="spec"),
        Param("select", list, choices=ANALYSIS_CODES),
    ),
    "diff": _op(
        Param("old", str, required=True),
        Param("new", str, required=True),
        Param("output", str, DEFAULT_TAG, "comma-separated configuration "
              "output tags to fingerprint for byte-wise change detection "
              "(default: {default})", "--output", "TAGS", choices=TAGS,
              listed=True),
        Param("waiver", str, None, "waiver file of explicitly approved "
              "findings (same format as an analysis baseline, tool "
              "'nmslc-diff'); waived findings are reported but never fail "
              "the run", "--waiver", "FILE"),
    ),
    "rollout": _op(
        _SPEC, _tag("roll out"), *_CAMPAIGN,
        Param("chunk_size", int, 1024, "staging chunk size per Set "
              "(default: {default})", "--chunk-size", "OCTETS",
              positive=True),
        _ELEMENTS,
        Param("baseline_install", bool, False, "direct-install the "
              "configuration first so every agent has a last-known-good to "
              "roll back to (simulates a brownfield campus)",
              "--baseline-install"),
        Param("diff_base", str, None, "previously shipped specification "
              "revision; the campaign stages only elements impacted by the "
              "delta and refuses to ship unwaived access widenings (NM401)",
              "--diff-base", "FILE"),
        Param("waiver", str, None, "waiver file of approved relational "
              "findings (see nmslc diff --update-waiver); only used with "
              "--diff-base", "--waiver", "FILE"),
    ),
    "heal": _op(
        _SPEC, _tag("reconcile"), *_CAMPAIGN, _ELEMENTS,
        Param("rounds", int, 10, "reconciliation round budget (default: "
              "{default})", "--rounds", "N", positive=True),
        Param("interval_s", float, 30.0, "logical seconds between rounds "
              "(default: {default:g})", "--interval", "SECONDS",
              positive=True),
        Param("install", bool, False, "direct-install the configuration "
              "first (otherwise round 1 treats every element as drifted "
              "and converges by re-driving)", "--install"),
    ),
}


def defaults(op: str) -> Dict[str, object]:
    """Every parameter of *op* as an absent one reads."""
    return {name: row.default for name, row in OPERATIONS[op].items()}


def resolve(op: str, params: dict) -> Dict[str, object]:
    """*params* checked against *op*'s rows, every default filled in.

    ValueError, naming the op and the parameter, for an undeclared key,
    a missing required one, a wrong type, an out-of-range value or a
    choice not on the list.
    """
    rows = OPERATIONS[op]
    for name in params:
        if name not in rows:
            raise ValueError(
                f"{op}: params.{_show(name)[1:-1]} is not a parameter of "
                f"{op} (it takes: {', '.join(sorted(rows)) or 'none'})"
            )
    resolved = {}
    for name, row in rows.items():
        if name in params:
            resolved[name] = row.check(op, params[name])
        elif row.required and not any(
            other.replaces == name and other.name in params
            for other in rows.values()
        ):
            raise ValueError(f"{op}: params.{name} is required")
        else:
            resolved[name] = row.checked_default
    return resolved


def campaign(args: Mapping[str, object]) -> Dict[str, object]:
    """``ManagementRuntime.rollout``/``heal`` keywords from a campaign's
    values by wire name (``nmsld``'s resolved args, or ``vars()`` of
    ``nmslc``'s); ``nmsld``'s ``heal`` has no ``chunk_size`` to pass."""
    from repro.rollout import RetryPolicy

    taken_as_is = ("tag", "jobs", "seed", "chunk_size")
    keywords = {name: args[name] for name in taken_as_is if name in args}
    keywords["policy"] = RetryPolicy(max_attempts=args["max_attempts"],
                                     timeout_s=args["timeout_s"])
    return keywords
