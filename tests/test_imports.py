"""Import hygiene: any module first, and what ``nmslc`` pays at start.

``repro/__init__.py`` resolves its public names on first access (PEP
562), so nothing orders the subpackage imports any more: every package
has to import on its own in a fresh interpreter, in particular the
modules ``benchmarks/ledger`` reaches for first.  The default command's
import set is pinned here, so a new eager import at ``repro.cli`` import
time fails CI instead of showing up as drift in ``cli.import_s``.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_SRC = Path(repro.__file__).resolve().parents[1]

PACKAGES = sorted(
    info.name
    for info in pkgutil.iter_modules(repro.__path__, prefix="repro.")
)

#: What ``benchmarks/ledger`` children import first, in their order.
LEDGER_ENTRY_POINTS = [
    "repro.consistency.checker",
    "repro.nmsl.compiler",
    "repro.workloads.paper",
    "repro.service",
]

#: Imported by some subcommand, never by ``import repro.cli`` itself.
NOT_AT_CLI_IMPORT = (
    "networkx",
    "repro.netsim",
    "repro.rollout",
    "repro.service",
    "repro.snmp",
    "asyncio",
    "email",
)


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_every_package_is_listed():
    assert "repro.consistency" in PACKAGES and "repro.nmsl" in PACKAGES
    assert len(PACKAGES) >= 15


@pytest.mark.parametrize("module", ["repro", *PACKAGES, *LEDGER_ENTRY_POINTS])
def test_imports_on_its_own(module):
    done = _fresh_python(f"import {module}")
    assert done.returncode == 0, done.stderr


def test_checker_then_compiler_in_the_ledger_childs_order():
    done = _fresh_python(
        "from repro.consistency.checker import ConsistencyChecker\n"
        "from repro.nmsl.compiler import CompilerOptions, NmslCompiler\n"
        "c = NmslCompiler(CompilerOptions())\n"
        "r = c.compile('process p ::= supports mgmt.mib; end process p.')\n"
        "print(ConsistencyChecker(r.specification, c.tree).check().consistent)"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "True"


def test_cli_import_set_is_pinned():
    done = _fresh_python(
        "import sys, repro.cli\n"
        f"heavy = {NOT_AT_CLI_IMPORT!r}\n"
        "print(','.join(name for name in heavy if name in sys.modules))"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "", (
        "import repro.cli now pulls in: " + done.stdout.strip()
    )


def test_operations_loads_no_other_repro_module():
    """Both front ends import the op table; its bodies import lazily."""
    done = _fresh_python(
        "import sys, repro.operations\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.')))"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "['repro.operations']"


def test_bare_import_repro_loads_no_subpackage():
    done = _fresh_python(
        "import sys, repro\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.')))"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_public_names_resolve_lazily():
    assert len(repro.__all__) == 27 == len(set(repro.__all__))
    listed = dir(repro)
    for name in repro.__all__:
        assert name in listed
        value = getattr(repro, name)
        assert value.__name__ == name
        # Resolved once, then an ordinary module attribute.
        assert repro.__dict__[name] is value
    assert repro.__version__ == "1.0.0"


def test_star_import_and_unknown_name():
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    from repro import ConsistencyChecker, NmslCompiler, obs  # noqa: F401

    with pytest.raises(AttributeError, match="no attribute 'Nope'"):
        repro.Nope
    with pytest.raises(ImportError):
        from repro import Nope  # noqa: F401
