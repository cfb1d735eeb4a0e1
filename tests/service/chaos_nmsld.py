"""``nmsld`` with two fault knobs on ``check``, for tests only.

Run it in place of ``python -m repro.service.daemon``, with the same
flags::

    PYTHONPATH=src python -m tests.service.chaos_nmsld --socket S --workers 2

* ``chaos_sleep_s`` holds the request in its worker for that many
  seconds, so a test can ``kill -9`` a busy worker or overrun a
  deadline;
* ``chaos_exit`` ends the worker with that exit status mid-request, the
  way a segfault or an OOM kill would.

Neither knob exists in ``repro``: the production daemon refuses both as
undeclared parameters.  This launcher declares them on ``check``, wraps
the handler, then runs the daemon's ``main``.  Pool workers are forked
from this process, so they inherit both.
"""

import os
import sys
import time

from repro import operations
from repro.service import daemon
from repro.service.handlers import ServiceHandlers

KNOBS = {
    "chaos_sleep_s": operations.Param("chaos_sleep_s", float),
    "chaos_exit": operations.Param("chaos_exit", int),
}


def install() -> None:
    """Declare the knobs on ``check`` and make its handler obey them."""
    operations.OPERATIONS["check"].update(KNOBS)
    check = ServiceHandlers._op_check

    def chaotic_check(self, args, deadline, request):
        if args["chaos_sleep_s"] is not None:
            time.sleep(args["chaos_sleep_s"])
        if args["chaos_exit"]:
            os._exit(args["chaos_exit"])
        return check(self, args, deadline, request)

    ServiceHandlers._op_check = chaotic_check


if __name__ == "__main__":
    install()
    sys.exit(daemon.main())
