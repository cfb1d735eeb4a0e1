#!/usr/bin/env python
"""Runtime verification: is the network adhering to its specification?

The paper promises both specification and *verification* "that these
specifications are actually being adhered to in the network."  This
example closes the whole loop on the simulated internet:

1. compile the campus specification;
2. generate snmpd configuration and install it into the running agents
   (the prescriptive aspect, via the management path);
3. run eight simulated hours of management traffic;
4. verify observed inter-query intervals against the specification;
5. inject a misbehaving manager and watch both the runtime verifier and
   the installed per-community rate limits catch it — independently.

Run:  python examples/runtime_verification.py
"""

from repro import NmslCompiler
from repro.netsim.monitor import RuntimeVerifier
from repro.netsim.processes import ManagementRuntime
from repro.workloads.scenarios import campus_internet

HOURS = 8
DURATION = HOURS * 3600


def run_once(compiler, misbehaving=None, label=""):
    result = compiler.compile(campus_internet())
    runtime = ManagementRuntime(compiler, result)
    configured = runtime.install_configuration()
    overrides = {}
    if misbehaving:
        bad = next(
            driver.instance.id
            for driver in runtime.drivers
            if driver.instance.process_name == "nocMonitor"
        )
        overrides[bad] = misbehaving
    runtime.start(duration_s=DURATION, misbehaving=overrides)
    runtime.run(DURATION)

    verifier = RuntimeVerifier(runtime.facts)
    report = verifier.verify(runtime.log)

    print(f"--- {label} ---")
    print(f"  agents configured: {configured}")
    print(f"  outcomes over {HOURS}h: {runtime.outcomes()}")
    print("  " + report.render().replace("\n", "\n  "))
    discrepancies = verifier.cross_check_enforcement(runtime.log, report)
    if discrepancies:
        for message in discrepancies:
            print("  cross-check:", message)
    else:
        print(
            "  cross-check: server-side enforcement and independent "
            "observation agree"
        )
    print(
        "  network load (bps):",
        {
            name: round(bps, 1)
            for name, bps in runtime.internet.utilisation_report(DURATION).items()
        },
    )
    print()


def main() -> None:
    compiler = NmslCompiler()
    run_once(compiler, label="well-behaved campus")
    run_once(
        compiler,
        misbehaving=60.0,
        label="a NOC monitor polling every 60s against its 300s promise",
    )


if __name__ == "__main__":
    main()
