"""Deterministic fault injection for simulated workflow runs.

``repro.faults`` is the chaos plane of the simulator: a declarative,
seedable :class:`FaultSpec` (flaky/dead/slow devices, short I/O, node
deaths at scheduled times) executed by a :class:`FaultInjector` hooked
into the filesystem and cluster layers.  Everything is driven by the
simulated clock and one seeded RNG, so a faulty run replays bit-for-bit —
the property the CI determinism gate checks.

Typical use::

    from repro.faults import DeviceFault, FaultSpec, FaultInjector

    spec = FaultSpec(seed=7, device_faults=(
        DeviceFault("/pfs", "transient", rate=0.05),
    ))
    injector = FaultInjector(spec, cluster, emit=monitor.publish).arm()
    runner = DataflowRunner(cluster, mapper, retry_policy=RetryPolicy(),
                            faults=injector)
    result = runner.run(workflow)
"""

from repro.faults.injector import FaultInjector
from repro.faults.spec import DeviceFault, FaultSpec, NodeFault

__all__ = ["DeviceFault", "NodeFault", "FaultSpec", "FaultInjector"]
