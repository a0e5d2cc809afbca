"""repro — a reproduction of SwitchPointer (NSDI 2018).

SwitchPointer integrates end-host telemetry collection with in-network
visibility by using switch memory as a *directory service*: switches
store per-epoch pointers (one bit per end-host, indexed by a minimal
perfect hash) to the hosts holding relevant telemetry, arranged in a
k-level hierarchy over exponentially growing time windows.

Quick start::

    from repro import SwitchPointerDeployment
    from repro.simnet import build_linear

    net = build_linear(n_switches=3, hosts_per_switch=2)
    deploy = SwitchPointerDeployment(net, alpha_ms=10, k=3)
    # ... start traffic, run the simulator, then debug:
    # verdict = diagnose_contention(deploy.analyzer, deploy.alerts()[0])

Packages
--------
:mod:`repro.core`      the paper's data structures (MPHF, pointers, epochs)
:mod:`repro.simnet`    discrete-event network simulator substrate
:mod:`repro.switchd`   switch datapath + control-plane agent
:mod:`repro.hostd`     end-host telemetry (PathDump extended)
:mod:`repro.analyzer`  coordination + the four §5 debugging apps
:mod:`repro.baselines` PathDump, the end-host-only comparison point
:mod:`repro.rpc`       latency-modelled control-plane RPC
"""

from .deployment import SwitchPointerDeployment, DEFAULT_ALPHA_MS, DEFAULT_K

__version__ = "1.0.0"

__all__ = ["SwitchPointerDeployment", "DEFAULT_ALPHA_MS", "DEFAULT_K",
           "__version__"]
