"""Discrete-event network simulator substrate.

This package replaces the paper's hardware testbed (Pica8 switches, OVS
datapaths, 10GE links, Linux TCP): an event-driven network with
output-queued switches, FIFO / strict-priority disciplines, a simplified
TCP Reno, and the traffic generators used by the paper's scenarios.
"""

from .engine import (AlternatingTimer, PeriodicTimer, SimulationError,
                     Simulator)
from .packet import (DEFAULT_MSS, DEFAULT_MTU, HEADER_BYTES, PRIO_HIGH,
                     PRIO_LOW, PRIO_MEDIUM, PROTO_TCP, PROTO_UDP, FlowKey,
                     Packet, TcpMeta, make_tcp, make_udp)
from .queues import (DEFAULT_CAPACITY_BYTES, DropTailFIFO, PacketQueue,
                     StrictPriorityQueue)
from .link import Interface, Link
from .device import Switch
from .host import Host
from .topology import (LinkFlapper, Network, TopologyError, build_fat_tree,
                       build_leaf_spine, build_linear, build_star)
from .tcp import TcpReceiver, TcpSender, open_tcp_flow
from .traffic import (BurstBatchPlan, TcpBulkTransfer, TcpTimedFlow,
                      UdpCbrSource, UdpSink, schedule_burst_batches)
from .stats import (InterArrivalProbe, ThroughputProbe, attach_flow_tap,
                    percentile)
from .workload import WorkloadGenerator, WorkloadSpec

__all__ = [
    "Simulator", "PeriodicTimer", "AlternatingTimer", "SimulationError",
    "Packet", "FlowKey", "TcpMeta", "make_tcp", "make_udp",
    "PROTO_TCP", "PROTO_UDP", "PRIO_LOW", "PRIO_MEDIUM", "PRIO_HIGH",
    "DEFAULT_MTU", "DEFAULT_MSS", "HEADER_BYTES",
    "PacketQueue", "DropTailFIFO", "StrictPriorityQueue",
    "DEFAULT_CAPACITY_BYTES",
    "Link", "Interface", "Switch", "Host",
    "Network", "TopologyError", "LinkFlapper",
    "build_linear", "build_star", "build_leaf_spine", "build_fat_tree",
    "TcpSender", "TcpReceiver", "open_tcp_flow",
    "UdpCbrSource", "UdpSink", "BurstBatchPlan", "schedule_burst_batches",
    "TcpBulkTransfer", "TcpTimedFlow",
    "ThroughputProbe", "InterArrivalProbe", "attach_flow_tap", "percentile",
    "WorkloadSpec", "WorkloadGenerator",
]
