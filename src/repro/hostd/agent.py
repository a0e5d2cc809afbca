"""Host agent: the end-host daemon (§4.2).

One :class:`HostAgent` per touched server (a deployment builds it when a
packet, trigger, fault or query first reaches the host) wires together
everything the paper's flask-based agent does:

* a sniffer on the host datapath feeding the telemetry decoder,
* the flow-record store,
* the query engine the analyzer calls into (built on the first query:
  most hosts of a large fabric are never asked),
* trigger registration (throughput drop) with alerts routed to a sink
  (normally the analyzer's ingest method).
"""

from __future__ import annotations

from typing import Optional

from ..core.epoch import EpochClock, EpochRangeEstimator
from ..simnet.engine import Simulator
from ..simnet.host import Host
from ..simnet.packet import FlowKey
from ..switchd.cherrypick import CherryPickPlanner
from .decoder import TelemetryDecoder
from .query import QueryEngine
from .records import FlowRecordStore
from .triggers import AlertSink, ThroughputDropTrigger


class HostAgent:
    """The SwitchPointer daemon running on one end-host.

    Parameters
    ----------
    max_records:
        Memory bound on the record table (None = unbounded).

    Every sniffed packet is decoded into its record update on arrival,
    so any read — query engine, trigger, analyzer app — sees every
    packet delivered so far.
    """

    __slots__ = ("host", "clock", "store", "decoder", "_query",
                 "triggers", "_sniffers", "alive")

    def __init__(self, host: Host, *, clock: EpochClock,
                 planner: CherryPickPlanner,
                 estimator: EpochRangeEstimator,
                 max_records: Optional[int] = None):
        self.host = host
        self.clock = clock
        self.store = FlowRecordStore(host.name, max_records=max_records)
        self.decoder = TelemetryDecoder(self.store, clock, planner,
                                        estimator)
        self._query: Optional[QueryEngine] = None
        #: tuples, rebound on install: an idle agent allocates none
        self.triggers: tuple[ThroughputDropTrigger, ...] = ()
        #: every sniffer callback this agent registered, so a crash can
        #: detach (and a restart re-attach) exactly its own hooks
        self._sniffers: tuple = ()
        self.alive = True
        self._add_sniffer(self.decoder.on_packet)

    def _add_sniffer(self, cb) -> None:
        self._sniffers += (cb,)
        if self.alive:
            self.host.sniffers.append(cb)

    @property
    def name(self) -> str:
        return self.host.name

    @property
    def sim(self) -> Simulator:
        return self.host.sim

    @property
    def query(self) -> QueryEngine:
        """The query engine the analyzer calls into, built on first use."""
        engine = self._query
        if engine is None:
            engine = self._query = QueryEngine(self.store)
        return engine

    # -- trigger management -------------------------------------------------

    def watch_flow(self, flow: FlowKey, sink: AlertSink, *,
                   window: float = 0.001, drop_threshold: float = 0.5,
                   floor_gbps: float = 0.05) -> ThroughputDropTrigger:
        """Install the §5.1 throughput-drop trigger for one flow."""
        trig = ThroughputDropTrigger(
            self.sim, flow, self.host.name, self.store, sink,
            window=window, drop_threshold=drop_threshold,
            floor_gbps=floor_gbps, clock=self.clock,
            slack_epochs=self.decoder.estimator.span_epochs(1))
        self.triggers += (trig,)
        # feed the trigger from the same sniffer stream the decoder uses
        self._add_sniffer(
            lambda _host, pkt, now: trig.on_packet(pkt, now))
        return trig

    # -- crash / restart (the agent-crash fault) -----------------------------

    def crash(self) -> int:
        """Kill the daemon: stop sniffing, lose all in-memory telemetry.

        Everything a real agent process holds in RAM dies with it: the
        record table.  Returns the number of records lost.  Idempotent —
        a crash of a dead agent loses nothing.
        """
        if not self.alive:
            return 0
        self.alive = False
        for cb in self._sniffers:
            self.host.sniffers.remove(cb)
        return self.store.drop_all()

    def restart(self) -> None:
        """Supervisor restart: resume sniffing with an empty table."""
        if self.alive:
            return
        self.alive = True
        self.host.sniffers.extend(self._sniffers)
