"""SwitchPointer end-host component (PathDump extended, §4.2)."""

from .records import FlowRecord, FlowRecordStore, SpillFormatError
from .decoder import TelemetryDecoder
from .triggers import (SwitchEpochTuple, TcpTimeoutTrigger,
                       ThroughputDropTrigger, VictimAlert,
                       alert_tuples_from_record)
from .query import FlowSummary, QueryEngine, QueryResult
from .agent import HostAgent
from . import aggregate

__all__ = [
    "FlowRecord", "FlowRecordStore", "SpillFormatError",
    "TelemetryDecoder",
    "ThroughputDropTrigger", "TcpTimeoutTrigger", "VictimAlert",
    "SwitchEpochTuple", "alert_tuples_from_record",
    "QueryEngine", "QueryResult", "FlowSummary",
    "HostAgent",
    "aggregate",
]
