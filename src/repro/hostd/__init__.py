"""SwitchPointer end-host component (PathDump extended, §4.2)."""

from .records import FlowRecord, FlowRecordStore
from .decoder import TelemetryDecoder
from .triggers import (SwitchEpochTuple, ThroughputDropTrigger,
                       VictimAlert, alert_tuples_from_record)
from .query import FlowSummary, QueryEngine, QueryResult
from .agent import HostAgent

__all__ = [
    "FlowRecord", "FlowRecordStore",
    "TelemetryDecoder",
    "ThroughputDropTrigger", "VictimAlert",
    "SwitchEpochTuple", "alert_tuples_from_record",
    "QueryEngine", "QueryResult", "FlowSummary",
    "HostAgent",
]
