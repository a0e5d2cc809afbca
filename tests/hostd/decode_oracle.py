"""The decoder the host's repeat fold is checked against: it parses
every packet.

:func:`parse_every_packet` is ``TelemetryDecoder.on_packet`` without
:meth:`FlowRecordStore.refold` — every VLAN packet goes through
``_parse_vlan`` and :meth:`FlowRecordStore.ingest`, and no record ever
remembers a header, so nothing is folded from a remembered parse.  Tests
install it with ``monkeypatch.setattr(TelemetryDecoder, "on_packet",
parse_every_packet)`` before the host agents are built, or call
:class:`ParseEveryPacket` where they wire decoders themselves.
"""
from __future__ import annotations

from repro.core.headers import VlanDoubleTag
from repro.hostd.decoder import TelemetryDecoder


def parse_every_packet(self, host, pkt, now):
    """Decode ``pkt`` from scratch and fold it into its record."""
    telemetry = pkt.telemetry
    if not isinstance(telemetry, VlanDoubleTag):
        self.undecodable += 1
        return
    parsed = self._parse_vlan(pkt, telemetry, self.host_clock.epoch_of(now))
    self.store.ingest(pkt.flow, pkt.size, now, pkt.priority, *parsed)
    self.decoded += 1


class ParseEveryPacket(TelemetryDecoder):
    """A :class:`TelemetryDecoder` whose sniffer hook parses every
    packet."""

    __slots__ = ()

    on_packet = parse_every_packet


def record_state(rec):
    """Every field of a record the store maintains, in a comparable form
    (dict items in insertion order)."""
    return (rec.flow, list(rec.switch_path), list(rec.epoch_ranges.items()),
            list(rec.bytes_by_epoch.items()), rec.packets, rec.bytes,
            rec.priority, rec.first_seen, rec.last_seen, rec._seq,
            rec._update_seq)


def store_state(store):
    """A store's counters, table order, records and index buckets.

    The store's first scan builds its index; reading the buckets builds
    it here, so both stores compared keep a built index from then on."""
    return (store.ingested, store.evicted, store.peak_records,
            store._next_seq,
            [record_state(rec) for rec in store._records.values()],
            [(sw, list(bucket)) for sw, bucket in store._index().items()])
