"""Fixture: a decoder that leaves every record write to the store."""


def on_packet(store, pkt, now, tag, epoch, version):
    if not store.refold(pkt, now, tag, epoch, version):
        store.ingest(pkt.flow, pkt.size, now)


def read(rec, probe):
    probe.latest = rec.last_seen
    seen = {}
    seen[rec.flow] = rec.first_seen
    return seen
