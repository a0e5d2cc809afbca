"""Fixture: a decoder that folds a repeated header itself."""


def on_packet(store, pkt, now, tag):
    rec = store.get(pkt.flow)
    rec.last_seen = now
    rec.bytes_by_epoch[rec._tag_observed] += pkt.size
    rec._tag, rec._tag_epoch = tag, 0
    rec.packets += 1
    rec.switch_path, rec._shape = (), ()
    rec._span_hi = max(rec._span_hi, 3)
    rec._folded = None


def read(rec):
    latest = rec.last_seen
    return latest
