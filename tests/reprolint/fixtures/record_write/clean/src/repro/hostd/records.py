"""Fixture: the store writes its own records."""


def refold(rec, pkt, t):
    rec.last_seen = t
    rec._update_seq += 1
    rec.bytes_by_epoch[rec._tag_observed] += pkt.size
