"""Fixture: the store reads its own levels."""


class HierarchicalPointerStore:
    k = 3

    def epoch_status(self, level, epoch):
        return "live"

    def snapshots_covering(self, level, lo, hi):
        return [self.epoch_status(level, e) for e in range(lo, hi + 1)]
