"""Fixture: the switch agent picks the level that answers."""


class SwitchAgent:
    def __init__(self, store):
        self.store = store

    def best_effort_snapshots(self, lo, hi):
        for level in range(1, self.store.k + 1):
            if self.store.epoch_status(level, lo) != "recycled":
                return self.store.snapshots_covering(level, lo, hi)
        return []
