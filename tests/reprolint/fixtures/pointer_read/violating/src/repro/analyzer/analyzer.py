"""Fixture: the analyzer picks a level itself."""


def hosts_for(agent, directory, lo, hi):
    store = agent.store
    if store.epoch_status(1, lo) == "recycled":
        return []
    snaps = agent.store.snapshots_covering(1, lo, hi)
    return directory.hosts_of({s for snap in snaps for s in snap.slots()})
