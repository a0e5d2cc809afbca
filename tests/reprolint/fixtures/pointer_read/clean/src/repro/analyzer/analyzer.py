"""Fixture: the analyzer reads through the agent."""


def hosts_for(agent, directory, lo, hi):
    snaps, _source = agent.best_effort_snapshots(lo, hi)
    return directory.hosts_of({s for snap in snaps for s in snap.slots()})
