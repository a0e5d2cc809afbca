"""Fixture: a fault that reads the clock and schedules its work."""


def jump(sim, delta, fn):
    now = sim.now
    sim.schedule_at(now + delta, fn)
    return now


def reset(clock, t):
    clock.offset = t - clock.now
