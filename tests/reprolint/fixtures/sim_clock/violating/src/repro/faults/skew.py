"""Fixture: a fault that moves the simulated clock itself."""


def jump(sim, delta):
    sim.now += delta


def rewind(net, when):
    net.sim.now, other = when, 0


def reset(sim):
    setattr(sim, "now", 0.0)


def local(clock, t):
    now = t
    clock.offset = now
    return now
