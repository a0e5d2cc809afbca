"""Ground-truth trajectories for tests: which switches a packet crossed.

A packet carries no record of its path (a real one does not).  A test
that needs that ground truth taps every switch of a network with one
:class:`Trajectories`, a ``Switch.pipeline`` hook that appends the
switch's name to the forwarded packet's entry.
"""


class Trajectories:
    """Each forwarded packet's switch names, in forwarding order."""

    def __init__(self, network):
        #: id(packet) -> (packet, switch names); holding the packet keeps
        #: its id from being reused by a later one
        self._paths = {}
        for sw in network.switches.values():
            sw.pipeline.append(self._hook)

    def _hook(self, sw, pkt, in_iface, out_iface):
        entry = self._paths.get(id(pkt))
        if entry is None:
            entry = self._paths[id(pkt)] = (pkt, [])
        entry[1].append(sw.name)

    def of(self, pkt):
        """The switches that forwarded ``pkt``, in order."""
        entry = self._paths.get(id(pkt))
        return [] if entry is None else list(entry[1])
