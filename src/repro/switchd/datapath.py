"""The per-packet SwitchPointer pipeline at a switch (§4.1).

For every forwarded packet the datapath must:

1. compute the end-host slot: one MPHF evaluation of the destination
   (§4.1.2 — a single hash operation regardless of k);
2. set that slot's bit in one pointer set per level of the hierarchical
   store (the bits "in parallel" in hardware; a tight k-iteration loop
   here);
3. push the (linkID, epochID) VLAN double tag at the path-pinning hop
   (CherryPick); every later hop leaves it as it is.

:class:`SwitchPointerDatapath` attaches to a
:class:`repro.simnet.device.Switch` as a pipeline hook, so the simulator
core never knows monitoring exists.  The same object exposes
:meth:`process_slot_update` as a bare fast path for the Fig 9 datapath
throughput benchmark.
"""

from __future__ import annotations

from typing import Optional

from ..core.epoch import EpochClock
from ..core.headers import VlanDoubleTag, VLAN_ID_MODULUS
from ..core.mphf import MinimalPerfectHash
from ..core.pointer import HierarchicalPointerStore
from ..simnet.device import Switch
from ..simnet.link import Interface
from ..simnet.packet import Packet
from .cherrypick import CherryPickPlanner


class SwitchPointerDatapath:
    """SwitchPointer processing bound to one switch.

    Parameters
    ----------
    switch:
        The simulated switch to instrument.
    clock:
        This switch's local epoch clock (its skew models asynchrony).
    mphf:
        The analyzer-distributed minimal perfect hash over end-hosts.
    store:
        This switch's hierarchical pointer store.
    planner:
        CherryPick decisions: which egress link pins a packet's path.
    """

    def __init__(self, switch: Switch, clock: EpochClock,
                 mphf: MinimalPerfectHash,
                 store: HierarchicalPointerStore, *,
                 planner: CherryPickPlanner):
        self.switch = switch
        self.clock = clock
        self.install_mphf(mphf)
        self.store = store
        self.planner = planner
        self.packets_processed = 0
        self.tags_embedded = 0
        #: vlan id -> the tag this switch embeds on that link in the
        #: current epoch (``_dedup_epoch``): one frozen tag per (link,
        #: epoch), emptied whenever the epoch moves
        self._tags: dict[int, VlanDoubleTag] = {}
        switch.pipeline.append(self._hook)

    def install_mphf(self, mphf: MinimalPerfectHash) -> None:
        """Use the distributed MPHF; installing a rebuilt one (the
        analyzer's push, §4.3) drops every slot remembered under the old
        function."""
        self._mphf = mphf
        #: dst -> slot: the MPHF is static (rebuilt only offline, §4.1.2),
        #: so one evaluation per destination suffices — the cache stands
        #: in for the O(1) hash a hardware pipeline computes for free.
        self._slot_cache: dict[str, int] = {}
        #: slots already recorded in the current epoch: a duplicate
        #: (epoch, slot) update is a pure bit-set no-op (no rotation can
        #: trigger within one epoch), so it is skipped with only the
        #: store's update counter advanced.  Reset whenever the epoch
        #: moves — forward or backward (clock-skew faults) — so every
        #: rotation the per-packet path would perform still happens.
        self._dedup_epoch: Optional[int] = None
        self._dedup_slots: set[int] = set()

    # -- pipeline hook --------------------------------------------------------

    def _hook(self, sw: Switch, pkt: Packet, in_iface: Optional[Interface],
              out_iface: Interface) -> None:
        epoch = self.clock.epoch_of(sw.sim.now)
        if epoch < 0:
            # a clock running behind has not reached epoch 0 yet: record
            # epoch 0 (segment -1 reads as empty, and no header carries
            # a negative epoch)
            epoch = 0
        self.process_slot_update(pkt.flow.dst, epoch)
        if pkt.telemetry is None:  # else a previous hop pinned the path
            self._embed_vlan(pkt, out_iface, epoch)

    def process_slot_update(self, dst: str, epoch: int) -> int:
        """The §4.1.2 fast path: one hash, then k bit-sets.

        Returns the slot for callers that want to assert on it; the Fig 9
        benchmark drives this method directly.  The slot comes from the
        per-destination cache (one MPHF evaluation per dst ever) and a
        repeated (epoch, slot) pair skips the redundant bit-sets while
        advancing the store's update counter exactly as the uncached
        path would.
        """
        self.packets_processed += 1
        cache = self._slot_cache
        slot = cache.get(dst)
        if slot is None:
            slot = cache[dst] = self._mphf.lookup(dst)
        if epoch != self._dedup_epoch:
            self._dedup_epoch = epoch
            self._tags.clear()
            seen = self._dedup_slots
            seen.clear()
            seen.add(slot)
            self.store.update(epoch, slot)
        elif slot in self._dedup_slots:
            self.store.updates += 1
        else:
            self._dedup_slots.add(slot)
            self.store.update(epoch, slot)
        return slot

    # -- the VLAN double tag ---------------------------------------------------

    def _embed_vlan(self, pkt: Packet, out_iface: Interface,
                    epoch: int) -> None:
        link = out_iface.link
        vlan_id = link.vlan_id
        # the tag carries the network-local wire id; links never wired
        # through a Network (or beyond 12 bits) cannot be tagged
        if vlan_id is None or vlan_id >= VLAN_ID_MODULUS:
            return
        flow = pkt.flow
        if self.planner.pins_path(flow.src, flow.dst, link):
            # ``epoch`` is ``_dedup_epoch``: the hook updated the slot
            # first, which empties the tag cache when the epoch moves
            tag = self._tags.get(vlan_id)
            if tag is None:
                tag = self._tags[vlan_id] = VlanDoubleTag.embed(vlan_id,
                                                                epoch)
            pkt.telemetry = tag
            self.tags_embedded += 1
