"""The per-packet SwitchPointer pipeline at a switch (§4.1).

For every forwarded packet the datapath must:

1. compute the end-host slot: one MPHF evaluation of the destination
   (§4.1.2 — a single hash operation regardless of k);
2. set that slot's bit in one pointer set per level of the hierarchical
   store (the bits "in parallel" in hardware; a tight k-iteration loop
   here);
3. embed telemetry: in VLAN mode, push the (linkID, epochID) double tag
   at the path-pinning hop (CherryPick); in INT mode, append a
   (switchID, epochID) record at every hop.

:class:`SwitchPointerDatapath` attaches to a
:class:`repro.simnet.device.Switch` as a pipeline hook, so the simulator
core never knows monitoring exists.  The same object exposes
:meth:`process_slot_update` as a bare fast path for the Fig 9 datapath
throughput benchmark.
"""

from __future__ import annotations

from typing import Optional

from ..core.epoch import EpochClock
from ..core.headers import IntStack, VlanDoubleTag, VLAN_ID_MODULUS
from ..core.mphf import MinimalPerfectHash
from ..core.pointer import HierarchicalPointerStore
from ..simnet.device import Switch
from ..simnet.link import Interface
from ..simnet.packet import Packet
from .cherrypick import CherryPickPlanner

MODE_VLAN = "vlan"
MODE_INT = "int"
MODE_NONE = "none"  # pointer updates only; no header embedding
_MODES = (MODE_VLAN, MODE_INT, MODE_NONE)


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
        CherryPick decisions (VLAN mode only).
    mode:
        ``"vlan"`` (commodity double tagging), ``"int"`` (clean slate),
        or ``"none"`` (directory only).
    """

    def __init__(self, switch: Switch, clock: EpochClock,
                 mphf: MinimalPerfectHash,
                 store: HierarchicalPointerStore, *,
                 planner: Optional[CherryPickPlanner] = None,
                 mode: str = MODE_VLAN):
        if mode not in _MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if mode == MODE_VLAN and planner is None:
            raise ValueError("VLAN mode requires a CherryPickPlanner")
        self.switch = switch
        self.clock = clock
        self.mphf = mphf
        self.store = store
        self.planner = planner
        self.mode = mode
        self.packets_processed = 0
        self.tags_embedded = 0
        #: vlan id -> the tag this switch embeds on that link in the
        #: current epoch (``_dedup_epoch``): one frozen tag per (link,
        #: epoch), emptied whenever the epoch moves
        self._tags: dict[int, VlanDoubleTag] = {}
        switch.pipeline.append(self._hook)

    @property
    def mphf(self) -> MinimalPerfectHash:
        """The distributed MPHF; assigning a rebuilt one (the analyzer's
        push, §4.3) drops every slot remembered under the old function."""
        return self._mphf

    @mphf.setter
    def mphf(self, mphf: MinimalPerfectHash) -> None:
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
        mode = self.mode
        if mode == MODE_VLAN:
            if pkt.telemetry is None:  # else a previous hop pinned the path
                self._embed_vlan(pkt, out_iface, epoch)
        elif mode == MODE_INT:
            self._embed_int(pkt, epoch)

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

    # -- telemetry embedding ---------------------------------------------------

    def _embed_vlan(self, pkt: Packet, out_iface: Interface,
                    epoch: int) -> None:
        assert self.planner is not None
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

    def _embed_int(self, pkt: Packet, epoch: int) -> None:
        if pkt.telemetry is None:
            pkt.telemetry = IntStack()
        elif not isinstance(pkt.telemetry, IntStack):
            raise TypeError(
                "mixed telemetry modes on one path: found "
                f"{type(pkt.telemetry).__name__} in INT mode")
        pkt.telemetry.push(self.switch.name, epoch)
        self.tags_embedded += 1


class VanillaDatapath:
    """Forwarding-only baseline for Fig 9 ("vanilla OVS").

    Performs the same per-packet bookkeeping a plain software switch
    would (a flow-table dictionary probe) with no SwitchPointer work.
    """

    def __init__(self, dests: list[str]):
        self._flow_table = {d: i % 48 for i, d in enumerate(dests)}
        self.packets_processed = 0

    def process(self, dst: str) -> int:
        self.packets_processed += 1
        return self._flow_table[dst]
