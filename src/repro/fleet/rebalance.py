"""Background re-replication: restoring R after a failure domain dies.

The rebalancer is the fleet's repair loop, running on the router's
discrete-event simulator.  It reacts to two placement signals:

* **Under-replication** — a regional failure left some shard with
  fewer than R live replicas.  The rebalancer copies the shard from a
  surviving replica to the best surviving region (first
  preference-order region that is up and empty of the shard).
* **Home restore** — a repaired region returns *empty*; shards whose
  home is that region get a copy back so serving can revert to the
  primary, after which any surplus emergency replica (made during the
  outage) is trimmed, returning the shard to exactly R copies.

Copies are **budgeted**: each costs ``rebalance_setup_us`` plus
``num_nodes / rebalance_bandwidth_nodes_per_us`` of simulated time,
and at most ``rebalance_concurrency`` copies stream at once — the rest
wait in FIFO order.  A copy whose target region dies mid-stream is
aborted and the deficit re-examined, so the loop converges as long as
any region stays up.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Set

from ..machine.des import Simulator
from .config import FleetConfig
from .placement import PlacementMap, ShardReplica
from .sharding import Shard


@dataclass(slots=True)
class CopyJob:
    """One in-flight (or queued) shard copy."""

    shard_id: int
    target_region: int
    replica: ShardReplica
    #: ``restore-R`` (replication deficit) or ``restore-home``.
    kind: str
    enqueued_us: float


class Rebalancer:
    """FIFO, bandwidth-budgeted re-replication loop."""

    def __init__(
        self,
        sim: Simulator,
        placement: PlacementMap,
        shards: List[Shard],
        config: FleetConfig,
        on_complete: Optional[Callable[[CopyJob], None]] = None,
        on_abort: Optional[Callable[[CopyJob], None]] = None,
    ) -> None:
        self.sim = sim
        self.placement = placement
        self.shards = shards
        self.config = config
        self.on_complete = on_complete
        self.on_abort = on_abort
        self._queue: Deque[CopyJob] = deque()
        self._in_flight = 0
        #: Shards with a queued or streaming copy (one at a time each).
        self._busy_shards: Set[int] = set()
        self.completed = 0
        self.aborted = 0

    # ------------------------------------------------------------------
    def copy_duration_us(self, shard_id: int) -> float:
        """Simulated cost of one full copy of the shard."""
        nodes = self.shards[shard_id].num_nodes
        return (self.config.rebalance_setup_us
                + nodes / self.config.rebalance_bandwidth_nodes_per_us)

    @property
    def idle(self) -> bool:
        """Whether no copy is queued or streaming."""
        return self._in_flight == 0 and not self._queue

    # ------------------------------------------------------------------
    def ensure_replication(self) -> int:
        """Queue copies for every shard below R; returns copies queued.

        A shard with **zero** live replicas has no copy source and is
        skipped — it re-enters the deficit scan when a region repair
        brings a replica back.
        """
        queued = 0
        for sid in range(self.placement.num_shards):
            if sid in self._busy_shards:
                continue
            active = self.placement.active_count(sid)
            if active >= self.config.replication_factor or active == 0:
                continue
            target = self.placement.rebuild_target(sid)
            if target is None:
                continue
            self._enqueue(sid, target, "restore-R")
            queued += 1
        return queued

    def restore_home(self, shard_ids: List[int]) -> int:
        """Queue copies back to the listed shards' home regions."""
        queued = 0
        for sid in shard_ids:
            if sid in self._busy_shards:
                continue
            home = self.placement.home_region(sid)
            if (not self.placement.region_up[home]
                    or home in self.placement.replicas[sid]
                    or self.placement.active_count(sid) == 0):
                continue
            self._enqueue(sid, home, "restore-home")
            queued += 1
        return queued

    # ------------------------------------------------------------------
    def _enqueue(self, shard_id: int, region: int, kind: str) -> None:
        replica = self.placement.begin_rebuild(shard_id, region)
        self._busy_shards.add(shard_id)
        self._queue.append(
            CopyJob(shard_id, region, replica, kind, self.sim.now)
        )
        self._drain()

    def _drain(self) -> None:
        while self._queue and self._in_flight < self.config.rebalance_concurrency:
            job = self._queue.popleft()
            self._in_flight += 1
            self.sim.schedule(
                self.copy_duration_us(job.shard_id), self._finish, job
            )

    def _finish(self, job: CopyJob) -> None:
        self._in_flight -= 1
        self._busy_shards.discard(job.shard_id)
        if self.placement.finish_rebuild(job.replica):
            self.completed += 1
            if job.kind == "restore-home":
                self.placement.trim_to_replication_factor(job.shard_id)
            if self.on_complete is not None:
                self.on_complete(job)
        else:
            self.aborted += 1
            if self.on_abort is not None:
                self.on_abort(job)
        # The world may have changed while this copy streamed; keep
        # chasing the deficit until every shard is whole again.
        self.ensure_replication()
        self._drain()
