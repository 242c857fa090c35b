"""The deadman failure detector (paper §2.3).

Each cub periodically beacons to its two ring successors and its two
ring predecessors, and declares a monitored neighbour dead after
``deadman_timeout`` seconds of silence.  Detection is therefore purely
local knowledge — two cubs may briefly disagree about who is alive,
which the schedule protocol tolerates by design (views may be stale).

Monitoring both directions is what lets the *preceding* living cub
bridge a gap of two or more consecutive failed cubs (§2.3: "the
preceding living cub will send scheduling information to the
succeeding living cub").  A beat carries its sender's boot epoch, so a
reboot inside the timeout is a membership change too.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple


class DeadmanMonitor:
    """One cub's local beliefs about its neighbours' liveness."""

    def __init__(
        self,
        cub_id: int,
        num_cubs: int,
        timeout: float,
        watch_distance: int = 2,
        now: float = 0.0,
    ) -> None:
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        if not 1 <= watch_distance < num_cubs:
            raise ValueError("watch distance must be in [1, num_cubs)")
        self.cub_id = cub_id
        self.num_cubs = num_cubs
        self.timeout = timeout
        self._watched = self._neighbourhood(watch_distance)
        #: Seeded with the construction time, not 0.0: a monitor built
        #: mid-run (a cub restarting after a crash) must grant every
        #: neighbour a full timeout of grace before declaring it dead.
        self._last_heard: Dict[int, float] = {cub: now for cub in self._watched}
        #: Each neighbour's boot epoch, learnt from its first beat heard.
        self._epochs: Dict[int, float] = {}
        self._believed_failed: Set[int] = set()
        #: When a believed-dead neighbour was last heard again.
        self._resurrected_at: Dict[int, float] = {}

    def _neighbourhood(self, distance: int) -> Tuple[int, ...]:
        cubs = []
        for step in range(1, distance + 1):
            for neighbour in (
                (self.cub_id + step) % self.num_cubs,
                (self.cub_id - step) % self.num_cubs,
            ):
                if neighbour != self.cub_id and neighbour not in cubs:
                    cubs.append(neighbour)
        return tuple(cubs)

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------
    def note_heartbeat(self, from_cub: int, now: float, epoch: float) -> Optional[bool]:
        """Record a liveness beacon; returns the membership change it makes.

        True: a cub believed dead is back.  False: a cub believed alive
        beats with a larger epoch, so it rebooted unseen; it is declared
        dead now, and its next beat brings it back.  None: no change.  A
        smaller epoch is a late beat from an earlier life: not heard."""
        known = self._epochs.get(from_cub)
        if known != epoch:
            if known is None:
                if from_cub not in self._last_heard:
                    return None  # not a neighbour we monitor
            elif epoch < known:
                return None
            elif from_cub not in self._believed_failed:
                self._epochs[from_cub] = epoch
                self._believed_failed.add(from_cub)
                return False
            self._epochs[from_cub] = epoch
        self._last_heard[from_cub] = now
        if from_cub in self._believed_failed:
            self._believed_failed.discard(from_cub)
            self._resurrected_at[from_cub] = now
            return True
        return None

    def check(self, now: float) -> Tuple[int, ...]:
        """Scan for newly silent neighbours; returns fresh declarations."""
        newly_failed = []
        for cub, last in self._last_heard.items():
            if cub in self._believed_failed:
                continue
            if now - last > self.timeout:
                self._believed_failed.add(cub)
                newly_failed.append(cub)
        return tuple(newly_failed)

    # ------------------------------------------------------------------
    # Beliefs
    # ------------------------------------------------------------------
    def believes_failed(self, cub_id: int) -> bool:
        return cub_id in self._believed_failed

    def recently_resurrected(self, cub_id: int, now: float) -> bool:
        """Was ``cub_id`` heard again, after being believed dead, within
        the last deadman timeout?  The owner relays a state it would
        hold for such a cub (the restart race).  Asked for every held
        state; until some neighbour has come back it answers at once."""
        resurrected = self._resurrected_at
        if not resurrected:
            return False
        heard_again = resurrected.get(cub_id)
        return heard_again is not None and heard_again >= now - self.timeout

    @property
    def believed_failed(self) -> frozenset:
        return frozenset(self._believed_failed)

    @property
    def watched(self) -> Tuple[int, ...]:
        return self._watched

    def next_living_cub(self, after: int) -> int:
        """First cub after ``after`` (exclusive) believed alive.

        Cubs outside the monitored neighbourhood are assumed alive —
        beliefs are local, exactly as §4's view model allows.
        """
        failed = self._believed_failed
        for step in range(1, self.num_cubs + 1):
            candidate = (after + step) % self.num_cubs
            if candidate == self.cub_id or candidate not in failed:
                # Self is always alive from its own perspective — an
                # isolated cub that believes the whole rest of the ring
                # dead wraps around to itself rather than raising.
                return candidate
        raise RuntimeError("no living cub found (whole ring believed dead)")

    def adopts(self, cub_id: int) -> bool:
        """Is ``cub_id`` believed dead with this cub the first living one
        after it?  Then its chains and its starts are this cub's."""
        return cub_id in self._believed_failed and self.next_living_cub(cub_id) == self.cub_id

    def living_successors(self, count: int = 2) -> Tuple[int, ...]:
        """The next ``count`` cubs after self believed alive — the
        forwarding destinations for viewer states and deschedules."""
        out = []
        cursor = self.cub_id
        for _ in range(count):
            cursor = self.next_living_cub(cursor)
            if cursor == self.cub_id:
                break  # ring exhausted (tiny systems under mass failure)
            if cursor not in out:
                out.append(cursor)
        return tuple(out)
