"""Pluggable event-queue backends for the :class:`Simulator`.

The simulator orders events by the total key ``(time, priority, seq)``;
every backend must deliver entries in exactly that order so that
same-seed runs are byte-identical regardless of backend.  Two backends
ship:

:class:`HeapQueue`
    The reference binary heap (``heapq``).  O(log n) push/pop, robust
    for every workload shape, and the default.

:class:`CalendarQueue`
    A bucketed calendar tuned for the timer-dominated regime (probes,
    price ticks and lease expiries arm tick-aligned storms; the flow
    allocator keeps its completion deadlines in its own heap and queues
    only the earliest).  Entries hash into *days*
    — buckets of ``bucket_width`` simulated seconds, held in a dict
    keyed by ``int(time / width)`` — and a lazy min-heap of day keys
    orders the buckets.  Within a bucket entries are kept sorted, so

    * pushes in non-decreasing key order (the common case: timers armed
      "now + delay" while the clock advances) append in O(1); an entry
      queued under an older reserved seq (``Simulator.schedule_at``)
      is insorted into place, even inside a same-time run;
    * a same-``(time, priority)`` run is *contiguous* and pops as one
      ``bisect``-delimited slice — the batch costs O(log b) total
      instead of one O(log n) heap percolation per event;
    * far-future pending mass (millions of armed-but-distant timers)
      never touches the cost of operations at the head.

Both backends cancel lazily: :meth:`Event.deschedule` only flags the
event, and stale entries are dropped when they surface at the head.
Each backend counts deschedule notifications and **compacts** — rebuilds
itself without the dead entries — once the descheduled fraction exceeds
~50%, so a cancellation-heavy run cannot hold unbounded garbage.  The counter
may overshoot (events can be descheduled after popping); compaction
recounts from the ground truth, so an early compaction is the only
consequence.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right, insort
from typing import Dict, List, Optional, Tuple

#: A queue entry: ``(time, priority, seq, event)``.  ``seq`` is unique,
#: so tuple comparison never reaches the event object.
Entry = Tuple[float, int, int, object]

#: Compact when descheduled entries exceed half the queue...
COMPACT_FRACTION = 0.5
#: ...but never bother below this size (compaction is O(n)).
COMPACT_MIN = 512

#: Sentinel sorting after every real ``seq`` in a ``(time, priority)``
#: run (bisect key; ``seq`` is always a finite int).
_END_OF_RUN = float("inf")


class HeapQueue:
    """The reference binary-heap backend (``heapq`` on one list)."""

    name = "heap"

    __slots__ = ("_heap", "_dead", "compactions")

    def __init__(self):
        self._heap: List[Entry] = []
        self._dead = 0
        #: Lifetime count of :meth:`compact` runs (kernel-health feed).
        self.compactions = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def dead(self) -> int:
        """Descheduled entries believed still queued (may overshoot —
        see the module docstring; compaction recounts exactly)."""
        return self._dead

    def stats(self) -> dict:
        """Health snapshot: depth, dead-entry estimate, compactions."""
        depth = len(self._heap)
        return {
            "backend": self.name,
            "depth": depth,
            "dead": self._dead,
            "dead_ratio": (self._dead / depth) if depth else 0.0,
            "compactions": self.compactions,
        }

    def push(self, entry: Entry) -> None:
        heapq.heappush(self._heap, entry)

    def peek(self) -> Optional[Entry]:
        """The earliest live entry (stale heads dropped), or ``None``."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[3]._descheduled:
                heapq.heappop(heap)
                if self._dead:
                    self._dead -= 1
            else:
                return entry
        return None

    def pop(self) -> Optional[Entry]:
        """Remove and return the earliest live entry, or ``None``."""
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            if entry[3]._descheduled:
                if self._dead:
                    self._dead -= 1
                continue
            return entry
        return None

    def pop_batch(self, out: List[Entry]) -> bool:
        """Pop the whole run of live entries sharing the head's
        ``(time, priority)`` into ``out`` (seq order).  False if empty."""
        entry = self.pop()
        if entry is None:
            return False
        out.append(entry)
        heap = self._heap
        time, priority = entry[0], entry[1]
        while heap:
            head = heap[0]
            if head[0] != time or head[1] != priority:
                break
            heapq.heappop(heap)
            if head[3]._descheduled:
                if self._dead:
                    self._dead -= 1
                continue
            out.append(head)
        return True

    def note_descheduled(self) -> None:
        """One queued event was lazily cancelled; compact past ~50%."""
        self._dead += 1
        if (self._dead > len(self._heap) * COMPACT_FRACTION
                and len(self._heap) >= COMPACT_MIN):
            self.compact()

    def compact(self) -> None:
        """Drop every descheduled entry and re-heapify."""
        self._heap = [e for e in self._heap if not e[3]._descheduled]
        heapq.heapify(self._heap)
        self._dead = 0
        self.compactions += 1


class CalendarQueue:
    """Bucketed calendar backend (see the module docstring).

    Parameters
    ----------
    bucket_width:
        Simulated seconds per bucket.  Events within one width of each
        other share a bucket; the default of 1.0 suits second-scale
        ticks (probes, price traces, flow deadlines).  Too-wide buckets
        degrade to sorted-list insertion; too-narrow ones degrade to a
        heap of singleton buckets — both stay correct.
    """

    name = "calendar"

    __slots__ = ("_width", "_buckets", "_days", "_size", "_dead",
                 "compactions")

    def __init__(self, bucket_width: float = 1.0):
        if not bucket_width > 0:
            raise ValueError(f"bucket_width must be positive, got {bucket_width}")
        self._width = float(bucket_width)
        #: day -> entries sorted by (time, priority, seq); a *day* is
        #: ``int(time / width)``, computed once at push so float
        #: rounding can never disagree between push and pop.
        self._buckets: Dict[int, List[Entry]] = {}
        #: Lazy min-heap of days that (may) still hold a live bucket.
        self._days: List[int] = []
        self._size = 0
        self._dead = 0
        #: Lifetime count of :meth:`compact` runs (kernel-health feed).
        self.compactions = 0

    def __len__(self) -> int:
        return self._size

    @property
    def dead(self) -> int:
        """Descheduled entries believed still queued (may overshoot —
        see the module docstring; compaction recounts exactly)."""
        return self._dead

    def stats(self) -> dict:
        """Health snapshot: depth, dead estimate, bucket shape."""
        occupancy = [len(b) for b in self._buckets.values() if b]
        return {
            "backend": self.name,
            "depth": self._size,
            "dead": self._dead,
            "dead_ratio": (self._dead / self._size) if self._size else 0.0,
            "compactions": self.compactions,
            "bucket_width": self._width,
            "buckets": len(occupancy),
            "max_bucket": max(occupancy, default=0),
            "mean_bucket": (sum(occupancy) / len(occupancy)
                            if occupancy else 0.0),
        }

    def push(self, entry: Entry) -> None:
        day = int(entry[0] / self._width)
        bucket = self._buckets.get(day)
        if bucket is None:
            self._buckets[day] = [entry]
            heapq.heappush(self._days, day)
        elif entry >= bucket[-1]:
            # Timers armed while the clock advances arrive in key order:
            # append without the binary search.
            bucket.append(entry)
        else:
            insort(bucket, entry)
        self._size += 1

    def _head_bucket(self):
        """``(bucket, day)`` holding the earliest live entry, with stale
        heads and exhausted days pruned; ``None`` when empty."""
        buckets, days = self._buckets, self._days
        while days:
            day = days[0]
            bucket = buckets.get(day)
            if bucket is not None:
                # Prune the stale prefix in one pass: per-entry del
                # bucket[0] would shift the whole list each time, O(n^2)
                # when dead entries concentrate in one large bucket.
                i, n = 0, len(bucket)
                while i < n and bucket[i][3]._descheduled:
                    i += 1
                if i:
                    del bucket[:i]
                    self._size -= i
                    self._dead -= min(self._dead, i)
                if bucket:
                    return bucket, day
                del buckets[day]
            heapq.heappop(days)
        return None

    def peek(self) -> Optional[Entry]:
        found = self._head_bucket()
        return found[0][0] if found is not None else None

    def pop(self) -> Optional[Entry]:
        found = self._head_bucket()
        if found is None:
            return None
        bucket, day = found
        entry = bucket.pop(0)
        self._size -= 1
        if not bucket:
            del self._buckets[day]
            heapq.heappop(self._days)
        return entry

    def pop_batch(self, out: List[Entry]) -> bool:
        found = self._head_bucket()
        if found is None:
            return False
        bucket, day = found
        head = bucket[0]
        # The run shares the head's (time, priority) and is contiguous:
        # one bisect finds its extent, one slice lifts it out.
        hi = bisect_right(bucket, (head[0], head[1], _END_OF_RUN))
        run = bucket[:hi]
        del bucket[:hi]
        self._size -= hi
        if not bucket:
            del self._buckets[day]
            heapq.heappop(self._days)
        if self._dead:
            live = [e for e in run if not e[3]._descheduled]
            dropped = hi - len(live)
            if dropped:
                self._dead = max(0, self._dead - dropped)
            out.extend(live)
        else:
            out.extend(run)
        return True

    def note_descheduled(self) -> None:
        """One queued event was lazily cancelled; compact past ~50%."""
        self._dead += 1
        if (self._dead > self._size * COMPACT_FRACTION
                and self._size >= COMPACT_MIN):
            self.compact()

    def compact(self) -> None:
        """Rebuild the buckets without the descheduled entries."""
        buckets: Dict[int, List[Entry]] = {}
        size = 0
        for day, bucket in self._buckets.items():
            live = [e for e in bucket if not e[3]._descheduled]
            if live:
                buckets[day] = live
                size += len(live)
        self._buckets = buckets
        self._days = sorted(buckets)  # a sorted list is a valid heap
        self._size = size
        self._dead = 0
        self.compactions += 1


#: Backend registry for ``Simulator(queue=...)`` string specs.
BACKENDS = {"heap": HeapQueue, "calendar": CalendarQueue}


def make_queue(spec):
    """Resolve a ``Simulator(queue=...)`` argument to a backend instance.

    ``None`` or a name from :data:`BACKENDS` builds a fresh backend; a
    pre-built backend object (anything with push/pop/pop_batch/peek) is
    passed through, so tuned instances like
    ``CalendarQueue(bucket_width=0.25)`` plug straight in.
    """
    if spec is None:
        return HeapQueue()
    if isinstance(spec, str):
        try:
            return BACKENDS[spec]()
        except KeyError:
            raise ValueError(
                f"unknown queue backend {spec!r}; expected one of "
                f"{sorted(BACKENDS)} or a backend instance"
            ) from None
    return spec
