"""LRU cache of serving artifacts' lanes, keyed by content fingerprints.

The cache guarantees *create-exactly-once* semantics: an entry is built by
its factory under the cache lock, so concurrent first lookups of one key
get the same entry.  The serving engine's entries are *lanes* — created
without compiling, each compiles its artifact on its own thread — which is
what makes a key compile exactly once while no lookup ever waits on a
compile.  Keys are :class:`ArtifactKey` triples — model fingerprint,
pipeline-config fingerprint and the request input signature — produced by
the hooks in :mod:`repro.pipeline` and :mod:`repro.serving.engine`.

Eviction is LRU over *evictable* entries only (the engine's predicate: a
lane that is still compiling is never evicted; the cache may transiently
exceed capacity while several keys compile at once).  Evicted entries are
handed to the ``on_evict`` callback so their lanes, sessions and warm
worker pools can be shut down.

**Partitioning** — entries may carry a partition label (the serving QoS
layer passes the tenant that caused the compile).  A ``quota_for``
callback maps partitions to resident-entry quotas: when a partition
exceeds its quota, its *own* least-recently-used evictable entry is
evicted, so one heavy tenant churning through models can never evict
another tenant's warm artifacts — only global capacity overflow falls
back to cross-partition LRU, and even then over-quota partitions are
preferred victims.
"""

from __future__ import annotations

import collections
import dataclasses
import threading
from typing import Callable, Dict, List, Optional, Tuple


@dataclasses.dataclass(frozen=True)
class ArtifactKey:
    """Identity of one compiled artifact."""

    model_fingerprint: str
    config_fingerprint: str
    input_signature: Tuple

    def short(self) -> str:
        """Compact display form for logs and reports."""
        return f"{self.model_fingerprint[:10]}/{self.config_fingerprint[:8]}"


class ArtifactCache:
    """Thread-safe LRU map of :class:`ArtifactKey` to cache entries."""

    def __init__(self, capacity: int = 8,
                 on_evict: Optional[Callable[[ArtifactKey, object], None]] = None,
                 quota_for: Optional[Callable[[Optional[str]], Optional[int]]] = None,
                 evictable: Callable[[object], bool] = lambda entry: True) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._on_evict = on_evict
        self._quota_for = quota_for
        self._evictable = evictable
        self._lock = threading.Lock()
        self._entries: "collections.OrderedDict[ArtifactKey, object]" = \
            collections.OrderedDict()
        self._partitions: Dict[ArtifactKey, Optional[str]] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    def get_or_create(self, key: ArtifactKey, factory: Callable[[], object],
                      partition: Optional[str] = None):
        """Return ``(entry, hit)``; build the entry via ``factory`` on a miss.

        The factory runs under the cache lock — at most once per key, so
        it must be cheap (the engine's starts a lane thread and returns).
        A failing factory inserts nothing, so the key can be retried.

        ``partition`` labels a newly created entry (a hit keeps the
        original owner's label — artifacts are shared across tenants, the
        partition only decides whose quota funds residency).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._hits += 1
                self._entries.move_to_end(key)
                return entry, True
            self._misses += 1
            entry = factory()
            self._entries[key] = entry
            self._partitions[key] = partition
            evicted = self._evict_overflow_locked(partition)
        for evicted_key, evicted_entry in evicted:
            self._dispose(evicted_key, evicted_entry)
        return entry, False

    def _partition_size_locked(self, partition: Optional[str]) -> int:
        return sum(1 for part in self._partitions.values() if part == partition)

    def _pop_victim_locked(self, partition: Optional[str] = ...,
                           ) -> Optional[Tuple[ArtifactKey, object]]:
        """Pop the oldest evictable entry, optionally within one partition."""
        for key, entry in self._entries.items():
            if not self._evictable(entry):
                continue
            if partition is not ... and self._partitions.get(key) != partition:
                continue
            self._entries.pop(key)
            self._partitions.pop(key, None)
            self._evictions += 1
            return key, entry
        return None

    def _evict_overflow_locked(self, new_partition: Optional[str] = None
                               ) -> List[Tuple[ArtifactKey, object]]:
        """Pop oldest *evictable* entries while over quota/capacity (lock held)."""
        evicted: List[Tuple[ArtifactKey, object]] = []
        # Per-partition quota first: the inserting tenant evicts its own
        # LRU entry, never another partition's warm artifact.
        if self._quota_for is not None and new_partition is not None:
            quota = self._quota_for(new_partition)
            while (quota is not None
                   and self._partition_size_locked(new_partition) > quota):
                victim = self._pop_victim_locked(new_partition)
                if victim is None:
                    break  # partition entries all compiling; transient overflow
                evicted.append(victim)
        # Global capacity: prefer evicting from over-quota partitions so a
        # quota-less tenant's churn still cannot displace protected ones.
        while len(self._entries) > self.capacity:
            victim = None
            if self._quota_for is not None:
                for part in set(self._partitions.values()):
                    quota = self._quota_for(part) if part is not None else None
                    if (quota is not None
                            and self._partition_size_locked(part) > quota):
                        victim = self._pop_victim_locked(part)
                        if victim is not None:
                            break
            if victim is None:
                victim = self._pop_victim_locked()
            if victim is None:
                break  # everything still compiling; allow transient overflow
            evicted.append(victim)
        return evicted

    def _dispose(self, key: ArtifactKey, entry: object) -> None:
        if self._on_evict is not None:
            self._on_evict(key, entry)

    # ------------------------------------------------------------------
    def invalidate(self, key: ArtifactKey, expected: Optional[object] = None) -> bool:
        """Drop one entry (e.g. its warm pool broke); returns True if dropped.

        With ``expected`` given, the entry is only dropped if it is that
        exact object — so a stale holder of an evicted entry cannot knock
        out a freshly created replacement under the same key.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or (expected is not None and entry is not expected):
                return False
            del self._entries[key]
            self._partitions.pop(key, None)
            self._evictions += 1
        self._dispose(key, entry)
        return True

    def clear(self) -> None:
        """Evict every entry (used by engine shutdown)."""
        with self._lock:
            entries = list(self._entries.items())
            self._entries.clear()
            self._partitions.clear()
        for key, entry in entries:
            self._dispose(key, entry)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: ArtifactKey) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> List[ArtifactKey]:
        """Cached keys, LRU-oldest first."""
        with self._lock:
            return list(self._entries)

    def values(self) -> List[object]:
        """Cached entries, LRU-oldest first."""
        with self._lock:
            return list(self._entries.values())

    def partition_sizes(self) -> Dict[Optional[str], int]:
        """Resident-entry counts per partition label."""
        with self._lock:
            sizes: Dict[Optional[str], int] = {}
            for part in self._partitions.values():
                sizes[part] = sizes.get(part, 0) + 1
            return sizes

    def stats(self) -> Dict[str, int]:
        """Lookup/eviction counters."""
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }
