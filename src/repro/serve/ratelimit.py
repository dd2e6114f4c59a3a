"""Per-client token-bucket rate limiting for the serving tier.

Each client (keyed by ``X-Client-Id`` header when present, else the peer
address) owns one :class:`TokenBucket`: *rate* tokens refill per second up
to a *burst* ceiling, and each request spends one token.  A request that
finds the bucket empty is refused — the front end answers ``429 Too Many
Requests`` with a ``Retry-After`` header derived from
:meth:`TokenBucket.acquire`'s return value (the exact time until the next
token exists), so a well-behaved client can sleep precisely instead of
hammering.

:class:`RateLimiter` bounds its client map (LRU eviction past
``max_clients``) so a week-long server scanning the whole IPv4 space of
clients still holds O(max_clients) memory — an evicted client simply starts
over with a full bucket, which errs on the side of admitting traffic.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

__all__ = ["RateLimiter", "TokenBucket", "DEFAULT_MAX_CLIENTS"]

#: Bound on distinct clients tracked before LRU eviction kicks in.
DEFAULT_MAX_CLIENTS = 10_000


class TokenBucket:
    """One client's bucket: ``rate`` tokens/second, ``burst`` capacity."""

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate: float, burst: float, now: float) -> None:
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.updated = now

    def acquire(self, now: float) -> float:
        """Try to spend one token at time *now*.

        Returns ``0.0`` when the request is admitted, else the seconds until
        a full token will have accrued (the precise ``Retry-After``).
        """
        elapsed = max(0.0, now - self.updated)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.updated = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / self.rate


class RateLimiter:
    """A bounded map of per-client token buckets.

    Thread-safe: the async front end calls :meth:`check` from its event
    loop, but the class does not assume a single caller, so tests can share
    it across threads.
    """

    def __init__(
        self,
        rate: float,
        burst: float | None = None,
        *,
        max_clients: int = DEFAULT_MAX_CLIENTS,
        clock=time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive requests/second, got {rate}")
        if burst is None:
            # Default burst: one second's worth of traffic, at least one
            # request (a rate of 0.5/s must still ever admit anything).
            burst = max(1.0, rate)
        if burst < 1:
            raise ValueError(f"burst must be >= 1 request, got {burst}")
        if max_clients < 1:
            raise ValueError(f"max_clients must be positive, got {max_clients}")
        self.rate = float(rate)
        self.burst = float(burst)
        self.max_clients = int(max_clients)
        self._clock = clock
        self._buckets: OrderedDict[str, TokenBucket] = OrderedDict()
        self._lock = threading.Lock()
        self._allowed = 0
        self._limited = 0
        self._evicted = 0

    def check(self, client: str, now: float | None = None) -> float:
        """Admit or refuse one request from *client*.

        Returns ``0.0`` when admitted, else the seconds the client should
        wait before retrying.
        """
        if now is None:
            now = self._clock()
        with self._lock:
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst, now)
                self._buckets[client] = bucket
            self._buckets.move_to_end(client)
            while len(self._buckets) > self.max_clients:
                self._buckets.popitem(last=False)
                self._evicted += 1
            retry_after = bucket.acquire(now)
            if retry_after == 0.0:
                self._allowed += 1
            else:
                self._limited += 1
            return retry_after

    def __len__(self) -> int:
        with self._lock:
            return len(self._buckets)

    def stats(self) -> dict[str, float | int]:
        """Counters served by the async front end's ``/health`` endpoint."""
        with self._lock:
            return {
                "rate": self.rate,
                "burst": self.burst,
                "clients": len(self._buckets),
                "allowed": self._allowed,
                "limited": self._limited,
                "evicted": self._evicted,
            }
