"""Serving maintained association rules (the read side of the system).

The maintenance side of this repo keeps discovered rules *current* under
update batches (FUP/FUP2, durable sessions); this package is why that
matters: it **serves** the maintained rules to queries while maintenance
keeps running.

* :class:`~repro.serve.snapshot.RuleSnapshot` — an immutable, versioned view
  of the rule set (rules + inverted antecedent-item index + itemset-support
  table), stamped with the maintenance sequence number that produced it.
* :class:`~repro.serve.store.RuleStore` — the lock-free single-writer /
  many-reader seam: publication is one atomic reference swap, readers never
  lock and never observe a half-applied batch.
* :class:`~repro.serve.async_server.AsyncRuleServer` — the asyncio JSON/HTTP
  front end (``/rules``, ``/recommend``, ``/itemset``, ``/health``) behind
  the ``repro serve`` and ``repro pipeline`` CLI subcommands: keep-alive
  HTTP/1.1, batched ``POST /recommend`` answered from one snapshot, a
  bounded LRU response cache invalidated on publish, per-client
  token-bucket rate limiting (429 + ``Retry-After``) and bounded-connection
  backpressure.
* :class:`~repro.serve.feed.SessionFeed` — keeps a store fresh from an
  on-disk :class:`~repro.core.session.MaintenanceSession` directory without
  ever taking the session's writer lock.

Request semantics (routing, parsing, normalized response headers) live in
:mod:`repro.serve.api`; the front end's cache and limiter in
:mod:`repro.serve.cache` / :mod:`repro.serve.ratelimit`.

See ``docs/serving.md`` for the snapshot/versioning model and the
consistency guarantees.
"""

from .async_server import AsyncRuleServer
from .cache import ResponseCache
from .feed import SessionFeed
from .ratelimit import RateLimiter, TokenBucket
from .snapshot import Recommendation, RuleSnapshot
from .store import RuleStore

__all__ = [
    "AsyncRuleServer",
    "RateLimiter",
    "Recommendation",
    "ResponseCache",
    "RuleSnapshot",
    "RuleStore",
    "SessionFeed",
    "TokenBucket",
]
