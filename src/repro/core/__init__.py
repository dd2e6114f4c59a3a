"""The paper's primary contribution: incremental maintenance of large itemsets.

* :class:`~repro.core.fup.FupUpdater` — the FUP algorithm of Section 3
  (insert-only increments).
* :class:`~repro.core.fup2.Fup2Updater` — the generalised updater handling
  deletions and modifications, the extension Section 5 alludes to.
* :class:`~repro.core.maintenance.RuleMaintainer` — the high-level API that
  owns a database plus its mined state and applies successive update batches.
* :class:`~repro.core.session.MaintenanceSession` — a durable, resumable
  maintenance session: a :class:`RuleMaintainer` persisted to a session
  directory with crash recovery by strict journal replay.
* :class:`~repro.core.options.FupOptions` — feature switches used by the
  ablation benchmarks.
* :mod:`repro.core.policy` — maintenance policies (sliding window, time
  decay, top-k); every batch a maintainer applies is planned through one.
"""

from .options import FupOptions
from .fup import FupUpdater, update_with_fup
from .fup2 import Fup2Updater, update_with_fup2
from .maintenance import MaintenanceReport, RuleMaintainer
from .policy import (
    MaintenancePlan,
    MaintenancePolicy,
    SlidingWindowPolicy,
    TimeDecayPolicy,
    TopKPolicy,
    UnboundedPolicy,
    parse_policy,
    policy_from_dict,
)
from .session import (
    MaintenanceSession,
    SessionStatus,
    load_state,
    read_session_state,
    save_state,
)

__all__ = [
    "FupOptions",
    "FupUpdater",
    "update_with_fup",
    "Fup2Updater",
    "update_with_fup2",
    "MaintenanceReport",
    "RuleMaintainer",
    "MaintenancePlan",
    "MaintenancePolicy",
    "UnboundedPolicy",
    "SlidingWindowPolicy",
    "TimeDecayPolicy",
    "TopKPolicy",
    "parse_policy",
    "policy_from_dict",
    "MaintenanceSession",
    "SessionStatus",
    "read_session_state",
    "save_state",
    "load_state",
]
