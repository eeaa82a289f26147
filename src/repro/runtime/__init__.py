"""The layered speculative runtime.

The paper's architecture (Sec. 2–3) is explicitly layered; this package
gives each layer a first-class home so engines are thin compositions and
schedulers/admission are swappable policies:

========================  =============================================
layer                      module
========================  =============================================
dependency forest          :mod:`repro.runtime.forest`
(admission + emission)
buffered op-log            :mod:`repro.runtime.oplog`
operator instances         :mod:`repro.runtime.instances`
scheduling strategies      :mod:`repro.runtime.scheduler`
process sharding           :mod:`repro.runtime.sharding`
========================  =============================================

:class:`~repro.spectre.engine.SpectreEngine` and its variants compose
these layers; :class:`~repro.graph.graph.OperatorGraph` runs whole
operator pipelines on top of them.
"""

from repro.runtime.forest import Forest
from repro.runtime.instances import InstancePool, OperatorInstance
from repro.runtime.oplog import OpLog, RuntimeHooks
from repro.runtime.scheduler import (
    SCHEDULER_NAMES,
    SCHEDULERS,
    FifoScheduler,
    RoundRobinScheduler,
    Scheduler,
    TopKProbabilityScheduler,
    make_scheduler,
)
from repro.runtime.sharding import (
    Shard,
    ShardedSpectreEngine,
    ShardPlan,
    plan_shards,
)

__all__ = [
    "Forest",
    "OpLog",
    "RuntimeHooks",
    "InstancePool",
    "OperatorInstance",
    "Shard",
    "ShardPlan",
    "ShardedSpectreEngine",
    "plan_shards",
    "Scheduler",
    "TopKProbabilityScheduler",
    "FifoScheduler",
    "RoundRobinScheduler",
    "SCHEDULERS",
    "SCHEDULER_NAMES",
    "make_scheduler",
]
