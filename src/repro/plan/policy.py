"""The persistence policy: one home for the checkpoint wiring.

A :class:`PersistencePolicy` captures the four checkpoint knobs once —
a directory or a ready :class:`~repro.persist.CheckpointManager` (never
both), cadence, retention, and resume (which needs a target).  It
validates the combination a single time, serializes into the plan's
JSON record, and is the only code path that constructs the manager.
``sketch()``, :class:`~repro.core.SketchOperator`,
:class:`~repro.core.StreamingSketch` and the plan runtime all take it as
``persistence=``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import ConfigError
from ..utils.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.injector import FaultInjector
    from ..persist.snapshot import CheckpointManager

__all__ = ["PersistencePolicy"]


@dataclass(frozen=True)
class PersistencePolicy:
    """Durable-checkpoint policy carried by a :class:`~repro.plan.SketchPlan`.

    Attributes
    ----------
    checkpoint_dir:
        Directory for atomic snapshots; ``None`` disables persistence.
    every:
        Snapshot cadence, in completed row blocks (blocked runs) or rows
        absorbed (streaming).
    keep:
        Retention: how many verified snapshots the manager keeps.
    resume:
        Restore the newest verified-good snapshot before computing the
        rest; requires a checkpoint target.
    manager:
        A ready :class:`~repro.persist.CheckpointManager` instead of a
        directory (mutually exclusive with *checkpoint_dir*; not part of
        the serialized record — its directory is recorded instead).
    """

    checkpoint_dir: str | None = None
    every: int = 1
    keep: int = 2
    resume: bool = False
    manager: "CheckpointManager | None" = field(
        default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.manager is not None and self.checkpoint_dir is not None:
            raise ConfigError("pass at most one of checkpoint / checkpoint_dir")
        check_positive_int(self.every, "checkpoint_every")
        check_positive_int(self.keep, "checkpoint_keep")
        if self.resume and not self.enabled:
            raise ConfigError("resume=True requires a checkpoint directory")

    @property
    def enabled(self) -> bool:
        """Whether this run persists snapshots at all."""
        return self.manager is not None or self.checkpoint_dir is not None

    def build_manager(self, injector: "FaultInjector | None" = None
                      ) -> "CheckpointManager | None":
        """The policy's manager: the supplied one, a fresh one, or ``None``.

        *injector* reaches the snapshot writer's storage-fault hooks
        (``torn_write`` / ``bitflip``); production callers pass ``None``.
        """
        if self.manager is not None:
            return self.manager
        if self.checkpoint_dir is None:
            return None
        from ..persist.snapshot import CheckpointManager

        return CheckpointManager(self.checkpoint_dir, keep=self.keep,
                                 injector=injector)

    # -- construction helpers ----------------------------------------------

    @classmethod
    def disabled(cls) -> "PersistencePolicy":
        """The no-persistence policy."""
        return cls()

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready record (a live manager is recorded by directory)."""
        directory = self.checkpoint_dir
        if directory is None and self.manager is not None:
            directory = str(getattr(self.manager, "directory", None))
        return {
            "checkpoint_dir": directory,
            "every": int(self.every),
            "keep": int(self.keep),
            "resume": bool(self.resume),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PersistencePolicy":
        return cls(
            checkpoint_dir=data.get("checkpoint_dir"),
            every=int(data.get("every", 1)),
            keep=int(data.get("keep", 2)),
            resume=bool(data.get("resume", False)),
        )
