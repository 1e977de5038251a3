"""One front door for execution selection: :class:`ExecutionPolicy`.

The policy says how one parallel comparison *group* advances:
``"racing"`` (one vectorized lockstep kernel for the whole group) or
``"sequential"`` (one comparison process per pair).  The first hit wins:

1. an explicit value on the policy itself (``ExecutionPolicy(...)``);
2. the comparison config's ``group_engine`` (the legacy spelling, kept
   working as a thin alias for a policy with that field set);
3. the library default, ``"racing"``.

How independent experiment runs are scheduled is not a policy field:
the harness entry points take ``n_jobs`` directly (see
:func:`repro.experiments.use_jobs`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal

from .config import ComparisonConfig
from .errors import ConfigError

__all__ = ["ExecutionPolicy", "DEFAULT_EXECUTION", "execution_policy_from_dict"]

GroupEngineName = Literal["racing", "sequential"]

#: Fields an older policy document may still carry.  They were never
#: read on any query path, so ``null`` is accepted (and dropped) for
#: recovery of persisted specs; any other value is an error.
_REMOVED_FIELDS = ("run_engine", "n_jobs")


@dataclass(frozen=True)
class ExecutionPolicy:
    """Declarative execution selection with a single resolution order.

    Attributes
    ----------
    group_engine:
        How a parallel comparison group advances: ``"racing"`` or
        ``"sequential"``.  ``None`` (no opinion) defers to
        ``ComparisonConfig.group_engine`` via :meth:`apply_to_config`.
    """

    group_engine: GroupEngineName | None = None

    def __post_init__(self) -> None:
        if self.group_engine not in (None, "racing", "sequential"):
            raise ConfigError(
                f"unknown group_engine {self.group_engine!r}"
            )

    def resolve_group_engine(
        self, config: ComparisonConfig | None = None
    ) -> GroupEngineName:
        """The concrete group engine under the documented order."""
        if self.group_engine is not None:
            return self.group_engine
        if config is not None:
            return config.group_engine
        return "racing"

    def apply_to_config(self, config: ComparisonConfig) -> ComparisonConfig:
        """``config`` with this policy's group engine applied (if any)."""
        engine = self.resolve_group_engine(config)
        if engine == config.group_engine:
            return config
        return config.with_(group_engine=engine)

    def to_document(self) -> dict:
        """A JSON-ready dict (inverse of :func:`execution_policy_from_dict`)."""
        return {"group_engine": self.group_engine}

    def with_(self, **changes: object) -> "ExecutionPolicy":
        """Return a copy with ``changes`` applied (validated)."""
        return replace(self, **changes)  # type: ignore[arg-type]


def execution_policy_from_dict(data: dict) -> ExecutionPolicy:
    """Revive an :class:`ExecutionPolicy` from :meth:`ExecutionPolicy.to_document`.

    Raises :class:`~repro.errors.ConfigError` on an unknown key, and on a
    removed field (``run_engine``, ``n_jobs``) set to anything but ``null``.
    """
    payload = dict(data)
    for name in _REMOVED_FIELDS:
        if name in payload:
            value = payload.pop(name)
            if value is not None:
                raise ConfigError(
                    f"execution field {name!r} was removed; got {value!r} "
                    "(only null is accepted)"
                )
    unknown = set(payload) - {"group_engine"}
    if unknown:
        raise ConfigError(f"unknown execution fields: {sorted(unknown)}")
    return ExecutionPolicy(**payload)


#: The empty policy: every decision defers down the resolution order.
DEFAULT_EXECUTION = ExecutionPolicy()
