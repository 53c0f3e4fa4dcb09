"""The protocol registry: one string -> implementation mapping.

Before this module existed the name -> class mapping was duplicated as
literal lists across ``cluster/machine.py``, ``harness/matrix.py``,
``harness/cli.py`` and ``mc/litmus.py``; adding a protocol meant
touching all four.  Now every protocol -- the paper's three, the
extension protocols (dc/erc), the ``tardis`` timestamp-lease protocol
and the deliberately-broken model-checker canary -- registers itself
here at class-definition time, and every consumer derives its choices
from the registry.

Each entry also carries the two pieces of *metadata* consumers need
without instantiating the class:

* ``memory_model`` -- the consistency contract the protocol implements
  (``"sc"`` or ``"lrc"``); the model checker's litmus catalog selects
  allowed-outcome sets by this, not by protocol name.
* ``uses_notices`` -- whether synchronization messages carry vector
  timestamps and write notices (sizes the lock/barrier wire messages).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: consistency contracts a protocol may declare
MEMORY_MODELS = ("sc", "lrc")

#: the paper's evaluated trio, in paper (Figure 1) column order
PAPER_PROTOCOLS: Tuple[str, ...] = ("sc", "swlrc", "hlrc")


@dataclass(frozen=True)
class ProtocolInfo:
    """One registered protocol: implementation class plus the metadata
    consumers (CLI, model checker, sync services) select behavior by."""

    name: str
    cls: type
    memory_model: str
    uses_notices: bool


_REGISTRY: Dict[str, ProtocolInfo] = {}


def register_protocol(name: str, cls: type, *, memory_model: str,
                      uses_notices: bool) -> type:
    """Register a protocol implementation under ``name``.

    Re-registration under the same name replaces the entry (the broken
    canary intentionally shadows nothing, but tests re-import modules).
    Returns ``cls`` so the call composes with decorators.
    """
    if memory_model not in MEMORY_MODELS:
        raise ValueError(
            f"protocol {name!r} declares memory model {memory_model!r}; "
            f"must be one of {MEMORY_MODELS}"
        )
    _REGISTRY[name] = ProtocolInfo(
        name=name, cls=cls, memory_model=memory_model,
        uses_notices=uses_notices,
    )
    return cls


def _ensure_populated() -> None:
    # Protocols register at class-definition time; importing the core
    # package defines the standard set.  Consumers may query the
    # registry before anything imported repro.core (the CLI does).
    if not _REGISTRY:
        import repro.core  # noqa: F401  (populates via @register)


def protocol_info(name: str) -> ProtocolInfo:
    _ensure_populated()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown protocol {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def get_protocol(name: str) -> type:
    """The implementation class registered under ``name``."""
    return protocol_info(name).cls


def available_protocols() -> Tuple[str, ...]:
    """All registered protocol names, sorted."""
    _ensure_populated()
    return tuple(sorted(_REGISTRY))


def memory_model_of(name: str) -> str:
    """The consistency contract ``name`` declares ("sc" or "lrc")."""
    return protocol_info(name).memory_model


def evaluated_protocols() -> Tuple[str, ...]:
    """The paper's three evaluated protocols, validated against the
    registry (paper order, not sorted)."""
    _ensure_populated()
    missing = [p for p in PAPER_PROTOCOLS if p not in _REGISTRY]
    if missing:
        raise RuntimeError(f"paper protocols not registered: {missing}")
    return PAPER_PROTOCOLS


def scaling_protocols() -> Tuple[str, ...]:
    """The four protocols the node-count scaling study compares: the
    paper trio plus the O(1)-metadata timestamp-lease protocol."""
    base = evaluated_protocols()
    return base + ("tardis",) if "tardis" in _REGISTRY else base
