"""The coherence protocols: the paper's three, plus extensions.

* :class:`~repro.core.sc.SCProtocol` -- sequential consistency
  (Stache-style home-based directory with recall/invalidate).
* :class:`~repro.core.swlrc.SWLRCProtocol` -- single-writer lazy
  release consistency (versioned blocks, ownership migration, acquire-
  time invalidation from write notices, one-hop read service).
* :class:`~repro.core.hlrc.HLRCProtocol` -- home-based multiple-writer
  lazy release consistency (twin/diff, eager flush to home at release,
  whole-block fetch on miss).

Extensions beyond the paper:

* :class:`~repro.core.delayed.DelayedSCProtocol` (``dc``) and
  :class:`~repro.core.erc.ERCProtocol` (``erc``) -- the sensitivity-
  study protocols;
* :class:`~repro.core.tardis.TardisProtocol` (``tardis``) --
  timestamp-lease coherence with O(1) per-block metadata (no
  directories, no vector clocks, no invalidations), the scaling
  study's fourth protocol.

All of them share the message-routing/home-forwarding helpers in
:mod:`repro.core.protocol`; the LRC protocols additionally share the
interval/vector-timestamp machinery in :mod:`repro.core.timestamps`.
Importing this package registers every protocol with
:mod:`repro.core.registry`, the single name -> implementation mapping
consumers (CLI, harness, model checker) derive their choices from.
"""

from repro.core.protocol import CoherenceProtocol, make_protocol
from repro.core.registry import (
    available_protocols,
    get_protocol,
    memory_model_of,
    register_protocol,
)
from repro.core.sc import SCProtocol
from repro.core.swlrc import SWLRCProtocol
from repro.core.hlrc import HLRCProtocol
from repro.core.delayed import DelayedSCProtocol
from repro.core.erc import ERCProtocol
from repro.core.tardis import TardisProtocol

__all__ = [
    "CoherenceProtocol",
    "SCProtocol",
    "SWLRCProtocol",
    "HLRCProtocol",
    "DelayedSCProtocol",
    "ERCProtocol",
    "TardisProtocol",
    "make_protocol",
    "register_protocol",
    "get_protocol",
    "available_protocols",
    "memory_model_of",
]
