"""The DSM runtime: the API applications program against.

* :class:`~repro.runtime.dsm.Dsm` -- per-node handle offering
  ``compute`` / ``read`` / ``write`` / ``touch`` region operations plus
  ``acquire`` / ``release`` / ``barrier``.
* :class:`~repro.runtime.shared_array.SharedArray` -- typed view over a
  shared segment.
* :func:`~repro.runtime.program.run_program` -- spawn one application
  process per node and run the machine to completion.
"""

from repro.runtime.dsm import Dsm
from repro.runtime.shared_array import SharedArray
from repro.runtime.program import ProgramResult, run_program

__all__ = ["Dsm", "SharedArray", "run_program", "ProgramResult"]
