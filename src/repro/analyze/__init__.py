"""Static analysis of DSM application programs (``repro.analyze``).

This package verifies, *before any measured simulation runs*, that the
app programs in ``repro.apps`` are properly labeled: every conflicting
shared access ordered by acquire/release/barrier synchronization or
covered by a justified ``assume_disjoint`` annotation.  Relaxed
consistency (SW-LRC / HLRC) only promises SC results for properly
labeled programs, so this is the validity precondition for every
number the simulator produces.

``repro.analyze`` reads *source* (plus the footprints of one tiny
run); everything that post-processes
*results* (tables, classification, cost-model sensitivity) lives in
``repro.harness`` and ``repro.stats``.

Layers (see docs/ANALYSIS_STATIC.md):

* ``core``       -- AST helpers, Finding, noqa filtering (shared with
                    ``tools/lint_sim.py``)
* ``cfg``        -- AST -> CFG front end with interprocedural inlining
                    of ``yield from`` helper delegation
* ``dataflow``   -- lockset + barrier-region dataflow -> per-site
                    synchronization contexts
* ``footprint``  -- small-scope concretization: per-rank byte-interval
                    footprints recorded through the hooks of a real
                    tiny-machine run
* ``drf``        -- the labeling checker (ANA1xx) + assume_disjoint
                    audit
* ``falseshare`` -- static false-sharing prediction per granularity
* ``concordance``-- static warnings vs dynamic checker cross-tab
* ``api``        -- analyze_app / analyze_corpus entry points
"""

from repro.analyze.api import (  # noqa: F401
    AppAnalysis,
    CorpusAnalysis,
    analyze_app,
    analyze_corpus,
)
from repro.analyze.core import Finding  # noqa: F401
