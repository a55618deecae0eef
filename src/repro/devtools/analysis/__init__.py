"""Interprocedural concurrency analysis (REP101–REP104).

Where :mod:`repro.devtools.lint` checks one module at a time with purely
syntactic rules, this package builds a **per-package symbol table and
call graph** (:mod:`~repro.devtools.analysis.symbols`,
:mod:`~repro.devtools.analysis.callgraph`), tracks the **lock-held set**
through ``with self._lock:`` bodies and across intra-package calls
(:mod:`~repro.devtools.analysis.lockset`), and reports four families of
concurrency defects (:mod:`~repro.devtools.analysis.analyzers`):

========  ==============================================================
REP101    *guarded-by violation* — an attribute declared guarded (via a
          ``# guarded-by: _lock`` comment on its assignment in
          ``__init__``, or a ``_GUARDED_BY`` class/module registry) is
          read or written on some call path where the guarding lock is
          not held — including paths two or more calls deep that no
          single-module rule can see.
REP102    *lock-order inversion* — the global lock-acquisition-order
          graph (one edge per "acquired B while holding A" site, across
          the call graph) contains a cycle: two threads taking the
          involved locks in their respective orders can deadlock.
REP103    *await / blocking call while holding a lock* — the
          interprocedural extension of REP008: an ``await`` or a known
          thread-blocking call (``time.sleep``, socket/subprocess/...)
          executes on a path where a ``threading`` lock is held,
          stalling every other thread contending for it.
REP104    *fork-unsafe capture* — an argument shipped to a
          ``Process``/``Pool``/executor target is (or transitively
          holds) a threading lock, an open file handle, an asyncio
          primitive, a shared-memory handle
          (``create_segment``/``attach_untracked``/``SharedMemory``),
          or a live lock-owning service object; after ``fork`` the
          child inherits a possibly-locked lock, a shared file offset,
          or a duplicated shm fd whose unlink finalizer can fire twice,
          after ``spawn`` pickling fails late.  Children should receive
          the segment *name* and attach themselves.
========  ==============================================================

Soundness limits (see DESIGN.md §15): lock identity is class-level
(``ScoringService._lock`` names *every* instance's lock — sufficient
while each guarded object owns exactly one lock of a given name);
``lock.acquire()``/``release()`` pairs outside ``with`` are not tracked
(the runtime sanitizer in :mod:`repro.devtools.sanitize` covers dynamic
discipline); dynamic dispatch that cannot be resolved statically falls
back to "unknown" and produces **no** finding rather than a false
positive.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.devtools.analysis.analyzers import (
        ANALYSIS_RULE_IDS,
        analysis_rule_table,
        analyze_paths,
        analyze_sources,
    )
    from repro.devtools.analysis.symbols import PackageIndex, build_index

__all__ = [
    "ANALYSIS_RULE_IDS",
    "PackageIndex",
    "analysis_rule_table",
    "analyze_paths",
    "analyze_sources",
    "build_index",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.devtools.analysis.analyzers": (
            "ANALYSIS_RULE_IDS", "analysis_rule_table", "analyze_paths", "analyze_sources",
        ),
        "repro.devtools.analysis.symbols": ("PackageIndex", "build_index"),
    },
)
