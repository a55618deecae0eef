"""Reusable buffer pool for the serving hot path.

:class:`ScoringWorkspace` is the serving analog of the gradient
kernel's :class:`~repro.embedding.compiled.GradientWorkspace` (DESIGN.md
§11): named, grow-only numpy buffers recycled across calls so a
steady-state ``score_columns`` call — slot resolution, one fancy-index
gather of the pooled feature-cache rows, one vectorized
``decision_function`` — performs no heap allocation for its numpy
intermediates.  Only the output columns, which outlive the call, are
allocated per call.

Ownership rules (DESIGN.md §13):

* the :class:`~repro.serving.service.ScoringService` owns exactly one
  workspace and only touches it under its lock — the workspace itself
  is *not* thread-safe;
* the store's gather/ingest helpers receive the workspace as an
  argument and may use any buffer; no buffer's content survives a call
  (every buffer is fully written before it is read within one call, so
  reuse can never leak state between batches);
* views handed out of a call (e.g. the gathered feature matrix) are
  valid only until the next call that uses the workspace.  Anything
  that escapes the service (``ScoreResult.features``) must be copied.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = ["ScoringWorkspace"]


class ScoringWorkspace:
    """Named grow-only buffers for ingest bursts and batched scoring."""

    #: growth slack so a slowly growing batch size doesn't realloc per call
    _SLACK = 1.25

    def __init__(self) -> None:
        self._mats: Dict[str, np.ndarray] = {}
        self._vecs: Dict[str, np.ndarray] = {}

    def mat(self, name: str, rows: int, cols: int) -> np.ndarray:
        """A float64 ``(rows, cols)`` view of the named matrix buffer."""
        buf = self._mats.get(name)
        if buf is None or buf.shape[1] != cols or buf.shape[0] < rows:
            cap = max(rows, int(rows * self._SLACK), 1)
            buf = np.empty((cap, cols), dtype=np.float64)
            self._mats[name] = buf
        return buf[:rows]

    def vec(self, name: str, size: int, dtype: type = np.float64) -> np.ndarray:
        """A ``(size,)`` view of the named vector buffer (dtype pinned
        per name — ask for a consistent dtype under one name)."""
        buf = self._vecs.get(name)
        if buf is None or buf.size < size or buf.dtype != np.dtype(dtype):
            cap = max(size, int(size * self._SLACK), 1)
            buf = np.empty(cap, dtype=dtype)
            self._vecs[name] = buf
        return buf[:size]
