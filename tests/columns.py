"""Test helper: adoption-event rows as the three ``ingest_columns`` columns."""

import numpy as np


def event_columns(events):
    """Split ``(cascade_id, node, t)`` rows into an id list, an int64
    node array and a float64 time array."""
    return (
        [cid for cid, _, _ in events],
        np.array([node for _, node, _ in events], dtype=np.int64),
        np.array([t for _, _, t in events], dtype=np.float64),
    )
