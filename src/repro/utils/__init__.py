"""Shared low-level helpers: RNG handling, validation, timing.

These utilities are deliberately dependency-free (NumPy only) and are used
throughout the package.  Every stochastic component in :mod:`repro` accepts
either an integer seed, a :class:`numpy.random.Generator`, or ``None`` and
normalizes it through :func:`repro.utils.rng.as_generator`, which keeps the
whole pipeline reproducible end to end.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.utils.rng import as_generator, spawn_generators
    from repro.utils.timing import Stopwatch, time_callable
    from repro.utils.validation import (
        check_array_shape,
        check_fraction,
        check_nonnegative,
        check_positive,
        check_probability,
    )

__all__ = [
    "as_generator",
    "spawn_generators",
    "Stopwatch",
    "time_callable",
    "check_array_shape",
    "check_fraction",
    "check_nonnegative",
    "check_positive",
    "check_probability",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.utils.rng": ("as_generator", "spawn_generators"),
        "repro.utils.timing": ("Stopwatch", "time_callable"),
        "repro.utils.validation": (
            "check_array_shape", "check_fraction", "check_nonnegative", "check_positive",
            "check_probability",
        ),
    },
)
