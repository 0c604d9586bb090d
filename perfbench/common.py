"""Paths and process settings shared by the benchmark entry points.

Import this module before anything that imports numpy: it pins the BLAS
and OpenMP pools to one thread, so that the cli thread pool is the only
source of parallelism and timings do not depend on the BLAS default, and
it keeps glibc to one malloc arena, so that the peak RSS does not depend
on how pool threads come and go.
"""

from __future__ import annotations

import ctypes
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _one_malloc_arena() -> None:
    """Make glibc serve every thread from the main malloc arena.

    A cli pool thread that starts before the previous pool's thread has
    handed back its arena gets a fresh one, and the freed memory the old
    arena keeps resident raised the peak RSS by about 8 MB in some runs and
    not others. Must run before any thread starts; a no-op off glibc.
    """
    try:
        libc = ctypes.CDLL(None)  # the interpreter's own symbols, libc among them
        libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        libc.mallopt(-8, 1)  # M_ARENA_MAX
    except (OSError, AttributeError, TypeError):
        pass


_one_malloc_arena()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgram(RuntimeError):
    """The checkout holds no dsfq sources to benchmark."""


def import_dsfq():
    """Import dsfq from this checkout's ``src`` and return ``dsfq.cli``."""
    if not (SRC / "dsfq" / "__init__.py").is_file():
        raise MissingProgram(f"no dsfq package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dsfq
    from dsfq import cli

    if Path(dsfq.__file__).resolve().parent != SRC / "dsfq":
        raise MissingProgram(f"dsfq was imported from {dsfq.__file__}, not {SRC}")
    return cli


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))
