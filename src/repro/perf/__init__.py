"""Performance layer: per-process memo, warm worker pool, run metadata.

Three small pieces make the experiment suite behave like a sweep
service instead of a script (docs/ARCHITECTURE.md, "Performance layer"):

- :mod:`repro.perf.memo` — a tiny bounded per-process memo that lets
  trial-decomposed experiments share δ-independent context (datasets,
  solvers, query engines) across the trials one process executes,
  exactly as the monolithic loops shared it before decomposition.
- :mod:`repro.perf.pool` — the persistent warm worker pool used by
  ``runner --jobs N``: one :class:`~concurrent.futures.ProcessPoolExecutor`
  whose initializer pre-imports the experiment modules once per worker,
  so every submitted task is a lightweight spec, never a pickled dataset.
- :mod:`repro.perf.meta` — the environment metadata that makes
  ``BENCH_results.json`` files comparable across runs and machines.
"""

from repro.perf.memo import process_memo
from repro.perf.meta import environment_metadata

__all__ = [
    "environment_metadata",
    "process_memo",
]
