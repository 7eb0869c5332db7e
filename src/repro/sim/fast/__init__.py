"""Fast-path simulation engine (``engine="fast"``).

Compiled, memoized trace replay with flat dict/list machine state —
bit-identical ``SimResult`` to the oracle interpreter, ~10×+ faster.
See :mod:`repro.sim.fast.engine` for the exactness contract and
``docs/ARCHITECTURE.md`` ("Fast engine") for the design.
"""

from .engine import compile_program_fast, run_program_fast, stream_key

__all__ = ["compile_program_fast", "run_program_fast", "stream_key"]
