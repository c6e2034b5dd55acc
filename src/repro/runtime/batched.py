"""The name ``repro.runtime.batched.compile_stepper``, kept for tools that wrap it.

Campaigns run through :class:`~repro.shard.ShardPool`, which compiles its
stepper through :func:`repro.compile.compile_stepper`.  The perfbench layer
tracer also wraps the function under this module's name, so the re-export
stays although nothing in ``repro`` calls it from here.
"""

from ..compile import compile_stepper

__all__ = ["compile_stepper"]
