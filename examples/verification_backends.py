"""Backend selection on the verification kernel.

Verifies the same query — the satellite benchmark under its LQR teacher — with
every registered certificate backend, with the auto sequence, and through the
store-backed verdict cache, printing the provenance each outcome carries.

Run with:  PYTHONPATH=src python examples/verification_backends.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import make_environment, obs
from repro.baselines import make_lqr_policy
from repro.certificates import available_backends
from repro.core import VerificationConfig, verify_program
from repro.lang import AffineProgram
from repro.store import VerdictCache


def main() -> None:
    env = make_environment("satellite")
    program = AffineProgram(gain=make_lqr_policy(env).gain)

    print("pinning each registered backend on the same query:")
    for backend in available_backends():
        outcome = verify_program(
            env, program, config=VerificationConfig(backend=backend.name)
        )
        print(
            f"  {backend.name:<10} verified={outcome.verified} "
            f"wall_clock={outcome.wall_clock_seconds:.4f}s"
        )

    print("\nauto (lyapunov on linear closed loops, then barrier):")
    outcome = verify_program(env, program)  # backend="auto"
    print(
        f"  winner={outcome.backend} attempts={outcome.attempts} "
        f"disturbance_aware={outcome.disturbance_aware}"
    )

    # Every backend models the disturbance term of condition (10); on a
    # disturbed environment the barrier search (if reached) encodes its
    # worst case.
    disturbed = make_environment("satellite", disturbance_bound=[0.01, 0.01])
    outcome = verify_program(disturbed, program)
    print(
        f"  disturbed: winner={outcome.backend} verified={outcome.verified} "
        f"disturbance_aware={outcome.disturbance_aware}"
    )

    print("\nverdict cache (repeat proofs become JSON reads):")
    with tempfile.TemporaryDirectory() as tmp:
        cache = VerdictCache(Path(tmp) / "verdicts")
        config = VerificationConfig(backend="barrier")
        since = obs.snapshot()
        fresh = verify_program(env, program, config=config, verdict_cache=cache)
        cached = verify_program(env, program, config=config, verdict_cache=cache)
        counts = obs.delta(since)
        stats = {key: counts.get(f"verdicts.{key}", 0) for key in ("hits", "misses", "puts")}
        print(
            f"  fresh:  {fresh.wall_clock_seconds:.4f}s from_cache={fresh.from_cache}"
        )
        print(
            f"  cached: identical invariant={cached.invariant == fresh.invariant} "
            f"from_cache={cached.from_cache}  stats={stats}"
        )


if __name__ == "__main__":
    main()
