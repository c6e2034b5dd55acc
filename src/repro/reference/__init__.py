"""Reference engines: the slow, obvious implementations the product engines match.

Every job in ``repro`` has exactly one product engine.  The engines here exist
only as differential oracles: the tests, the benchmarks, the examples and
``repro fuzz`` hold the product engines to them, and nothing else imports this
package (``tests/test_reference_boundary.py`` enforces that), so no product
code path and no flag can reach them.

* :mod:`repro.reference.bnb` — :class:`ScalarBranchAndBoundVerifier`, the
  one-box-at-a-time walk that the batched frontier engine of
  :class:`~repro.certificates.smt.BranchAndBoundVerifier` must match bit for
  bit;
* :mod:`repro.reference.campaigns` — :class:`InterpretedStepper`, the
  interpreted lockstep campaign loops behind the compiled stepper's interface,
  with :func:`evaluate_policy_interpreted` and
  :func:`monitor_fleet_interpreted`, and :func:`shard_streams`, the walk over
  the shard plan that every campaign reference shares;
* :mod:`repro.reference.distance` — :func:`program_oracle_distance_scalar`
  and :func:`trajectory_distance`, the Algorithm 1 objective one program and
  one state at a time, which the population objective of
  :func:`repro.core.distance.program_oracle_distance` must match bit for bit;
* :mod:`repro.reference.lp` — :func:`solve_barrier_lp_full`, the sampled
  barrier LP over every row in one solve, whose margin the cutting-plane
  solve of :class:`~repro.certificates.barrier.BarrierCertificateSynthesizer`
  must reach while satisfying every row;
* :mod:`repro.reference.synthesis` — :class:`UnfusedProgramSynthesizer`,
  Algorithm 1 with one fleet per score, whose θ, history and generator state
  the fused loop of :class:`~repro.core.synthesis.ProgramSynthesizer` must
  match;
* :mod:`repro.reference.scalar` — :func:`run_episode_scalar`,
  :func:`evaluate_policy_scalar` and :func:`monitor_episode`, one state at a
  time (the campaign reference over the same shard plan).
"""

from .bnb import ScalarBranchAndBoundVerifier
from .campaigns import (
    InterpretedStepper,
    evaluate_policy_interpreted,
    monitor_fleet_interpreted,
    shard_streams,
)
from .distance import program_oracle_distance_scalar, trajectory_distance
from .lp import full_lp_rows, solve_barrier_lp_full
from .scalar import evaluate_policy_scalar, monitor_episode, run_episode_scalar
from .synthesis import UnfusedProgramSynthesizer

__all__ = [
    "ScalarBranchAndBoundVerifier",
    "InterpretedStepper",
    "evaluate_policy_interpreted",
    "monitor_fleet_interpreted",
    "shard_streams",
    "program_oracle_distance_scalar",
    "trajectory_distance",
    "full_lp_rows",
    "solve_barrier_lp_full",
    "run_episode_scalar",
    "evaluate_policy_scalar",
    "monitor_episode",
    "UnfusedProgramSynthesizer",
]
