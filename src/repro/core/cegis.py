"""Algorithm 2: counterexample-guided inductive synthesis of verified policy programs.

The loop maintains a set of ``(P_i, φ_i)`` pairs — a synthesized program and the
inductive invariant under which it is verified safe — and keeps sampling
*counterexample initial states* that are not yet covered by any invariant.  For
each counterexample it synthesizes a new program (Algorithm 1), shrinking the
considered initial region around the counterexample until verification
succeeds.  The loop terminates when the union of invariants covers the whole
initial region ``S0`` (checked by the branch-and-bound cover query standing in
for the paper's Z3 call), yielding the guarded program of Theorem 4.2.

There is one driver, and it runs in rounds.  Each round picks up to
``workers`` spread-out uncovered initial states (the first from the cover
query, the rest sampled) and synthesizes + verifies a branch for each on a
:class:`~repro.faults.runner.ForkRunner` (the shard pool's runner: forked
workers share the parent's environment/oracle by memory inheritance, failed
slots are retried per slot, and slots run in-process where ``fork`` is
unavailable).  ``workers=1`` is a one-slot round that runs inline: exactly
the paper's sequential loop.  Each round closes its runner, so the next
round's workers fork from the current loop state.  Verified branches are
merged into the invariant union in deterministic slot order, skipping
branches whose seed counterexample an earlier-accepted branch already covers.

Two cheap refutations always run before a candidate's certificate search.
Both only skip searches that could not have succeeded, so the accepted
shields are the ones the bare loop would produce:

* the static pre-filter (:func:`~repro.analysis.refute.statically_refuted`)
  proves by interval reachability that every trajectory from the region
  leaves the safe box;
* a :class:`~repro.core.replay.CounterexampleCache` replays previously found
  unsafe-trajectory witnesses (batched, disturbance-free) against the
  candidate; a hit is a concrete unsafe trajectory (see ``replay.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.refute import statically_refuted
from ..faults import FaultLog, RetryPolicy, fault_site
from ..faults.runner import ForkRunner
from ..certificates.regions import Box
from ..certificates.smt import BranchAndBoundVerifier
from ..envs.base import EnvironmentContext
from ..lang.invariant import Invariant, InvariantUnion
from ..lang.program import GuardedProgram, PolicyProgram
from ..lang.sketch import AffineSketch, ProgramSketch
from .replay import CounterexampleCache
from .synthesis import ProgramSynthesizer, SynthesisConfig
from .verification import VerificationConfig, VerificationOutcome, verify_program

__all__ = ["CEGISConfig", "CEGISBranch", "CEGISResult", "CEGISLoop", "run_cegis"]

#: Branch-and-bound settings of the cover query (Algorithm 2, lines 3-4).
COVERAGE_TOLERANCE = 1e-6
COVERAGE_MAX_BOXES = 40_000
COVERAGE_MIN_WIDTH = 1e-3
#: Region samples probed for new witnesses after a failed verification.
REPLAY_PROBE_SAMPLES = 12
#: Interval iteration budget of the static pre-filter.
STATIC_PREFILTER_STEPS = 48


@dataclass
class CEGISConfig:
    """Settings of the outer CEGIS loop (Algorithm 2)."""

    max_counterexamples: int = 8
    max_shrink_iterations: int = 6
    min_radius_fraction: float = 0.05
    synthesis: SynthesisConfig = field(default_factory=SynthesisConfig)
    verification: VerificationConfig = field(default_factory=VerificationConfig)
    seed: int = 0
    # --- synthesis-service knobs -------------------------------------------
    #: Concurrent branch syntheses per round; 1 runs one inline slot per
    #: round, which is the paper's sequential loop.
    workers: int = 1
    #: Rollout length used when replaying/probing trajectory witnesses.
    replay_horizon: int = 120
    #: Initial states probed against the *oracle* before the loop starts.
    #: Candidates imitate the oracle, so initial states from which the oracle
    #: itself goes unsafe are prime witness candidates; prewarming lets even
    #: the first round's parallel workers fork with a populated cache.
    #: (Replay always simulates the actual candidate, so this stays sound.)
    replay_prewarm_samples: int = 64
    #: Start the shrink loop at this fraction of Diameter(S0) instead of the
    #: full diameter — forces localized (multi-branch) programs, which is what
    #: gives multi-slot rounds independent work units.
    initial_radius_fraction: Optional[float] = None


@dataclass
class CEGISBranch:
    """One ``(P_i, φ_i)`` pair together with provenance information."""

    program: PolicyProgram
    invariant: Invariant
    region: Box
    counterexample: np.ndarray
    synthesis_seconds: float
    verification_seconds: float
    verification_backend: str
    shrink_iterations: int


@dataclass
class CEGISResult:
    """The output of Algorithm 2."""

    branches: List[CEGISBranch]
    covered: bool
    total_seconds: float
    counterexamples_used: int
    uncovered_witness: Optional[np.ndarray] = None
    failure_reason: str = ""
    cache_hits: int = 0
    cache_misses: int = 0
    cache_records: int = 0
    workers: int = 1
    rounds: int = 0
    #: Candidates refuted by the static interval pre-filter — each one saved
    #: a replay probe plus (on replay miss) a full certificate search.
    statically_pruned: int = 0
    #: Recovery provenance: one entry per parallel-slot failure the driver
    #: survived (crashed/hung/erroring worker), as
    #: :meth:`repro.faults.FaultEvent.to_dict` payloads.  Empty on clean runs.
    fault_log: List[dict] = field(default_factory=list)

    @property
    def program(self) -> GuardedProgram:
        """The guarded program of Theorem 4.2 (if/elif chain over the branches)."""
        if not self.branches:
            raise ValueError("CEGIS produced no verified branches")
        return GuardedProgram(
            branches=[(b.invariant, b.program) for b in self.branches],
        )

    @property
    def invariant(self) -> InvariantUnion:
        """``φ_1 ∨ φ_2 ∨ …`` — the inductive invariant of the guarded program."""
        return InvariantUnion([b.invariant for b in self.branches])

    @property
    def program_size(self) -> int:
        """Number of synthesized policies (the 'Size' column of Table 1)."""
        return len(self.branches)

    @property
    def synthesis_seconds(self) -> float:
        return sum(b.synthesis_seconds + b.verification_seconds for b in self.branches)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.covered and bool(self.branches)


#: One slot of a round: (slot, counterexample point, global round index).
_BranchTask = Tuple[int, np.ndarray, int]


class CEGISLoop:
    """Implements Algorithm 2 (CEGIS) as rounds of up to ``workers`` branches."""

    def __init__(
        self,
        env: EnvironmentContext,
        oracle: Callable[[np.ndarray], np.ndarray],
        sketch: ProgramSketch | None = None,
        config: CEGISConfig | None = None,
        replay_cache: CounterexampleCache | None = None,
        verdict_cache=None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self.env = env
        self.oracle = oracle
        # Per-slot recovery policy of the round driver.  Deliberately NOT a
        # CEGISConfig field: recovery cannot change results (a retried slot is
        # bit-identical), so it must not perturb the store's config hashes.
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self._fault_log = FaultLog()
        # Optional store-backed verification-verdict memo (see
        # repro.store.VerdictCache): repeated proofs of an unchanged
        # (program, env, region, config) query are served from the cache with
        # their original counterexample stream re-emitted, so cache-on and
        # cache-off runs stay bit-identical.
        self.verdict_cache = verdict_cache
        self.sketch = sketch or AffineSketch(
            state_dim=env.state_dim,
            action_dim=env.action_dim,
            action_low=env.action_low,
            action_high=env.action_high,
            names=env.state_names,
        )
        self.config = config or CEGISConfig()
        self.replay_cache = replay_cache if replay_cache is not None else CounterexampleCache(
            environment=getattr(env, "name", ""),
            horizon=self.config.replay_horizon,
            probe_samples=REPLAY_PROBE_SAMPLES,
            seed=self.config.seed,
        )
        self._rng = np.random.default_rng(self.config.seed)
        self._coverage_checker = BranchAndBoundVerifier(
            tolerance=COVERAGE_TOLERANCE,
            max_boxes=COVERAGE_MAX_BOXES,
            min_width=COVERAGE_MIN_WIDTH,
            seed=self.config.seed,
        )
        self._cache_hits_at_start = 0
        self._cache_misses_at_start = 0
        self._pruned = 0
        self._started_at = time.perf_counter()

    # ------------------------------------------------------------------ api
    def run(self) -> CEGISResult:
        """Run the counterexample-guided loop until ``S0`` is covered or budget runs out.

        Every round spends one counterexample per slot, so ``rounds`` never
        exceeds ``counterexamples_used``, and both are at most
        ``max_counterexamples``.
        """
        cfg = self.config
        cache = self.replay_cache
        self._pruned = 0
        self._fault_log = FaultLog()
        self._started_at = time.perf_counter()
        self._cache_hits_at_start = cache.hits
        self._cache_misses_at_start = cache.misses
        if cfg.replay_prewarm_samples > 0:
            prewarm = CounterexampleCache(
                environment=cache.environment,
                horizon=cache.horizon,
                probe_samples=cfg.replay_prewarm_samples,
                seed=cfg.seed + 1,
            )
            prewarm.probe(self.env, self.oracle, self.env.init_region, source="prewarm")
            cache.absorb(prewarm.records)

        start = time.perf_counter()
        branches: List[CEGISBranch] = []
        used = 0
        rounds = 0
        failure_reason = ""
        uncovered: Optional[np.ndarray] = None

        while used < cfg.max_counterexamples:
            width = min(cfg.workers, cfg.max_counterexamples - used)
            points = self._find_uncovered_points(branches, width, rounds)
            if not points:
                return self._result(branches, True, start, used, rounds=rounds)
            rounds += 1
            outcomes = self._run_round(points, first_round_index=used)
            used += len(points)
            any_verified = False
            for lane, (branch, records, hits, misses, verdict_delta, pruned) in outcomes:
                if lane == "fork":
                    # A forked worker counted in its own copy of the loop and
                    # caches (its verdict entries reached the disk store, its
                    # counters died with it); fold its deltas in.  Inline
                    # slots already counted here.
                    cache.absorb(records, emit=True)
                    cache.hits += hits
                    cache.misses += misses
                    if self.verdict_cache is not None:
                        self.verdict_cache.hits += verdict_delta[0]
                        self.verdict_cache.misses += verdict_delta[1]
                    self._pruned += pruned
                if branch is None:
                    continue
                any_verified = True
                if any(b.invariant.holds(branch.counterexample) for b in branches):
                    # An earlier slot's branch (possibly from this round)
                    # already covers this seed point; keep the program small.
                    continue
                branches.append(branch)
            if not any_verified:
                uncovered = points[0]
                failure_reason = (
                    "could not verify a program even on the smallest region around "
                    f"counterexample {np.round(points[0], 4).tolist()}"
                )
                break

        if not failure_reason:
            final_uncovered = self._find_uncovered_initial_state(branches)
            if final_uncovered is None:
                return self._result(branches, True, start, used, rounds=rounds)
            uncovered = final_uncovered
            failure_reason = "counterexample budget exhausted before covering S0"

        return self._result(
            branches,
            False,
            start,
            used,
            uncovered=uncovered,
            failure_reason=failure_reason,
            rounds=rounds,
        )

    def _run_round(self, points: Sequence[np.ndarray], first_round_index: int):
        """Synthesize one branch per point, concurrently where possible.

        Returns ``(lane, outcome)`` per slot in slot order.  The runner
        recovers failed slots under :attr:`retry_policy` (branch synthesis is
        idempotent per task, so a recovered round is bit-identical).  It is
        closed after the round: the next round's workers must fork from the
        loop state this round's merge produces.
        """
        runner = ForkRunner(
            self._branch_task,
            site="cegis.worker",
            workers=len(points),
            retry=self.retry_policy,
            label="parallel CEGIS",
            unit="slot",
        )
        tasks = {
            slot: (slot, np.asarray(point, dtype=float), first_round_index + slot)
            for slot, point in enumerate(points)
        }
        try:
            done = runner.run(tasks, self._fault_log, self._started_at)
        finally:
            runner.close()
        return [done[slot] for slot in sorted(done)]

    def _branch_task(self, task: _BranchTask, attempt: int, inline: bool):
        """The runner's work unit: one branch plus the counter deltas it caused."""
        slot, point, round_index = task
        fault_site("cegis.worker", index=slot, attempt=attempt, inline=inline)
        cache = self.replay_cache
        verdicts = self.verdict_cache
        records_before = len(cache.records)
        hits_before = cache.hits
        misses_before = cache.misses
        verdict_before = (verdicts.hits, verdicts.misses) if verdicts is not None else (0, 0)
        pruned_before = self._pruned
        branch = self._synthesize_branch(point, round_index)
        verdict_delta = (
            (verdicts.hits - verdict_before[0], verdicts.misses - verdict_before[1])
            if verdicts is not None
            else (0, 0)
        )
        return (
            branch,
            list(cache.records[records_before:]),
            cache.hits - hits_before,
            cache.misses - misses_before,
            verdict_delta,
            self._pruned - pruned_before,
        )

    # ------------------------------------------------------------ internals
    def _result(
        self,
        branches: List[CEGISBranch],
        covered: bool,
        start: float,
        counterexamples_used: int,
        uncovered: Optional[np.ndarray] = None,
        failure_reason: str = "",
        rounds: int = 0,
    ) -> CEGISResult:
        cache = self.replay_cache
        return CEGISResult(
            branches=branches,
            covered=covered,
            total_seconds=time.perf_counter() - start,
            counterexamples_used=counterexamples_used,
            uncovered_witness=uncovered,
            failure_reason=failure_reason,
            cache_hits=cache.hits - self._cache_hits_at_start,
            cache_misses=cache.misses - self._cache_misses_at_start,
            cache_records=len(cache.records),
            workers=self.config.workers,
            rounds=rounds,
            statically_pruned=self._pruned,
            fault_log=self._fault_log.to_dicts(),
        )

    def _find_uncovered_initial_state(
        self, branches: List[CEGISBranch]
    ) -> Optional[np.ndarray]:
        """Line 3-4 of Algorithm 2: an initial state not covered by any invariant."""
        if not branches:
            # Initially the choice is uniformly random (paper, §4.2).
            return self.env.init_region.sample(self._rng, 1)[0]
        barriers = [b.invariant.barrier for b in branches]
        margins = [b.invariant.margin for b in branches]
        return self._coverage_checker.find_uncovered_point(
            self.env.init_region, barriers, margins
        )

    def _find_uncovered_points(
        self, branches: List[CEGISBranch], count: int, round_index: int
    ) -> List[np.ndarray]:
        """Up to ``count`` spread-out uncovered initial states for one round.

        The first point comes from the sound branch-and-bound cover query (the
        round's existence witness); the rest are sampled uncovered states kept
        maximally spread by greedy farthest-point selection, so concurrent
        branches grow from different parts of ``S0``.
        """
        first = self._find_uncovered_initial_state(branches)
        if first is None:
            return []
        points = [np.asarray(first, dtype=float)]
        if count <= 1:
            return points
        rng = np.random.default_rng([self.config.seed, 104_729, round_index])
        candidates = self.env.init_region.sample(rng, max(64, 16 * count))
        if branches:
            covered = np.zeros(len(candidates), dtype=bool)
            for branch in branches:
                covered |= branch.invariant.holds_batch(candidates)
            candidates = candidates[~covered]
        widths = np.maximum(self.env.init_region.widths, 1e-9)
        while len(points) < count and len(candidates):
            scaled = candidates / widths
            distances = np.min(
                np.stack(
                    [np.linalg.norm(scaled - p / widths, axis=1) for p in points], axis=0
                ),
                axis=0,
            )
            best = int(np.argmax(distances))
            if distances[best] < 1e-6:
                break
            points.append(candidates[best])
            candidates = np.delete(candidates, best, axis=0)
        return points

    def _record_verification_counterexample(self, kind: str, state: np.ndarray) -> None:
        """Sink for condition counterexamples found inside the certificate search."""
        self.replay_cache.record(state, kind=kind, source="verification")

    def _synthesize_branch(
        self, counterexample: np.ndarray, round_index: int
    ) -> Optional[CEGISBranch]:
        """The inner do-while loop of Algorithm 2 (lines 5-17)."""
        cfg = self.config
        cache = self.replay_cache
        # r* starts at Diameter(C.S0) (Algorithm 2, line 5), so the first shrunk
        # region around any counterexample still covers all of S0.
        diameter = 2.0 * self.env.init_region.radius
        radius = diameter
        if cfg.initial_radius_fraction is not None:
            radius = diameter * float(cfg.initial_radius_fraction)
        min_radius = cfg.min_radius_fraction * diameter
        previous_parameters = None

        for shrink_iteration in range(1, cfg.max_shrink_iterations + 1):
            region = self.env.init_region.shrink_around(counterexample, radius)
            synthesis_config = cfg.synthesis
            synthesizer = ProgramSynthesizer(
                self.env,
                self.oracle,
                self.sketch,
                config=SynthesisConfig(
                    **{
                        **synthesis_config.__dict__,
                        "seed": synthesis_config.seed + round_index * 101 + shrink_iteration,
                    }
                ),
            )
            synthesis_result = synthesizer.synthesize(
                init_region=region, initial_parameters=previous_parameters
            )
            previous_parameters = synthesis_result.parameters
            refutation = statically_refuted(
                self.env, synthesis_result.program, region, steps=STATIC_PREFILTER_STEPS
            )
            if refutation is not None:
                # The interval iterates prove every trajectory from the
                # region escapes the safe box, so no certificate backend
                # could have verified this candidate and a replay hit would
                # only have reconfirmed it: shrink exactly as the unfiltered
                # loop would after the (now skipped) failed verification.
                self._pruned += 1
                radius /= 2.0
                if radius < min_radius:
                    break
                continue
            witness = cache.replay(self.env, synthesis_result.program, region)
            if witness is None:
                outcome: VerificationOutcome = verify_program(
                    self.env,
                    synthesis_result.program,
                    init_box=region,
                    config=cfg.verification,
                    recorder=self._record_verification_counterexample,
                    verdict_cache=self.verdict_cache,
                )
                if outcome.verified and outcome.invariant is not None:
                    return CEGISBranch(
                        program=synthesis_result.program,
                        invariant=outcome.invariant,
                        region=region,
                        counterexample=np.asarray(counterexample, dtype=float),
                        synthesis_seconds=synthesis_result.wall_clock_seconds,
                        verification_seconds=outcome.wall_clock_seconds,
                        verification_backend=outcome.backend,
                        shrink_iterations=shrink_iteration,
                    )
                cache.probe(
                    self.env,
                    synthesis_result.program,
                    region,
                    extra_points=(counterexample, outcome.counterexample),
                )
            # Replay hit: the candidate provably reaches unsafe from a cached
            # witness, so the certificate search would have failed — shrink
            # exactly as the loop without replay would.
            radius /= 2.0
            if radius < min_radius:
                break
        return None


def run_cegis(
    env: EnvironmentContext,
    oracle: Callable[[np.ndarray], np.ndarray],
    sketch: ProgramSketch | None = None,
    config: CEGISConfig | None = None,
    replay_cache: CounterexampleCache | None = None,
    verdict_cache=None,
    retry_policy: RetryPolicy | None = None,
) -> CEGISResult:
    """Convenience wrapper around :class:`CEGISLoop`."""
    return CEGISLoop(
        env,
        oracle,
        sketch,
        config,
        replay_cache=replay_cache,
        verdict_cache=verdict_cache,
        retry_policy=retry_policy,
    ).run()
