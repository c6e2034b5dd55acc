"""Command-line interface of the reproduction toolchain.

``python -m repro <command>`` exposes the end-to-end workflow without writing
any Python:

* ``list``        — show the registered benchmarks and the paper's Table 1 numbers;
* ``describe``    — print one benchmark's transition-system specification;
* ``synthesize``  — train/clone an oracle, run CEGIS (``--workers N``
                    synthesizes up to N branches per round; counterexample
                    replay and the static pre-filter always run), print the
                    synthesized program, and optionally persist the shield to
                    the artifact store or a JSON file;
* ``evaluate``    — load a saved artifact and run a shielded evaluation campaign;
* ``audit``       — re-check a saved shield (an artifact file, or a store key)
  against verification conditions (8)-(10);
* ``verify``      — re-verify a stored shield through the verification kernel
  with a chosen certificate backend (or the auto sequence),
  printing per-branch backend provenance, margins, wall-clock, and
  verdict-cache hits;
* ``store``       — manage the persistent shield store: ``list``, ``show``,
  ``export``, ``verify`` (integrity-check every stored object), and ``rm``.
  The store root comes from ``--store``, the ``REPRO_STORE`` environment
  variable, or ``./.repro_store``;
* ``lint``        — run the abstract-interpretation analyzer over stored
  shields (a key prefix, one benchmark's shields, or the whole store) and
  print coded diagnostics ``A001``–``A007``; exit 1 on errors (``--strict``:
  warnings too), 2 on store errors;
* ``monitor``     — deploy a (store-backed) shield over a monitored batched
  fleet, optionally stressed by a named disturbance class, and report
  interventions, model mismatches, invariant excursions, and the runtime
  disturbance estimate;
* ``adapt``       — the full maintenance loop: monitor a fleet, fit the
  disturbance estimate, re-verify the deployed certificate under the widened
  bound, and on failure re-synthesize + persist a repaired shield with
  provenance;
* ``table1`` / ``table2`` / ``table3`` / ``fig3`` / ``fig6`` /
  ``robustness`` — regenerate the paper's tables and figures (plus the
  disturbance-robustness sweep) at a chosen scale (smoke / medium / paper);
  ``--store`` makes the sweeps load previously synthesized shields instead of
  re-running CEGIS, and ``--journal``/``--resume`` checkpoint every finished
  row so a killed sweep re-executes only unfinished work;
* ``chaos``       — run named fault-injection scenarios (worker crash storms,
  hung workers, flaky IO, store corruption, SIGKILL + resume) against the
  execution substrate and verify the recovered results are bit-identical.

Bad input (a missing or malformed artifact, an unknown store key or
benchmark, malformed ``--overrides``) prints one ``error:`` line and exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

__all__ = ["build_parser", "main"]


# --------------------------------------------------------------------------- helpers
def _overrides(text: Optional[str]) -> Optional[dict]:
    """Parse ``--overrides``: a JSON object, or ``None`` when the flag is absent."""
    from .store.service import InputError

    if not text:
        return None
    try:
        overrides = json.loads(text)
    except json.JSONDecodeError as error:
        raise InputError(f"--overrides is not valid JSON: {error}") from None
    if not isinstance(overrides, dict):
        raise InputError(f"--overrides must be a JSON object, not {text!r}")
    return overrides


def _resolve(source: str, args: argparse.Namespace, store=None):
    """Open ``source`` (an artifact file, or a key in ``store``) on its environment."""
    from .store import resolve_shield

    return resolve_shield(source, store, args.env, _overrides(args.overrides))


def _obtain_shield(args, verbose=False, degree=None, workers=1, extra_metadata=None):
    """Train an oracle for ``args.env`` and obtain its shield (steps 1 and 2).

    The one oracle→shield path of ``synthesize`` (``verbose``: four steps,
    with training and CEGIS details) and of ``run``, ``monitor`` and
    ``adapt`` (three steps).  The synthesis service reloads the shield from
    ``args.store`` on a hit and synthesizes and persists it otherwise.
    """
    from .core import CEGISConfig, SynthesisConfig, VerificationConfig
    from .core.distance import DistanceConfig
    from .envs import BENCHMARKS
    from .rl import train_oracle
    from .store.service import SynthesisService, load_environment

    overrides = _overrides(args.overrides)
    env = load_environment(args.env, overrides)
    spec = BENCHMARKS[args.env]
    steps = 4 if verbose else 3
    print(f"[1/{steps}] training neural oracle ({args.oracle}) for {args.env} ...")
    trained = train_oracle(env, method=args.oracle, seed=args.seed)
    if verbose:
        print(f"      trained in {trained.training_seconds:.1f}s ({trained.network_size})")
        print("[2/4] synthesizing and verifying a deterministic program (CEGIS) ...")
    else:
        print("[2/3] obtaining a verified shield (store lookup, CEGIS on miss) ...")
    config = CEGISConfig(
        max_counterexamples=args.max_counterexamples,
        synthesis=SynthesisConfig(
            iterations=args.synthesis_iterations, distance=DistanceConfig(), seed=args.seed
        ),
        verification=VerificationConfig(
            backend=spec.certificate_backend,
            invariant_degree=spec.invariant_degree if degree is None else degree,
        ),
        seed=args.seed,
        workers=workers,
    )
    service = SynthesisService(store=args.store, workers=workers)
    result = service.synthesize(
        env,
        trained.policy,
        config=config,
        environment=args.env,
        environment_overrides=overrides,
        extra_metadata=extra_metadata,
    )
    if not verbose:
        origin = "reloaded from store" if result.from_store else "synthesized"
        print(f"      {origin}: {result.program_size} branch(es)")
    elif result.from_store:
        print(f"      reloaded stored shield {result.key[:12]} (no synthesis needed)")
    else:
        cegis = result.cegis
        print(
            f"      {result.program_size} branch(es) in {result.synthesis_seconds:.1f}s"
            f" (workers={cegis.workers}, replay hits/misses={cegis.cache_hits}/{cegis.cache_misses})"
        )
        if result.key:
            print(f"      stored as {result.key[:12]} in {service.store.root}")
    return env, trained.policy, result, service, config, overrides


# -------------------------------------------------------------------------- commands
def _cmd_list(args: argparse.Namespace) -> int:
    from .envs import BENCHMARKS
    from .experiments import format_table

    rows = []
    for name, spec in BENCHMARKS.items():
        rows.append(
            {
                "benchmark": name,
                "vars": spec.paper_vars if spec.paper_vars is not None else "-",
                "backend": spec.certificate_backend,
                "invariant_degree": spec.invariant_degree,
                "paper_failures": spec.paper_failures if spec.paper_failures is not None else "-",
                "paper_overhead_%": (
                    spec.paper_overhead_percent if spec.paper_overhead_percent is not None else "-"
                ),
                "description": spec.description,
            }
        )
    print(format_table(rows))
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    from .store.service import load_environment

    env = load_environment(args.env, _overrides(args.overrides))
    print(env.describe())
    print(f"  dt                = {env.dt}")
    print(f"  action bounds     = [{env.action_low}, {env.action_high}]")
    print(f"  domain            = {env.domain}")
    print(f"  unsafe cover      = {len(env.unsafe_cover_boxes())} box(es)")
    print(f"  disturbance bound = {env.disturbance_bound}")
    return 0


def _cmd_synthesize(args: argparse.Namespace) -> int:
    from .lang import save_artifact
    from .runtime import EvaluationProtocol, compare_shielded

    env, oracle, result, *_ = _obtain_shield(
        args,
        verbose=True,
        degree=args.degree,
        workers=args.workers,
        extra_metadata={"oracle": args.oracle},
    )
    print("[3/4] synthesized program:")
    print(result.program.pretty(env.state_names))

    if args.episodes > 0:
        print(f"[4/4] evaluating ({args.episodes} episodes x {args.steps} steps) ...")
        protocol = EvaluationProtocol(episodes=args.episodes, steps=args.steps, seed=args.seed)
        comparison = compare_shielded(env, oracle, result.shield, protocol)
        print(
            f"      neural failures   = {comparison.neural.failures}\n"
            f"      shielded failures = {comparison.shielded.failures}\n"
            f"      interventions     = {comparison.shielded.interventions}\n"
            f"      overhead          = {100.0 * comparison.overhead:.2f}%"
        )

    if args.output:
        path = save_artifact(result.artifact, args.output)
        print(f"saved shield artifact to {path}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .rl import train_oracle
    from .runtime import EvaluationProtocol, compare_shielded

    shield = _resolve(args.artifact, args)
    env = shield.env
    branches = len(shield.artifact.invariant)
    print(f"loaded artifact for {shield.environment!r} ({branches} invariant branch(es))")
    oracle = train_oracle(env, method=args.oracle, seed=args.seed).policy
    protocol = EvaluationProtocol(episodes=args.episodes, steps=args.steps, seed=args.seed)
    comparison = compare_shielded(env, oracle, shield.artifact.build_shield(env, oracle), protocol)
    summary = {
        "neural": comparison.neural.summary(),
        "shielded": comparison.shielded.summary(),
        "program": comparison.program.summary(),
        "overhead": comparison.overhead,
    }
    print(json.dumps(summary, indent=2, default=float))
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    """Print each branch's audit, then PASS, FAIL (some branch refuted) or
    INCONCLUSIVE; exit 0 only on PASS."""
    from .certificates import audit_shield
    from .store import ShieldStore, branch_regions

    shield = _resolve(args.artifact, args, ShieldStore(args.store))
    reports = audit_shield(
        shield.env,
        shield.artifact.program,
        engine=args.engine,
        max_boxes=args.max_boxes,
        regions=branch_regions(shield.artifact),
    )
    for index, report in enumerate(reports):
        print(f"branch {index}: {report.summary()}")
        for detail in report.details:
            print(f"    {detail}")
    statuses = {report.status for report in reports}
    status = next((s for s in ("FAIL", "INCONCLUSIVE") if s in statuses), "PASS")
    print("audit result:", status)
    return 0 if status == "PASS" else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    from .certificates.backend import get_backend
    from .core import VerificationConfig
    from .envs import BENCHMARKS
    from .store import ShieldStore
    from .store.service import InputError, SynthesisService

    # ShieldStore resolves a missing --store to $REPRO_STORE / ./.repro_store;
    # SynthesisService(store=None) would mean "no store at all".
    service = SynthesisService(
        store=ShieldStore(args.store), use_verdict_cache=not args.no_cache
    )
    shield = _resolve(args.key, args, service.store)
    # Same rule as `repro synthesize`: the benchmark's own degree bound.
    degree = args.degree
    if degree is None:
        degree = BENCHMARKS[shield.environment].invariant_degree
    try:
        if args.backend != "auto":
            get_backend(args.backend)
        config = VerificationConfig(
            backend=args.backend,
            invariant_degree=degree,
            backend_time_budget_seconds=args.backend_budget,
        )
    except ValueError as error:
        raise InputError(str(error)) from None
    all_ok, outcomes, _artifact = service.verify_stored(
        shield, verification=config, use_cache=not args.no_cache
    )
    print(
        f"shield {shield.key[:12] or args.key} "
        f"({shield.environment}, {len(outcomes)} branch(es))"
    )
    for index, outcome in enumerate(outcomes):
        status = "VERIFIED" if outcome.verified else "FAILED"
        margin = (
            f"margin={outcome.margin:.3g}"
            if outcome.verified and outcome.margin
            else f"margin={outcome.invariant.margin:.3g}"
            if outcome.verified and outcome.invariant is not None
            else ""
        )
        cached = " [cached]" if outcome.from_cache else ""
        attempts = "->".join(outcome.attempts) if outcome.attempts else outcome.backend
        print(
            f"branch {index}: {status} backend={outcome.backend} "
            f"(attempts: {attempts}) {margin} "
            f"wall_clock={outcome.wall_clock_seconds:.3f}s{cached}"
        )
        if not outcome.verified and outcome.failure_reason:
            print(f"    {outcome.failure_reason}")
    if service.verdict_cache is not None:
        stats = service.verdict_cache.stats()
        print(f"verdict cache: {stats['hits']} hit(s), {stats['misses']} miss(es)")
    print("kernel re-verification:", "PASS" if all_ok else "FAIL")
    return 0 if all_ok else 1


def _cmd_store(args: argparse.Namespace) -> int:
    from .experiments import format_table
    from .store import ShieldStore

    store = ShieldStore(args.store)
    if args.store_command == "list":
        entries = store.list()
        if not entries:
            print(f"(no stored shields under {store.root})")
            return 0
        print(format_table([entry.summary() for entry in entries]))
        return 0

    if args.store_command == "show":
        entry = store.get_entry(args.key)
        artifact = store.get(args.key)
        print(f"key          {entry.key}")
        print(f"environment  {entry.environment or '(unrecorded)'}")
        for field in sorted(entry.metadata):
            print(f"{field:<12} {entry.metadata[field]}")
        print("program:")
        print(artifact.program.pretty())
        return 0

    if args.store_command == "export":
        from .lang import save_artifact

        artifact = store.get(args.key)
        path = save_artifact(artifact, args.output)
        print(f"exported {store.resolve(args.key)[:12]} to {path}")
        return 0

    if args.store_command == "verify":
        # Whole-store integrity check (fsck): hash + schema of every object;
        # --delete-corrupt quarantines failures for post-mortem.
        ok_keys, corrupt = store.fsck(delete_corrupt=args.delete_corrupt)
        print(f"checked {len(ok_keys) + len(corrupt)} object(s): {len(ok_keys)} ok")
        for entry in corrupt:
            action = (
                f"quarantined to {entry['quarantined']}"
                if entry["quarantined"]
                else "left in place (pass --delete-corrupt to quarantine)"
            )
            print(f"CORRUPT {entry['key'][:12]}: {entry['reason']}")
            print(f"        {action}")
        return 1 if corrupt else 0

    if args.store_command == "rm":
        key = store.delete(args.key)
        print(f"removed {key[:12]}")
        return 0
    raise ValueError(f"unknown store command {args.store_command!r}")  # pragma: no cover


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import AnalysisConfig, lint_store
    from .store import ShieldStore

    store = ShieldStore(args.store)
    config = AnalysisConfig(coverage_samples=args.coverage_samples)
    results = lint_store(store, keys=args.keys or None, environment=args.env, config=config)

    if args.json:
        print(json.dumps([report.to_dict() for _entry, report in results], indent=2))
    else:
        if not results:
            print(f"(no stored shields to lint under {store.root})")
        for _entry, report in results:
            print(report.pretty())

    failing = sum(
        1
        for _entry, report in results
        if report.errors or (args.strict and report.warnings)
    )
    total_errors = sum(len(report.errors) for _entry, report in results)
    total_warnings = sum(len(report.warnings) for _entry, report in results)
    if not args.json:
        print(
            f"linted {len(results)} artifact(s): "
            f"{total_errors} error(s), {total_warnings} warning(s)"
        )
    return 1 if failing else 0


def _fleet_disturbance(args: argparse.Namespace, env):
    """The disturbance model that stresses the fleet, and its progress label."""
    from .envs import make_disturbance

    if args.disturbance == "none":
        return None, ""
    model = make_disturbance(
        args.disturbance,
        env.state_dim,
        magnitude=args.magnitude,
        episodes=args.episodes,
        rng=np.random.default_rng(args.seed + 1),
    )
    return model, f" under {args.disturbance} disturbance (|d| <= {args.magnitude})"


def _fleet_dtype(args: argparse.Namespace):
    return np.float32 if args.float32 else None


def _cmd_run(args: argparse.Namespace) -> int:
    from .faults import RetryPolicy
    from .shard import run_sharded_campaign

    env, _oracle, result, *_ = _obtain_shield(args)
    workers = args.workers if args.workers is not None else 1
    retry = RetryPolicy(
        max_attempts=args.max_attempts, deadline_seconds=args.deadline, seed=args.seed
    )
    print(f"[3/3] running a {args.episodes}x{args.steps} shielded fleet ({workers} worker(s)) ...")
    campaign = run_sharded_campaign(
        env,
        shield=result.shield,
        episodes=args.episodes,
        steps=args.steps,
        seed=args.seed,
        workers=workers,
        shards=args.shards,
        dtype=_fleet_dtype(args),
        retry=retry,
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    print(json.dumps(campaign.summary(), indent=2, default=float))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .faults import SCENARIOS, run_scenario
    from .store.service import InputError

    if args.list_scenarios:
        for name in SCENARIOS:
            print(name)
        return 0
    if not args.scenario:
        raise InputError("name a scenario or pass --list")
    results = []
    for name in args.scenario:
        print(f"chaos: running {name} (seed {args.seed}) ...", file=sys.stderr)
        results.append(run_scenario(name, seed=args.seed, workdir=args.workdir))
    payload = results[0] if len(results) == 1 else results
    if args.output:
        Path(args.output).write_text(json.dumps(payload, indent=2, default=str))
        print(f"chaos report written to {args.output}", file=sys.stderr)
    print(json.dumps(payload, indent=2, default=str))
    failed = [result["scenario"] for result in results if not result["ok"]]
    if failed:
        print(f"FAIL: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    from .runtime import monitor_fleet

    env, _oracle, result, *_ = _obtain_shield(args)
    model, stress = _fleet_disturbance(args, env)
    print(f"[3/3] monitoring a {args.episodes}x{args.steps} fleet{stress} ...")
    report = monitor_fleet(
        result.shield,
        episodes=args.episodes,
        steps=args.steps,
        rng=np.random.default_rng(args.seed),
        disturbance=model,
        workers=args.workers,
        shards=args.shards,
        dtype=_fleet_dtype(args),
    )
    print(json.dumps(report.summary(), indent=2, default=float))
    return 0


def _cmd_adapt(args: argparse.Namespace) -> int:
    from .runtime import adapt_shield

    env, oracle, result, service, config, overrides = _obtain_shield(args)
    model, stress = _fleet_disturbance(args, env)
    print(f"[3/3] monitored adaptation over a {args.episodes}x{args.steps} fleet{stress} ...")
    outcome = adapt_shield(
        result.shield,
        episodes=args.episodes,
        steps=args.steps,
        rng=np.random.default_rng(args.seed),
        disturbance=model,
        oracle=oracle,
        service=service,
        config=config,
        environment=args.env,
        environment_overrides=overrides,
        confidence_sigmas=args.confidence_sigmas,
        bound_floor=args.bound_floor,
        prior_key=result.key,
        workers=args.workers,
        shards=args.shards,
    )
    print(json.dumps(outcome.summary(), indent=2, default=float))
    if outcome.certificate_valid:
        print(
            "certificate: still valid under the estimated disturbance bound "
            f"(backends: {', '.join(outcome.recheck_backends) or 'none'})"
        )
        return 0
    if outcome.resynthesized:
        if outcome.store_key:
            print(
                f"certificate: invalidated; repaired shield stored as {outcome.store_key[:12]}"
            )
        else:
            print(
                "certificate: invalidated; repaired shield synthesized "
                "(pass --store to persist it)"
            )
        return 0
    print(f"certificate: invalidated and re-synthesis failed: {outcome.resynthesis_error}")
    return 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .fuzz import FAMILIES, run_fuzz

    if args.list_properties:
        for name in sorted(FAMILIES):
            family = FAMILIES[name]
            print(f"{name:10s} (weight {family.weight}): {family.description}")
        return 0
    properties = args.properties or None
    report = run_fuzz(
        seed=args.seed,
        rounds=args.rounds,
        properties=properties,
        corpus_dir=args.corpus,
        time_budget=args.time_budget,
        shrink=not args.no_shrink,
    )
    print(json.dumps(report.summary(), indent=2))
    for divergence in report.divergences:
        print(f"FAIL {divergence.describe()}", file=sys.stderr)
        if divergence.path is not None:
            print(f"     reproducer saved to {divergence.path}", file=sys.stderr)
    if report.divergences:
        return 1
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import (
        ExperimentScale,
        format_table,
        run_fig3,
        run_fig6,
        run_robustness,
        run_table1,
        run_table2,
        run_table3,
    )

    scale = getattr(ExperimentScale, args.scale)()
    scale.workers = args.workers
    if args.experiment in ("fig3", "fig6"):
        run_figure = run_fig3 if args.experiment == "fig3" else run_fig6
        print(json.dumps(_jsonable(run_figure(scale=scale)), indent=2))
        return 0
    sweep = {
        "store": args.store,
        "journal": args.journal,
        "resume": args.resume,
        "timing": not args.no_timing,
    }
    if args.experiment == "robustness":
        rows = run_robustness(
            args.benchmarks or None,
            kinds=args.kinds or None,
            scale=scale,
            magnitude=args.magnitude,
            **sweep,
        )
    elif args.experiment == "table1":
        rows = run_table1(args.benchmarks or None, scale, **sweep)
    elif args.experiment == "table2":
        rows = run_table2(args.benchmarks or None, args.degrees or None, scale, **sweep)
    else:
        rows = run_table3(args.changes or None, scale, **sweep)
    print(format_table(rows))
    return 0


def _jsonable(value):
    """Best-effort conversion of experiment outputs (arrays, numpy scalars) to JSON."""
    if isinstance(value, dict):
        return {key: _jsonable(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(entry) for entry in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if hasattr(value, "pretty"):
        return value.pretty()
    if hasattr(value, "summary"):
        return _jsonable(value.summary())
    return value


# ---------------------------------------------------------------------------- parser
def _options(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """An option group that subcommands inherit through ``parents=``."""
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def _env_options(recorded: bool) -> argparse.ArgumentParser:
    """The benchmark to build (``env``), or ``--env`` replacing an artifact's
    recorded one, with its constructor ``--overrides``."""
    options = _options()
    if recorded:
        options.add_argument("--env", help="benchmark name (default: recorded in the artifact)")
    else:
        options.add_argument("env", help="benchmark name (see 'repro list')")
    options.add_argument("--overrides", help="JSON dict of environment constructor overrides")
    return options


def _campaign_options(episodes: int, steps: int, episodes_help: str) -> argparse.ArgumentParser:
    options = _options()
    options.add_argument("--episodes", type=int, default=episodes, help=episodes_help)
    options.add_argument("--steps", type=int, default=steps, help="steps per episode")
    return options


def build_parser() -> argparse.ArgumentParser:
    from .envs.disturbance import DISTURBANCE_KINDS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Verifiable reinforcement learning via inductive program synthesis (PLDI 2019 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    oracle = _options()
    oracle.add_argument("--oracle", default="cloned", choices=("cloned", "ddpg", "ars"))
    oracle.add_argument("--seed", type=int, default=0)

    # What `_obtain_shield` reads: the benchmark, its oracle and the CEGIS budget.
    shield = _options(_env_options(recorded=False), oracle)
    shield.add_argument("--synthesis-iterations", type=int, default=10)
    shield.add_argument("--max-counterexamples", type=int, default=8)
    shield.add_argument(
        "--store",
        nargs="?",
        const="",
        default=None,
        help="persist/reuse shields in this store directory (default: $REPRO_STORE or ./.repro_store)",
    )

    store_dir = _options()
    store_dir.add_argument(
        "--store",
        default=None,
        help="store directory (default: $REPRO_STORE or ./.repro_store)",
    )

    list_parser = subparsers.add_parser("list", help="list the registered benchmarks")
    list_parser.set_defaults(handler=_cmd_list)

    describe = subparsers.add_parser(
        "describe", parents=[_env_options(recorded=False)], help="print one benchmark's specification"
    )
    describe.set_defaults(handler=_cmd_describe)

    synthesize = subparsers.add_parser(
        "synthesize",
        parents=[shield, _campaign_options(5, 150, "evaluation episodes (0 to skip)")],
        help="synthesize a verified program + shield for a benchmark",
    )
    synthesize.add_argument("--degree", type=int, default=None, help="invariant degree bound")
    synthesize.add_argument("--output", help="path to save the shield artifact (JSON)")
    synthesize.add_argument(
        "--workers", type=int, default=1, help="concurrent CEGIS branch syntheses per round"
    )
    synthesize.set_defaults(handler=_cmd_synthesize)

    recorded_env = _env_options(recorded=True)
    evaluate = subparsers.add_parser(
        "evaluate",
        parents=[recorded_env, oracle, _campaign_options(5, 150, "evaluation episodes")],
        help="evaluate a saved shield artifact",
    )
    evaluate.add_argument("artifact", help="path to a shield artifact JSON")
    evaluate.set_defaults(handler=_cmd_evaluate)

    audit = subparsers.add_parser(
        "audit",
        parents=[recorded_env, store_dir],
        help="re-check a saved shield against verification conditions (8)-(10)",
    )
    audit.add_argument("artifact", help="path to a shield artifact JSON, or a store key")
    audit.add_argument("--engine", default="bnb", choices=("bnb", "farkas"))
    audit.add_argument(
        "--max-boxes", type=int, default=120_000, help="branch-and-bound exploration budget"
    )
    audit.set_defaults(handler=_cmd_audit)

    verify_cmd = subparsers.add_parser(
        "verify",
        parents=[recorded_env, store_dir],
        help="re-verify a stored shield through the verification kernel "
        "(backend provenance, margins, wall-clock, verdict-cache hits)",
    )
    verify_cmd.add_argument("key", help="store key (or unique prefix, ≥ 6 chars)")
    verify_cmd.add_argument(
        "--backend",
        default="auto",
        # Validated against the registry when the command runs (unknown names
        # exit 2 listing the registered backends) — resolving the registry here
        # would drag the whole certificates stack into every CLI invocation.
        help="certificate backend to run alone: lyapunov/sos/barrier/farkas, or "
        "'auto' (lyapunov on linear closed loops, then barrier)",
    )
    verify_cmd.add_argument(
        "--degree",
        type=int,
        default=None,
        help="invariant degree bound (default: the benchmark's)",
    )
    verify_cmd.add_argument(
        "--backend-budget",
        type=float,
        default=None,
        help="per-backend wall-clock budget in seconds",
    )
    verify_cmd.add_argument(
        "--no-cache", action="store_true", help="bypass the store-backed verdict cache"
    )
    verify_cmd.set_defaults(handler=_cmd_verify)

    store = subparsers.add_parser(
        "store", parents=[store_dir], help="manage the persistent shield artifact store"
    )
    store_commands = store.add_subparsers(dest="store_command", required=True)
    store_commands.add_parser("list", help="list all stored shields")
    show = store_commands.add_parser("show", help="print one stored shield's provenance + program")
    show.add_argument("key", help="content key (or unique prefix, ≥ 6 chars)")
    export = store_commands.add_parser("export", help="export a stored shield to an artifact JSON")
    export.add_argument("key")
    export.add_argument("output", help="destination file")
    verify = store_commands.add_parser(
        "verify",
        help="integrity-check (fsck) every stored object; "
        "`repro audit KEY` re-checks one shield against (8)-(10)",
    )
    verify.add_argument(
        "--delete-corrupt",
        action="store_true",
        help="move corrupt objects to <store>/quarantine/",
    )
    rm = store_commands.add_parser("rm", help="delete a stored shield")
    rm.add_argument("key")
    store.set_defaults(handler=_cmd_store)

    lint = subparsers.add_parser(
        "lint",
        help="statically analyze stored shields (coded diagnostics A001-A007)",
    )
    lint.add_argument(
        "keys",
        nargs="*",
        help="store key prefixes to lint (default: every stored shield)",
    )
    lint.add_argument("--env", help="lint only shields recorded for this benchmark")
    lint.add_argument(
        "--store",
        nargs="?",
        const="",
        default=None,
        help="store directory (default: $REPRO_STORE or ./.repro_store)",
    )
    lint.add_argument(
        "--coverage-samples",
        type=int,
        default=64,
        help="initial states sampled for the strict-dispatch coverage check",
    )
    lint.add_argument("--json", action="store_true", help="emit reports as JSON")
    lint.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on warnings too, not just errors",
    )
    lint.set_defaults(handler=_cmd_lint)

    fleet = _options(shield, _campaign_options(50, 250, "fleet width"))
    fleet.add_argument(
        "--workers",
        type=int,
        default=None,
        help="shard the fleet over N worker processes (counters are "
        "identical for every N; default: single-process)",
    )
    fleet.add_argument(
        "--shards",
        type=int,
        default=None,
        help="episode shards per sharded run (default: 8, clamped to the fleet)",
    )
    fleet.add_argument(
        "--float32",
        action="store_true",
        help="run rollout workspaces in float32 (sharded runs only)",
    )

    disturbance = _options()
    disturbance.add_argument(
        "--disturbance",
        default="none",
        choices=DISTURBANCE_KINDS,
        help="disturbance class to stress the fleet with",
    )
    disturbance.add_argument(
        "--magnitude", type=float, default=0.05, help="disturbance magnitude per dimension"
    )

    run_cmd = subparsers.add_parser(
        "run",
        parents=[fleet],
        help="deploy a shield over a sharded fleet campaign and report "
        "failures / interventions / episodes-per-second",
    )
    run_cmd.add_argument(
        "--checkpoint",
        default=None,
        help="crash-safe per-shard manifest file; completed shards survive a SIGKILL",
    )
    run_cmd.add_argument(
        "--resume",
        action="store_true",
        help="restore completed shards from the checkpoint and run only the rest",
    )
    run_cmd.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="fork-pool tries per shard before the guaranteed in-process lane",
    )
    run_cmd.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-shard watchdog deadline in seconds (hung workers are retired and retried)",
    )
    run_cmd.set_defaults(handler=_cmd_run)

    monitor = subparsers.add_parser(
        "monitor",
        parents=[fleet, disturbance],
        help="deploy a shield over a monitored batched fleet and report "
        "interventions / model mismatches / invariant excursions / disturbance estimate",
    )
    monitor.set_defaults(handler=_cmd_monitor)

    adapt = subparsers.add_parser(
        "adapt",
        parents=[fleet, disturbance],
        help="monitor a deployed fleet, fit the disturbance estimate, re-verify the "
        "certificate under the widened bound, and re-synthesize + persist on failure",
    )
    adapt.add_argument(
        "--confidence-sigmas", type=float, default=3.0, help="k in the |mean| + k*std bound"
    )
    adapt.add_argument(
        "--bound-floor", type=float, default=0.0, help="minimum widened bound per dimension"
    )
    adapt.set_defaults(handler=_cmd_adapt)

    fuzz = subparsers.add_parser(
        "fuzz",
        help="differentially fuzz the equivalence claims (compiled vs interpreted, "
        "fold vs raw, serialize round-trips, backend agreement, shard identity)",
    )
    fuzz.add_argument("--seed", type=int, default=0, help="campaign seed; one integer replays everything")
    fuzz.add_argument(
        "--rounds",
        "--iterations",
        dest="rounds",
        type=int,
        default=50,
        help="rounds to run (each round generates `weight` cases per family)",
    )
    fuzz.add_argument(
        "--properties",
        nargs="*",
        default=None,
        help="property families to fuzz (default: all)",
    )
    fuzz.add_argument(
        "--corpus",
        default=None,
        help="persist shrunk reproducers for any divergence into this directory",
    )
    fuzz.add_argument(
        "--time-budget",
        type=float,
        default=None,
        help="stop after this many seconds (never interrupts a case mid-check)",
    )
    fuzz.add_argument(
        "--no-shrink", action="store_true", help="report raw failing cases without minimizing"
    )
    fuzz.add_argument(
        "--list-properties", action="store_true", help="list property families and exit"
    )
    fuzz.set_defaults(handler=_cmd_fuzz)

    for experiment in ("table1", "table2", "table3", "fig3", "fig6", "robustness"):
        help_text = (
            "robustness sweep: disturbance classes x registry environments"
            if experiment == "robustness"
            else f"regenerate the paper's {experiment}"
        )
        experiment_parser = subparsers.add_parser(experiment, help=help_text)
        if experiment == "table3":
            experiment_parser.add_argument(
                "changes", nargs="*", default=None, help="environment changes (default: all)"
            )
        elif experiment not in ("fig3", "fig6"):
            experiment_parser.add_argument(
                "benchmarks", nargs="*", default=None, help="benchmark names (default: all)"
            )
        experiment_parser.add_argument(
            "--scale", choices=("smoke", "medium", "paper"), default="smoke"
        )
        experiment_parser.add_argument(
            "--store",
            default=None,
            help="load/persist shields via this store directory instead of re-synthesizing",
        )
        experiment_parser.add_argument(
            "--workers",
            type=int,
            default=None,
            help="shard evaluation fleets over N worker processes",
        )
        if experiment == "table2":
            experiment_parser.add_argument("--degrees", type=int, nargs="*", default=None)
        if experiment == "robustness":
            experiment_parser.add_argument(
                "--kinds", nargs="*", choices=DISTURBANCE_KINDS, default=None
            )
            experiment_parser.add_argument("--magnitude", type=float, default=0.05)
        if experiment in ("table1", "table2", "table3", "robustness"):
            experiment_parser.add_argument(
                "--journal", default=None, help="crash-safe per-row checkpoint file"
            )
            experiment_parser.add_argument(
                "--resume",
                action="store_true",
                help="reuse finished rows from the journal; run only the rest",
            )
            experiment_parser.add_argument(
                "--no-timing",
                action="store_true",
                help="zero wall-clock columns (reproducible reports)",
            )
        experiment_parser.set_defaults(handler=_cmd_experiment, experiment=experiment)

    chaos = subparsers.add_parser(
        "chaos",
        help="run named fault-injection scenarios (worker crashes, hangs, "
        "flaky IO, store corruption, kill+resume) and verify recovery",
    )
    chaos.add_argument(
        "scenario",
        nargs="*",
        help="scenario name(s); see --list",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--workdir",
        default=None,
        help="working directory for scenario artifacts (default: a fresh temp dir)",
    )
    chaos.add_argument("--output", default=None, help="also write the JSON report here")
    chaos.add_argument(
        "--list", dest="list_scenarios", action="store_true", help="list scenarios and exit"
    )
    chaos.set_defaults(handler=_cmd_chaos)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command.  Bad input (an unknown file, key, benchmark or
    ``--overrides``) prints one ``error:`` line and exits 2; program errors
    raise."""
    args = build_parser().parse_args(argv)
    from .store import StoreError
    from .store.service import InputError

    try:
        return args.handler(args)
    except (InputError, StoreError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
