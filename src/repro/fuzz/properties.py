"""The seven differential property families the fuzzer checks.

Each family is a :class:`PropertyFamily` with a ``generate(rng) -> payload``
and a ``check(payload) -> Optional[str]`` (``None`` = property holds, a
message = divergence).  ``check`` is a pure function of the payload — that is
what makes shrinking and corpus replay possible.

The equivalence claims are scoped exactly as the codebase defines them:

* ``compiled`` — campaign *counters* (unsafe steps, interventions, steps to
  steady) are bit-identical between the interpreted (``repro.reference``)
  and compiled engines;
  rewards agree to tight relative tolerance (matmul vs per-term summation
  reassociates floating-point adds).  Both engines step through
  ``env.rate_batch``, so the environment's ``rate`` is checked on its own on
  the campaign's initial states: on columns it equals the row-wise float
  evaluation bit for bit and the lowered ``PolyBlock`` of its polynomial
  evaluation within ``1e-9``.
* ``fold`` — ``fold_constants`` output equals raw tree-walk evaluation on
  *all* states including ``inf``/``nan`` (up to ulp-level tolerance from the
  re-associated constant product); the lowered kernel additionally equals the
  tree walk on finite states within an interval-arithmetic error bound.
* ``serialize`` — serialize→deserialize→serialize is idempotent,
  ``program_fingerprint`` is stable across round-trips and signed zeros, the
  store keys numerically equal artifacts identically, and non-finite
  coefficients are rejected with ``ArtifactError``.
* ``backends`` — no certificate backend reports SAFE where the
  branch-and-bound audit refutes the invariant; failed verifications must
  carry a failure reason.  Each payload also carries a random
  polynomial/box/constraint query on which the vectorized frontier
  branch-and-bound engine must be bit-identical (verdict, counterexample,
  ``boxes_explored``, ``max_depth_reached``, ``sampled_boxes``) to the
  scalar reference engine (``repro.reference.ScalarBranchAndBoundVerifier``),
  and on whose boxes the centred enclosure ``centred_boxes`` must contain
  every sampled value of the query's polynomials.
* ``shard`` — ``workers=1`` and ``workers=N`` campaigns over the same shard
  plan produce bit-identical per-episode arrays (and monitored fleets
  bit-identical counters and disturbance estimates).
* ``analysis`` — the abstract interpreter's interval bounds contain every
  concrete evaluation sampled from the box (expressions, program outputs,
  guard values), and its dead-branch / coverage verdicts never contradict
  concrete guard dispatch.
* ``faults`` — a campaign run under a random :class:`~repro.faults.FaultPlan`
  (worker crashes, hangs past the watchdog, transient ``OSError``) recovers to
  per-episode arrays bit-identical to the fault-free run.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional

import numpy as np

from . import generators as gen

__all__ = ["PropertyFamily", "FAMILIES", "case_rng"]


@dataclass(frozen=True)
class PropertyFamily:
    """One differential property: a generator, a checker, and shrink moves."""

    name: str
    description: str
    #: Cases generated per fuzz round (cheap families run more often).
    weight: int
    generate: Callable[[np.random.Generator], Dict[str, Any]]
    check: Callable[[Dict[str, Any]], Optional[str]]
    shrink_candidates: Callable[[Dict[str, Any]], Iterator[Dict[str, Any]]]


def case_rng(seed: int, family: str, index: int) -> np.random.Generator:
    """The deterministic RNG of case ``index`` of ``family`` under ``seed``.

    Every case derives from one root integer through a
    :class:`numpy.random.SeedSequence` spawn key, so a reported
    ``(seed, family, index)`` triple replays the exact case.
    """
    family_id = _FAMILY_IDS[family]
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(family_id, index))
    )


# ---------------------------------------------------------------- comparison
def _values_agree(a: float, b: float, rel: float = 1e-9, abs_tol: float = 1e-9) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= abs_tol + rel * max(abs(a), abs(b))


def _same_expr(a, b) -> bool:
    """Structural equality that treats two nan constants as equal."""
    if type(a) is not type(b):
        return False
    value_a = getattr(a, "value", None)
    if value_a is not None:
        value_b = b.value
        if math.isnan(value_a) or math.isnan(value_b):
            return math.isnan(value_a) and math.isnan(value_b)
        return value_a == value_b
    if hasattr(a, "index"):
        return a.index == b.index
    ops_a = getattr(a, "operands", ())
    ops_b = getattr(b, "operands", ())
    return len(ops_a) == len(ops_b) and all(
        _same_expr(x, y) for x, y in zip(ops_a, ops_b)
    )


# ------------------------------------------------------------- family: fold
def _gen_fold(rng: np.random.Generator) -> Dict[str, Any]:
    num_vars = int(rng.integers(1, 4))
    expr = gen.random_expr(rng, num_vars, depth=int(rng.integers(2, 4)))
    return {
        "expr": gen.expr_to_payload(expr),
        "num_vars": num_vars,
        "states": gen.random_states(rng, num_vars, count=6),
    }


def _magnitude_bound(polynomial, state) -> float:
    """Interval bound on the evaluation error condition: Σ |c|·Π|x|^e."""
    bound = 0.0
    for monomial, coeff in polynomial.terms.items():
        term = abs(coeff)
        for var_index, exponent in enumerate(monomial.exponents):
            term *= abs(state[var_index]) ** exponent
        bound += term
    return max(bound, 1.0)


def _check_fold(payload: Dict[str, Any]) -> Optional[str]:
    from ..compile import LoweringError, lower_exprs
    from ..lang import fold_constants

    expr = gen.expr_from_payload(payload["expr"])
    num_vars = int(payload["num_vars"])
    states = [gen.dec_values(s) for s in payload["states"]]

    folded = fold_constants(expr)
    if not _same_expr(fold_constants(folded), folded):
        return "fold_constants is not idempotent"

    for state in states:
        raw = expr.evaluate_interpreted(state)
        via_fold = folded.evaluate_interpreted(state)
        if not _values_agree(raw, via_fold, rel=1e-9, abs_tol=1e-12):
            return (
                f"fold_constants diverges from raw evaluation at {state}: "
                f"raw={raw!r} folded={via_fold!r}"
            )

    try:
        block = lower_exprs([expr], num_vars)
    except LoweringError:
        return None  # non-lowerable (e.g. non-finite constants) stays interpreted
    polynomial = fold_constants(expr).to_polynomial(num_vars)
    for state in states:
        if not all(math.isfinite(v) for v in state):
            continue  # kernels are only claimed equivalent on finite states
        raw = expr.evaluate_interpreted(state)
        lowered = float(block.evaluate_single(state)[0])
        bound = _magnitude_bound(polynomial, state)
        if bound > 1e100:
            continue  # overflow regime: expansion is reassociation-sensitive
        if math.isnan(raw) and math.isnan(lowered):
            continue
        if not abs(raw - lowered) <= 1e-9 * bound + 1e-12:
            return (
                f"lowered kernel diverges from raw evaluation at {state}: "
                f"raw={raw!r} lowered={lowered!r} (bound {bound:.3g})"
            )
    return None


def _shrink_expr_payload(data: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    """Reduced versions of one expression payload (child promotion, operand
    drop, constant zeroing), in deterministic order."""
    kind = data["kind"]
    if kind in ("add", "mul"):
        for operand in data["operands"]:
            yield operand  # promote a child over the whole node
        if len(data["operands"]) > 2:
            for index in range(len(data["operands"])):
                yield {
                    "kind": kind,
                    "operands": data["operands"][:index] + data["operands"][index + 1 :],
                }
        for index, operand in enumerate(data["operands"]):
            for reduced in _shrink_expr_payload(operand):
                yield {
                    "kind": kind,
                    "operands": data["operands"][:index]
                    + [reduced]
                    + data["operands"][index + 1 :],
                }
    elif kind == "const" and gen.dec_float(data["value"]) not in (0.0,):
        yield {"kind": "const", "value": 0.0}


def _shrink_fold(payload: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    states = payload["states"]
    if len(states) > 1:
        for index in range(len(states)):
            yield {**payload, "states": states[:index] + states[index + 1 :]}
    for index, state in enumerate(states):
        for var_index, value in enumerate(state):
            if gen.dec_float(value) != 0.0:
                simpler = list(state)
                simpler[var_index] = 0.0
                yield {**payload, "states": states[:index] + [simpler] + states[index + 1 :]}
    for reduced in _shrink_expr_payload(payload["expr"]):
        yield {**payload, "expr": reduced}


# -------------------------------------------------------- family: serialize
def _gen_serialize(rng: np.random.Generator) -> Dict[str, Any]:
    state_dim = int(rng.integers(1, 4))
    action_dim = int(rng.integers(1, 3))
    program = gen.random_program_payload(rng, state_dim, action_dim)
    roll = rng.random()
    mutation = "none"
    if roll < 0.2:
        mutation = "nonfinite"
        program = _inject_nonfinite(rng, program)
    return {
        "program": program,
        "invariant": gen.random_invariant_union_payload(rng, state_dim),
        "mutation": mutation,
    }


def _inject_nonfinite(rng: np.random.Generator, program: Dict[str, Any]) -> Dict[str, Any]:
    """Set one numeric leaf of the program payload to inf/nan."""
    import copy

    program = copy.deepcopy(program)
    value = gen.enc_float((float("nan"), float("inf"), float("-inf"))[int(rng.integers(0, 3))])
    if program["kind"] == "affine":
        program["gain"][0][0] = value
    elif program["kind"] == "expr":
        program["outputs"][0]["terms"] = [[[0] * program["state_dim"], value]]
    else:
        program["branches"][0]["program"]["gain"][0][0] = value
    return program


def _decode_payload_floats(data: Any) -> Any:
    if isinstance(data, dict):
        if "$f" in data:
            return gen.dec_float(data)
        return {key: _decode_payload_floats(value) for key, value in data.items()}
    if isinstance(data, list):
        return [_decode_payload_floats(item) for item in data]
    return data


def _flip_zero_signs(data: Any) -> Any:
    """The signed-zero twin of a JSON payload (0.0 ↔ -0.0 on every leaf)."""
    if isinstance(data, dict):
        return {key: _flip_zero_signs(value) for key, value in data.items()}
    if isinstance(data, list):
        return [_flip_zero_signs(item) for item in data]
    if isinstance(data, float) and data == 0.0:
        return -0.0 if math.copysign(1.0, data) > 0 else 0.0
    return data


def _check_serialize(payload: Dict[str, Any]) -> Optional[str]:
    from ..lang.serialize import (
        ArtifactError,
        ShieldArtifact,
        invariant_union_from_dict,
        program_fingerprint,
        program_from_dict,
        program_to_dict,
    )
    from ..store import ShieldStore, StoreError

    program_dict = _decode_payload_floats(payload["program"])

    if payload["mutation"] == "nonfinite":
        # Rejection may legitimately happen at either boundary — deserializing
        # the poisoned dict or re-serializing the resulting program — but it
        # must happen, and it must be an ArtifactError.
        try:
            program_to_dict(program_from_dict(program_dict))
        except ArtifactError:
            return None
        return "non-finite coefficients serialized without ArtifactError"

    program = program_from_dict(program_dict)

    first = program_to_dict(program)
    second = program_to_dict(program_from_dict(first))
    if first != second:
        return f"serialize round-trip is not idempotent: {first} != {second}"
    if program_fingerprint(program) != program_fingerprint(program_from_dict(first)):
        return "program_fingerprint changed across a serialize round-trip"

    twin = program_from_dict(_flip_zero_signs(program_dict))
    if program_fingerprint(program) != program_fingerprint(twin):
        return "program_fingerprint differs between signed-zero twins"

    union = invariant_union_from_dict(_decode_payload_floats(payload["invariant"]))
    artifact = ShieldArtifact(
        program=program, invariant=union, environment="fuzz", metadata={"weight": -0.0}
    )
    twin_artifact = ShieldArtifact(
        program=twin, invariant=union, environment="fuzz", metadata={"weight": 0.0}
    )
    with tempfile.TemporaryDirectory() as root:
        store = ShieldStore(root)
        try:
            key = store.put(artifact)
            twin_key = store.put(twin_artifact)
        except StoreError as error:
            return f"store rejected a finite artifact: {error}"
        if key != twin_key:
            return "store keys differ between numerically equal artifacts"
        if store.put(store.get(key)) != key:
            return "store round-trip changed the content key"
    return None


def _shrink_serialize(payload: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    program = payload["program"]
    if program["kind"] == "guarded":
        if len(program["branches"]) > 1:
            for index in range(len(program["branches"])):
                yield {
                    **payload,
                    "program": {
                        **program,
                        "branches": program["branches"][:index]
                        + program["branches"][index + 1 :],
                    },
                }
        for branch in program["branches"]:
            yield {**payload, "program": branch["program"]}
        if program.get("fallback"):
            yield {**payload, "program": {**program, "fallback": None}}
    if len(payload["invariant"]["members"]) > 1:
        yield {
            **payload,
            "invariant": {"members": payload["invariant"]["members"][:1]},
        }
    for reduced in _zeroed_leaves(program):
        yield {**payload, "program": reduced}


def _zeroed_leaves(data: Any, limit: int = 16) -> Iterator[Any]:
    """Copies of ``data`` with one non-zero numeric leaf zeroed (first N)."""
    paths: list = []

    def walk(node, path):
        if len(paths) >= limit:
            return
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, path + [key])
        elif isinstance(node, list):
            for index, value in enumerate(node):
                walk(value, path + [index])
        elif isinstance(node, float) and node != 0.0:
            paths.append(path)

    walk(data, [])
    import copy

    for path in paths:
        clone = copy.deepcopy(data)
        cursor = clone
        for step in path[:-1]:
            cursor = cursor[step]
        cursor[path[-1]] = 0.0
        yield clone


# --------------------------------------------------------- family: compiled
def _gen_compiled(rng: np.random.Generator) -> Dict[str, Any]:
    env = gen.random_env_payload(rng)
    return {
        "env": env,
        "shield": gen.random_shield_payload(rng, env),
        "episodes": int(rng.integers(2, 6)),
        "steps": int(rng.integers(8, 25)),
        "campaign_seed": int(rng.integers(0, 2**31)),
    }


def _campaign_signature(metrics):
    return [
        (e.steps, e.unsafe_steps, e.interventions, e.steps_to_steady)
        for e in metrics.episodes
    ]


def _check_rate(env, states: np.ndarray, actions: np.ndarray) -> Optional[str]:
    """``rate`` on columns vs on floats (exact) vs lowered to a PolyBlock."""
    from ..compile import PolyBlock
    from ..polynomials import Polynomial

    columns = env.rate_batch(states, actions)
    rows = np.stack([env.rate_numeric(s, a) for s, a in zip(states, actions)])
    if not np.array_equal(columns, rows):
        return f"rate_batch != row-wise rate_numeric: {columns.tolist()} != {rows.tolist()}"
    n, m = env.state_dim, env.action_dim
    entries = env.rate(
        [Polynomial.variable(i, n + m) for i in range(n)],
        [Polynomial.variable(n + j, n + m) for j in range(m)],
    )
    block = PolyBlock.from_polynomials(
        [e if isinstance(e, Polynomial) else Polynomial.constant(float(e), n + m) for e in entries]
    )
    lowered = block.evaluate(np.concatenate([states, actions], axis=1))
    if not np.allclose(columns, lowered, rtol=1e-9, atol=1e-9):
        return f"rate_batch != lowered rate: {columns.tolist()} != {lowered.tolist()}"
    return None


def _check_compiled(payload: Dict[str, Any]) -> Optional[str]:
    from ..reference import evaluate_policy_interpreted
    from ..runtime.simulation import EvaluationProtocol, evaluate_policy

    env = gen.env_from_payload(payload["env"])
    shield = gen.shield_from_payload(env, payload["shield"])
    rng = np.random.default_rng(int(payload["campaign_seed"]))
    states = env.sample_initial_states(rng, int(payload["episodes"]))
    failure = _check_rate(env, states, env.clip_action_batch(shield.act_batch(states)))
    if failure is not None:
        return failure

    def run(evaluate):
        env = gen.env_from_payload(payload["env"])
        shield = gen.shield_from_payload(env, payload["shield"])
        protocol = EvaluationProtocol(
            episodes=int(payload["episodes"]),
            steps=int(payload["steps"]),
            seed=int(payload["campaign_seed"]),
        )
        metrics = evaluate(env, shield, protocol, shield=shield)
        return metrics, shield.statistics

    slow, slow_stats = run(evaluate_policy_interpreted)
    fast, fast_stats = run(evaluate_policy)
    if _campaign_signature(slow) != _campaign_signature(fast):
        return (
            "compiled campaign counters diverge from interpreted: "
            f"{_campaign_signature(slow)} != {_campaign_signature(fast)}"
        )
    slow_rewards = [e.total_reward for e in slow.episodes]
    fast_rewards = [e.total_reward for e in fast.episodes]
    if not np.allclose(slow_rewards, fast_rewards, rtol=1e-7, atol=1e-9):
        return f"campaign rewards diverge: {slow_rewards} != {fast_rewards}"
    if (slow_stats.decisions, slow_stats.interventions) != (
        fast_stats.decisions,
        fast_stats.interventions,
    ):
        return (
            "shield statistics diverge: "
            f"interpreted ({slow_stats.decisions}, {slow_stats.interventions}) != "
            f"compiled ({fast_stats.decisions}, {fast_stats.interventions})"
        )
    return None


def _shrink_campaign(payload: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    for field, floor in (("episodes", 1), ("steps", 1)):
        value = int(payload[field])
        for smaller in (floor, value // 2):
            if floor <= smaller < value:
                yield {**payload, field: smaller}
    shield = payload["shield"]
    branches = shield["program"]["branches"]
    if len(branches) > 1:
        for index in range(len(branches)):
            reduced_branches = branches[:index] + branches[index + 1 :]
            yield {
                **payload,
                "shield": {
                    **shield,
                    "program": {**shield["program"], "branches": reduced_branches},
                    "invariant": {
                        "members": [b["invariant"] for b in reduced_branches]
                    },
                },
            }
    env = payload["env"]
    for dim_index, dim_terms in enumerate(env.get("terms", [])):
        if len(dim_terms) > 1:
            for term_index in range(len(dim_terms)):
                reduced_terms = [list(t) for t in env["terms"]]
                reduced_terms[dim_index] = (
                    dim_terms[:term_index] + dim_terms[term_index + 1 :]
                )
                yield {**payload, "env": {**env, "terms": reduced_terms}}
    if env.get("disturbance") is not None:
        yield {**payload, "env": {**env, "disturbance": None}}


# ---------------------------------------------------------- family: backends
def _random_bnb_query(rng: np.random.Generator) -> Dict[str, Any]:
    """A random branch-and-bound query for the frontier-vs-scalar cross-check.

    Polynomial terms are ``[e_0, ..., e_{d-1}, coefficient]`` rows and boxes
    are ``[low, high]`` pairs, so the payload stays a plain JSON value the
    shrinker can edit leaf-wise.  Dimensions 1-7 straddle the corner cap
    (corners up to 6, centre only above) and 1-3 initial boxes exercise the
    unpaired first round.
    """
    dim = int(rng.integers(1, 8))

    def poly_terms(n_terms: int, max_degree: int) -> list:
        return [
            [int(e) for e in rng.integers(0, max_degree + 1, size=dim)]
            + [float(np.round(rng.normal(), 6))]
            for _ in range(n_terms)
        ]

    def box() -> list:
        low = rng.uniform(-2.0, 0.0, dim)
        return [
            [float(np.round(v, 6)) for v in low],
            [float(np.round(v + rng.uniform(0.5, 3.0), 6)) for v in low],
        ]

    return {
        "target": poly_terms(int(rng.integers(1, 6)), 3),
        "constraints": [
            poly_terms(int(rng.integers(1, 4)), 2)
            for _ in range(int(rng.integers(0, 3)))
        ],
        "boxes": [box() for _ in range(int(rng.integers(1, 4)))],
        "max_boxes": int(rng.integers(5, 2500)),
        "min_width": float(np.round(rng.uniform(1e-3, 0.3), 6)),
        "policy": "sample" if rng.random() < 0.7 else "reject",
        "seed": int(rng.integers(0, 2**16)),
    }


def _gen_backends(rng: np.random.Generator) -> Dict[str, Any]:
    mode = ("lqr", "lqr", "random", "destabilizing")[int(rng.integers(0, 4))]
    env = gen.random_linear_env_payload(rng, stable=mode != "destabilizing")
    action_dim = int(env["action_dim"])
    gain = [[float(v) for v in row] for row in
            np.random.default_rng(int(rng.integers(0, 2**31))).normal(
                scale=0.8, size=(action_dim, 2))]
    return {
        "env": env,
        "mode": mode,
        "gain": gain,
        "max_boxes": 4000,
        "bnb": _random_bnb_query(rng),
    }


def _check_bnb_engines(query: Dict[str, Any]) -> Optional[str]:
    """Frontier and scalar branch-and-bound must be bit-identical, and the
    centred enclosure the engines prove limit boxes with must contain the
    query's polynomials at random points of each query box."""
    from ..certificates import Box, BranchAndBoundVerifier
    from ..certificates.interval_batch import centred_boxes, eval_points, lower_interval
    from ..polynomials import Polynomial
    from ..polynomials.monomial import Monomial
    from ..reference import ScalarBranchAndBoundVerifier

    engines = (ScalarBranchAndBoundVerifier, BranchAndBoundVerifier)
    dim = len(query["boxes"][0][0])

    def build(terms: list) -> Polynomial:
        mapping: Dict[Monomial, float] = {}
        for row in terms:
            monomial = Monomial(tuple(int(e) for e in row[:-1]))
            mapping[monomial] = mapping.get(monomial, 0.0) + float(row[-1])
        return Polynomial(dim, mapping)

    target = build(query["target"])
    constraints = [build(rows) for rows in query["constraints"]]
    boxes = [Box(tuple(low), tuple(high)) for low, high in query["boxes"]]
    points_rng = np.random.default_rng(int(query["seed"]))
    for low, high in query["boxes"]:
        low, high = np.asarray(low, dtype=float), np.asarray(high, dtype=float)
        points = points_rng.uniform(low, high, (64, dim))
        for poly in (target, *constraints):
            table = lower_interval(poly)
            lo, hi = centred_boxes(table, low[None], high[None])
            values = eval_points(table, points)
            slack = 1e-9 * (1.0 + float(np.abs(values).max()))
            if values.min() < lo[0] - slack or values.max() > hi[0] + slack:
                return (
                    f"centred enclosure [{lo[0]}, {hi[0]}] misses values in "
                    f"[{values.min()}, {values.max()}] on box {low.tolist()}..{high.tolist()}"
                )
    kwargs = dict(
        max_boxes=int(query["max_boxes"]),
        min_width=float(query["min_width"]),
        resolution_limit_policy=query["policy"],
        seed=int(query["seed"]),
    )
    for sense in ("nonpositive", "positive"):
        results = []
        for engine in engines:
            verifier = engine(**kwargs)
            prove = (
                verifier.prove_nonpositive
                if sense == "nonpositive"
                else verifier.prove_positive
            )
            results.append(prove(target, boxes, constraints))
        scalar, frontier_result = results
        if (
            scalar.verified != frontier_result.verified
            or scalar.boxes_explored != frontier_result.boxes_explored
            or scalar.max_depth_reached != frontier_result.max_depth_reached
            or scalar.sampled_boxes != frontier_result.sampled_boxes
        ):
            return (
                f"bnb engines diverge on prove_{sense}: scalar="
                f"({scalar.verified}, {scalar.boxes_explored}, "
                f"{scalar.max_depth_reached}, {scalar.sampled_boxes}) frontier="
                f"({frontier_result.verified}, {frontier_result.boxes_explored}, "
                f"{frontier_result.max_depth_reached}, {frontier_result.sampled_boxes})"
            )
        cex_s, cex_f = scalar.counterexample, frontier_result.counterexample
        if (cex_s is None) != (cex_f is None) or (
            cex_s is not None and not np.array_equal(cex_s, cex_f)
        ):
            return (
                f"bnb engines diverge on prove_{sense} counterexample: "
                f"scalar={cex_s} frontier={cex_f}"
            )
    uncovered = [
        engine(**kwargs).find_uncovered_point(boxes[0], constraints, [0.0] * len(constraints))
        for engine in engines
    ]
    if (uncovered[0] is None) != (uncovered[1] is None) or (
        uncovered[0] is not None and not np.array_equal(uncovered[0], uncovered[1])
    ):
        return (
            f"bnb engines diverge on find_uncovered_point: "
            f"scalar={uncovered[0]} frontier={uncovered[1]}"
        )
    return None


def _check_backends(payload: Dict[str, Any]) -> Optional[str]:
    from ..baselines import make_lqr_policy
    from ..certificates import audit_invariant, available_backends, is_disturbed
    from ..core import VerificationConfig, verify_program
    from ..lang import AffineProgram

    # Older reproducer payloads predate the frontier engine and carry no query.
    bnb = payload.get("bnb")
    if bnb is not None:
        message = _check_bnb_engines(bnb)
        if message is not None:
            return message

    env = gen.env_from_payload(payload["env"])
    mode = payload["mode"]
    if mode == "lqr":
        try:
            program = AffineProgram(gain=make_lqr_policy(env).gain)
        except Exception:
            program = AffineProgram(gain=np.array(payload["gain"], dtype=float))
    elif mode == "destabilizing":
        program = AffineProgram(
            gain=5.0 * np.abs(np.array(payload["gain"], dtype=float)) + 1.0
        )
    else:
        program = AffineProgram(gain=np.array(payload["gain"], dtype=float))

    disturbed = is_disturbed(env)
    backends = [
        backend for backend in available_backends() if backend.supports(env, program)
    ][:3]
    for backend in backends:
        config = VerificationConfig(backend=backend.name)
        config.barrier.max_refinements = 3
        outcome = verify_program(env, program, config=config)
        if not outcome.verified:
            if not outcome.failure_reason:
                return f"backend {backend.name} failed without a failure reason"
            continue
        if disturbed and not outcome.disturbance_aware:
            return (
                f"backend {backend.name} certified a disturbed environment "
                "without a disturbance-aware certificate"
            )
        report = audit_invariant(
            env, program, outcome.invariant, max_boxes=int(payload["max_boxes"])
        )
        if not report.unsafe_positive:
            return (
                f"backend {backend.name} reported SAFE but branch-and-bound "
                f"refutes safe-positivity: {report.details}"
            )
        refutations = [
            verdict.counterexample
            for verdict in report.failures
            if verdict.obligation.kind == "induction" and verdict.refuted
        ]
        if refutations:
            return (
                f"backend {backend.name} reported SAFE but branch-and-bound "
                f"found an induction counterexample: {refutations[0]}"
            )
    return None


def _shrink_backends(payload: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    env = payload["env"]
    if env.get("disturbance") is not None:
        yield {**payload, "env": {**env, "disturbance": None}}
    smaller = int(payload["max_boxes"]) // 2
    if smaller >= 500:
        yield {**payload, "max_boxes": smaller}
    for reduced in _zeroed_leaves(payload["gain"], limit=4):
        yield {**payload, "gain": reduced}
    bnb = payload.get("bnb")
    if bnb is not None:
        for index in range(len(bnb["constraints"])):
            trimmed = [c for i, c in enumerate(bnb["constraints"]) if i != index]
            yield {**payload, "bnb": {**bnb, "constraints": trimmed}}
        smaller_bnb = int(bnb["max_boxes"]) // 2
        if smaller_bnb >= 2:
            yield {**payload, "bnb": {**bnb, "max_boxes": smaller_bnb}}
        if len(bnb["target"]) > 1:
            yield {**payload, "bnb": {**bnb, "target": bnb["target"][:-1]}}
        if len(bnb["boxes"]) > 1:
            yield {**payload, "bnb": {**bnb, "boxes": bnb["boxes"][:1]}}


# ------------------------------------------------------------ family: shard
def _gen_shard(rng: np.random.Generator) -> Dict[str, Any]:
    env = gen.random_env_payload(rng)
    return {
        "env": env,
        "shield": gen.random_shield_payload(rng, env),
        "episodes": int(rng.integers(6, 13)),
        "steps": int(rng.integers(8, 16)),
        "campaign_seed": int(rng.integers(0, 2**31)),
        "workers": 2,
        "shards": int(rng.integers(2, 5)),
        "monitored": bool(rng.random() < 0.5),
    }


def _check_shard(payload: Dict[str, Any]) -> Optional[str]:
    from ..shard import monitor_fleet_sharded, run_sharded_campaign

    episodes = int(payload["episodes"])
    steps = int(payload["steps"])
    seed = int(payload["campaign_seed"])
    shards = int(payload["shards"])

    if payload["monitored"]:
        fields = (
            "interventions",
            "model_mismatches",
            "invariant_excursions",
            "unsafe_steps",
            "final_states",
        )
        results = []
        for workers in (1, int(payload["workers"])):
            env = gen.env_from_payload(payload["env"])
            shield = gen.shield_from_payload(env, payload["shield"])
            results.append(
                monitor_fleet_sharded(
                    shield,
                    episodes=episodes,
                    steps=steps,
                    seed=seed,
                    workers=workers,
                    shards=shards,
                )
            )
        reference, other = results
        for field in fields:
            if not np.array_equal(getattr(reference, field), getattr(other, field)):
                return (
                    f"monitored fleet field {field!r} differs between workers=1 "
                    f"and workers={payload['workers']}"
                )
        left, right = reference.disturbance_estimate, other.disturbance_estimate
        if (left is None) != (right is None):
            return "disturbance estimate presence differs between worker counts"
        if left is not None and not (
            np.array_equal(left.mean, right.mean)
            and np.array_equal(left.covariance, right.covariance)
            and np.array_equal(left.bound, right.bound)
        ):
            return "disturbance estimate differs between worker counts"
        return None

    fields = ("total_rewards", "unsafe_counts", "interventions", "steady_at")
    results = []
    for workers in (1, int(payload["workers"])):
        env = gen.env_from_payload(payload["env"])
        shield = gen.shield_from_payload(env, payload["shield"])
        results.append(
            run_sharded_campaign(
                env,
                shield=shield,
                episodes=episodes,
                steps=steps,
                seed=seed,
                workers=workers,
                shards=shards,
            )
        )
    reference, other = results
    for field in fields:
        if not np.array_equal(getattr(reference, field), getattr(other, field)):
            return (
                f"campaign array {field!r} differs between workers=1 and "
                f"workers={payload['workers']} (shards={shards})"
            )
    return None


def _shrink_shard(payload: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    if payload["monitored"]:
        yield {**payload, "monitored": False}
    for candidate in _shrink_campaign(payload):
        yield candidate
    shards = int(payload["shards"])
    if shards > 2:
        yield {**payload, "shards": shards - 1}


# ---------------------------------------------------------- family: analysis
def _gen_analysis(rng: np.random.Generator) -> Dict[str, Any]:
    state_dim = int(rng.integers(1, 4))
    action_dim = int(rng.integers(1, 3))
    expr = gen.random_expr(rng, state_dim, depth=int(rng.integers(2, 4)))
    center = rng.normal(scale=1.0, size=state_dim)
    width = 0.1 + rng.random(size=state_dim) * 1.5
    low = [float(c - w) for c, w in zip(center, width)]
    high = [float(c + w) for c, w in zip(center, width)]
    states = []
    for _ in range(6):
        mix = rng.random(size=state_dim)
        states.append(
            gen.enc_values([lo + t * (hi - lo) for lo, hi, t in zip(low, high, mix)])
        )
    strict = bool(rng.random() < 0.3)
    branches = [
        {
            "invariant": gen._random_invariant_dict(rng, state_dim),
            "program": gen._random_affine_dict(rng, state_dim, action_dim),
        }
        for _ in range(int(rng.integers(1, 4)))
    ]
    guarded = {
        "kind": "guarded",
        "branches": branches,
        "fallback": None if strict else gen._random_affine_dict(rng, state_dim, action_dim),
        "names": None,
        "strict": strict,
    }
    return {
        "state_dim": state_dim,
        "box": {"low": gen.enc_values(low), "high": gen.enc_values(high)},
        "expr": gen.expr_to_payload(expr),
        "states": states,
        "program": gen.random_program_payload(rng, state_dim, action_dim),
        "guarded": guarded,
    }


def _interval_contains(interval, value: float, extra: float = 0.0) -> bool:
    """Whether ``value`` is inside ``interval`` up to relative float slop."""
    tol = 1e-9 * max(
        1.0,
        abs(interval.lo) if math.isfinite(interval.lo) else 0.0,
        abs(interval.hi) if math.isfinite(interval.hi) else 0.0,
        abs(value),
        extra,
    )
    lo_ok = interval.lo == float("-inf") or value >= interval.lo - tol
    hi_ok = interval.hi == float("inf") or value <= interval.hi + tol
    return lo_ok and hi_ok


def _check_analysis(payload: Dict[str, Any]) -> Optional[str]:
    from ..analysis import (
        analyze_program,
        expr_interval,
        invariant_interval,
        program_output_intervals,
    )
    from ..certificates.regions import Box
    from ..lang import UnreachableBranchError
    from ..lang.serialize import program_from_dict

    box = Box(
        low=tuple(gen.dec_values(payload["box"]["low"])),
        high=tuple(gen.dec_values(payload["box"]["high"])),
    )
    states = [gen.dec_values(s) for s in payload["states"]]

    # 1. expression bounds contain every concrete evaluation over the box.
    expr = gen.expr_from_payload(payload["expr"])
    bound = expr_interval(expr, box)
    for state in states:
        value = expr.evaluate(state)
        if math.isfinite(value) and not _interval_contains(bound, value):
            return (
                f"expr_interval [{bound.lo!r}, {bound.hi!r}] does not contain "
                f"concrete evaluation {value!r} at {state}"
            )

    # 2. program output bounds contain every concrete action componentwise.
    program = program_from_dict(payload["program"])
    outputs = program_output_intervals(program, box)
    for state in states:
        action = program.act(state)
        for coord, iv in enumerate(outputs):
            value = float(action[coord])
            if math.isfinite(value) and not _interval_contains(iv, value):
                return (
                    f"program_output_intervals[{coord}] "
                    f"[{iv.lo!r}, {iv.hi!r}] does not contain concrete "
                    f"action {value!r} at {state}"
                )

    # 3. guard verdicts never contradict concrete reachability: a branch the
    #    analyzer calls dead is never satisfied by a sampled in-box state, a
    #    shadowing guard always holds, and coverage-gap witnesses really fail
    #    strict dispatch.
    guarded = program_from_dict(payload["guarded"])
    for index, (guard, _piece) in enumerate(guarded.branches):
        verdict = invariant_interval(guard, box)
        for state in states:
            value = guard.value(state)
            if math.isfinite(value) and not _interval_contains(verdict, value):
                return (
                    f"guard {index} interval [{verdict.lo!r}, {verdict.hi!r}] "
                    f"does not contain concrete value {value!r} at {state}"
                )
    report = analyze_program(guarded, init_box=box, subject="fuzz")
    for diag in report.select(code="A002"):
        branch = diag.data.get("branch")
        shadowed_by = diag.data.get("shadowed_by")
        if shadowed_by is not None:
            shadow = guarded.branches[shadowed_by][0]
            for state in states:
                value = shadow.value(state)
                if value > 1e-9 * max(1.0, abs(value)):
                    return (
                        f"branch {branch} reported shadowed by {shadowed_by}, "
                        f"but guard {shadowed_by} fails at {state} "
                        f"(value {value!r})"
                    )
        else:
            guard = guarded.branches[branch][0]
            for state in states:
                value = guard.value(state)
                if value < -1e-9 * max(1.0, abs(value)):
                    return (
                        f"branch {branch} reported dead, but its guard is "
                        f"satisfied at in-box state {state} (value {value!r})"
                    )
    for diag in report.select(code="A004"):
        witness = diag.witness
        if witness is not None:
            try:
                if guarded.branch_index(witness) >= 0:
                    return (
                        f"A004 witness {list(witness)} actually dispatches to "
                        f"branch {guarded.branch_index(witness)}"
                    )
            except UnreachableBranchError:
                pass  # strict dispatch aborting is exactly the reported gap
        else:
            for state in states:
                for index, (guard, _piece) in enumerate(guarded.branches):
                    value = guard.value(state)
                    if value < -1e-9 * max(1.0, abs(value)):
                        return (
                            f"A004 says every guard is dead over the init "
                            f"box, but guard {index} is satisfied at {state} "
                            f"(value {value!r})"
                        )
    return None


def _shrink_analysis(payload: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    states = payload["states"]
    if len(states) > 1:
        for index in range(len(states)):
            yield {**payload, "states": states[:index] + states[index + 1 :]}
    branches = payload["guarded"]["branches"]
    if len(branches) > 1:
        for index in range(len(branches)):
            yield {
                **payload,
                "guarded": {
                    **payload["guarded"],
                    "branches": branches[:index] + branches[index + 1 :],
                },
            }
    for reduced in _shrink_expr_payload(payload["expr"]):
        yield {**payload, "expr": reduced}
    for simpler in _zeroed_leaves(payload["program"]):
        yield {**payload, "program": simpler}
    for simpler in _zeroed_leaves(payload["guarded"]):
        yield {**payload, "guarded": simpler}


# ------------------------------------------------------------ family: faults
_FAULT_FIELDS = ("total_rewards", "unsafe_counts", "interventions", "steady_at")


def _gen_faults(rng: np.random.Generator) -> Dict[str, Any]:
    env = gen.random_env_payload(rng)
    shards = int(rng.integers(2, 5))
    specs = []
    for _ in range(int(rng.integers(1, 4))):
        kind = str(rng.choice(["crash", "hang", "oserror"]))
        specs.append(
            {
                "site": "shard.worker",
                "kind": kind,
                "index": int(rng.integers(0, shards)),
                # Transient faults disarm via attempt matching (the retry runs
                # clean); crash/hang re-fire every fork attempt and recover on
                # the inline lane once retries are exhausted.
                "attempt": 0 if kind == "oserror" else None,
                "count": 1,
                "delay_seconds": float(rng.uniform(0.3, 0.5)),
            }
        )
    return {
        "env": env,
        "shield": gen.random_shield_payload(rng, env),
        "episodes": int(rng.integers(6, 13)),
        "steps": int(rng.integers(8, 16)),
        "campaign_seed": int(rng.integers(0, 2**31)),
        "workers": 2,
        "shards": shards,
        "specs": specs,
        # A watchdog only when a hang is scripted: spurious deadline retries
        # on a loaded machine would still be bit-identical, just slower.
        "deadline": 0.15 if any(s["kind"] == "hang" for s in specs) else None,
    }


def _check_faults(payload: Dict[str, Any]) -> Optional[str]:
    from ..faults import FaultPlan, FaultSpec, RetryPolicy, fault_plan
    from ..shard import run_sharded_campaign

    retry = RetryPolicy(
        max_attempts=2,
        backoff_seconds=0.01,
        deadline_seconds=payload["deadline"],
        seed=int(payload["campaign_seed"]),
    )

    def run_once():
        env = gen.env_from_payload(payload["env"])
        shield = gen.shield_from_payload(env, payload["shield"])
        return run_sharded_campaign(
            env,
            shield=shield,
            episodes=int(payload["episodes"]),
            steps=int(payload["steps"]),
            seed=int(payload["campaign_seed"]),
            workers=int(payload["workers"]),
            shards=int(payload["shards"]),
            retry=retry,
        )

    reference = run_once()
    plan = FaultPlan(
        specs=[FaultSpec.from_dict(s) for s in payload["specs"]],
        seed=int(payload["campaign_seed"]),
    )
    with fault_plan(plan):
        faulted = run_once()
    for field in _FAULT_FIELDS:
        if not np.array_equal(getattr(reference, field), getattr(faulted, field)):
            return (
                f"campaign array {field!r} differs between the fault-free run and "
                f"the run recovered from {len(payload['specs'])} injected fault(s)"
            )
    return None


def _shrink_faults(payload: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    specs = payload["specs"]
    if len(specs) > 1:
        for index in range(len(specs)):
            yield {**payload, "specs": specs[:index] + specs[index + 1 :]}
    for candidate in _shrink_campaign(payload):
        yield candidate
    shards = int(payload["shards"])
    if shards > 2:
        yield {**payload, "shards": shards - 1}


# -------------------------------------------------------------- the registry
FAMILIES: Dict[str, PropertyFamily] = {
    family.name: family
    for family in (
        PropertyFamily(
            name="fold",
            description="fold_constants/lowering equal raw evaluation (incl. non-finite states)",
            weight=4,
            generate=_gen_fold,
            check=_check_fold,
            shrink_candidates=_shrink_fold,
        ),
        PropertyFamily(
            name="serialize",
            description="serialize round-trip idempotent; fingerprints/store keys stable",
            weight=4,
            generate=_gen_serialize,
            check=_check_serialize,
            shrink_candidates=_shrink_serialize,
        ),
        PropertyFamily(
            name="compiled",
            description="compiled and interpreted campaign counters bit-identical",
            weight=2,
            generate=_gen_compiled,
            check=_check_compiled,
            shrink_candidates=_shrink_campaign,
        ),
        PropertyFamily(
            name="backends",
            description=(
                "no backend reports SAFE where branch-and-bound refutes; "
                "frontier and scalar branch-and-bound are bit-identical; "
                "centred enclosures contain sampled values"
            ),
            weight=1,
            generate=_gen_backends,
            check=_check_backends,
            shrink_candidates=_shrink_backends,
        ),
        PropertyFamily(
            name="shard",
            description="workers=1 and workers=N shard execution bit-identical",
            weight=1,
            generate=_gen_shard,
            check=_check_shard,
            shrink_candidates=_shrink_shard,
        ),
        PropertyFamily(
            name="analysis",
            description="static interval bounds contain concrete evals; "
            "dead-branch/coverage verdicts never contradict concrete dispatch",
            weight=3,
            generate=_gen_analysis,
            check=_check_analysis,
            shrink_candidates=_shrink_analysis,
        ),
        PropertyFamily(
            name="faults",
            description="fault-injected campaigns (crash/hang/OSError) recover "
            "bit-identical to fault-free runs",
            weight=1,
            generate=_gen_faults,
            check=_check_faults,
            shrink_candidates=_shrink_faults,
        ),
    )
}

_FAMILY_IDS = {name: index for index, name in enumerate(sorted(FAMILIES))}
