"""Differential suite: the batched frontier branch-and-bound engine must be
bit-identical to the scalar reference engine
(``repro.reference.ScalarBranchAndBoundVerifier``).

Both engines share the same batch-size-independent numeric kernels
(`repro.certificates.interval_batch`) and the same canonical breadth-first
frontier order, so every observable of a query — verdict, counterexample,
``boxes_explored``, ``max_depth_reached``, ``sampled_boxes`` — must match
exactly, not just approximately.  The suite drives both engines through:

* real verification-condition queries built from registry environments
  (including disturbed condition-(10) product-box queries and polynomial
  dynamics), with and without sub-level-set constraints;
* budget-exhaustion and resolution-limit terminations, under both
  ``resolution_limit_policy`` modes;
* randomized polynomial/box/constraint queries;
* the CEGIS cover query ``find_uncovered_point``.

Every frontier query runs twice: at the default ``CHUNK_BOXES`` and at a
tiny odd chunk, so that most rounds span many chunks (witnesses, sampling
ordinals, budget cuts and sibling pairs all meet chunk edges), and both must
equal the scalar walk.

It also pins the supporting contracts: the numeric kernels are batch-size
independent (row values never depend on frontier size), the centred
(mean-value) enclosure contains the polynomial, a query's traced memory is
bounded by its frontier plus one chunk, and resolution-limit sampling is a
pure function of the query (no verifier call-history dependence).
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from repro.baselines import make_lqr_policy
from repro.certificates import Box, BranchAndBoundVerifier, smt
from repro.certificates.interval_batch import (
    centred_boxes,
    eval_points,
    lower_interval,
    range_boxes,
)
from repro.envs import make_environment
from repro.lang import AffineProgram
from repro.polynomials import Polynomial, polynomial_range
from repro.polynomials.monomial import Monomial
from repro.reference import ScalarBranchAndBoundVerifier

ENGINES = (ScalarBranchAndBoundVerifier, BranchAndBoundVerifier)
#: Boxes per chunk in the second frontier run: tiny, and odd, so that it must
#: be rounded up to whole sibling pairs.
TINY_CHUNK = 5


def _assert_identical(result_a, result_b, context=""):
    assert result_a.verified == result_b.verified, context
    assert result_a.boxes_explored == result_b.boxes_explored, context
    assert result_a.max_depth_reached == result_b.max_depth_reached, context
    assert result_a.sampled_boxes == result_b.sampled_boxes, context
    if result_a.counterexample is None or result_b.counterexample is None:
        assert result_a.counterexample is None and result_b.counterexample is None, context
    else:
        assert np.array_equal(result_a.counterexample, result_b.counterexample), context


def _tiny_chunks(query, verifier):
    """``query(verifier)`` with rounds cut into :data:`TINY_CHUNK`-box chunks."""
    with mock.patch.object(smt, "CHUNK_BOXES", TINY_CHUNK):
        return query(verifier)


def _both(query, **verifier_kwargs):
    scalar = query(ScalarBranchAndBoundVerifier(**verifier_kwargs))
    frontier = query(BranchAndBoundVerifier(**verifier_kwargs))
    _assert_identical(scalar, frontier, context=repr(verifier_kwargs))
    chunked = _tiny_chunks(query, BranchAndBoundVerifier(**verifier_kwargs))
    _assert_identical(scalar, chunked, context=f"chunk {TINY_CHUNK}, {verifier_kwargs!r}")
    return frontier


def _rand_poly(dim, n_terms, max_degree, rng):
    terms = {}
    for _ in range(n_terms):
        exponents = tuple(int(rng.integers(0, max_degree + 1)) for _ in range(dim))
        terms[Monomial(exponents)] = float(rng.normal())
    return Polynomial(dim, terms)


def _lyapunov_decrease(env, program):
    """V(s') - V(s) for the closed loop under ``program``, V = ||s||^2."""
    closed_loop = env.closed_loop_polynomials(program)
    value = Polynomial.quadratic_form(np.eye(env.state_dim))
    return value.substitute(closed_loop) - value, value


def _lqr_program(env):
    return AffineProgram(gain=make_lqr_policy(env).gain)


# ------------------------------------------------------- registry env queries
@pytest.mark.parametrize(
    "name, overrides",
    [
        ("satellite", {}),
        ("satellite", {"disturbance_bound": [0.01, 0.01]}),
        ("duffing", {}),  # polynomial (cubic) dynamics
        ("oscillator", {}),
        ("8_car_platoon", {}),  # high-dimensional: centre-only falsification
    ],
    ids=["satellite", "satellite-disturbed", "duffing", "oscillator", "platoon8"],
)
def test_registry_env_queries_identical(name, overrides):
    env = make_environment(name, **overrides)
    program = _lqr_program(env)
    decrease, value = _lyapunov_decrease(env, program)
    sublevel = value - 0.25  # condition-(10)-style sub-level constraint
    boxes = [env.safe_box]
    for max_boxes in (50, 1_500):
        _both(
            lambda v: v.prove_nonpositive(decrease, boxes, [sublevel]),
            max_boxes=max_boxes,
            min_width=float(np.max(env.safe_box.widths)) / 64.0,
        )
    # An unsafe gain produces genuine counterexamples — they must agree too.
    bad = AffineProgram(gain=5.0 * np.ones((env.action_dim, env.state_dim)))
    bad_decrease, _ = _lyapunov_decrease(env, bad)
    _both(
        lambda v: v.prove_nonpositive(bad_decrease, boxes, [sublevel]),
        max_boxes=1_500,
        min_width=float(np.max(env.safe_box.widths)) / 64.0,
    )


def test_disturbed_condition_ten_product_box_identical():
    """The lifted (s, d) induction query of condition (10), as barrier.py poses it."""
    env = make_environment("satellite", disturbance_bound=[0.02, 0.02])
    program = _lqr_program(env)
    closed_loop = env.closed_loop_polynomials(program)
    n = env.state_dim
    lift = [Polynomial.variable(i, 2 * n) for i in range(n)]
    barrier = Polynomial.quadratic_form(np.eye(n)) - 0.5
    lifted_barrier = barrier.substitute(lift)
    successors = [
        poly.substitute(lift) + env.dt * Polynomial.variable(n + i, 2 * n)
        for i, poly in enumerate(closed_loop)
    ]
    next_barrier = barrier.substitute(successors)
    bound = np.asarray(env.disturbance_bound, dtype=float)
    product_box = Box(
        low=tuple(env.safe_box.low) + tuple(-bound),
        high=tuple(env.safe_box.high) + tuple(bound),
    )
    for max_boxes in (30, 3_000):
        _both(
            lambda v: v.prove_nonpositive(next_barrier, [product_box], [lifted_barrier]),
            max_boxes=max_boxes,
            min_width=0.05,
        )


def test_prove_positive_identical():
    env = make_environment("duffing")
    barrier = Polynomial.quadratic_form(np.eye(env.state_dim)) - 0.3
    for box in env.unsafe_cover_boxes():
        _both(lambda v: v.prove_positive(barrier, [box]), max_boxes=4_000, min_width=0.01)


# ---------------------------------------------------- terminal-path coverage
def _band_poly():
    """-16x^4 + 8x^2 - 0.5 + 1.5x over one variable.

    Positive only on a thin interior band near x ~ 0.55 — never at the
    centres/corners the candidate check probes — while the monomial-wise
    interval bound stays inconclusive on every surrounding box (the classic
    dependency-widening of natural interval extensions).  This is the query
    shape that genuinely reaches resolution-limit sampling.
    """
    x = Polynomial.variable(0, 1)
    return -16.0 * x**4 + 8.0 * x**2 - 0.5 + 1.5 * x


def test_budget_exhaustion_identical():
    """The budget counterexample is the head of the canonical frontier."""
    env = make_environment("8_car_platoon")
    program = _lqr_program(env)
    decrease, value = _lyapunov_decrease(env, program)
    outside_ball = 0.01 - value
    box = env.safe_box
    for max_boxes in (1, 2, 7, 64, 300):
        result = _both(
            lambda v: v.prove_nonpositive(decrease, [box], [outside_ball]),
            max_boxes=max_boxes,
            min_width=1e-9,
        )
        assert not result.verified
        assert result.max_depth_reached
        assert result.counterexample is not None
        assert result.boxes_explored == max_boxes


def test_resolution_limit_reject_identical():
    """Reject policy: the first feasible-centre limit box is the refutation."""
    box = Box((-1.0,), (-0.7,))  # band poly is strictly negative here
    result = _both(
        lambda v: v.prove_nonpositive(_band_poly(), [box]),
        max_boxes=50_000,
        min_width=0.5,
        resolution_limit_policy="reject",
    )
    assert not result.verified and result.max_depth_reached
    assert np.array_equal(result.counterexample, box.center)


def test_resolution_limit_sample_accepts_identical():
    """Sample policy: a violation-free limit box is accepted after sampling,
    and counted as resting on sampling."""
    result = _both(
        lambda v: v.prove_nonpositive(_band_poly(), [Box((-1.0,), (-0.7,))]),
        max_boxes=50_000,
        min_width=0.5,
        resolution_limit_policy="sample",
        seed=11,
    )
    assert result.verified
    assert result.sampled_boxes == 1


def test_resolution_sampling_ordinal_accounting_identical():
    """Sample ordinals accumulate across limit boxes and frontier rounds.

    Round 1 resolves the narrow box (ordinal 0, no hit) and splits the wide
    one; round 2 samples [-2,0] (ordinal 1, no hit — the band polynomial is
    negative there) and then finds the witness by sampling [0,2] (ordinal 2).
    A per-round or per-engine ordinal mixup would change which sample stream
    box [0,2] receives and break scalar/frontier identity.
    """
    boxes = [Box((-1.0,), (-0.7,)), Box((-2.0,), (2.0,))]
    result = _both(
        lambda v: v.prove_nonpositive(_band_poly(), boxes),
        max_boxes=50_000,
        min_width=2.5,
        resolution_samples=64,
        seed=2,
    )
    assert not result.verified
    assert result.counterexample is not None
    # the witness can only live in the positive band inside [0, 2]
    assert 0.0 < result.counterexample[0] < 1.0


# ------------------------------------------------------ centred-form proofs
def _bowl():
    """x^2 - x + 0.2: negative on [0.4, 0.6] (at most -0.04 there), but its
    natural enclosure on that box is [-0.24, 0.16], because x^2 and -x are
    bounded separately.  The centred form p(0.5) ± 0.2 * 0.1 = [-0.07, -0.03]
    closes it."""
    x = Polynomial.variable(0, 1)
    return x * x - x + 0.2


@pytest.mark.parametrize("policy", ["sample", "reject"])
def test_limit_box_proved_by_centred_form_identical(policy):
    """The root box is a resolution-limit box at once.  It is proved without
    a single sample, and "reject" (which refuted it at its feasible centre
    before the centred form) verifies it too."""
    result = _both(
        lambda v: v.prove_nonpositive(_bowl(), [Box((0.4,), (0.6,))]),
        min_width=0.5,
        resolution_limit_policy=policy,
    )
    assert result.verified and not result.max_depth_reached
    assert result.boxes_explored == 1
    assert result.sampled_boxes == 0


def test_limit_box_pruned_by_centred_constraint_identical():
    """A constraint the centred form puts above zero on the whole box leaves
    no feasible point, so the box needs no samples either."""
    constant = Polynomial.constant(1.0, 1)
    box = [Box((0.4,), (0.6,))]
    result = _both(
        lambda v: v.prove_nonpositive(constant, box, [-1.0 * _bowl()]), min_width=0.5
    )
    assert result.verified and result.sampled_boxes == 0
    # Without the constraint the constant is refuted at the box centre.
    refuted = _both(lambda v: v.prove_nonpositive(constant, box), min_width=0.5)
    assert np.array_equal(refuted.counterexample, (0.5,))


def test_discharged_limit_box_keeps_its_ordinal():
    """A limit box the centred form proves still takes its sampling ordinal.

    [-0.5, -0.4] is ordinal 0 and is proved (the band polynomial's natural
    enclosure there reaches +0.49, its centred one stays below -0.05); [0, 2]
    is ordinal 1, and its draws give the witness.  Sampled under ordinal 0,
    [0, 2] would yield 0.6131473142399437 instead.
    """
    boxes = [Box((-0.5,), (-0.4,)), Box((0.0,), (2.0,))]
    result = _both(lambda v: v.prove_nonpositive(_band_poly(), boxes), min_width=2.5, seed=2)
    assert not result.verified and result.boxes_explored == 2
    assert result.counterexample.tolist() == [0.441806565434125]
    assert result.sampled_boxes == 0  # the witness box itself is not accepted


# ------------------------------------------------------------- face sharing
# Past the initial round the frontier engine evaluates each box's centre plus
# the split-face corners of its sibling pair once; the scalar walk evaluates
# every corner of every box.  These queries put the first witness on exactly
# the points where that bookkeeping could go wrong.
def _plane():
    return Polynomial.variable(0, 2), Polynomial.variable(1, 2)


def _sibling_pruned_queries():
    """``(target, constraint, box, witness, boxes_explored)``: the root splits
    once and the constraint prunes one of its two children; the surviving
    child splits in the next round."""
    x, y = _plane()
    wide = Box((0.0, 0.0), (4.0, 2.0))  # splits x = 2, then x = 3 (or x = 1)
    tall = Box((0.0, 0.0), (2.0, 8.0))  # splits y = 4, then y = 6
    return [
        # lower sibling pruned; witness on a face corner of the upper
        # sibling's children, found in the pair's lower child
        ((y - 1.8) - 0.5 * (x - 3.0) ** 2, 2.5 - x, wide, (3.0, 2.0), 4),
        # lower sibling pruned; witness at the upper sibling's centre — the
        # pair's face is evaluated although only its upper child is open
        (0.2 - (x - 3.0) ** 2 - (y - 1.0) ** 2, 2.5 - x, wide, (3.0, 1.0), 3),
        # upper sibling pruned; witness on a face corner of the lower
        # sibling's children
        ((y - 1.8) - 0.5 * (x - 1.0) ** 2, x - 1.5, wide, (1.0, 2.0), 4),
        # as the first, split along axis 1: the face is on y = 6
        ((0.2 - x) - 0.5 * (y - 6.0) ** 2, 4.5 - y, tall, (0.0, 6.0), 4),
    ]


@pytest.mark.parametrize(
    "case",
    range(4),
    ids=["lower-pruned-face", "lower-pruned-centre", "upper-pruned-face", "axis1-face"],
)
def test_witness_next_to_a_pruned_sibling_identical(case):
    target, constraint, box, witness, explored = _sibling_pruned_queries()[case]
    result = _both(lambda v: v.prove_nonpositive(target, [box], [constraint]))
    assert not result.verified
    assert np.array_equal(result.counterexample, witness)
    assert result.boxes_explored == explored


def test_witness_after_a_fully_pruned_pair_identical():
    """Face corners are computed only for pairs with an open child, so a
    round whose first pair is pruned whole must still match each open box
    to its own pair's face.

    The box splits along x at 4, then 2 and 6, then 1, 3, 5 and 7.  The
    constraint's enclosure keeps [0, 2] open in round 2 but prunes both of
    its children in round 3, while pairs 1-3 stay open; the witness (3, 1)
    is a face corner of pair 1, not a corner or centre of any earlier box.
    """
    x, y = _plane()
    target = 0.01 - (x - 3.0) ** 2 - (y - 1.0) ** 2
    constraint = 0.1 * x * x - x + 1.95  # feasible for x in [2.66, 7.34]
    box = Box((0.0, 0.0), (8.0, 1.0))
    result = _both(lambda v: v.prove_nonpositive(target, [box], [constraint]))
    assert not result.verified
    assert np.array_equal(result.counterexample, (3.0, 1.0))
    assert result.boxes_explored == 10  # 1 + 2 + 4, then the third box of round 3


def test_budget_cut_inside_a_sibling_pair_identical():
    """Odd budgets cut the frontier between a lower child and its upper
    sibling, so the last pair of a round is evaluated from one child."""
    x, y = _plane()
    disk = 1e-3 - (x - 0.3) ** 2 - (y - 0.7) ** 2  # positive on a small disk only
    box = Box((-1.0, -1.0), (1.0, 1.0))
    outcomes = set()
    for max_boxes in range(1, 400, 2):
        result = _both(lambda v: v.prove_nonpositive(disk, [box]), max_boxes=max_boxes)
        outcomes.add(result.max_depth_reached)
    assert outcomes == {True, False}  # budgets on both sides of the witness


def _corner_ridge(dim):
    """-100 (x0 - 1/2)^2 + x1 + ... + x_{d-1} - (d - 1.1) over [0, 1]^d.

    Positive only at x0 ~ 1/2 with every other coordinate near 1: the first
    split (axis 0) puts the point (1/2, 1, ..., 1) on the face, never on a
    centre or a corner of the root."""
    xs = [Polynomial.variable(i, dim) for i in range(dim)]
    target = -100.0 * (xs[0] - 0.5) ** 2 - (dim - 1.1)
    for var in xs[1:]:
        target = target + var
    return target, Box((0.0,) * dim, (1.0,) * dim)


@pytest.mark.parametrize("dim", [6, 7])
def test_corner_cap_dimensions_identical(dim):
    """d = 6 is the last dimension with corners (and face sharing); d = 7
    falls back to centre-only falsification."""
    target, box = _corner_ridge(dim)
    result = _both(lambda v: v.prove_nonpositive(target, [box]), max_boxes=3_000)
    assert not result.verified
    if dim == 6:
        assert np.array_equal(result.counterexample, (0.5,) + (1.0,) * 5)
        assert result.boxes_explored == 2
    rng = np.random.default_rng(dim)
    for _ in range(6):
        poly = _rand_poly(dim, int(rng.integers(2, 7)), 2, rng)
        constraints = [_rand_poly(dim, 3, 2, rng)] if rng.random() < 0.5 else []
        low = rng.uniform(-1, 0, dim)
        rand_box = Box(tuple(low), tuple(low + rng.uniform(0.5, 2, dim)))
        kwargs = dict(max_boxes=int(rng.integers(50, 1_500)), min_width=0.05, seed=3)
        _both(lambda v: v.prove_nonpositive(poly, [rand_box], constraints), **kwargs)
        _both(lambda v: v.prove_positive(poly, [rand_box], constraints), **kwargs)


def test_multi_box_initial_query_identical():
    """Three initial boxes: round 0 evaluates every corner of unpaired boxes,
    then each box's children pair up."""
    x, y = _plane()
    disk = 1e-2 - (x - 2.3) ** 2 - (y - 0.8) ** 2
    boxes = [
        Box((-1.0, 0.0), (0.0, 2.0)),
        Box((2.0, 0.0), (3.0, 1.0)),
        Box((0.0, 0.0), (1.0, 1.0)),
    ]
    result = _both(lambda v: v.prove_nonpositive(disk, boxes))
    assert not result.verified and not result.max_depth_reached
    for max_boxes in (2, 3, 4, 5, 8, 13):
        _both(lambda v: v.prove_nonpositive(disk, boxes), max_boxes=max_boxes)
    _both(lambda v: v.prove_positive(disk - 1.0, boxes, [x - 2.5]), max_boxes=2_000)


# ----------------------------------------------------------- chunked rounds
# A round is processed in chunks of ``CHUNK_BOXES`` boxes, rounded up to
# whole sibling pairs.  These queries put events on chunk edges at a tiny odd
# chunk and check the chunks the frontier engine ran.
_CHUNKS, _PROVE_CHUNK = smt._chunks, BranchAndBoundVerifier._prove_chunk


def _chunked(monkeypatch, query, **verifier_kwargs):
    """The frontier result at :data:`TINY_CHUNK`, checked against the scalar
    walk, and its chunks as ``[start, stop, event]`` lists in run order."""
    monkeypatch.setattr(smt, "CHUNK_BOXES", TINY_CHUNK)
    log = []

    def logged_chunks(count):
        for start, stop in _CHUNKS(count):
            log.append([start, stop, False])
            yield start, stop

    def logged_prove_chunk(self, *args):
        outcome = _PROVE_CHUNK(self, *args)
        log[-1][2] = outcome[0] is not None
        return outcome

    monkeypatch.setattr(smt, "_chunks", logged_chunks)
    monkeypatch.setattr(BranchAndBoundVerifier, "_prove_chunk", logged_prove_chunk)
    scalar = query(ScalarBranchAndBoundVerifier(**verifier_kwargs))
    frontier = query(BranchAndBoundVerifier(**verifier_kwargs))
    _assert_identical(scalar, frontier, context=repr(verifier_kwargs))
    return frontier, log


def _face_edge_query():
    """Round 4 of [0, 8] x [0, 1] holds the eight unit boxes along x, all
    open (the y terms keep every enclosure inconclusive).  The target is
    positive only near (7, 1), the split-face corner of pair (6, 7), which no
    earlier round evaluates."""
    x, y = _plane()
    target = 0.01 - 0.02 * (x - 7.0) ** 2 - (y - 1.0) ** 2
    return target, Box((0.0, 0.0), (8.0, 1.0))


def test_chunks_hold_whole_sibling_pairs():
    """An odd chunk size is rounded up: every chunk starts on an even box."""
    with mock.patch.object(smt, "CHUNK_BOXES", TINY_CHUNK):
        spans = list(smt._chunks(20))
    assert spans == [(0, 6), (6, 12), (12, 18), (18, 20)]


def test_sibling_pair_at_a_chunk_edge_identical(monkeypatch):
    """Five-box chunks would cut pair (4, 5) and leave pair (6, 7) without
    its own face corners; six-box chunks start pair (6, 7) at a chunk edge,
    and the witness is its face corner, found in the round's second chunk."""
    target, box = _face_edge_query()
    result, log = _chunked(monkeypatch, lambda v: v.prove_nonpositive(target, [box]))
    assert np.array_equal(result.counterexample, (7.0, 1.0))
    assert result.boxes_explored == 1 + 2 + 4 + 7
    assert log[-2:] == [[0, 6, False], [6, 8, True]]
    assert all(start % 2 == 0 for start, _, _ in log)


def test_witness_in_a_later_chunk_identical(monkeypatch):
    """The disk is found deep in a round that spans many chunks."""
    x, y = _plane()
    disk = 1e-3 - (x - 0.3) ** 2 - (y - 0.7) ** 2
    box = Box((-1.0, -1.0), (1.0, 1.0))
    result, log = _chunked(monkeypatch, lambda v: v.prove_nonpositive(disk, [box]))
    assert not result.verified and not result.max_depth_reached
    event_start = log[-1][0]
    assert log[-1][2] and event_start >= 4 * (TINY_CHUNK + 1)
    assert not any(event for _, _, event in log[:-1])


def test_limit_ordinals_across_chunk_edges_identical(monkeypatch):
    """Sampling ordinals keep counting across chunks.

    Fourteen copies of [-0.6, -0.2] are limit boxes that the centred form
    cannot prove and the samples accept: ordinals 0-13, over the chunks
    [0, 6) and [6, 12) and into [12, 15).  [0, 2] takes ordinal 14 and its
    draws give the witness; a chunk that restarted the count would hand it
    ordinal 2's stream.
    """
    boxes = [Box((-0.6,), (-0.2,))] * 14 + [Box((0.0,), (2.0,))]
    result, log = _chunked(
        monkeypatch, lambda v: v.prove_nonpositive(_band_poly(), boxes), min_width=2.5, seed=2
    )
    assert not result.verified
    assert result.sampled_boxes == 14 and result.boxes_explored == 15
    assert log == [[0, 6, False], [6, 12, False], [12, 15, True]]


def test_budget_cut_mid_chunk_identical(monkeypatch):
    """Budgets that end a round inside a chunk (and inside a sibling pair)
    return the same unresolved box as the scalar walk."""
    target, box = _face_edge_query()
    cut = set()
    for max_boxes in range(1, 14):
        result, log = _chunked(
            monkeypatch, lambda v: v.prove_nonpositive(target, [box]), max_boxes=max_boxes
        )
        assert result.max_depth_reached and result.boxes_explored == max_boxes
        start, stop, _ = log[-1]
        cut.add(stop - start)
    assert cut >= {1, 3, 5}  # last chunks shorter than a whole chunk


def test_cover_query_in_chunks_identical(monkeypatch):
    """The cover query walks its rounds in the same chunks."""
    monkeypatch.setattr(smt, "CHUNK_BOXES", TINY_CHUNK)
    x, y = _plane()
    barriers = [x * x + y * y - 1.0, (x - 1.5) ** 2 + y * y - 0.5]
    box = Box((-1.0, -1.0), (2.5, 1.0))
    for max_boxes in (5, 11, 40, 5_000):
        kwargs = dict(max_boxes=max_boxes, min_width=0.01)
        scalar = ScalarBranchAndBoundVerifier(**kwargs).find_uncovered_point(box, barriers)
        frontier = BranchAndBoundVerifier(**kwargs).find_uncovered_point(box, barriers)
        assert (scalar is None) == (frontier is None)
        if scalar is not None:
            assert np.array_equal(scalar, frontier)


def test_traced_peak_bounded_by_chunk_and_frontier():
    """A 4-d query with face corners whose rounds exceed 20k boxes keeps its
    traced peak within the frontier's endpoint arrays plus a working set
    proportional to the chunk, not to the frontier.

    Proving ``(x0 + x1 - x2 - x3)**2 > 0`` on [-1, 1]^4 leaves every box on
    the hyperplane open, so the frontier grows until the budget ends the
    query.  The frontier term counts eight ``(F, d)`` float arrays: the
    round's boxes in their buffer (two rows per parent) and room for two
    children per box.  The chunk term counts four sets of a chunk's candidate
    points (centre and corners).
    """
    xs = [Polynomial.variable(i, 4) for i in range(4)]
    plane = xs[0] + xs[1] - xs[2] - xs[3]
    target, box = plane * plane, Box((-1.0,) * 4, (1.0,) * 4)
    verifier = BranchAndBoundVerifier(max_boxes=100_000, min_width=0.03)
    rounds = []
    chunks = smt._chunks

    def counted_chunks(count):
        rounds.append(count)
        return chunks(count)

    with mock.patch.object(smt, "_chunks", counted_chunks):
        tracemalloc.start()
        try:
            result = verifier.prove_positive(target, [box])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert result.max_depth_reached and result.boxes_explored == 100_000
    frontier, dim = max(rounds), 4
    assert frontier > 20_000
    frontier_bytes = 8 * frontier * dim * 8
    chunk_bytes = 4 * smt.CHUNK_BOXES * (1 + 2**dim) * dim * 8
    assert peak < frontier_bytes + chunk_bytes, (peak, frontier_bytes, chunk_bytes)


# ------------------------------------------------------- randomized queries
@pytest.mark.parametrize("policy", ["sample", "reject"])
def test_randomized_queries_identical(policy):
    rng = np.random.default_rng(1234 if policy == "sample" else 4321)
    for _ in range(40):
        dim = int(rng.integers(1, 5))
        target = _rand_poly(dim, int(rng.integers(1, 6)), 3, rng)
        constraints = [
            _rand_poly(dim, int(rng.integers(1, 4)), 2, rng)
            for _ in range(int(rng.integers(0, 3)))
        ]
        low = rng.uniform(-2, 0, dim)
        high = low + rng.uniform(0.5, 3, dim)
        boxes = [Box(tuple(low), tuple(high))]
        kwargs = dict(
            max_boxes=int(rng.integers(5, 3_000)),
            min_width=float(rng.uniform(1e-3, 0.3)),
            resolution_limit_policy=policy,
            seed=7,
        )
        _both(lambda v: v.prove_nonpositive(target, boxes, constraints), **kwargs)
        _both(lambda v: v.prove_positive(target, boxes, constraints), **kwargs)


def test_find_uncovered_point_identical():
    rng = np.random.default_rng(99)
    for _ in range(40):
        dim = int(rng.integers(1, 4))
        barriers = [
            _rand_poly(dim, int(rng.integers(1, 5)), 2, rng)
            for _ in range(int(rng.integers(0, 4)))
        ]
        margins = [float(rng.uniform(-0.5, 2.0)) for _ in barriers]
        low = rng.uniform(-1.5, 0, dim)
        high = low + rng.uniform(0.5, 2.5, dim)
        box = Box(tuple(low), tuple(high))
        kwargs = dict(
            max_boxes=int(rng.integers(3, 2_000)),
            min_width=float(rng.uniform(1e-3, 0.2)),
        )
        scalar = ScalarBranchAndBoundVerifier(**kwargs).find_uncovered_point(
            box, barriers, margins
        )
        for frontier in (
            BranchAndBoundVerifier(**kwargs).find_uncovered_point(box, barriers, margins),
            _tiny_chunks(
                lambda v: v.find_uncovered_point(box, barriers, margins),
                BranchAndBoundVerifier(**kwargs),
            ),
        ):
            assert (scalar is None) == (frontier is None)
            if scalar is not None:
                assert np.array_equal(scalar, frontier)


def test_find_uncovered_point_empty_barriers():
    box = Box((-1.0, 0.0), (1.0, 2.0))
    for engine in ENGINES:
        point = engine().find_uncovered_point(box, [])
        assert np.array_equal(point, box.center)


# --------------------------------------------------------- numeric contracts
def test_kernels_batch_size_independent():
    """Row values of the shared kernels never depend on the batch size."""
    rng = np.random.default_rng(7)
    for _ in range(25):
        dim = int(rng.integers(1, 6))
        poly = _rand_poly(dim, int(rng.integers(1, 8)), 4, rng)
        table = lower_interval(poly)
        low = rng.uniform(-2, 1, (17, dim))
        high = low + rng.uniform(0.0, 2, (17, dim))
        batch_lo, batch_hi = range_boxes(table, low, high)
        points = rng.uniform(-2, 2, (17, dim))
        batch_vals = eval_points(table, points)
        for i in range(17):
            row_lo, row_hi = range_boxes(table, low[i : i + 1], high[i : i + 1])
            assert row_lo[0] == batch_lo[i] and row_hi[0] == batch_hi[i]
            assert eval_points(table, points[i : i + 1])[0] == batch_vals[i]


def test_range_boxes_matches_interval_arithmetic():
    """The batched fold reproduces `polynomial_range` up to rounding noise."""
    rng = np.random.default_rng(21)
    for _ in range(50):
        dim = int(rng.integers(1, 5))
        poly = _rand_poly(dim, int(rng.integers(1, 8)), 4, rng)
        low = rng.uniform(-2, 1, dim)
        high = low + rng.uniform(0.0, 2, dim)
        box = Box(tuple(low), tuple(high))
        reference = polynomial_range(poly, box.to_intervals())
        got_lo, got_hi = range_boxes(lower_interval(poly), low[None], high[None])
        assert np.isclose(got_lo[0], reference.lo, rtol=1e-12, atol=1e-12)
        assert np.isclose(got_hi[0], reference.hi, rtol=1e-12, atol=1e-12)


def _dense_grid(low, high, per_axis):
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in zip(low, high)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(low))


def test_centred_boxes_encloses_the_polynomial():
    """Dense point values (corners included) lie inside the centred bound."""
    rng = np.random.default_rng(5)
    for _ in range(120):
        dim = int(rng.integers(1, 5))
        table = lower_interval(_rand_poly(dim, int(rng.integers(1, 8)), 4, rng))
        low = rng.uniform(-2, 1, dim)
        high = low + rng.uniform(0.0, 1.5, dim) * rng.choice([1e-3, 1.0])
        lo, hi = centred_boxes(table, low[None], high[None])
        values = eval_points(table, _dense_grid(low, high, {1: 401, 2: 41, 3: 13, 4: 7}[dim]))
        slack = 1e-9 * (1.0 + np.abs(values).max())
        assert lo[0] - slack <= values.min() and values.max() <= hi[0] + slack


def test_centred_boxes_batch_size_independent():
    rng = np.random.default_rng(8)
    for dim in (1, 2, 3, 4):
        table = lower_interval(_rand_poly(dim, 6, 4, rng))
        low = rng.uniform(-2, 1, (1_000, dim))
        high = low + rng.uniform(0.0, 0.5, (1_000, dim))
        batch_lo, batch_hi = centred_boxes(table, low, high)
        for i in rng.choice(1_000, 25, replace=False):
            row_lo, row_hi = centred_boxes(table, low[i : i + 1], high[i : i + 1])
            assert row_lo[0] == batch_lo[i] and row_hi[0] == batch_hi[i]


def test_centred_boxes_non_finite_rows_prove_nothing():
    """Overflow, nan and unbounded boxes come back as (-inf, inf), so no
    sense and no constraint test counts them as proved."""
    x = Polynomial.variable(0, 1)
    cases = [
        (-1e300 * x**3, (1e3,), (2e3,)),  # every value overflows to -inf
        (1e300 * x**3, (1e3,), (2e3,)),  # ... or to +inf
        (x * x, (-np.inf,), (np.inf,)),  # unbounded box, nan centre
        (x * x, (np.nan,), (1.0,)),
        (x**3, (1e200,), (1e200,)),  # zero radius times an infinite gradient
    ]
    verifier = BranchAndBoundVerifier()
    for poly, low, high in cases:
        table = lower_interval(poly)
        with np.errstate(over="ignore", invalid="ignore"):
            lo, hi = centred_boxes(table, np.array([low]), np.array([high]))
            assert lo[0] == -np.inf and hi[0] == np.inf, (poly, low, high)
            for sense in ("<=", ">"):
                for ctables in ([], [table]):
                    proved = verifier._centred_proved(
                        table, ctables, sense, np.array([low]), np.array([high])
                    )
                    assert not proved[0]


def test_centred_boxes_of_a_constant_is_the_constant():
    table = lower_interval(Polynomial.constant(-2.75, 3))
    low = np.array([[-1.0, 0.0, 5.0], [0.0, 0.0, 0.0]])
    lo, hi = centred_boxes(table, low, low + 0.5)
    assert lo.tolist() == [-2.75, -2.75] and hi.tolist() == [-2.75, -2.75]


def test_lowering_memoized_per_polynomial():
    """The table on the polynomial, the centred form's gradients on the table."""
    poly = Polynomial.quadratic_form(np.eye(3))
    table = lower_interval(poly)
    assert lower_interval(poly) is table
    centred_boxes(table, np.zeros((1, 3)), np.ones((1, 3)))
    gradients = table.gradients
    centred_boxes(table, np.zeros((1, 3)), np.ones((1, 3)))
    assert gradients is not None and table.gradients is gradients
    assert [var for var, _ in gradients] == [0, 1, 2]


# ----------------------------------------------------------- RNG regression
def test_resolution_sampling_independent_of_call_history():
    """Verdicts must not depend on how many queries the verifier ran before.

    The old engine seeded one mutable generator at construction, so the
    samples a resolution-limit box received depended on every earlier query
    that sampled.  Sampling is now derived per query from (seed, canonical
    query hash), making each verdict a pure function of its query.
    """
    target = _band_poly()  # decided by resolution-limit sampling, see above
    box = Box((-1.0,), (1.0,))
    other = Polynomial.quadratic_form(np.eye(1)) - 5.0
    kwargs = dict(max_boxes=50_000, min_width=2.5, seed=3)
    for engine in ENGINES:
        fresh = engine(**kwargs)
        baseline = fresh.prove_nonpositive(target, [box])
        assert not baseline.verified  # found by sampling the limit box
        warmed = engine(**kwargs)
        for _ in range(3):  # burn unrelated sampling queries first
            warmed.prove_nonpositive(_band_poly(), [Box((-1.0,), (-0.7,))])
            warmed.prove_positive(other, [box])
        repeat = warmed.prove_nonpositive(target, [box])
        _assert_identical(baseline, repeat, context=engine.__name__)
        # and re-running the same query on the same verifier is idempotent
        _assert_identical(baseline, warmed.prove_nonpositive(target, [box]))


def test_resolution_sampling_differs_across_seeds():
    """The per-query derivation still respects the configured seed."""
    box = Box((-1.0,), (1.0,))
    results = [
        BranchAndBoundVerifier(max_boxes=50_000, min_width=2.5, seed=seed)
        .prove_nonpositive(_band_poly(), [box])
        .counterexample
        for seed in (0, 1)
    ]
    assert results[0] is not None and results[1] is not None
    assert not np.array_equal(results[0], results[1])
