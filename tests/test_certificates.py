"""Tests for regions, the branch-and-bound verifier, SOS, Lyapunov and barrier backends."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.certificates import barrier as barrier_module
from repro.certificates import (
    BarrierCertificateSynthesizer,
    BarrierSynthesisConfig,
    Box,
    BoxComplement,
    BranchAndBoundVerifier,
    EmptyRegion,
    QuadraticCertificateSynthesizer,
    SafetyProblem,
    UnionRegion,
    box_difference,
    closed_loop_matrix,
    is_sos,
    sos_decompose,
)
from repro.lang import InvariantSketch
from repro.polynomials import Polynomial


# ------------------------------------------------------------------------ regions
class TestBox:
    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Box((1.0,), (0.0,))

    def test_contains_and_batch(self):
        box = Box((-1, -1), (1, 1))
        assert box.contains([0.0, 0.5])
        assert not box.contains([1.5, 0.0])
        points = np.array([[0.0, 0.0], [2.0, 0.0]])
        np.testing.assert_array_equal(box.contains_batch(points), [True, False])

    def test_sample_within(self):
        box = Box((-2, 0), (2, 1))
        samples = box.sample(np.random.default_rng(0), 200)
        assert box.contains_batch(samples).all()

    def test_geometry_helpers(self):
        box = Box((0, 0), (2, 4))
        np.testing.assert_allclose(box.center, [1, 2])
        np.testing.assert_allclose(box.widths, [2, 4])
        assert box.radius == 2.0
        assert box.volume() == 8.0

    def test_corners_count(self):
        assert Box((0, 0, 0), (1, 1, 1)).corners().shape == (8, 3)

    def test_split_covers_box(self):
        box = Box((0, 0), (4, 1))
        left, right = box.split()
        assert left.high[0] == 2.0 and right.low[0] == 2.0

    def test_intersect(self):
        a = Box((0, 0), (2, 2))
        b = Box((1, 1), (3, 3))
        inter = a.intersect(b)
        assert inter.low == (1.0, 1.0) and inter.high == (2.0, 2.0)
        assert a.intersect(Box((5, 5), (6, 6))) is None

    def test_shrink_around(self):
        box = Box((-1, -1), (1, 1))
        shrunk = box.shrink_around([0.5, 0.5], 0.25)
        assert shrunk.low == (0.25, 0.25) and shrunk.high == (0.75, 0.75)

    def test_shrink_with_large_radius_recovers_box(self):
        box = Box((-1, -1), (1, 1))
        shrunk = box.shrink_around([0.9, -0.9], 2 * box.radius)
        assert shrunk.low == box.low and shrunk.high == box.high

    def test_subset(self):
        assert Box((-1, -1), (1, 1)).is_subset_of(Box((-2, -2), (2, 2)))
        assert not Box((-3, 0), (0, 1)).is_subset_of(Box((-2, -2), (2, 2)))

    def test_grid(self):
        grid = Box((0, 0), (1, 1)).grid(3)
        assert grid.shape == (9, 2)


class TestBoxComplement:
    def test_membership(self):
        region = BoxComplement(domain=Box((-2, -2), (2, 2)), safe=Box((-1, -1), (1, 1)))
        assert region.contains([1.5, 0.0])
        assert not region.contains([0.0, 0.0])
        assert not region.contains([3.0, 0.0])  # outside the working domain
        assert region.contains([1.0, 0.0])  # boundary of the safe box is unsafe-closed

    def test_cover_boxes_partition(self):
        outer = Box((-2, -2), (2, 2))
        inner = Box((-1, -1), (1, 1))
        cover = box_difference(outer, inner)
        assert 1 <= len(cover) <= 4
        total = sum(box.volume() for box in cover)
        assert total == pytest.approx(outer.volume() - inner.volume())

    def test_cover_when_disjoint(self):
        assert box_difference(Box((0,), (1,)), Box((5,), (6,))) == [Box((0,), (1,))]

    def test_sampling_lands_in_region(self):
        region = BoxComplement(domain=Box((-2, -2), (2, 2)), safe=Box((-1, -1), (1, 1)))
        samples = region.sample(np.random.default_rng(0), 300)
        assert region.contains_batch(samples).all()

    def test_union_and_empty(self):
        union = UnionRegion([Box((0, 0), (1, 1)), Box((2, 2), (3, 3))])
        assert union.contains([2.5, 2.5])
        assert not union.contains([1.5, 1.5])
        assert EmptyRegion(2).sample(np.random.default_rng(0), 5).shape == (0, 2)
        assert not EmptyRegion(2).contains([0.0, 0.0])


# ------------------------------------------------------------------ branch & bound
class TestBranchAndBound:
    def setup_method(self):
        self.verifier = BranchAndBoundVerifier(max_boxes=20_000, min_width=1e-3)
        self.x = Polynomial.variable(0, 2)
        self.y = Polynomial.variable(1, 2)

    def test_prove_nonpositive_true(self):
        poly = self.x**2 + self.y**2 - 3.0
        assert self.verifier.prove_nonpositive(poly, [Box((-1, -1), (1, 1))]).verified

    def test_prove_nonpositive_false_returns_counterexample(self):
        poly = self.x**2 + self.y**2 - 0.5
        result = self.verifier.prove_nonpositive(poly, [Box((-1, -1), (1, 1))])
        assert not result.verified
        assert poly.evaluate(result.counterexample) > 0

    def test_prove_positive_true(self):
        poly = self.x**2 + self.y**2 + 0.1
        assert self.verifier.prove_positive(poly, [Box((-1, -1), (1, 1))]).verified

    def test_prove_positive_false(self):
        poly = self.x + self.y
        result = self.verifier.prove_positive(poly, [Box((-1, -1), (1, 1))])
        assert not result.verified

    def test_constraint_restricts_domain(self):
        # x + y <= 0 does not hold on the box, but it does on {x <= -0.5 box}
        target = self.x + self.y
        constraint = self.x + 0.5  # x <= -0.5
        result = self.verifier.prove_nonpositive(
            target, [Box((-1, -1), (1, 0.4))], constraints=[constraint]
        )
        assert result.verified

    def test_tight_inequality_near_zero_boundary(self):
        # -x^2 - y^2 <= 0 everywhere; equality at the origin stresses the
        # resolution-limit sampling path.
        poly = -(self.x**2) - self.y**2
        assert self.verifier.prove_nonpositive(poly, [Box((-1, -1), (1, 1))]).verified

    def test_find_uncovered_point_none_when_covered(self):
        barrier = self.x**2 + self.y**2 - 10.0
        witness = self.verifier.find_uncovered_point(Box((-1, -1), (1, 1)), [barrier])
        assert witness is None

    def test_find_uncovered_point_witness(self):
        barrier = self.x**2 + self.y**2 - 0.25
        witness = self.verifier.find_uncovered_point(Box((-1, -1), (1, 1)), [barrier])
        assert witness is not None
        assert barrier.evaluate(witness) > 0

    def test_find_uncovered_point_union(self):
        left = (self.x + 0.5) ** 2 + self.y**2 - 0.6
        right = (self.x - 0.5) ** 2 + self.y**2 - 0.6
        witness = self.verifier.find_uncovered_point(
            Box((-0.9, -0.2), (0.9, 0.2)), [left, right]
        )
        assert witness is None

    def test_empty_barrier_list_is_uncovered(self):
        witness = self.verifier.find_uncovered_point(Box((-1, -1), (1, 1)), [])
        assert witness is not None

    def test_invalid_resolution_policy(self):
        with pytest.raises(ValueError):
            BranchAndBoundVerifier(resolution_limit_policy="bogus")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("resolution_samples", 0),
            ("max_boxes", 0),
            ("min_width", 0.0),
            ("min_width", -1e-4),
            ("min_width", float("inf")),
            ("min_width", float("nan")),
            ("tolerance", -1e-9),
        ],
    )
    def test_rejects_settings_that_void_the_proof(self, field, value):
        with pytest.raises(ValueError, match=field):
            BranchAndBoundVerifier(**{field: value})

    def test_resolution_limit_box_is_sampled_not_waved_through(self):
        """0.01 - (x - 0.3)^2 is positive on (0.2, 0.4), which no centre or
        corner of [0, 1] touches; only resolution-limit sampling finds it.
        With zero samples the limit box would count as proved."""
        x = Polynomial.variable(0, 1)
        bump = 0.01 - (x - 0.3) ** 2
        with pytest.raises(ValueError, match="resolution_samples"):
            BranchAndBoundVerifier(min_width=1.0, resolution_samples=0)
        result = BranchAndBoundVerifier(min_width=1.0).prove_nonpositive(
            bump, [Box((0.0,), (1.0,))]
        )
        assert not result.verified
        assert 0.2 < result.counterexample[0] < 0.4


# --------------------------------------------------------------------------- SOS
class TestSOS:
    def test_sum_of_squares_is_recognised(self):
        x = Polynomial.variable(0, 2)
        y = Polynomial.variable(1, 2)
        assert is_sos(x**2 + 2.0 * y**2)
        assert is_sos((x + y) ** 2)

    def test_indefinite_is_rejected(self):
        x = Polynomial.variable(0, 2)
        y = Polynomial.variable(1, 2)
        assert not is_sos(x**2 - y**2)
        assert not is_sos(x)  # odd degree

    def test_gram_matrix_reconstructs_polynomial(self):
        x = Polynomial.variable(0, 1)
        p = (x + 1.0) ** 2
        result = sos_decompose(p)
        assert result.is_sos
        eigenvalues = np.linalg.eigvalsh(result.gram)
        assert eigenvalues.min() >= -1e-7

    def test_zero_polynomial(self):
        assert is_sos(Polynomial.zero(2))


# ---------------------------------------------------------------------- Lyapunov
class TestQuadraticCertificates:
    def _double_integrator(self, gain):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0], [1.0]])
        return closed_loop_matrix(a, b, np.array([gain]), dt=0.01)

    def test_certifies_stable_loop(self):
        closed = self._double_integrator([-1.0, -1.5])
        result = QuadraticCertificateSynthesizer(
            closed, Box((-0.3, -0.3), (0.3, 0.3)), Box((-2, -2), (2, 2))
        ).search()
        assert result.verified
        invariant = result.invariant
        # S0 corners are inside, far unsafe points are outside.
        assert invariant.holds([0.3, 0.3])
        assert not invariant.holds([2.5, 2.5])

    def test_rejects_unstable_loop(self):
        closed = self._double_integrator([1.0, 0.5])
        result = QuadraticCertificateSynthesizer(
            closed, Box((-0.3, -0.3), (0.3, 0.3)), Box((-2, -2), (2, 2))
        ).search()
        assert not result.verified
        assert "spectral radius" in result.failure_reason

    def test_rejects_when_safe_box_too_small(self):
        closed = self._double_integrator([-1.0, -1.5])
        result = QuadraticCertificateSynthesizer(
            closed, Box((-0.5, -0.5), (0.5, 0.5)), Box((-0.55, -0.55), (0.55, 0.55))
        ).search()
        assert not result.verified

    def test_invariant_is_inductive_empirically(self):
        closed = self._double_integrator([-1.0, -1.5])
        result = QuadraticCertificateSynthesizer(
            closed, Box((-0.3, -0.3), (0.3, 0.3)), Box((-2, -2), (2, 2))
        ).search()
        invariant = result.invariant
        rng = np.random.default_rng(0)
        state = np.array([0.29, 0.29])
        for _ in range(500):
            assert invariant.holds(state)
            state = closed @ state

    def test_disturbance_bound_shrinks_feasibility(self):
        closed = self._double_integrator([-1.0, -1.5])
        huge_disturbance = QuadraticCertificateSynthesizer(
            closed,
            Box((-0.3, -0.3), (0.3, 0.3)),
            Box((-2, -2), (2, 2)),
            disturbance_bound=[500.0, 500.0],
        ).search()
        assert not huge_disturbance.verified


# ------------------------------------------------------------------------ barrier
class TestBarrierSynthesis:
    def _setup(self, monkeypatch, degree=2):
        # Closed loop: stable linear map, invariant must separate S0 from |x| >= 2.
        closed = np.array([[0.99, 0.01], [-0.02, 0.97]])
        closed_polys = [
            Polynomial.affine(closed[0], 0.0, 2),
            Polynomial.affine(closed[1], 0.0, 2),
        ]
        sketch = InvariantSketch(state_dim=2, degree=degree)
        init = Box((-0.3, -0.3), (0.3, 0.3))
        safe = Box((-2, -2), (2, 2))
        domain = Box((-4, -4), (4, 4))
        unsafe = box_difference(domain, safe)
        monkeypatch.setattr(barrier_module, "SAMPLES_INIT", 150)
        monkeypatch.setattr(barrier_module, "SAMPLES_UNSAFE", 150)
        monkeypatch.setattr(barrier_module, "SAMPLES_INDUCTION", 300)
        return BarrierCertificateSynthesizer(
            sketch,
            SafetyProblem(closed_polys, init, unsafe, safe, domain),
            verifier=BranchAndBoundVerifier(max_boxes=40_000, min_width=0.02),
        )

    def test_finds_certificate_for_stable_loop(self, monkeypatch):
        result = self._setup(monkeypatch).search()
        assert result.verified
        invariant = result.invariant
        assert invariant.holds([0.0, 0.0])
        assert invariant.holds([0.3, 0.3])
        assert not invariant.holds([3.0, 3.0])

    def test_certificate_conditions_hold_on_samples(self, monkeypatch):
        synthesizer = self._setup(monkeypatch)
        result = synthesizer.search()
        rng = np.random.default_rng(1)
        init_samples = synthesizer.problem.init_box.sample(rng, 200)
        assert (result.invariant.barrier.evaluate_batch(init_samples) <= 1e-6).all()
        unsafe_samples = np.concatenate(
            [box.sample(rng, 50) for box in synthesizer.problem.unsafe_boxes], axis=0
        )
        assert (result.invariant.barrier.evaluate_batch(unsafe_samples) > 0).all()

    def test_reports_failure_for_unstable_loop(self):
        closed_polys = [
            Polynomial.affine([1.05, 0.0], 0.0, 2),
            Polynomial.affine([0.0, 1.05], 0.0, 2),
        ]
        sketch = InvariantSketch(state_dim=2, degree=2)
        init = Box((-0.5, -0.5), (0.5, 0.5))
        safe = Box((-1, -1), (1, 1))
        domain = Box((-2, -2), (2, 2))
        synthesizer = BarrierCertificateSynthesizer(
            sketch,
            SafetyProblem(closed_polys, init, box_difference(domain, safe), safe, domain),
            config=BarrierSynthesisConfig(max_refinements=3),
            verifier=BranchAndBoundVerifier(max_boxes=10_000, min_width=0.05),
        )
        result = synthesizer.search()
        assert not result.verified
        assert result.failure_reason

    def test_repeated_candidate_is_proved_once(self):
        """A candidate the LP returns again reuses its first failure: the
        verifier proves each condition once per distinct candidate, and the
        search result and counterexample stream are those of re-proving."""

        def make():
            return BarrierCertificateSynthesizer(
                InvariantSketch(state_dim=2, degree=2),
                SafetyProblem(
                    [
                        Polynomial.affine([1.05, 0.0], 0.0, 2),
                        Polynomial.affine([0.0, 1.05], 0.0, 2),
                    ],
                    Box((-0.5, -0.5), (0.5, 0.5)),
                    box_difference(Box((-2, -2), (2, 2)), Box((-1, -1), (1, 1))),
                    Box((-1, -1), (1, 1)),
                    Box((-2, -2), (2, 2)),
                ),
                config=BarrierSynthesisConfig(max_refinements=5),
                verifier=BranchAndBoundVerifier(max_boxes=10_000, min_width=0.05),
                on_counterexample=lambda kind, point: seen.append((kind, point)),
            )

        # Basis (1, x, y, x^2, xy, y^2): A fails condition (9) on S0, B is
        # separating but not inductive under the expanding loop.
        cand_a = np.array([-0.1, 0.0, 0.0, 1.0, 0.0, 1.0])
        cand_b = np.array([-0.6, 0.0, 0.0, 1.0, 0.0, 1.0])
        stream = [cand_a, cand_a, cand_b, cand_a, cand_b]

        seen: list = []
        expected = []  # what re-proving every iteration reports
        for cand in stream:
            fresh = make()
            expected.append(fresh._sound_check(fresh.sketch.instantiate(cand)))
        assert [kind for kind, _ in expected] == ["init", "init", "induction", "init", "induction"]

        synthesizer = make()
        lp_sample_counts = []

        def solve_lp(init_samples, unsafe_samples, induction_samples):
            lp_sample_counts.append(len(init_samples) + len(induction_samples))
            return stream[len(lp_sample_counts) - 1].copy(), 1.0

        proved = []
        verifier = synthesizer.verifier
        for name in ("prove_nonpositive", "prove_positive"):
            method = getattr(verifier, name)

            def spy(polynomial, boxes, constraints=(), _method=method, _name=name):
                proved.append((_name, repr(polynomial)))
                return _method(polynomial, boxes, constraints)

            setattr(verifier, name, spy)
        synthesizer._solve_lp = solve_lp
        seen.clear()
        result = synthesizer.search()

        assert not result.verified
        assert result.iterations == 5
        assert result.failure_reason.startswith("refinement budget exhausted")
        assert len(result.counterexamples) == 5
        for got, (_kind, point) in zip(result.counterexamples, expected):
            assert np.array_equal(got, point)
        # every iteration notifies the sink, each with its own array
        assert [kind for kind, _ in seen] == [kind for kind, _ in expected]
        assert len({id(point) for _, point in seen}) == 5
        assert all(got is point for got, (_, point) in zip(result.counterexamples, seen))
        # ... and still draws a jitter cloud and re-solves the LP
        cloud = barrier_module.COUNTEREXAMPLE_CLOUD + 1
        assert np.diff(lp_sample_counts).tolist() == [cloud] * 4
        # one proof per condition per distinct candidate: A stops at (9); B
        # passes (9) and (8), then fails induction
        assert len(proved) == len(set(proved)) == 1 + 3
