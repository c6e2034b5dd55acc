"""Tests for the Handelman/Farkas LP prover (repro.certificates.farkas)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.certificates import Box, FarkasVerifier
from repro.certificates.farkas import (
    handelman_products,
    prove_nonpositive_handelman,
    prove_positive_handelman,
)
from repro.polynomials import Polynomial


def _poly(text_coeffs, num_vars=1):
    """Small helper: build a univariate/bivariate polynomial from affine coeffs."""
    return Polynomial.affine(text_coeffs[:num_vars], text_coeffs[num_vars], num_vars)


class TestHandelmanProducts:
    def test_degree_zero_contains_only_constant(self):
        box = Box((-1.0,), (1.0,))
        products = handelman_products(box, 0)
        assert len(products) == 1
        assert products[0].evaluate([0.3]) == pytest.approx(1.0)

    def test_degree_one_counts(self):
        box = Box((-1.0, -2.0), (1.0, 2.0))
        products = handelman_products(box, 1)
        # constant + 2n generators
        assert len(products) == 1 + 4

    def test_degree_two_counts(self):
        box = Box((-1.0,), (1.0,))
        # generators: (x+1), (1-x); degree-2 products: 1, 2 singles, 3 pairs.
        products = handelman_products(box, 2)
        assert len(products) == 1 + 2 + 3

    def test_constraint_generators_included(self):
        box = Box((-1.0,), (1.0,))
        constraint = Polynomial.variable(0, 1)  # x <= 0
        products = handelman_products(box, 1, constraints=[constraint])
        assert len(products) == 1 + 3
        # The extra generator is -x, nonnegative where the constraint holds.
        assert products[-1].evaluate([-0.5]) == pytest.approx(0.5)

    def test_generators_nonnegative_on_box(self):
        box = Box((-2.0, 0.5), (3.0, 1.5))
        products = handelman_products(box, 2)
        rng = np.random.default_rng(0)
        points = box.sample(rng, 50)
        for product in products:
            values = product.evaluate_batch(points)
            assert np.all(values >= -1e-9)

    def test_negative_degree_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            handelman_products(Box((-1.0,), (1.0,)), -1)


class TestProveNonpositive:
    def test_proves_affine_bound(self):
        # x - 2 <= 0 on [-1, 1].
        poly = _poly([1.0, -2.0])
        result = prove_nonpositive_handelman(poly, Box((-1.0,), (1.0,)), degree=1)
        assert result.proved
        assert result.residual_bound <= 1e-7
        assert np.all(result.multipliers >= -1e-12)

    def test_proves_concave_quadratic(self):
        # x^2 - 1 <= 0 on [-1, 1]: 1 - x^2 = (1-x)(1+x) is a product generator.
        x = Polynomial.variable(0, 1)
        poly = x * x - 1.0
        result = prove_nonpositive_handelman(poly, Box((-1.0,), (1.0,)), degree=2)
        assert result.proved

    def test_rejects_false_statement(self):
        # x - 0.5 <= 0 is false on [0, 1].
        poly = _poly([1.0, -0.5])
        result = prove_nonpositive_handelman(poly, Box((0.0,), (1.0,)), degree=2)
        assert not result.proved
        assert result.failure_reason

    def test_bivariate_level_set(self):
        # x^2 + y^2 - 2 <= 0 on the unit box.
        x = Polynomial.variable(0, 2)
        y = Polynomial.variable(1, 2)
        poly = x * x + y * y - 2.0
        result = prove_nonpositive_handelman(poly, Box((-1.0, -1.0), (1.0, 1.0)), degree=2)
        assert result.proved

    def test_constraint_restricts_domain(self):
        # x <= 0.25 is false on [0, 1] but true on [0, 1] ∩ {x - 0.25 <= 0}... trivially;
        # use a non-trivial case: prove x*y <= 0.25 on the unit square given y <= 0.25.
        x = Polynomial.variable(0, 2)
        y = Polynomial.variable(1, 2)
        box = Box((0.0, 0.0), (1.0, 1.0))
        unconstrained = prove_nonpositive_handelman(x * y - 0.25, box, degree=2)
        assert not unconstrained.proved
        constrained = prove_nonpositive_handelman(
            x * y - 0.25, box, degree=2, constraints=[y - 0.25]
        )
        assert constrained.proved

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimensions"):
            prove_nonpositive_handelman(Polynomial.variable(0, 2), Box((-1.0,), (1.0,)))

    def test_default_degree_follows_polynomial(self):
        x = Polynomial.variable(0, 1)
        result = prove_nonpositive_handelman((x * x * x) - 2.0, Box((-1.0,), (1.0,)))
        assert result.degree == 3

    @settings(max_examples=25, deadline=None)
    @given(
        bound=st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
        slope=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    )
    @example(bound=1.0, slope=1e-07)
    def test_property_affine_true_statements_are_proved(self, bound, slope):
        # slope*x - (|slope|*bound + 0.1) <= 0 always holds on [-bound, bound].
        offset = abs(slope) * bound + 0.1
        poly = Polynomial.affine([slope], -offset, 1)
        result = prove_nonpositive_handelman(poly, Box((-bound,), (bound,)), degree=1)
        assert result.proved

    def test_multiplier_inside_default_lp_tolerance_is_not_dropped(self):
        # HiGHS' default 1e-7 feasibility tolerance used to return the bound
        # multiplier as -1e-7; dropping it left a 2e-7 residual and no proof.
        poly = Polynomial.affine([1e-7], -(1e-7 + 0.1), 1)
        result = prove_nonpositive_handelman(poly, Box((-1.0,), (1.0,)), degree=1)
        assert result.proved
        assert result.residual_bound <= 1e-7
        assert np.all(result.multipliers >= -1e-10)

    @settings(max_examples=25, deadline=None)
    @given(
        gap=st.floats(min_value=0.05, max_value=2.0, allow_nan=False),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_property_soundness_never_proves_falsehoods(self, gap, seed):
        # p(x) = x - (1 - gap) is positive at x = 1, so "p <= 0 on [0, 1]" is false.
        rng = np.random.default_rng(seed)
        poly = Polynomial.affine([1.0], -(1.0 - gap), 1)
        if gap >= 1.0:
            return  # statement would actually be true; skip
        result = prove_nonpositive_handelman(poly, Box((0.0,), (1.0,)), degree=int(rng.integers(1, 4)))
        assert not result.proved


class TestProvePositive:
    def test_proves_strictly_positive(self):
        # 2 - x > 0 on [-1, 1].
        poly = Polynomial.affine([-1.0], 2.0, 1)
        result = prove_positive_handelman(poly, Box((-1.0,), (1.0,)), degree=1)
        assert result.proved

    def test_rejects_sign_changing(self):
        poly = Polynomial.variable(0, 1)
        result = prove_positive_handelman(poly, Box((-1.0,), (1.0,)), degree=2)
        assert not result.proved

    def test_barrier_positive_on_unsafe_box(self):
        # The paper's condition (8) shape: E = x^2 + y^2 - 1 > 0 on a far-away unsafe box.
        x = Polynomial.variable(0, 2)
        y = Polynomial.variable(1, 2)
        barrier = x * x + y * y - 1.0
        unsafe = Box((2.0, -1.0), (3.0, 1.0))
        result = prove_positive_handelman(barrier, unsafe, degree=2)
        assert result.proved


class TestFarkasVerifier:
    def test_multi_box_query(self):
        verifier = FarkasVerifier(max_degree=2)
        x = Polynomial.variable(0, 1)
        poly = x * x - 4.0
        boxes = [Box((-1.0,), (1.0,)), Box((0.0,), (1.5,))]
        assert verifier.prove_nonpositive(poly, boxes).proved

    def test_multi_box_query_fails_on_bad_box(self):
        verifier = FarkasVerifier(max_degree=2)
        x = Polynomial.variable(0, 1)
        poly = x * x - 4.0
        boxes = [Box((-1.0,), (1.0,)), Box((0.0,), (3.0,))]
        assert not verifier.prove_nonpositive(poly, boxes).proved

    def test_prove_positive_multi_box(self):
        verifier = FarkasVerifier(max_degree=2)
        poly = Polynomial.affine([0.0], 1.0, 1)  # constant 1 > 0
        assert verifier.prove_positive(poly, [Box((-5.0,), (5.0,))]).proved

    def test_agrees_with_branch_and_bound(self):
        """Cross-check the two decision procedures on a batch of random affine queries."""
        from repro.certificates import BranchAndBoundVerifier

        rng = np.random.default_rng(7)
        bnb = BranchAndBoundVerifier(tolerance=1e-9)
        farkas = FarkasVerifier(max_degree=2, tolerance=1e-7)
        box = Box((-1.0, -1.0), (1.0, 1.0))
        agreements = 0
        for _ in range(20):
            coeffs = rng.uniform(-1, 1, size=2)
            offset = rng.uniform(-3, 3)
            poly = Polynomial.affine(coeffs, offset, 2)
            # Ground truth: max of an affine function over a box is at a corner.
            true_max = max(poly.evaluate(corner) for corner in box.corners())
            truth = true_max <= 0.0
            bnb_answer = bool(bnb.prove_nonpositive(poly, [box]).verified)
            farkas_answer = bool(farkas.prove_nonpositive(poly, [box]).proved)
            # Neither procedure may claim a proof of a false statement.
            if not truth:
                assert not bnb_answer
                assert not farkas_answer
            if bnb_answer == farkas_answer == truth:
                agreements += 1
        # Away from degenerate boundary cases both procedures should agree with
        # the ground truth almost always.
        assert agreements >= 16
