"""Tests for the omega-test-like LMAD intersection solver."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.omega import (
    SolutionSet,
    extended_gcd,
    intersect_lmads,
    solve_equality,
)
from repro.compression.lmad import LMAD
from repro.postprocess.dependence import EQUAL_DIMS, TIME_DIM, box_disjoint, lmad_box


def brute_force_pairs(w_start, w_stride, w_count, r_start, r_stride, r_count):
    return {
        (k1, k2)
        for k1 in range(w_count)
        for k2 in range(r_count)
        if w_start + w_stride * k1 == r_start + r_stride * k2
    }


class TestExtendedGcd:
    def test_textbook(self):
        g, x, y = extended_gcd(240, 46)
        assert g == 2 and 240 * x + 46 * y == 2

    def test_zero_cases(self):
        assert extended_gcd(0, 5)[0] == 5
        assert extended_gcd(5, 0)[0] == 5

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-500, 500), st.integers(-500, 500))
    def test_bezout_identity(self, a, b):
        g, x, y = extended_gcd(a, b)
        assert a * x + b * y == g
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


class TestSolveEquality:
    def test_no_integer_solution(self):
        assert solve_equality(0, 4, 10, 2, 4, 10).is_empty

    def test_simple_overlap(self):
        solution = solve_equality(0, 4, 10, 0, 8, 10)
        assert solution.count() == 5  # 0,8,16,24,32

    def test_unique_solution(self):
        solution = solve_equality(0, 0, 1, 0, 8, 10)
        assert solution.distinct_k2() == 1

    def test_constant_vs_constant_match(self):
        solution = solve_equality(5, 0, 3, 5, 0, 7)
        assert not solution.is_empty
        assert solution.distinct_k2() == 7

    def test_constant_vs_constant_mismatch(self):
        assert solve_equality(5, 0, 3, 6, 0, 7).is_empty

    def test_negative_strides(self):
        solution = solve_equality(100, -4, 10, 64, 4, 10)
        # writer: 100,96,...,64; reader: 64,68,...,100 -> 10 matches
        assert solution.count() == 10

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(-40, 40), st.integers(-8, 8), st.integers(1, 12),
        st.integers(-40, 40), st.integers(-8, 8), st.integers(1, 12),
    )
    def test_matches_brute_force(self, ws, wd, wc, rs, rd, rc):
        solution = solve_equality(ws, wd, wc, rs, rd, rc)
        expected = brute_force_pairs(ws, wd, wc, rs, rd, rc)
        if wd == 0 and rd == 0:
            # degenerate case: the set collapses to distinct-k2 semantics
            expected_k2 = {k2 for __, k2 in expected}
            assert solution.distinct_k2() == len(expected_k2)
            return
        got = set()
        if not solution.is_empty:
            for s in range(solution.s_min, solution.s_max + 1):
                got.add(
                    (solution.k1_0 + s * solution.q1, solution.k2_0 + s * solution.q2)
                )
        assert got == expected


class TestSolutionSet:
    def test_empty(self):
        empty = SolutionSet.empty()
        assert empty.is_empty
        assert empty.count() == 0
        assert empty.distinct_k2() == 0

    def test_progression(self):
        solution = solve_equality(0, 4, 10, 0, 8, 10)
        first, step, n = solution.k2_progression()
        values = {first + step * i for i in range(n)}
        assert values == {0, 1, 2, 3, 4}

    def test_progression_single(self):
        solution = solve_equality(8, 0, 5, 0, 8, 10)
        first, step, n = solution.k2_progression()
        assert (first, step, n) == (1, 0, 1)


def brute_force_intersection(writer, reader, equal_dims, time_dim):
    """Reference implementation by full enumeration."""
    conflicts = set()
    for k2 in range(reader.count):
        r = reader.element(k2)
        for k1 in range(writer.count):
            w = writer.element(k1)
            if all(w[d] == r[d] for d in equal_dims) and (
                time_dim is None or w[time_dim] < r[time_dim]
            ):
                conflicts.add(k2)
                break
    return conflicts


class TestIntersectLmads:
    def test_same_object_strided(self):
        writer = LMAD((0, 0, 100), (0, 8, 1), 10)
        reader = LMAD((0, 16, 200), (0, 8, 1), 5)
        solution = intersect_lmads(writer, reader, (0, 1), time_dim=2)
        assert solution.distinct_k2() == 5

    def test_different_objects_no_conflict(self):
        writer = LMAD((0, 0, 100), (0, 8, 1), 10)
        reader = LMAD((1, 0, 200), (0, 8, 1), 10)
        assert intersect_lmads(writer, reader, (0, 1), time_dim=2).is_empty

    def test_time_order_enforced(self):
        writer = LMAD((0, 0, 500), (0, 8, 1), 10)  # writes AFTER the reads
        reader = LMAD((0, 0, 100), (0, 8, 1), 10)
        assert intersect_lmads(writer, reader, (0, 1), time_dim=2).is_empty

    def test_partial_time_overlap(self):
        # writer at times 100..109 writing offsets 0..72; reader reads
        # the same offsets at times 105..114: only later reads conflict.
        writer = LMAD((0, 0, 100), (0, 8, 1), 10)
        reader = LMAD((0, 0, 105), (0, 8, 1), 10)
        solution = intersect_lmads(writer, reader, (0, 1), time_dim=2)
        # read k2 touches offset 8*k2 written at time 100+k2 < 105+k2: all 10
        assert solution.distinct_k2() == 10

    def test_constant_location_rmw(self):
        # scalar read-modify-write: same address, write precedes read
        writer = LMAD((0, 0, 10), (0, 0, 3), 100)
        reader = LMAD((0, 0, 11), (0, 0, 3), 100)
        solution = intersect_lmads(writer, reader, (0, 1), time_dim=2)
        assert solution.distinct_k2() == 100

    def test_dimension_mismatch(self):
        import pytest

        with pytest.raises(ValueError):
            intersect_lmads(LMAD((0,), (1,), 2), LMAD((0, 0), (1, 1), 2), (0,))

    def test_needs_equality_dims(self):
        import pytest

        with pytest.raises(ValueError):
            intersect_lmads(LMAD((0,), (1,), 2), LMAD((0,), (1,), 2), ())

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2), st.integers(-2, 2), st.integers(0, 48),
        st.integers(-8, 8), st.integers(1, 10),
        st.integers(0, 2), st.integers(-2, 2), st.integers(0, 48),
        st.integers(-8, 8), st.integers(1, 10),
    )
    def test_matches_brute_force_with_monotone_time(
        self, wo, wdo, wf, wdf, wc, ro, rdo, rf, rdf, rc
    ):
        """Random LMAD pairs with increasing time components (as LEAP
        produces) must match exhaustive enumeration of distinct k2."""
        writer = LMAD((wo, wf, 100), (wdo, wdf, 3), wc)
        reader = LMAD((ro, rf, 104), (rdo, rdf, 5), rc)
        solution = intersect_lmads(writer, reader, (0, 1), time_dim=2)
        expected = brute_force_intersection(writer, reader, (0, 1), 2)
        assert solution.distinct_k2() == len(expected)


class TestEdgeCases:
    """Degenerate descriptor shapes: zero strides, single-element
    streams, negative strides in every position."""

    def test_zero_stride_both_sides_same_location(self):
        # both pin offset 16; the one-parameter family collapses to
        # distinct-k2 semantics: every reader iteration conflicts
        solution = solve_equality(16, 0, 6, 16, 0, 9)
        assert not solution.is_empty
        assert solution.distinct_k2() == 9

    def test_zero_stride_writer_moving_reader(self):
        # writer stays at 24, reader sweeps 0,8,...,72: one hit
        solution = solve_equality(24, 0, 5, 0, 8, 10)
        assert solution.distinct_k2() == 1
        assert (0, 3) in {
            (k1, k2)
            for k1 in range(5)
            for k2 in range(10)
            if 24 == 8 * k2
        }

    def test_single_iteration_both(self):
        assert not solve_equality(8, 0, 1, 8, 0, 1).is_empty
        assert solve_equality(8, 0, 1, 16, 0, 1).is_empty

    def test_single_iteration_lmads(self):
        writer = LMAD((0, 8, 100), (0, 0, 0), 1)
        hit = LMAD((0, 8, 200), (0, 0, 0), 1)
        miss = LMAD((0, 16, 200), (0, 0, 0), 1)
        assert not intersect_lmads(writer, hit, (0, 1), time_dim=2).is_empty
        assert intersect_lmads(writer, miss, (0, 1), time_dim=2).is_empty

    def test_negative_stride_on_object_dimension(self):
        # writer walks objects 5,4,3; reader walks 3,4,5 at offset 0
        writer = LMAD((5, 0, 100), (-1, 0, 1), 3)
        reader = LMAD((3, 0, 200), (1, 0, 1), 3)
        solution = intersect_lmads(writer, reader, (0, 1), time_dim=2)
        assert solution.distinct_k2() == 3

    def test_both_strides_negative(self):
        solution = solve_equality(72, -8, 10, 72, -8, 10)
        assert solution.count() == 10

    def test_mixed_sign_disjoint(self):
        # writer descends 40,32,24; reader ascends 48,56,64: no overlap
        assert solve_equality(40, -8, 3, 48, 8, 3).is_empty

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(-20, 20),
        st.sampled_from([-8, -4, -1, 0, 1, 4, 8]),
        st.integers(1, 10),
        st.integers(-20, 20),
        st.sampled_from([-8, -4, -1, 0, 1, 4, 8]),
        st.integers(1, 10),
    )
    def test_degenerate_strides_match_brute_force(
        self, ws, wd, wc, rs, rd, rc
    ):
        solution = solve_equality(ws, wd, wc, rs, rd, rc)
        expected = brute_force_pairs(ws, wd, wc, rs, rd, rc)
        assert solution.distinct_k2() == len({k2 for __, k2 in expected})
        if wd == 0 and rd == 0:
            return  # one-parameter set cannot enumerate the full product
        got = set()
        if not solution.is_empty:
            for s in range(solution.s_min, solution.s_max + 1):
                got.add(
                    (
                        solution.k1_0 + s * solution.q1,
                        solution.k2_0 + s * solution.q2,
                    )
                )
        assert got == expected

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2),
        st.integers(-16, 16),
        st.sampled_from([-8, 0, 8]),
        st.integers(1, 6),
        st.integers(0, 2),
        st.integers(-16, 16),
        st.sampled_from([-8, 0, 8]),
        st.integers(1, 6),
    )
    def test_untimed_intersection_matches_brute_force(
        self, wobj, woff, wstride, wcount, robj, roff, rstride, rcount
    ):
        """2-D (object, offset) intersection with no time dimension --
        the shape the static dependence tester uses."""
        writer = LMAD((wobj, woff), (0, wstride), wcount)
        reader = LMAD((robj, roff), (0, rstride), rcount)
        solution = intersect_lmads(writer, reader, (0, 1))
        expected = {
            (k1, k2)
            for k1 in range(wcount)
            for k2 in range(rcount)
            if wobj == robj and woff + wstride * k1 == roff + rstride * k2
        }
        assert solution.is_empty == (not expected)
        if expected:
            assert solution.distinct_k2() == len({k2 for __, k2 in expected})


_lmads = st.builds(
    LMAD,
    st.tuples(st.integers(0, 3), st.integers(0, 64), st.integers(0, 200)),
    st.tuples(st.integers(-2, 2), st.integers(-8, 8), st.integers(-5, 5)),
    st.integers(1, 12),
)


class TestBoxPrecheck:
    """The MDF post-processor skips the solver for LMAD pairs whose
    bounding boxes prove them conflict-free; the proof must be sound."""

    @settings(max_examples=500, deadline=None)
    @given(_lmads, _lmads)
    def test_rejected_pairs_have_empty_intersections(self, writer, reader):
        if box_disjoint(lmad_box(writer), lmad_box(reader)):
            assert intersect_lmads(writer, reader, EQUAL_DIMS, time_dim=TIME_DIM).is_empty
            assert not brute_force_intersection(writer, reader, EQUAL_DIMS, TIME_DIM)

    @settings(max_examples=200, deadline=None)
    @given(_lmads)
    def test_box_bounds_every_element(self, lmad):
        box = lmad_box(lmad)
        for element in lmad.expand():
            for value, (low, high) in zip(element, box):
                assert low <= value <= high
        assert box == tuple(
            (min(first, last), max(first, last))
            for first, last in zip(lmad.start, lmad.last)
        )

    def test_each_rule_rejects(self):
        base = LMAD((0, 0, 100), (0, 8, 1), 10)  # offsets 0..72, times 100..109
        other_object = LMAD((1, 0, 200), (0, 8, 1), 10)
        other_offsets = LMAD((0, 80, 200), (0, 8, 1), 10)
        earlier_reads = LMAD((0, 0, 50), (0, 8, 1), 51)  # times 50..100
        overlapping = LMAD((0, 16, 105), (0, 8, 1), 5)
        box = lmad_box(base)
        assert box_disjoint(box, lmad_box(other_object))
        assert box_disjoint(box, lmad_box(other_offsets))
        assert box_disjoint(box, lmad_box(earlier_reads))
        assert not box_disjoint(box, lmad_box(overlapping))
