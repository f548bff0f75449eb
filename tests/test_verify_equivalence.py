"""Edge-case coverage for the run-equivalence checkers (``repro.verify``).

These are the gates the fault harness and the async engine's oracle
comparison ride on, so their corner semantics - NaN,
tolerance boundaries, multi-node reporting, per-map overrides - get
pinned explicitly here.
"""

from __future__ import annotations

import math

import pytest

from repro.verify import (
    VerificationError,
    check_equivalent_value_maps,
    check_equivalent_values,
)


class TestCheckEquivalentValues:
    def test_identical_values_pass(self):
        check_equivalent_values({0: 1, 1: "x"}, {0: 1, 1: "x"})

    def test_key_set_mismatch_names_both_sides(self):
        with pytest.raises(VerificationError, match="key sets differ"):
            check_equivalent_values({0: 1, 2: 1}, {0: 1, 1: 1})

    def test_nan_equals_nan(self):
        """NaN is a legitimate converged value; two NaNs must agree even
        though ``nan != nan``."""
        check_equivalent_values({0: math.nan}, {0: math.nan})
        check_equivalent_values({0: math.nan}, {0: float("nan")}, tolerance=1e-6)

    def test_nan_vs_number_fails_even_with_tolerance(self):
        """``abs(nan - x) > tol`` is False, so a naive tolerance check
        would silently accept NaN against any number - it must not."""
        with pytest.raises(VerificationError, match="diverge"):
            check_equivalent_values({0: math.nan}, {0: 1.0}, tolerance=1e9)
        with pytest.raises(VerificationError, match="diverge"):
            check_equivalent_values({0: 1.0}, {0: math.nan}, tolerance=1e9)

    def test_tolerance_boundary_is_inclusive(self):
        check_equivalent_values({0: 0.0}, {0: 1e-9}, tolerance=1e-9)

    def test_tolerance_exceeded_reports_the_tolerance(self):
        with pytest.raises(VerificationError, match="tolerance 1e-09"):
            check_equivalent_values({0: 1.0}, {0: 1.1}, tolerance=1e-9)

    def test_zero_tolerance_requires_exact_equality(self):
        with pytest.raises(VerificationError):
            check_equivalent_values({0: 1.0}, {0: 1.0 + 1e-12})

    def test_reports_every_diverging_node_with_count(self):
        """The report carries the divergence count and the first nodes -
        not just the first mismatch - so a shape (one node vs everywhere)
        is visible from the message alone."""
        expected = {n: 0 for n in range(10)}
        actual = {**expected, 1: 5, 3: 5, 7: 5}
        with pytest.raises(VerificationError) as excinfo:
            check_equivalent_values(expected, actual)
        message = str(excinfo.value)
        assert "3 of 10 nodes diverge" in message
        assert "node 1" in message and "node 3" in message and "node 7" in message

    def test_report_truncates_to_first_five_nodes(self):
        expected = {n: 0 for n in range(10)}
        actual = {n: 1 for n in range(10)}
        with pytest.raises(VerificationError) as excinfo:
            check_equivalent_values(expected, actual)
        message = str(excinfo.value)
        assert "10 of 10 nodes diverge" in message
        assert "node 4" in message and "node 5" not in message

    def test_map_name_prefixes_the_report(self):
        with pytest.raises(VerificationError, match="map 'rank'"):
            check_equivalent_values({0: 1}, {0: 2}, map_name="rank")


class TestCheckEquivalentValueMaps:
    def test_all_maps_equal_pass(self):
        maps = {"rank": {0: 1.0}, "label": {0: 3}}
        check_equivalent_value_maps(maps, {k: dict(v) for k, v in maps.items()})

    def test_map_set_mismatch(self):
        with pytest.raises(VerificationError, match="map sets differ"):
            check_equivalent_value_maps({"rank": {0: 1}}, {"label": {0: 1}})

    def test_reports_which_maps_diverged(self):
        expected = {"rank": {0: 1.0}, "label": {0: 3}, "dist": {0: 2.0}}
        actual = {"rank": {0: 9.0}, "label": {0: 3}, "dist": {0: 7.0}}
        with pytest.raises(VerificationError) as excinfo:
            check_equivalent_value_maps(expected, actual)
        message = str(excinfo.value)
        assert "2 map(s) diverge" in message
        assert "map 'rank'" in message and "map 'dist'" in message
        assert "map 'label'" not in message

    def test_per_map_tolerance_override(self):
        """`tolerances` loosens one map without loosening the others."""
        expected = {"rank": {0: 1.0}, "label": {0: 3}}
        actual = {"rank": {0: 1.0 + 1e-7}, "label": {0: 3}}
        check_equivalent_value_maps(expected, actual, tolerances={"rank": 1e-6})
        with pytest.raises(VerificationError, match="map 'rank'"):
            check_equivalent_value_maps(expected, actual, tolerances={"rank": 1e-9})

    def test_default_tolerance_applies_to_unlisted_maps(self):
        expected = {"rank": {0: 1.0}, "dist": {0: 2.0}}
        actual = {"rank": {0: 1.0 + 1e-8}, "dist": {0: 2.0 + 1e-8}}
        check_equivalent_value_maps(
            expected, actual, tolerance=1e-6, tolerances={"rank": 1e-7}
        )
        with pytest.raises(VerificationError, match="map 'dist'"):
            check_equivalent_value_maps(
                expected, actual, tolerance=1e-9, tolerances={"rank": 1e-7}
            )
