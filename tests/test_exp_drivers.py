"""Smoke + acceptance tests for the experiment drivers (tiny configs).

Each driver runs a miniature version of its experiment; the structural
assertions (result shape, series present, table rows) always apply, and
the cheap experiments also assert their acceptance criterion.  The
benchmark harness runs the quick()/full() presets; these tests exist so
`pytest tests/` exercises every driver in seconds.
"""

import pytest

from repro.experiments import (
    a1_ablations,
    a2_consistency,
    e1_sequential,
    e2_lower_bound,
    e3_good_bad,
    e4_indicator_sum,
    e5_upper_bound,
    e6_bound_comparison,
    e7_full_sgd,
    e8_tradeoff,
    e9_staleness_aware,
    e10_momentum,
    e11_dense_gradients,
    e12_sparsity,
    f1_figure,
)
from repro.experiments.runner import ExperimentResult, seed_range, sweep


class TestRunnerHelpers:
    def test_seed_range(self):
        assert seed_range(10, 3) == [10, 11, 12]
        with pytest.raises(Exception):
            seed_range(0, 0)

    def test_sweep_preserves_order(self):
        assert sweep([1, 2, 3], lambda v: v * 2) == [2, 4, 6]

    def test_render_includes_verdict(self):
        from repro.metrics.report import Table

        table = Table(["a"])
        table.add_row([1])
        result = ExperimentResult("EX", "demo", table, passed=True)
        text = result.render(plot=False)
        assert "PASS" in text
        assert "demo" in text


def _check_shape(result: ExperimentResult, experiment_id: str):
    assert result.experiment_id == experiment_id
    assert result.table.rows
    assert isinstance(result.passed, bool)
    assert result.render(plot=False)


class TestDrivers:
    def test_e1(self):
        config = e1_sequential.E1Config(num_runs=20, horizons=[50, 200])
        result = e1_sequential.run(config)
        _check_shape(result, "E1")
        assert result.passed

    def test_e2(self):
        config = e2_lower_bound.E2Config(delays=[40, 80, 120], iterations=1800)
        result = e2_lower_bound.run(config)
        _check_shape(result, "E2")
        assert result.passed
        measured = result.series["measured slowdown"]
        assert measured == sorted(measured)  # monotone in tau

    def test_e3(self):
        config = e3_good_bad.E3Config(
            thread_counts=[2, 3], iterations=120, window_multipliers=[1, 2]
        )
        result = e3_good_bad.run(config)
        _check_shape(result, "E3")
        assert result.passed  # combinatorial: must hold even when tiny

    def test_e4(self):
        config = e4_indicator_sum.E4Config(thread_counts=[2, 3], iterations=120)
        result = e4_indicator_sum.run(config)
        _check_shape(result, "E4")
        assert result.passed

    def test_e5_structure(self):
        config = e5_upper_bound.E5Config(
            horizons=[200, 600],
            num_runs=6,
            slowdown_delay_bounds=[2, 96],
            slowdown_runs=2,
            slowdown_iterations=4000,
            pilot_runs=1,
        )
        result = e5_upper_bound.run(config)
        _check_shape(result, "E5")
        # Bound part must hold even in miniature (bounds are valid for
        # any T); the slowdown shape needs larger runs, so only check
        # presence here.
        assert "E5a" in result.notes and "E5b" in result.notes
        # The E5a table is rendered once (in the notes), not also as the
        # result table.
        assert result.render(plot=False).count("E5a:") == 1
        # (b) names the delay bound it judged, finite slowdown or not.
        assert "at the largest delay bound 96" in result.notes

    def test_e5_fails_by_name_when_the_largest_delay_bound_never_hits(self):
        # Ten iterations cannot reach the success region: every slowdown
        # row is nan, so (b) must fail at the largest bound, not fall
        # back to a smaller one.
        config = e5_upper_bound.E5Config(
            horizons=[200],
            num_runs=2,
            slowdown_delay_bounds=[2, 96],
            slowdown_runs=2,
            slowdown_iterations=10,
            pilot_runs=1,
        )
        result = e5_upper_bound.run(config)
        assert not result.passed
        assert (
            "(b) FAILED: no finite slowdown at the largest delay bound 96"
            in result.notes
        )
        assert "0 of 2 runs hit within 10 iterations" in result.notes

    def test_e6(self):
        config = e6_bound_comparison.E6Config(
            spot_check_runs=2, spot_check_iterations=3000
        )
        result = e6_bound_comparison.run(config)
        _check_shape(result, "E6")
        assert result.passed
        old = result.series["Thm 6.3 bound (old)"]
        new = result.series["Cor 6.7 bound (new)"]
        assert new[-1] < old[-1]  # new bound wins at large tau

    def test_e7(self):
        config = e7_full_sgd.E7Config(
            epsilons=[0.2], num_runs=3, iterations_per_epoch=200
        )
        result = e7_full_sgd.run(config)
        _check_shape(result, "E7")
        assert result.passed

    def test_e8(self):
        config = e8_tradeoff.E8Config(
            trace_thread_counts=[2], trace_iterations=100
        )
        result = e8_tradeoff.run(config)
        _check_shape(result, "E8")
        assert result.passed  # complementarity is analytic

    def test_e9(self):
        config = e9_staleness_aware.E9Config(
            delays=[40, 80, 120], iterations=1800
        )
        result = e9_staleness_aware.run(config)
        _check_shape(result, "E9")
        assert result.passed
        weak = result.series["aware vs weak adversary"]
        adaptive = result.series["aware vs adaptive adversary"]
        assert max(weak) < max(adaptive)

    def test_e10(self):
        config = e10_momentum.E10Config(thread_counts=[1, 4, 16])
        result = e10_momentum.run(config)
        _check_shape(result, "E10")
        assert result.passed
        fitted = result.series["fitted implicit beta"]
        assert fitted[0] < fitted[-1]

    def test_e11(self):
        config = e11_dense_gradients.E11Config(
            dim=2, num_points=20, num_runs=4
        )
        result = e11_dense_gradients.run(config)
        _check_shape(result, "E11")
        assert result.passed
        # Exactly one dense and one sparse row.
        labels = [row[0] for row in result.table.rows]
        assert any("dense" in label for label in labels)
        assert any("sparse" in label for label in labels)

    def test_e12(self):
        config = e12_sparsity.E12Config(
            nonzeros=[2, 8], num_runs=2, iterations=250
        )
        result = e12_sparsity.run(config)
        _check_shape(result, "E12")
        assert result.passed
        errors = result.series["mean view error"]
        assert errors[-1] > errors[0]

    def test_f1(self):
        result = f1_figure.run(f1_figure.F1Config())
        _check_shape(result, "F1")
        assert result.passed
        assert "#" in result.notes and "o" in result.notes

    def test_a1(self):
        config = a1_ablations.A1Config(num_runs=2, iterations=400)
        result = a1_ablations.run(config)
        _check_shape(result, "A1")
        assert result.passed

    def test_a2(self):
        config = a2_consistency.A2Config(thread_counts=[1, 6], iterations=150)
        result = a2_consistency.run(config)
        _check_shape(result, "A2")
        assert result.passed
        lf = result.series["lock-free steps/iter"]
        sn = result.series["snapshot steps/iter"]
        assert all(s > l for l, s in zip(lf, sn))
