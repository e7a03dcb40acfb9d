"""Two-level annealing caricature: exact gaps and time estimates."""

import math

import numpy as np
import pytest

from qubolattice.cartoon import (
    CartoonError,
    CartoonModel,
    lz_time,
    min_gap,
    report_rows,
    spectral_gap,
    two_level_hamiltonian,
)


class TestHamiltonian:
    def test_schedule_start_spectrum(self):
        h = two_level_hamiltonian(CartoonModel(4, 0.0))
        evals = np.linalg.eigvalsh(h)
        assert evals[0] == pytest.approx(-1.0, abs=1e-12)
        assert evals[1] == pytest.approx(0.0, abs=1e-12)

    def test_schedule_end_is_diagonal(self):
        h = two_level_hamiltonian(CartoonModel(4, 1.0))
        assert h[0, 1] == 0.0
        assert h[0, 0] == 0.0 and h[1, 1] == 1.0

    def test_midpoint_gap_quarter(self):
        assert spectral_gap(4, 0.5) == pytest.approx(0.25, abs=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(CartoonError):
            CartoonModel(0)
        with pytest.raises(CartoonError):
            CartoonModel(3, 1.5)


class TestMinGap:
    @pytest.mark.parametrize("n,expected", [(2, 0.5), (10, 2.0**-5), (1, math.sqrt(0.5))])
    def test_closed_form(self, n, expected):
        gap, s_star = min_gap(n)
        assert gap == pytest.approx(expected, abs=1e-9)
        assert s_star == pytest.approx(0.5, abs=1e-6)

    def test_exact_identity_across_sizes(self):
        for n in range(1, 21):
            gap, _ = min_gap(n)
            assert gap * gap * 2**n == pytest.approx(1.0, abs=1e-9)

    def test_refuses_n_whose_eps_underflows(self):
        # at N = 1074 eps is the least subnormal and the gap still sqrt(eps);
        # past it eps is 0.0, and the gap would be 0.0 too
        gap, _ = min_gap(1074)
        assert gap == 2.0**-537
        message = r"eps = 2\^-N underflows past N = 1074, got N = 1075"
        with pytest.raises(CartoonError, match=message):
            min_gap(1075)

    def test_every_gap_refuses_n_whose_eps_underflows(self):
        # the model refuses such N, so no entry point reads eps = 0.0
        message = r"eps = 2\^-N underflows past N = 1074, got N = 1075"
        with pytest.raises(CartoonError, match=message):
            spectral_gap(1075, 0.5)
        with pytest.raises(CartoonError, match=message):
            two_level_hamiltonian(CartoonModel(1075, 0.5))

    def test_no_crossing_on_grid(self):
        svals = np.linspace(0.0, 1.0, 10_001)
        gaps = [spectral_gap(6, s) for s in svals]
        assert min(gaps) > 0.0


class TestLzTime:
    def test_linear_and_optimal(self):
        assert lz_time(4, "linear") == 16.0
        assert lz_time(4, "optimal") == 4.0

    def test_trivial_size(self):
        assert lz_time(0, "linear") == 1.0
        assert lz_time(0, "optimal") == 1.0

    def test_unknown_schedule(self):
        with pytest.raises(CartoonError):
            lz_time(4, "adiabatic")

    @pytest.mark.parametrize(
        "schedule, largest, tau",
        [("linear", 1023, 2.0**1023), ("optimal", 2047, 2.0**1023 * 2**0.5)],
        ids=["linear", "optimal"],
    )
    def test_refuses_n_whose_time_overflows(self, schedule, largest, tau):
        assert lz_time(largest, schedule) == tau
        message = f"overflows past N = {largest}, got N = {largest + 1}"
        with pytest.raises(CartoonError, match=message):
            lz_time(largest + 1, schedule)

    def test_optimal_is_the_root_of_linear(self):
        for n in range(1024):
            assert lz_time(n, "optimal") == math.sqrt(lz_time(n, "linear"))

    def test_report_rows(self):
        rows = report_rows([1, 2])
        assert rows[0]["tau_linear"] == 2.0
        assert rows[1]["gap"] == pytest.approx(0.5, abs=1e-9)
