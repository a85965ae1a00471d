"""Two-path envelope geometry and antenna-pair correlation."""

import math
import re

import numpy as np
import pytest

from depbound.errors import NumericalError
from depbound.tworay import (
    EnvelopeError,
    MomentError,
    TwoRayGeometry,
    empirical_correlation,
    envelope,
    envelope_correlation,
    envelope_trace,
    path_lengths,
)

# Shared mast: 2 GHz carrier, transmitter at 10 m, lower antenna at 1 m.
def _mast(dh, a1=1.0, a2=0.5):
    return TwoRayGeometry(a1=a1, a2=a2, f=2.0e9, h_tx=10.0, h1=1.0, dh=dh)


class TestGeometry:
    def test_path_lengths_hand_value(self):
        geom = _mast(dh=0.05)
        s_los, s_nlos = path_lengths(geom, 30.0, antenna=1)
        assert s_los == pytest.approx(math.sqrt(981.0), rel=1e-15)
        assert s_nlos == pytest.approx(math.sqrt(1021.0), rel=1e-15)

    def test_reflected_path_is_longer(self):
        geom = _mast(dh=0.05)
        d = np.geomspace(0.5, 5_000.0, 200)
        for antenna in (1, 2):
            s_los, s_nlos = path_lengths(geom, d, antenna)
            assert np.all(s_nlos > s_los)

    def test_antenna_heights(self):
        geom = _mast(dh=0.3)
        assert geom.antenna_height(1) == 1.0
        assert geom.antenna_height(2) == pytest.approx(1.3)
        with pytest.raises(ValueError):
            geom.antenna_height(3)

    def test_equal_tx_rx_heights(self):
        geom = TwoRayGeometry(a1=1.0, a2=1.0, f=1e9, h_tx=2.0, h1=2.0, dh=1.0)
        s_los, s_nlos = path_lengths(geom, 7.0, antenna=1)
        assert s_los == pytest.approx(7.0)
        assert s_nlos == pytest.approx(math.hypot(7.0, 4.0))


class TestEnvelope:
    def test_stays_inside_attainable_band(self):
        geom = _mast(dh=0.1)
        lo, hi = geom.envelope_range()
        _, x1, x2 = envelope_trace(geom, np.linspace(5.0, 500.0, 20_000))
        for x in (x1, x2):
            assert np.all(x >= lo - 1e-12)
            assert np.all(x <= hi + 1e-12)
        # The band is nearly filled once enough fringes are crossed.
        assert x1.min() < lo + 0.02 * (hi - lo)
        assert x1.max() > hi - 0.02 * (hi - lo)

    def test_zero_reflection_is_constant(self):
        geom = _mast(dh=0.1, a2=0.0)
        x = envelope(geom, np.linspace(10.0, 100.0, 500), antenna=1)
        assert np.all(x == pytest.approx(1.0))

    def test_zero_spacing_duplicates_antenna(self):
        geom = _mast(dh=0.0)
        _, x1, x2 = envelope_trace(geom, np.linspace(20.0, 50.0, 2_000))
        assert np.array_equal(x1, x2)

    def test_scalar_matches_vector(self):
        geom = _mast(dh=0.05)
        xs = envelope(geom, np.array([20.0, 33.0]), antenna=2)
        assert envelope(geom, 33.0, antenna=2) == pytest.approx(float(xs[1]), rel=1e-15)
        assert isinstance(envelope(geom, 33.0, antenna=2), float)


class TestCorrelation:
    def test_close_spacing_couples_positively(self):
        rho = envelope_correlation(_mast(dh=0.05), 20.0, 50.0, 20_000)
        assert rho == pytest.approx(0.3105, abs=0.05)

    def test_wider_spacing_flips_sign(self):
        rho = envelope_correlation(_mast(dh=0.1), 20.0, 50.0, 20_000)
        assert rho == pytest.approx(-0.6414, abs=0.05)

    def test_grid_refinement_is_stable(self):
        coarse = envelope_correlation(_mast(dh=0.05), 20.0, 50.0, 20_000)
        fine = envelope_correlation(_mast(dh=0.05), 20.0, 50.0, 40_000)
        assert abs(coarse - fine) < 0.01

    def test_zero_spacing_is_perfectly_correlated(self):
        assert envelope_correlation(_mast(dh=0.0), 20.0, 50.0, 5_000) == pytest.approx(1.0)

    def test_antenna_order_is_immaterial(self):
        # Moving the window so the roles of the two antennas swap must
        # leave the (symmetric) correlation unchanged.
        rho_up = envelope_correlation(_mast(dh=0.07), 20.0, 50.0, 10_000)
        swapped = TwoRayGeometry(a1=1.0, a2=0.5, f=2.0e9, h_tx=10.0, h1=1.07, dh=-0.07)
        rho_down = envelope_correlation(swapped, 20.0, 50.0, 10_000)
        assert rho_up == pytest.approx(rho_down, abs=1e-12)

    def test_constant_envelope_has_no_correlation(self):
        with pytest.raises(ValueError, match="variance"):
            envelope_correlation(_mast(dh=0.05, a2=0.0), 20.0, 50.0, 1_000)


class TestValidation:
    def test_geometry_domain(self):
        with pytest.raises(ValueError):
            TwoRayGeometry(a1=-1.0, a2=0.5, f=2e9, h_tx=10.0, h1=1.0, dh=0.05)
        with pytest.raises(ValueError):
            TwoRayGeometry(a1=1.0, a2=0.5, f=0.0, h_tx=10.0, h1=1.0, dh=0.05)
        with pytest.raises(ValueError):
            TwoRayGeometry(a1=1.0, a2=0.5, f=2e9, h_tx=0.0, h1=1.0, dh=0.05)
        with pytest.raises(ValueError):
            TwoRayGeometry(a1=1.0, a2=0.5, f=2e9, h_tx=10.0, h1=1.0, dh=-1.0)
        # Infinite or NaN fields passed the sign checks and gave NaN envelopes.
        inf, nan = math.inf, math.nan
        for bad in ({"f": inf}, {"a1": inf}, {"a2": inf}, {"h_tx": inf}, {"h1": inf}, {"dh": inf},
                    {"dh": nan}):
            with pytest.raises(ValueError, match="finite"):
                TwoRayGeometry(**{"a1": 1.0, "a2": 0.5, "f": 2e9, "h_tx": 10.0, "h1": 1.0, "dh": 0.05, **bad})

    def test_distance_domain(self):
        geom = _mast(dh=0.05)
        with pytest.raises(ValueError):
            path_lengths(geom, 0.0, antenna=1)
        with pytest.raises(ValueError):
            envelope(geom, -3.0, antenna=1)
        with pytest.raises(ValueError):
            envelope_trace(geom, np.array([1.0, 1.0, 2.0]))
        with pytest.raises(ValueError):
            envelope_trace(geom, np.array([]))

    def test_correlation_window(self):
        geom = _mast(dh=0.05)
        with pytest.raises(ValueError):
            envelope_correlation(geom, 50.0, 20.0, 1_000)
        with pytest.raises(ValueError):
            envelope_correlation(geom, 20.0, 50.0, 99)

    @pytest.mark.parametrize("n", [150.9, "150"])
    def test_correlation_count_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="integer"):
            envelope_correlation(_mast(dh=0.05), 20.0, 50.0, n)

    def test_correlation_takes_a_numpy_integer_count(self):
        geom = _mast(dh=0.05)
        assert envelope_correlation(geom, 20.0, 50.0, np.int64(150)) == envelope_correlation(geom, 20.0, 50.0, 150)


class TestNonFiniteEnvelope:
    """Finite fields whose envelope leaves the float range raise a typed error, never a warning."""

    @pytest.mark.parametrize("fields", [
        {"f": 1e308}, {"h_tx": 1e308, "h1": 1e308}, {"a1": 1e200, "a2": 1e200},
    ], ids=["f", "heights", "amplitudes"])
    def test_trace_names_the_first_distance(self, fields):
        geom = TwoRayGeometry(**{"a1": 1.0, "a2": 0.5, "f": 2e9, "h_tx": 10.0, "h1": 1.0, "dh": 0.05, **fields})
        with pytest.raises(EnvelopeError, match=r"^envelope is not finite at distance 20\.0$") as info:
            envelope_trace(geom, np.array([20.0, 35.0, 50.0]))
        assert isinstance(info.value, NumericalError)
        with pytest.raises(EnvelopeError):
            envelope_correlation(geom, 20.0, 50.0, 1_000)

    def test_envelope_is_inf_or_nan_without_a_warning(self):
        # The suite turns RuntimeWarning into an error, so a warning fails here.
        geom = TwoRayGeometry(a1=1.0, a2=0.5, f=1e308, h_tx=10.0, h1=1.0, dh=0.05)
        assert math.isnan(envelope(geom, 20.0, antenna=1))
        assert envelope(_mast(dh=0.05, a1=1e200, a2=0.0), 20.0, antenna=1) == math.inf

    def test_trace_names_the_first_bad_distance(self):
        # a1^2 + a2^2 fits a float; the envelope overflows where cos(omega dtau) > 0.83.
        geom = _mast(dh=0.05, a1=0.7e154, a2=0.7e154)
        d = np.linspace(22.0, 50.0, 281)
        first = min(d[~np.isfinite(envelope(geom, d, antenna))][0] for antenna in (1, 2))
        assert first > d[0]
        _, x1, x2 = envelope_trace(geom, d[d < first])
        assert np.isfinite(x1).all() and np.isfinite(x2).all()
        with pytest.raises(EnvelopeError, match=f"at distance {re.escape(repr(float(first)))}$"):
            envelope_trace(geom, d)

    def test_envelope_range_is_inf_without_an_overflow_error(self):
        # Squaring the Python floats raised OverflowError.
        assert _mast(dh=0.05, a1=1e200, a2=1e200).envelope_range() == (0.0, math.inf)
        assert _mast(dh=0.05, a1=1e200, a2=0.0).envelope_range() == (math.inf, math.inf)
        assert _mast(dh=0.05).envelope_range() == (0.25, 2.25)

    def test_overflowing_moments_are_numerical_error(self):
        # Finite envelopes whose squared deviations overflow: a NumericalError,
        # still a ValueError for callers that caught the old type.
        geom = _mast(dh=0.05, a1=5e153, a2=5e153)
        with pytest.raises(MomentError, match="^moments do not fit a float: ") as info:
            envelope_correlation(geom, 20.0, 50.0, 1_000)
        assert isinstance(info.value, NumericalError) and isinstance(info.value, ValueError)
        with pytest.raises(MomentError):
            empirical_correlation(1e200 * np.arange(5.0), np.arange(5.0))
