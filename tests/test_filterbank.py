"""Filter design values checked against direct transfer-function evaluation.

The oracle route expands the designed second-order sections into full
numerator/denominator polynomials and evaluates H(e^{jw}) with polyval,
independent of the design code.
"""

import numpy as np
import pytest
from scipy import signal as sps

from specblend.filterbank import (
    DEFAULT_BANDS,
    DEFAULT_ORDER,
    apply_bank,
    design_bandpass,
    make_filter_bank,
    zero_phase_filter,
)
from specblend.trialdata import SynthSpec, generate_synthetic
from tests.support.oracles import ba_response, loop_bank, sos_to_ba


def oracle_gain(design, freq):
    b, a = sos_to_ba(design.sos)
    return abs(ba_response(b, a, freq, design.fs))


def tone_amplitude(y, freq, fs, sl):
    """Amplitude of the ``freq`` component over slice ``sl`` (whole
    periods assumed), by quadrature demodulation.  Peak samples of a
    discretely sampled sine undershoot the true amplitude, so a plain
    max over samples would misread the gain."""
    n = np.arange(len(y))[sl]
    return 2.0 * abs(np.mean(y[sl] * np.exp(-2j * np.pi * freq * n / fs)))


class TestDesignBandpass:
    def test_default_band_count_and_edges(self):
        assert len(DEFAULT_BANDS) == 9
        assert DEFAULT_BANDS[0] == (4.0, 8.0)
        assert DEFAULT_BANDS[-1] == (36.0, 40.0)
        # contiguous, non-overlapping
        for (lo0, hi0), (lo1, hi1) in zip(DEFAULT_BANDS, DEFAULT_BANDS[1:]):
            assert hi0 == lo1

    def test_section_count_equals_order(self):
        d = design_bandpass(8, 12, 5, 100)
        assert d.sos.shape == (5, 6)

    def test_passband_and_edge_gains(self):
        """Single-pass |H| near 1 at band center, 1/sqrt(2) at the edges."""
        d = design_bandpass(8, 12, 5, 100)
        assert 0.98 <= oracle_gain(d, 10.0) <= 1.0 + 1e-9  # polyval rounding
        for edge in (8.0, 12.0):
            g = oracle_gain(d, edge)
            assert 0.69 <= g <= 0.72
            # analytic -3 dB property of the Butterworth edge
            assert abs(g - 1 / np.sqrt(2)) <= 0.02 / np.sqrt(2)

    def test_dc_zero(self):
        d = design_bandpass(4, 8, 5, 100)
        assert oracle_gain(d, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_all_bands_stable(self):
        for lo, hi in DEFAULT_BANDS:
            d = design_bandpass(lo, hi, 5, 100)
            for _, _, _, _, a1, a2 in d.sos:
                assert np.abs(np.roots([1.0, a1, a2])).max() < 1.0

    def test_bad_edges_rejected(self):
        for lo, hi in ((0.0, 8.0), (12.0, 8.0), (8.0, 50.0), (-4.0, 8.0)):
            with pytest.raises(ValueError):
                design_bandpass(lo, hi, 5, 100)


class TestZeroPhaseFilter:
    def test_constant_input_suppressed(self):
        d = design_bandpass(8, 12, 5, 100)
        y = zero_phase_filter(np.ones(400), d)
        assert np.abs(y).max() <= 1e-3

    def test_passband_sine_amplitude(self):
        """10 Hz sine through (8,12): central amplitude = |H(10)|^2."""
        d = design_bandpass(8, 12, 5, 100)
        n = np.arange(400)
        y = zero_phase_filter(np.sin(2 * np.pi * 10 * n / 100), d)
        amp = tone_amplitude(y, 10, 100, slice(100, 300))
        assert 0.96 <= amp <= 1.0
        assert amp == pytest.approx(oracle_gain(d, 10.0) ** 2, abs=1e-3)

    def test_stopband_sine_suppressed(self):
        d = design_bandpass(8, 12, 5, 100)
        n = np.arange(400)
        y = zero_phase_filter(np.sin(2 * np.pi * 30 * n / 100), d)
        assert np.abs(y[100:300]).max() <= 0.01

    def test_zero_lag_cross_correlation(self):
        """No phase shift: correlation of a band-limited input with its
        filtered output peaks at lag 0.  Band-limited noise, not a pure
        tone, so the correlation has a unique maximum."""
        d = design_bandpass(8, 12, 5, 100)
        rng = np.random.default_rng(0)
        x_band = zero_phase_filter(rng.standard_normal(600), d)
        y = zero_phase_filter(x_band, d)
        xc = np.correlate(x_band[50:-50], y, mode="valid")
        assert np.argmax(xc) == 50

    def test_too_short_signal_rejected(self):
        d = design_bandpass(8, 12, 5, 100)
        with pytest.raises(ValueError, match="too short"):
            zero_phase_filter(np.zeros(30), d)  # needs > 3*(2*5) = 30


def scipy_zero_phase(x, design):
    return sps.sosfiltfilt(design.sos, x, padtype="odd", padlen=6 * design.order)


@pytest.mark.parametrize("fs", [100.0, 250.0])
class TestPinnedToScipy:
    """The stored-state filter is ``sosfiltfilt`` with odd padding, bit
    for bit, on every default band."""

    def inputs(self, fs):
        rng = np.random.default_rng(int(fs))
        t = int(4 * fs)
        stack = rng.standard_normal((3, 5, t))
        return {
            "1-d": stack[0, 0],
            "2-d": stack[0],
            "3-d": stack,
            "integer": rng.integers(-60, 61, size=(5, t)),
            "strided slice": stack[:, ::2, 1::2],
        }

    def test_stored_state_is_sosfilt_zi(self, fs):
        for design in make_filter_bank(fs).designs:
            assert np.array_equal(design.zi, sps.sosfilt_zi(design.sos))

    def test_zero_phase_filter_equals_sosfiltfilt(self, fs):
        for name, x in self.inputs(fs).items():
            for design in make_filter_bank(fs).designs:
                assert np.array_equal(zero_phase_filter(x, design),
                                      scipy_zero_phase(x, design)), name

    def test_apply_bank_equals_sosfiltfilt(self, fs):
        bank = make_filter_bank(fs)
        for name, x in self.inputs(fs).items():
            if x.ndim < 2:
                continue
            out = apply_bank(x, bank)
            for b, design in enumerate(bank.designs):
                assert np.array_equal(out[..., b, :, :],
                                      scipy_zero_phase(x, design)), name


class TestApplyBank:
    def test_shape(self):
        bank = make_filter_bank(100.0)
        x = np.random.default_rng(1).standard_normal((3, 8, 400))
        assert apply_bank(x[0], bank).shape == (9, 8, 400)
        assert apply_bank(x, bank).shape == (3, 9, 8, 400)

    def test_stack_matches_channel_loop_bit_for_bit(self):
        """One filter call per band over a trial stack gives exactly the
        numbers of filtering each channel of each trial on its own."""
        bank = make_filter_bank(100.0)
        trials = generate_synthetic(
            SynthSpec(n_subjects=1, trials_per_class_per_session=3, seed=12)
        ).signals
        assert np.array_equal(apply_bank(trials, bank), loop_bank(trials, bank))

    def test_pure_tone_energy_lands_in_its_band(self):
        """10 Hz tone: band (8,12) dominates, others carry <= 2%."""
        bank = make_filter_bank(100.0)
        n = np.arange(400)
        trial = np.tile(np.sin(2 * np.pi * 10 * n / 100), (2, 1))
        out = apply_bank(trial, bank)
        energy = (out[:, 0, 100:300] ** 2).sum(axis=1)
        ref = energy[1]
        assert np.argmax(energy) == 1
        for k in range(9):
            if k != 1:
                assert energy[k] <= 0.02 * ref

    def test_zero_in_zero_out(self):
        bank = make_filter_bank(100.0)
        out = apply_bank(np.zeros((3, 200)), bank)
        assert np.all(out == 0.0)

    def test_linearity(self):
        bank = make_filter_bank(100.0)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 200))
        y = rng.standard_normal((2, 200))
        lhs = apply_bank(2.5 * x - 1.5 * y, bank)
        rhs = 2.5 * apply_bank(x, bank) - 1.5 * apply_bank(y, bank)
        scale = np.abs(lhs).max()
        assert np.abs(lhs - rhs).max() <= 1e-9 * max(scale, 1.0)

    @pytest.mark.parametrize("shape", [(8,), (4, 8)], ids=["one_trial", "stack"])
    def test_padlen_samples_rejected(self, shape):
        """The shared extension keeps the length check: a trial of exactly
        ``padlen`` samples (30 at order 5) cannot be padded."""
        bank = make_filter_bank(100.0)
        padlen = 3 * (2 * DEFAULT_ORDER)
        assert bank.designs[0].padlen == padlen == 30
        with pytest.raises(ValueError, match="too short for padding length 30"):
            apply_bank(np.ones(shape + (padlen,)), bank)
        assert apply_bank(np.ones(shape + (padlen + 1,)), bank).shape[-1] == padlen + 1

    def test_missing_channel_axis_rejected(self):
        with pytest.raises(ValueError, match="channels, samples"):
            apply_bank(np.zeros(200), make_filter_bank(100.0))
