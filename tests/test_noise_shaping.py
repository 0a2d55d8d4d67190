import numpy as np
import pytest

from unscodec import lp
from unscodec import noise_shaping as ns
from unscodec.config import CodecConfig

START, THRESHOLD = CodecConfig().ctns_start_bin, CodecConfig().ctns_threshold_db


def random_spectrum(rng, n=513):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_fdns_identity_envelope():
    rng = np.random.default_rng(0)
    x = random_spectrum(rng)
    assert np.allclose(ns.fdns_forward(x, np.ones(513)), x)


def test_fdns_simple_division():
    x = np.array([10.0 + 0.0j])
    assert ns.fdns_forward(x, np.array([10.0]))[0] == 1.0 + 0.0j


def test_fdns_rejects_nonpositive_envelope():
    with pytest.raises(ValueError):
        ns.fdns_forward(np.ones(4, dtype=complex), np.array([1.0, 0.0, 1.0, 1.0]))


def test_fdns_roundtrip():
    rng = np.random.default_rng(1)
    x = random_spectrum(rng)
    env = np.exp(rng.standard_normal(513))
    back = ns.fdns_inverse(ns.fdns_forward(x, env), env)
    assert np.max(np.abs(back - x) / np.abs(x)) < 1e-12


def test_ctns_zero_model_is_identity():
    rng = np.random.default_rng(2)
    x = random_spectrum(rng)
    out = ns.ctns_filter(x, np.zeros(16, dtype=complex), START)
    assert np.array_equal(out, x)


def test_ctns_annihilates_matched_exponential():
    rho = 0.95 * np.exp(0.3j)
    f = np.arange(513)
    x = 2.0 * rho ** f
    e = ns.ctns_filter(x, np.array([-rho]), start_bin=25)
    assert np.allclose(e[:25], x[:25])
    assert np.max(np.abs(e[25:512])) < 1e-12
    assert e[512] == x[512]


def test_ctns_filter_unfilter_roundtrip():
    rng = np.random.default_rng(3)
    x = random_spectrum(rng)
    # stable random model via shrunk reflection construction
    coeffs = 0.3 * (rng.standard_normal(16) + 1j * rng.standard_normal(16)) / np.arange(1, 17)
    e = ns.ctns_filter(x, coeffs, START)
    back = ns.ctns_unfilter(e, coeffs, START)
    assert np.max(np.abs(back - x)) < 1e-9


def test_ctns_nyquist_passthrough():
    rng = np.random.default_rng(4)
    x = random_spectrum(rng)
    e = ns.ctns_filter(x, np.array([0.5 + 0.0j]), START)
    assert e[512] == x[512]


def test_prediction_gain_identical_inputs():
    rng = np.random.default_rng(5)
    x = random_spectrum(rng)
    gain_db, active = ns.prediction_gain(x, x.copy(), START, THRESHOLD)
    assert gain_db == -100.0
    assert not active


def test_prediction_gain_fully_predicted():
    rng = np.random.default_rng(6)
    x = random_spectrum(rng)
    gain_db, active = ns.prediction_gain(x, np.zeros_like(x), START, THRESHOLD)
    assert abs(gain_db) < 1e-9
    assert active


def test_prediction_gain_ten_percent():
    rng = np.random.default_rng(7)
    x = random_spectrum(rng)
    # scale the difference to hold exactly 10% of the reference energy
    noise = random_spectrum(rng)
    seg = slice(25, 512)
    scale = np.sqrt(0.1 * np.sum(np.abs(x[seg]) ** 2) / np.sum(np.abs(noise[seg]) ** 2))
    gain_db, active = ns.prediction_gain(x, x - scale * noise, START, THRESHOLD)
    assert abs(gain_db + 10.0) < 1e-9
    assert not active


def test_prediction_gain_silent_band():
    x = np.zeros(513, dtype=complex)
    x[:10] = 1.0  # energy only below the filtered region
    gain_db, active = ns.prediction_gain(x, x, START, THRESHOLD)
    assert gain_db == -100.0
    assert not active


def test_prediction_gain_threshold_sides():
    rng = np.random.default_rng(8)
    x = random_spectrum(rng)
    noise = random_spectrum(rng)
    seg = slice(25, 512)

    def with_ratio_db(db):
        target = 10.0 ** (db / 10.0)
        scale = np.sqrt(target * np.sum(np.abs(x[seg]) ** 2)
                        / np.sum(np.abs(noise[seg]) ** 2))
        return ns.prediction_gain(x, x - scale * noise, START, THRESHOLD)[1]

    assert not with_ratio_db(-4.6)
    assert with_ratio_db(-4.4)


def test_filtered_energy_reduced_when_predictable():
    # strong frequency-course structure: complex LP should remove energy
    rng = np.random.default_rng(9)
    f = np.arange(513)
    x = (0.97 * np.exp(0.1j)) ** f * 5.0 + 0.05 * random_spectrum(rng)
    r = lp.autocorr(x[:512], 16)
    e = ns.ctns_filter(x, lp.bandwidth_expand(lp.levinson(r, 16), 0.9), START)
    assert ns.prediction_gain(x, e, START, THRESHOLD)[1]
    seg = slice(25, 512)
    assert np.sum(np.abs(e[seg]) ** 2) < np.sum(np.abs(x[seg]) ** 2)
