"""Random streams and the complex Gaussian sampler."""

import tracemalloc

import numpy as np
import pytest

from seqamp.rng import complex_normal, stream

SHAPES = [(7,), (13, 5), (400, 2000)]
SCALES = [1.0, np.sqrt(0.5), np.sqrt(0.5 / 400)]


def expression(rng, shape, scale):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def traced_peak(draw):
    """Peak of traced allocations while ``draw()`` runs, in bytes."""
    tracemalloc.start()
    try:
        draw()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestComplexNormal:
    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_bit_equal_to_expression(self, shape, scale):
        ref_rng, rng = stream(5, 1, "cn"), stream(5, 1, "cn")
        want = expression(ref_rng, shape, scale)
        got = complex_normal(rng, shape, scale)
        assert got.dtype == want.dtype and got.shape == want.shape
        # uint64 views compare every bit, the signs of zeros included
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # the generator is left in the same state
        assert rng.standard_normal() == ref_rng.standard_normal()

    @pytest.mark.parametrize("shape", SHAPES[1:])
    def test_transposed_out_gets_the_same_bits(self, shape):
        # state evolution keeps its (M, T) draws as contiguous (T, M) rows
        want = complex_normal(stream(5, 1, "cn"), shape, np.sqrt(0.5))
        buf = np.empty(shape[::-1], dtype=complex)
        got = complex_normal(stream(5, 1, "cn"), shape, np.sqrt(0.5), out=buf.T)
        assert got.base is buf
        assert np.array_equal(buf.view(np.uint64),
                              np.ascontiguousarray(want.T).view(np.uint64))

    def test_peak_memory_is_one_and_a_half_results(self):
        shape, scale = (400, 2000), np.sqrt(0.5 / 400)
        nbytes = np.empty(shape, dtype=complex).nbytes
        peak = traced_peak(lambda: complex_normal(stream(5, 1, "cn"), shape, scale))
        assert peak <= 1.6 * nbytes
        # the expression it replaces holds two results' worth at its peak
        peak_expr = traced_peak(lambda: expression(stream(5, 1, "cn"), shape, scale))
        assert peak_expr >= 1.9 * nbytes
