import numpy as np
import pytest

from vorbo.sampling import lhs, sobol

# --- reference Sobol construction (direction numbers, Gray-code order) ----
#
# Primitive-polynomial table for dimensions 2..4: degree s, coefficient bits
# a, and initial odd direction integers m.  Dimension 1 is the van der
# Corput sequence (all m_k = 1).  Points are generated in Gray-code order:
# x_0 = 0, x_i = x_{i-1} XOR V[ctz(i)].

_POLY = {2: (1, 0, [1]), 3: (2, 1, [1, 3]), 4: (3, 1, [1, 3, 1])}
_BITS = 30


def _direction_numbers(dim: int) -> np.ndarray:
    v = np.zeros((dim, _BITS + 1), dtype=np.uint64)
    for k in range(1, _BITS + 1):
        v[0, k] = 1 << (_BITS - k)
    for d in range(2, dim + 1):
        s, a, m = _POLY[d]
        m = list(m)
        for k in range(s, _BITS):
            new = m[k - s] ^ (m[k - s] << s)
            for i in range(1, s):
                if (a >> (s - 1 - i)) & 1:
                    new ^= m[k - i] << i
            m.append(new)
        for k in range(1, _BITS + 1):
            v[d - 1, k] = np.uint64(m[k - 1]) << np.uint64(_BITS - k)
    return v


def _reference_sobol(n: int, dim: int) -> np.ndarray:
    v = _direction_numbers(dim)
    pts = np.zeros((n, dim))
    state = np.zeros(dim, dtype=np.uint64)
    for i in range(1, n):
        low = 1
        j = i - 1
        while j & 1:
            j >>= 1
            low += 1
        state ^= v[:, low]
        pts[i] = state / float(1 << _BITS)
    return pts


# --------------------------------- LHS ------------------------------------


def test_lhs_stratification():
    # exactly one point per axis stratum, every axis
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(1, 60))
        dim = int(rng.integers(1, 8))
        pts = lhs(n, dim, rng)
        assert pts.shape == (n, dim)
        for j in range(dim):
            strata = np.sort(np.floor(pts[:, j] * n).astype(int))
            np.testing.assert_array_equal(strata, np.arange(n))


def test_lhs_determinism_and_seed_recording():
    np.testing.assert_array_equal(lhs(17, 3, 123), lhs(17, 3, 123))
    # a seed and a Generator made from it draw the same sample
    np.testing.assert_array_equal(lhs(4, 2, 5), lhs(4, 2, np.random.default_rng(5)))


def test_lhs_range_and_errors():
    pts = lhs(50, 4, 7)
    assert pts.min() >= 0.0 and pts.max() < 1.0
    with pytest.raises(ValueError):
        lhs(0, 3, 1)
    with pytest.raises(ValueError):
        lhs(5, 0, 1)


# -------------------------------- Sobol ------------------------------------


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_sobol_matches_reference_construction(dim):
    want = _reference_sobol(9, dim)[1:]  # indices 1..8
    got = sobol(8, dim, start_index=1)
    np.testing.assert_array_equal(got, want)


def test_sobol_frozen_first_points_2d():
    got = sobol(4, 2, start_index=0)
    want = np.array([[0.0, 0.0], [0.5, 0.5], [0.75, 0.25], [0.25, 0.75]])
    np.testing.assert_array_equal(got, want)


def test_sobol_default_skips_origin():
    got = sobol(3, 1)[:, 0]
    np.testing.assert_array_equal(got, [0.5, 0.75, 0.25])


def test_sobol_start_index_slices_the_sequence():
    full = sobol(40, 3, start_index=0)
    np.testing.assert_array_equal(sobol(8, 3, start_index=17), full[17:25])


def test_sobol_errors():
    with pytest.raises(ValueError):
        sobol(0, 2)
    with pytest.raises(ValueError):
        sobol(4, 0)
    with pytest.raises(ValueError):
        sobol(4, 2, start_index=-1)
