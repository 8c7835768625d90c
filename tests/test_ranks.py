"""Average ranks in numpy against scipy.stats.rankdata, bit for bit.

average_ranks replaced rankdata(method="average") in spearman and
quantile_normalize. The scipy-based bodies of both are kept here as
oracles, and every comparison is == or array_equal, never approx: the
golden normalized matrices and the score reports pin ranks to the bit.
"""

import numpy as np
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from refgame import AssociationMatrix, quantile_normalize, spearman
from refgame.association import ZERO_FLOOR, average_ranks

from conftest import make_lexicon

# values drawn from a small pool tie heavily; the pool holds both zeros,
# both infinities and integer-valued floats
FINITE_TIED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 3.0, 0.5, 1e-7])
TIED = st.one_of(FINITE_TIED, st.sampled_from([np.inf, -np.inf]))
ELEMENTS = st.one_of(TIED, st.floats(allow_nan=False))
FINITE_ELEMENTS = st.one_of(FINITE_TIED, st.floats(allow_nan=False, allow_infinity=False))


def vectors(min_size, max_size=300):
    return hnp.arrays(np.float64, st.integers(min_size, max_size), elements=ELEMENTS)


# ---------------------------------------------------------------------------
# oracles: the scipy-based bodies

def scipy_spearman(x, y) -> float:
    rank_x = scipy.stats.rankdata(-x, method="average")
    rank_y = scipy.stats.rankdata(-y, method="average")
    if (rank_x == rank_x[0]).all() or (rank_y == rank_y[0]).all():
        return 0.0
    rank_x = rank_x - rank_x.mean()
    rank_y = rank_y - rank_y.mean()
    return float((rank_x @ rank_y) / np.sqrt((rank_x @ rank_x) * (rank_y @ rank_y)))


def scipy_quantile_values(assoc: AssociationMatrix) -> np.ndarray:
    flat = assoc.raw.ravel()
    ranks = scipy.stats.rankdata(flat, method="average")
    values = (ranks / flat.size).reshape(assoc.raw.shape)
    values[assoc.zero_mask] = ZERO_FLOOR
    return values


# ---------------------------------------------------------------------------
# average_ranks

@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(values=vectors(1))
def test_average_ranks_match_rankdata(values):
    ranks = average_ranks(values)
    expected = scipy.stats.rankdata(values, method="average")
    assert ranks.dtype == expected.dtype == np.float64
    assert np.array_equal(ranks, expected)


def test_average_ranks_hand_cases():
    assert average_ranks(np.array([7.0])).tolist() == [1.0]
    assert average_ranks(np.array([0.0, -0.0, 0.0])).tolist() == [2.0, 2.0, 2.0]
    assert average_ranks(np.array([np.inf, 1.0, -np.inf, 1.0])).tolist() == [4.0, 2.5, 1.0, 2.5]


def test_average_ranks_not_exported():
    import refgame

    assert not hasattr(refgame, "average_ranks")


# ---------------------------------------------------------------------------
# spearman

@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data(), size=st.integers(2, 300))
def test_spearman_matches_scipy_body(data, size):
    x = data.draw(vectors(size, size))
    y = data.draw(vectors(size, size))
    assert spearman(x, y) == scipy_spearman(x, y)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data(), size=st.integers(2, 40), constant=TIED)
def test_spearman_constant_vector_matches_scipy_body(data, size, constant):
    x = np.full(size, constant)
    y = data.draw(vectors(size, size))
    assert spearman(x, y) == scipy_spearman(x, y) == 0.0
    assert spearman(y, x) == scipy_spearman(y, x) == 0.0


# ---------------------------------------------------------------------------
# quantile_normalize

@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    data=st.data(),
    shape=st.tuples(st.integers(1, 20), st.integers(1, 20)),
)
def test_quantile_normalize_matches_scipy_ranks(data, shape):
    raw = data.draw(hnp.arrays(np.float64, shape, elements=FINITE_ELEMENTS))
    mask = data.draw(hnp.arrays(np.bool_, shape))
    assoc = AssociationMatrix("m", make_lexicon(*shape), raw, mask)
    norm = quantile_normalize(assoc)
    assert np.array_equal(norm.values, scipy_quantile_values(assoc))
    assert np.array_equal(norm.zero_mask, mask)
