import numpy as np

from spinpaths.kernels import SUBSET_BLOCK, stacked_dets

RNG = np.random.default_rng(7)


def test_multi_block_stack_matches_brute_force():
    """A stack spanning several blocks, the last one partial."""
    shape = (2 * SUBSET_BLOCK + 5, 3, 3)
    mats = RNG.normal(size=shape) + 1j * RNG.normal(size=shape)
    got = stacked_dets(len(mats), lambda rows: mats[rows])
    assert np.array_equal(got, [np.linalg.det(a) for a in mats])
