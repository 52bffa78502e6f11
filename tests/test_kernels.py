import numpy as np
import pytest

from spinpaths.kernels import SUBSET_BLOCK, det_product_sum

RNG = np.random.default_rng(7)


def random_inputs(nsets, nvar):
    phis = RNG.uniform(-np.pi, np.pi, size=(nsets, nvar))
    mu_l = np.sort(RNG.choice(20, size=nvar, replace=False))[::-1].copy()
    mu_r = np.sort(RNG.choice(20, size=nvar, replace=False))[::-1].copy()
    weights = RNG.normal(size=nsets) + 1j * RNG.normal(size=nsets)
    return phis, mu_l, mu_r, weights


def brute(phis, mu_l, mu_r, weights):
    acc = 0.0 + 0.0j
    for s in range(phis.shape[0]):
        a = np.exp(1j * np.outer(phis[s], mu_l))
        b = np.exp(-1j * np.outer(phis[s], mu_r))
        acc += weights[s] * np.linalg.det(a) * np.linalg.det(b)
    return acc


@pytest.mark.parametrize("nsets,nvar", [(1, 1), (3, 2), (10, 3), (6, 4)])
def test_kernel_matches_brute_force(nsets, nvar):
    phis, mu_l, mu_r, weights = random_inputs(nsets, nvar)
    got = det_product_sum(phis, mu_l, mu_r, weights)
    want = brute(phis, mu_l, mu_r, weights)
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_multi_block_stack_matches_brute_force():
    """A stack spanning several blocks, the last one partial."""
    phis, mu_l, mu_r, weights = random_inputs(2 * SUBSET_BLOCK + 5, 3)
    got = det_product_sum(phis, mu_l, mu_r, weights)
    want = brute(phis, mu_l, mu_r, weights)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_empty_variable_case():
    weights = np.array([1.0 + 2.0j, 3.0])
    got = det_product_sum(np.zeros((2, 0)), [], [], weights)
    assert got == pytest.approx(4.0 + 2.0j)


def test_shape_validation():
    with pytest.raises(ValueError):
        det_product_sum(np.zeros((2, 2)), [1], [2, 1], np.ones(2))
