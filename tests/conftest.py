import numpy as np
import pytest

from hoggar import (
    conjugate_set,
    fourier_matrix,
    hadamard_sic_family,
    hoggar_family,
    sylvester_hadamard,
    tetrahedral_family,
)


@pytest.fixture(scope="session")
def hoggar_v():
    return hoggar_family()


@pytest.fixture(scope="session")
def hoggar_vbar(hoggar_v):
    return conjugate_set(hoggar_v)


@pytest.fixture(scope="session")
def tetra_v():
    return tetrahedral_family()


@pytest.fixture(scope="session")
def tetra_vbar(tetra_v):
    return conjugate_set(tetra_v)


@pytest.fixture(scope="session")
def fourier3_families():
    import math

    h = fourier_matrix(3)
    values = (0j, -2 + 0j, 1 + math.sqrt(3) * 1j, 1 - math.sqrt(3) * 1j)
    return [hadamard_sic_family(h, v) for v in values]


@pytest.fixture(scope="session")
def permuted_sylvester_family():
    """The d = 8 family over the Sylvester matrix with rows and columns permuted and sign-flipped."""
    rng = np.random.default_rng(8)
    signs = sylvester_hadamard(3).signs[rng.permutation(8)][:, rng.permutation(8)]
    signs = signs * rng.choice([-1, 1], 8)[:, None] * rng.choice([-1, 1], 8)[None, :]
    return hadamard_sic_family(signs, -1 + 2j)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def one_shot_haar():
    """The one-shot Haar draw, each state's d real parts then its d imaginary parts, that the sampler must reproduce bit for bit."""

    def draw(d, rng, size=None):
        n = 1 if size is None else int(size)
        x = rng.standard_normal((n, 2, d))
        z = x[:, 0] + 1j * x[:, 1]
        z /= np.linalg.norm(z, axis=1)[:, None]
        return z[0] if size is None else z

    return draw
