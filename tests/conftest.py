import numpy as np
import pytest

from hoggar import conjugate_set, fourier_matrix, hadamard_sic_family, hoggar_family, tetrahedral_family


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


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def one_shot_haar():
    """The one-shot Haar draw that the streamed sampler must reproduce bit for bit."""

    def draw(d, rng, size=None):
        n = 1 if size is None else int(size)
        z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        z /= np.linalg.norm(z, axis=1)[:, None]
        return z[0] if size is None else z

    return draw
