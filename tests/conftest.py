import numpy as np
import pytest

from lans_alpha import SpectralField, build_basis, sobolev_norms


@pytest.fixture
def basis1():
    return build_basis(2 * np.pi, 1)


@pytest.fixture
def basis2():
    return build_basis(2 * np.pi, 2)


@pytest.fixture
def basis8():
    # above the crossover: the nonlinearity takes the pseudo-spectral route
    return build_basis(2 * np.pi, 8)


def rand_field(basis, rng, scale=1.0):
    return SpectralField(basis, scale * rng.standard_normal(basis.mode_count))


def vnorm(u):
    return sobolev_norms(u)[1]
