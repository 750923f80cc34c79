import numpy as np
import pytest

from fsrv.marginal import exponential_model, normal_model, uniform_model
from fsrv.seeds import Tabulated


@pytest.fixture(scope="session")
def exp_model():
    return exponential_model()


@pytest.fixture(scope="session")
def unif_model():
    return uniform_model()


@pytest.fixture(scope="session")
def norm_model():
    return normal_model()


@pytest.fixture(scope="session")
def triangle_seed():
    """Symmetric triangle density on [0, 2]; grid includes the apex, so the
    interpolant reproduces the triangle exactly (mean 1, variance 1/6)."""
    xs = np.linspace(0.0, 2.0, 17)
    nodes = np.where(xs <= 1.0, xs, 2.0 - xs)
    return Tabulated(0.0, 2.0, nodes)
