import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from horizonfv import (
    Background,
    build_fhat_table,
    build_uniform_mesh,
    burgers_model,
    polynomial_model,
)

# The same examples on every run, no example database, and Hypothesis's other
# files (its cache of the constants in the source) outside the repository.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", str(Path(tempfile.gettempdir()) / "horizonfv-hypothesis"))


@pytest.fixture(scope="session")
def burgers():
    return burgers_model()


@pytest.fixture(scope="session")
def fhat_table(burgers):
    return build_fhat_table(burgers)


@pytest.fixture(scope="session")
def quartic():
    # f = s**4/2 - 1/2, h = 0: same structure as the built-in model with a
    # flatter interior; exact floating-point roots at +/-1
    return polynomial_model("quartic", [-0.5, 0.0, 0.0, 0.0, 0.5], [0.0])


@pytest.fixture(scope="session")
def sextic():
    # f = -(5/3)(1 - s**2)**3 + s**2/2 - 1/2, h = 0: admissible, with a flat
    # stretch of f' around s = 0.5
    return polynomial_model("sextic", (-13 / 6, 0.0, 5.5, 0.0, -5.0, 0.0, 5 / 3), [0.0])


@pytest.fixture(scope="session")
def shifted():
    # f = s**2/2, h = -1/2: nonzero boundary flux; f + h matches burgers
    return polynomial_model("shifted", [0.0, 0.0, 0.5], [-0.5])


@pytest.fixture(scope="session")
def rounding_quartic():
    # admissible; at the face u = -1, v = -0.9999999999999997 the rounded
    # divided difference of f lies one rounding below -sup |f'|
    return polynomial_model(
        "rounding", (-0.12346290358341949, 0.0, 0.7275546893920734, -0.2057840492951998,
                     -0.20922369131824364),
        (-0.44135811764457145, 0.05618056128241955, 0.28916955460848104, 0.14960348801278026,
         -0.2426795314543198))


@pytest.fixture(scope="session")
def structure_models(burgers, quartic, shifted):
    return [burgers, quartic, shifted]


@pytest.fixture
def mesh_m1():
    return build_uniform_mesh(Background(1.0), 12.0, 50)


@pytest.fixture
def mesh_flat():
    return build_uniform_mesh(Background(0.0), 10.0, 50)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
