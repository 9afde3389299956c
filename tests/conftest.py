import numpy as np
import pytest

from ekstat.kober import MultiDensity


@pytest.fixture(scope="session")
def unit_mass():
    """``unit_mass(k)``: the point mass at (1, ..., 1).  As an identity's f
    it makes ``simulate`` return the ratio coordinates y (second kind) or
    1/y (first kind) of the same mixing draws as the default f, which
    ``simulate`` draws before f's."""
    def density(k):
        return MultiDensity(dim=k, pdf=None, from_uniforms=lambda gen, count: np.ones((count, k)),
                            name="unit-mass")
    return density
