import numpy as np
import pytest

from ekstat.kober import MultiDensity
from ekstat.mc_oracle import default_density


@pytest.fixture(scope="session")
def unit_mass():
    """``unit_mass(k)``: the point mass at (1, ..., 1), drawn from as many
    uniform columns as ``default_density(k)``.  As an identity's f it makes
    ``simulate`` return the ratio coordinates y (second kind) or 1/y (first
    kind) of the same mixing draws as the default f."""
    def density(k):
        return MultiDensity(dim=k, pdf=None, uniform_cols=default_density(k).uniform_cols,
                            from_uniforms=lambda u: np.ones((len(u), k)), name="unit-mass")
    return density
