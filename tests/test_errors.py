from fractions import Fraction

import numpy as np
import pytest

from allwas.barysample import AugmentationConfig
from allwas.data import SynthSpec
from allwas.errors import AllwasError, ConfigError
from allwas.gradspace import pairwise_w2_exact
from allwas.model import TrainingSet
from allwas.strategies import OTConfig
from allwas.transport import DiscreteMeasure, wasserstein_barycenter_batch

# Every place a probability row enters the numeric core, and the error a
# row off the simplex raises there.
ROW_SITES = {
    "training labels": (lambda row: TrainingSet(np.zeros((2, 3)), [row, [1.0, 0.0]]),
                        AllwasError),
    "measure weights": (lambda row: DiscreteMeasure(np.arange(4.0).reshape(2, 2), row),
                        AllwasError),
    "exact probabilities": (lambda row: pairwise_w2_exact(np.array([row, [1.0, 0.0]]),
                                                          np.array([[0.0, 1.0], [1.0, 0.0]])),
                            AllwasError),
    "barycenter lambdas": (lambda row: wasserstein_barycenter_batch(
        [[np.zeros((2, 2)), np.ones((2, 2))]], np.array([row]), [2], outer_iter=1,
        sinkhorn_max_iter=20), ConfigError),
    "synthetic priors": (lambda row: SynthSpec(priors=row), ConfigError),
}


@pytest.mark.parametrize("site", ROW_SITES)
@pytest.mark.parametrize("row", [[np.nan, np.nan], [1.2, -0.2], [0.5, 0.5 + 2e-9]])
def test_row_off_the_simplex_rejected(site, row):
    build, error = ROW_SITES[site]
    with pytest.raises(error, match="must be nonnegative and sum to 1"):
        build(row)


@pytest.mark.parametrize("site", ROW_SITES)
def test_row_within_tolerance_accepted(site):
    build, _ = ROW_SITES[site]
    build([0.5, 0.5 + 5e-10])


@pytest.mark.parametrize("build, message", [
    (lambda: OTConfig(eps=Fraction(1, 100)), "ot eps must be a number or null"),
    (lambda: AugmentationConfig(dirichlet_alpha=Fraction(1, 2)),
     "augmentation dirichlet_alpha must be a number"),
    (lambda: OTConfig(tol=np.True_), "ot tol must be a number")])
def test_number_fields_take_only_ints_and_floats(build, message):
    # A Fraction is a numbers.Real, but numpy's ufuncs reject it mid-run.
    with pytest.raises(ConfigError, match=message):
        build()
