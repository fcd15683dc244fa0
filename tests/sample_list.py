"""Single samples of a stacked CurveSample, for the per-sample oracle
loops of the tests."""

import dataclasses

import numpy as np

from tpcurves import CurveSample


def split_samples(stacked):
    """One CurveSample per sample of ``stacked``: Python floats and
    C-contiguous (3,) vectors, and None where ``stacked`` has None."""
    def column(x):
        if x is None:
            return [None] * stacked.s.size
        return x.tolist() if x.ndim == 1 else list(np.ascontiguousarray(x.T))

    return [CurveSample(*values) for values in zip(
        *(column(getattr(stacked, f.name))
          for f in dataclasses.fields(CurveSample)))]
