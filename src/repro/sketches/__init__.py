"""Streaming sketches for wavelet approximation (the Send-Sketch baseline).

The paper compares against sketch-based wavelet maintenance: the AMS sketch of
Gilbert et al. [20] and the Group-Count Sketch (GCS) of Cormode et al. [13],
choosing GCS as the stronger baseline.  GCS is implemented here from scratch:

* :mod:`repro.sketches.hashing` — 2-wise and 4-wise independent hash families
  over a Mersenne-prime field;
* :mod:`repro.sketches.gcs` — the Group-Count Sketch plus the hierarchical
  group-testing search used to extract large coefficients without enumerating
  the whole domain.

All sketches are *linear*: sketches of different splits can be merged entry-
wise, which is what the Send-Sketch reducer does.
"""

from repro.sketches.gcs import GroupCountSketch, HierarchicalGcs
from repro.sketches.hashing import FourWiseHash, PairwiseHash, PolynomialHash
from repro.sketches.wavelet import WaveletGcsSketch

__all__ = [
    "GroupCountSketch",
    "HierarchicalGcs",
    "FourWiseHash",
    "PairwiseHash",
    "PolynomialHash",
    "WaveletGcsSketch",
]
