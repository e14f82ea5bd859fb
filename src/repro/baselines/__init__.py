"""Conventional fault-mitigation baselines the paper compares against.

* :mod:`device_specific` — per-device fault-aware retraining (Xia et al.):
  strong on its own device, does not transfer, needs a retraining pass per
  manufactured part.
* :mod:`redundancy` — redundant weight storage with majority combining
  (Liu et al. style): hardware cost scales with the redundancy factor.
* :mod:`ecoc` — error-correcting output codes (Liu et al., DAC 2019): a
  redundant classifier head whose codewords absorb fault-induced bit
  errors; the paper notes its method composes with this one.
* :mod:`compensation` — retraining-free differential-pair weight
  approximation (Hosseini et al., TECS 2021 style): re-program the healthy
  partner cell of each faulty pair; needs per-device fault maps.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "compensation": ("compensate_mapped_matrix", "compensation_residual"),
        "device_specific": ("DeviceFaultMap", "DeviceSpecificRetrainer"),
        "ecoc": (
            "generate_codebook", "ECOCLoss", "ecoc_predict",
            "evaluate_ecoc_accuracy", "minimum_hamming_distance",
        ),
        "redundancy": ("RedundantWeightProtection",),
    },
)
