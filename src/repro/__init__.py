"""Etalumis reproduction: probabilistic programming for scientific simulators.

Top-level convenience re-exports.  The subpackages are:

* :mod:`repro.common` -- RNG, config, timing utilities.
* :mod:`repro.tensor` -- numpy autograd + NN + optimizers (PyTorch substitute).
* :mod:`repro.distributions` -- probability distributions.
* :mod:`repro.ppx` -- the probabilistic execution protocol (PPX).
* :mod:`repro.trace` -- execution traces, addresses, trace types.
* :mod:`repro.ppl` -- the pyprob-like PPL: models, inference engines, IC network.
* :mod:`repro.data` -- offline trace datasets, sorting, batching, samplers.
* :mod:`repro.distributed` -- allreduce, data-parallel trainer, per-rank IS driver, performance model.
* :mod:`repro.serving` -- async micro-batching posterior inference service.
* :mod:`repro.simulators` -- mini-Sherpa tau decay, 3D detector, spectroscopy.
"""

__version__ = "1.0.0"

from repro.common import get_config, set_config, seed_all

__all__ = ["__version__", "get_config", "set_config", "seed_all"]
