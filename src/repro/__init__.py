"""repro -- reproduction of Miller, *Input/Output Behavior of
Supercomputing Applications* (UCB/CSD 91/616, 1991).

Subpackages, bottom to top:

* :mod:`repro.util` -- units (10 us trace ticks, binary KB and MB),
  time series, text rendering;
* :mod:`repro.trace` -- the paper's compressed ASCII trace format and
  the procstat collection pipeline;
* :mod:`repro.runtime` -- the simulated application runtime the workload
  models program against (traced file API, process clocks);
* :mod:`repro.workloads` -- calibrated models of the seven traced
  applications (bvi, ccm, forma, gcm, les, venus, upw);
* :mod:`repro.analysis` -- Tables 1-2, rate curves, sequentiality,
  I/O-type classification, cycle detection;
* :mod:`repro.sim` -- the buffering/caching simulator: round-robin CPU,
  buffer cache with read-ahead/write-behind, seek-closeness disk, SSD
  hit-penalty mode;
* :mod:`repro.core` -- the :class:`~repro.core.Study` facade and the
  per-table/figure experiment registry.

Quick start::

    from repro.core import Study
    study = Study(scale=0.1)
    print(study.table1())
"""

from repro.core import Study, run_experiment

__version__ = "1.0.0"

__all__ = ["Study", "run_experiment", "__version__"]
