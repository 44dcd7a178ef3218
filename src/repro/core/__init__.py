"""High-level API: the whole study behind one object and a registry.

>>> from repro.core import Study, run_experiment
>>> study = Study(scale=0.1)
>>> print(study.table2())        # doctest: +SKIP
>>> print(run_experiment("fig8", study))  # doctest: +SKIP
"""

from repro.core.registry import EXPERIMENTS, Experiment, run_experiment
from repro.core.study import DEFAULT_SCALES, Study

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "run_experiment",
    "DEFAULT_SCALES",
    "Study",
]
