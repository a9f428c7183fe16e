"""Critical distributed-PV adoption scenario search on radial feeders.

Library layout:

- ``feeder``: network data model, file I/O, synthetic generation, partitioning
- ``adoption``: agent-based PV adoption simulator producing binary scenarios
- ``powerflow``: backward/forward-sweep solver, stress and violation objectives
- ``pareto``: one dominance kernel and the front builder
- ``surrogate``: Gaussian processes with an ARD categorical (Hamming) kernel
- ``search``: the Bayesian-optimization search loop and brute-force oracle
- ``cli``: command-line entry point and run artifacts

The package root exports only what a caller needs to set up a run; everything
else is imported from its module.
"""

from gridcrit.adoption import DiffusionParams
from gridcrit.feeder import load_feeder
from gridcrit.powerflow import ViolationConfig
from gridcrit.search import SearchConfig

__version__ = "0.1.0"
