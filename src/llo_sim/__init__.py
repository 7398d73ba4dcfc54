"""Simulation and security analysis for CV-QKD with a locally generated LO.

The package root imports nothing; import from the submodules (``llo_sim.link_sim``,
``llo_sim.security``, ``llo_sim.experiments``, ...).
"""

__version__ = "0.1.0"
