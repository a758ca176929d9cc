"""Gaussian continuous-variable toolkit for microwave quantum links.

Gaussian states in the covariance-matrix formalism, entanglement measures,
Gaussian quantum Fisher information, quantum illumination and bi-frequency
illumination, teleportation fidelities with photon subtraction and
entanglement swapping, and open-air / satellite channel models, as the
closed forms the CLI tabulates. `cvmw.fock` holds the truncated Fock-space
density matrices the benchmark checks Gaussian negativities with; `import
cvmw` does not load it, so neither does the CLI: `import cvmw.fock` does.
The general-matrix and Fock routes the tests compare against live in
tests/oracles, outside the package.
"""

from . import (bifreq, channel, core, distill, entanglement, estimation,
               illumination, teleport)

__all__ = [
    "bifreq", "channel", "core", "distill", "entanglement", "estimation",
    "fock", "illumination", "teleport",
]

__version__ = "0.1.0"
