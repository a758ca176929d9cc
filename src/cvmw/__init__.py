"""Gaussian continuous-variable toolkit for microwave quantum links.

State algebra in the covariance-matrix formalism, entanglement measures,
Gaussian quantum Fisher information with optimal observables, quantum
illumination and bi-frequency illumination, teleportation fidelities with
photon subtraction and entanglement swapping, and open-air / satellite
channel models. A truncated Fock-space engine, `cvmw.fock`, provides
independent brute-force cross-checks for the closed forms; `import cvmw`
does not load it, so neither does the CLI: `import cvmw.fock` does.
"""

from . import (bifreq, channel, core, distill, entanglement, estimation,
               illumination, teleport)

__all__ = [
    "bifreq", "channel", "core", "distill", "entanglement", "estimation",
    "fock", "illumination", "teleport",
]

__version__ = "0.1.0"
