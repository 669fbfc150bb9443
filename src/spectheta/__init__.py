"""spectheta: exact and numeric tooling for spectral extremal questions
about graphs avoiding small theta subgraphs."""

__version__ = "0.1.0"
