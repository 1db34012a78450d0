"""visclab: numerical laboratory for vanishing-viscosity approximations of
scalar conservation laws on bounded domains."""

__version__ = "0.1.0"
