"""Memory kernels and homogenized Volterra equations for kinetic models
with coefficients oscillating in the energy variable."""

__version__ = "0.1.0"


class ConfigError(ValueError):
    """Invalid configuration (exit status 2); the message names the field."""
