"""Exact growth and complexity computations for subshift groupoids,
groupoids of germs of self-similar groups, and their convolution algebras."""

__version__ = "0.1.0"
