"""Exact and asymptotic enumeration of d-combining tree-child networks."""

__version__ = "0.1.0"
