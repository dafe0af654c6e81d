"""Bayesian optimization with candidates on implicit Voronoi-cell boundaries."""

__version__ = "0.1.0"
