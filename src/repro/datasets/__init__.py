"""Workload generators replacing the paper's datasets (each module's
docstring lists the properties of the original its replica keeps)."""

from .expansion import expand_dataset, frequency_sorted_values
from .forest import FOREST_ATTRIBUTES, generate_forest
from .osm import generate_osm
from .synthetic import gaussian_mixture_dataset, uniform_dataset

__all__ = [
    "generate_forest",
    "FOREST_ATTRIBUTES",
    "expand_dataset",
    "frequency_sorted_values",
    "generate_osm",
    "uniform_dataset",
    "gaussian_mixture_dataset",
]
