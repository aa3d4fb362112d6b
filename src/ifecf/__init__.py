"""Feature selection (dispersion / C-correlation / F-correlation filters,
CFS merit search, Relief weighting) and LVQ1 classification toolkit."""

__version__ = "0.1.0"

from .data import Dataset, SplitSpec, NormalizationParams, load_csv, split
from .measures import correlation
from .select import SelectionConfig, SelectionResult, ife_cf, cfs_search, relief
from .lvq import LVQConfig, LVQModel

__all__ = [
    "Dataset",
    "SplitSpec",
    "NormalizationParams",
    "load_csv",
    "split",
    "correlation",
    "SelectionConfig",
    "SelectionResult",
    "ife_cf",
    "cfs_search",
    "relief",
    "LVQConfig",
    "LVQModel",
]
