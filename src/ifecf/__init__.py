"""Feature selection (dispersion / C-correlation / F-correlation filters,
CFS merit search, Relief weighting) and LVQ1 classification toolkit."""

__version__ = "0.1.0"

from .data import Dataset, load_csv, split
from .select import SelectionConfig, SelectionResult, ife_cf, cfs_search, relief
from .lvq import LVQConfig, LVQModel

__all__ = [
    "Dataset",
    "load_csv",
    "split",
    "SelectionConfig",
    "SelectionResult",
    "ife_cf",
    "cfs_search",
    "relief",
    "LVQConfig",
    "LVQModel",
]
