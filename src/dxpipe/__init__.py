"""Grayscale radiograph pipeline: enhancement, orientation correction,
six-region classification, and imbalance-aware evaluation."""

from dxpipe.image import read_pgm, write_pgm, rotate

__version__ = "0.1.0"

__all__ = [
    "read_pgm",
    "write_pgm",
    "rotate",
    "__version__",
]
