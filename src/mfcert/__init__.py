"""Exact-arithmetic engine for Z/2-graded curved complexes over polynomial
rings, with replayable certificates for K-theory identities.

Each name is imported from its own module; ``verify`` is the one re-export.
"""

from .kcert import verify

__version__ = "0.1.0"
