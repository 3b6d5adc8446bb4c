"""Probabilistic model-count bounds from sparse XOR (parity) constraints.

Import names from their modules (`xorcount.bounds`, `xorcount.oracle`, ...):
the package itself loads none of them, so a process pays only for the
modules it uses.
"""

__version__ = "0.1.0"
