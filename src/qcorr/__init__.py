"""2-qubit quantum correlations toolkit.

Closed-form classical correlations, LAQC, quantum discord, and
concurrence for Bell-diagonal states; Markovian Kraus decoherence
channels; and brute-force measurement-basis oracles that verify every
closed form. The values that check their input hold read-only copies of
the arrays they are given, and the per-process caches and memos are keyed
by content, so the API is safe to call concurrently.
"""

from . import bases, channels, correlations, oracle, qstate
from .bases import *
from .channels import *
from .correlations import *
from .oracle import *
from .qstate import *

__version__ = "0.1.0"

__all__ = sorted(n for m in (bases, channels, correlations, oracle, qstate) for n in m.__all__)
