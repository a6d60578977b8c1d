"""Simulated tip-of-the-tongue test collections: build, score, validate.

The package turns a Wikipedia-style corpus in any language into a
known-item test collection of simulated tip-of-the-tongue queries, then
measures how faithfully that collection reproduces the system ranking
induced by real user queries.  Each module's ``__all__`` is the one list of
what it publishes; the package republishes all of them.
"""

from .collection import *  # noqa: F401,F403
from .corpus import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .evaluation import *  # noqa: F401,F403
from .generation import *  # noqa: F401,F403
from .providers import *  # noqa: F401,F403
from .retrieval import *  # noqa: F401,F403
from .sampling import *  # noqa: F401,F403

__version__ = "0.1.0"
