"""``python -m lmslab``: the command line (see :mod:`lmslab.cli`)."""

import sys

from .cli import main

__all__ = ["main"]

if __name__ == "__main__":
    sys.exit(main())
