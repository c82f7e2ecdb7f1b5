"""``python -m laplacefit``: the command-line front end of :mod:`laplacefit.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
