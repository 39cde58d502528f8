"""Run the command-line interface: ``python -m qpweyl <command> ...``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
