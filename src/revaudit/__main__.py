"""Run the command line harness: `python -m revaudit <subcommand> ...`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
