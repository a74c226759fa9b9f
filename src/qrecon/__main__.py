"""`python -m qrecon <subcommand> ...`: the command-line harness of
`qrecon.cli`, exiting with its code."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
