"""``python -m lgschubert``: the command-line interface of ``cli.main``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
