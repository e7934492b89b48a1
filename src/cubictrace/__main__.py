"""``python -m cubictrace``: the command-line front end of ``cubictrace.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
