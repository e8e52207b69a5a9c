"""``python -m baserisk``: the command-line tool without an installed script."""

import sys

from .cli import main

__all__ = ["main"]

if __name__ == "__main__":
    sys.exit(main())
