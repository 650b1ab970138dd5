"""Run the command-line interface as ``python -m canvdw``."""

import sys

from .cli import main

sys.exit(main())
