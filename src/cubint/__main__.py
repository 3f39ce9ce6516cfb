"""`python -m cubint ...` runs the cubint command line."""

import sys

from .cli import main

sys.exit(main())
