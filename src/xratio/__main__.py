"""`python -m xratio`: the command line interface of `xratio.cli`."""

import sys

from .cli import main

sys.exit(main())
