"""``python -m dualtree``: the command-line interface of ``dualtree.cli``."""

import sys

from .cli import main

sys.exit(main())
