"""``python -m icmpscope``: the ``icmpscope`` command."""

import sys

from icmpscope.cli import main

if __name__ == "__main__":
    sys.exit(main())
