"""Process entry of ``python -m riskhull`` and of the ``riskhull`` console script."""

import gc
import sys


def run() -> int:
    """Run the CLI with the start-up heap frozen out of the garbage collector.

    Everything the imports created, numpy and the package included, lives
    until the process exits.  ``gc.freeze`` moves it to the permanent
    generation, so no later collection walks it: not the one at interpreter
    exit, which took most of an efficiency call's exit time, and not one
    in a forked worker, whose writes to object headers would copy the
    parent's pages.  Only this entry freezes; ``cli.main`` leaves the
    collector of an in-process caller, such as a test, as it is.
    """
    from .cli import main

    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
