"""One cold set-up of a workload, run in a fresh interpreter by ``run.py``.

Imports ``nncalc`` and ``nncalc.cli``, loads and validates the generators the
workload uses, and builds the CLI parser.  ``run.py`` times the whole process
from the outside, interpreter start-up included.

Usage: python3 perfbench/setup_probe.py <workload>   (with ./src on PYTHONPATH)
"""

import sys

import nncalc
import nncalc.cli
from nncalc.generator import (
    convex_combine,
    load_generator,
    make_identity_generator,
    make_sine_generator,
    validate_generator,
)


def main(workload: str) -> None:
    load_generator("sine")
    if workload == "vector_sweeps":
        load_generator("identity")
        validate_generator(convex_combine([make_sine_generator(), make_identity_generator()],
                                          [0.5, 0.5]))
    nncalc.cli.build_parser()


if __name__ == "__main__":
    main(sys.argv[1])
