"""Time one cold set-up of a workload, or the reference import, in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload>
    python3 perfbench/setup_probe.py --reference

Set-up is importing the package (numpy included) and building the
workload's first-use caches: the ``cartier.basis`` index of every ring it
uses and, for ``scan-f2``, the witness tables.  The reference is a fixed
import of numpy and some standard-library packages that the benchmark owns:
work of the same kind as set-up (finding, loading and executing modules)
that no change to the package can move.  run.py alternates the two and
scales each set-up by the reference imports around it.  Prints
``{"wall_s": ...}``.
"""

import importlib
import json
import sys
import time

REFERENCE = "--reference"
REFERENCE_MODULES = ("numpy", "decimal", "fractions", "email.parser",
                     "xml.dom.minidom", "unittest", "statistics")


def main() -> None:
    if sys.argv[1] == REFERENCE:
        start = time.perf_counter()
        for name in REFERENCE_MODULES:
            importlib.import_module(name)
    else:
        from run import import_package  # the harness loads before the clock starts

        start = time.perf_counter()
        import_package()
        import workloads

        workloads.WORKLOADS[sys.argv[1]](seed=0).setup()
    print(json.dumps({"wall_s": time.perf_counter() - start}))


if __name__ == "__main__":
    main()
