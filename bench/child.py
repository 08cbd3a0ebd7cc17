"""One benchmark step in a fresh interpreter.

    python child.py op <result.json> <trace 0|1> <greenwood CLI arguments...>
    python child.py setup <result.json> <workload> <seed> <size> <workdir>

``op`` imports ``greenwood.cli`` and calls ``main`` with the arguments, the
way the ``greenwood`` console script does, optionally with the layers
traced. ``setup`` imports ``greenwood`` and writes a workload's input files.
Either way the child writes its timings, exit code and peak memory to the
result file; the benchmark reads them after the child has exited.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _write(path: str, doc: dict) -> None:
    doc["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # the benchmark charges its own wall time minus this to process start and exit
    doc["lifetime_s"] = time.perf_counter() - START
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _op(result_path: str, trace: str, argv: list[str]) -> int:
    start = time.perf_counter()
    import greenwood.cli

    import_s = time.perf_counter() - start
    main = greenwood.cli.main
    tracer = None
    if trace == "1":
        from spans import Tracer, install

        tracer = Tracer()
        main = install(tracer)
    start = time.perf_counter()
    rc = main(argv)
    main_s = time.perf_counter() - start
    doc = {"import_s": import_s, "main_s": main_s}
    if tracer is not None:
        doc["trace"] = tracer.to_json_dict()
    _write(result_path, doc)
    return rc


def _setup(result_path: str, workload: str, seed: str, size: str, workdir: str) -> int:
    import greenwood  # noqa: F401  (set-up time counts the package import)

    import workloads

    workloads.WORKLOADS[workload].setup(int(seed), size, workdir)
    _write(result_path, {})
    return 0


if __name__ == "__main__":
    mode, result = sys.argv[1], sys.argv[2]
    if mode == "op":
        sys.exit(_op(result, sys.argv[3], sys.argv[4:]))
    sys.exit(_setup(result, *sys.argv[3:]))
