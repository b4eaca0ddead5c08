"""perflab: the repo's calibrated benchmark (see perflab/README.md).

Four workloads — compiler, batch-1 execution, in-process serving, HTTP
gateway — measured from outside through the public functions of ``repro``.
Entry point: ``python3 perflab/run.py`` (or ``python3 -m perflab.run``).
"""
