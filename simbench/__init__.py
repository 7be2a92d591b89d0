"""End-to-end benchmark of the repro simulator (see README.md).

Run it from the repository root::

    python3 simbench/run.py --workload dirlookup_thread --seed 1 \
        --seconds 40 --trace 0
"""
