"""Names shared by the benchmark's parent process and its workers.

Kept free of ``repro`` imports: ``run.py`` never imports the package it
measures, so a checkout without ``src/`` fails cleanly before any pass starts.
"""

WORKLOADS = ("table1", "sweep-clique-setup", "rate-crs-long")

#: A run covers this many consecutive blocks of each experiment's trial
#: schedule (block ``b`` holds trials ``b·N .. b·N + N - 1`` of every cell, see
#: ``workloads.TRIALS_PER_CELL``), so its figures average over ``BLOCKS·N``
#: trials per cell: per-trial cost varies with the trial seed far more than
#: with machine noise.
BLOCKS = 3

#: Ledger layers, named after the modules they time, in report order.
LAYERS = (
    "coding",
    "core.randomness_exchange",
    "hashing.small_bias",
    "hashing.seeds",
    "hashing.inner_product",
    "core.meeting_points",
    "core.transcript",
    "network.transport",
    "adversary",
    "protocols",
    "baselines",
    "runtime",
    "core.engine",
)
