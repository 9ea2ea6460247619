"""Workload table shared by run.py and the run processes (child.py).

Each workload is a sequence of sessions. A session is one call of a public
entry point (``training.train`` or ``training.evaluate``) over a fixed
number of ops: training steps or manifest entries. Sessions run back to
back in one process until the run's time is up (closed loop, one client).
"""

WORKLOADS = {
    # The acceptance smoke config: small arrays, per-call cost dominates.
    "train-smoke": {"kind": "train", "in_channels": 1,
                    "channels": (8, 16, 32, 64), "batch": 4, "patch": 64,
                    "ops_per_session": 5},
    # The stock model at batch 2, patch 128: large GEMMs and gathers.
    "train-stock": {"kind": "train", "in_channels": 3,
                    "channels": (32, 64, 128, 256), "batch": 2, "patch": 128,
                    "ops_per_session": 2},
    # evaluate() on 160x240 colour images with a non-identity checkpoint.
    "eval-stock": {"kind": "eval", "ops_per_session": 2},
}

# Setup-only calls per process, after its session: train() with
# max_iters=0, evaluate() on an empty manifest. With the session's own set-up
# they give setup_s several samples per process for its median.
SETUP_REPEATS = 2

# Address-space cap of each run process, below the 7.8 GiB of RAM of the
# machine the benchmark was written on.
CAP_MB = 6144

END_TO_END = {
    "setup_s": "s", "first_op_s": "s", "op_s_p50": "s",
    "mpix_per_s": "Mpix/s", "peak_rss_mb": "MB",
}
