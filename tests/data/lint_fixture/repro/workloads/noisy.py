"""determinism and array-kernel seeds."""
import os
import random
import time


def run(results):
    t = time.time()
    x = random.random()
    k = os.urandom(4)
    ordered = sorted(results, key=id)
    for item in set(ordered):
        results.append(item)
    stamp = time.time()  # repro: allow[determinism] suppressed on purpose
    return t, x, k, stamp


def churn(ctx, dev, pool):
    ctx.clock._cpu_ns[ctx.cpu] += 5.0
    dev._log_seqs.append(7)
    pool._rs.starts[0] = 3
    del dev._log_data[0]
    pool._rs.free_blocks = 0
