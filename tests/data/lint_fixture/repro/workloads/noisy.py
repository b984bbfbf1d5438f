"""determinism seed: iterating a freshly built set.

The loop in run() visits its items in hash order, which PYTHONHASHSEED
changes from run to run; the comprehension after it iterates a set too
but carries an inline allow, so the rule reports the loop alone.
"""


def run(results):
    """Append every distinct result again, in set order."""
    ordered = sorted(results)
    for item in set(ordered):
        results.append(item)
    seen = [x for x in set(ordered)]  # repro: allow[determinism] suppressed on purpose
    return seen
