"""Crash-state exploration (the CrashMonkey core).

For each ACE workload:

1. format + run the setup on a store-tracking PM device;
2. record the logical state after every crash-tested operation;
3. replay the ops one at a time; inside each op, collect the in-flight
   (unfenced) stores and enumerate crash states — every subset of
   in-flight stores surviving on top of the durable prefix (§5.2: "crash
   states corresponding to all possible re-orderings of in-flight writes
   inside each system call");
4. remount each crash image and check consistency: the recovered state
   must match either the pre-op or post-op logical state (atomicity), and
   internal invariants must hold.

The number of in-flight writes per syscall is small for WineFS (entries
are persisted immediately), so exhaustive enumeration is feasible — the
same observation the paper makes.  A ``max_subsets`` bound guards
pathological cases.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Tuple

from ..clock import make_context
from ..pm.device import PMDevice
from ..vfs.interface import FileSystem
from .ace import AceWorkload
from .checker import LogicalState, capture_state, check_consistency, \
    ConsistencyError


@dataclass
class CrashTestResult:
    workload: str
    crash_points: int = 0
    states_checked: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


class CrashExplorer:
    """Runs ACE workloads against a file-system factory.

    ``fs_factory(device)`` must return an *unmounted* file system bound to
    the given device; the explorer formats, runs, crashes, and remounts.
    """

    def __init__(self, fs_factory: Callable[[PMDevice], FileSystem],
                 device_size: int = 256 * 1024 * 1024,
                 num_cpus: int = 2, max_subsets: int = 256) -> None:
        self.fs_factory = fs_factory
        self.device_size = device_size
        self.num_cpus = num_cpus
        self.max_subsets = max_subsets

    def _run_ops(self, workload: AceWorkload) -> Iterator[tuple]:
        """Format, run the setup, then replay the ops one at a time.

        Yields ``(i, op, device, pre, post, epochs)`` per op: the logical
        state before and after it, and its crash points as
        :meth:`PMDevice.end_capture` returns them.  The setup is never
        crashed, and each op is made fully durable before the next one.
        """
        device = PMDevice(self.device_size, track_stores=True)
        fs = self.fs_factory(device)
        ctx = make_context(self.num_cpus)
        fs.mkfs(ctx)
        workload.run_setup(fs, ctx)
        device.drain()
        pre = capture_state(fs)
        for i, op in enumerate(workload.ops):
            device.start_capture()
            op.apply(fs, ctx)
            post = capture_state(fs)
            epochs = device.end_capture()
            yield i, op, device, pre, post, epochs
            pre = post
            device.drain()

    def run_workload(self, workload: AceWorkload) -> CrashTestResult:
        result = CrashTestResult(workload=workload.name)
        for _i, op, device, pre, post, epochs in self._run_ops(workload):
            # one crash point at the instant before every fence retired,
            # plus the final point with never-fenced residue
            for epoch, seqs in epochs:
                result.crash_points += 1
                for surviving in self._subsets(seqs):
                    result.states_checked += 1
                    image = device.capture_crash_image(epoch, surviving)
                    self._check_one(image, pre, post, op, epoch, surviving,
                                    result)
        return result

    def _check_one(self, image: PMDevice, pre: LogicalState,
                   post: LogicalState, op, epoch, surviving,
                   result: CrashTestResult) -> None:
        fs2 = self.fs_factory(image)
        ctx2 = make_context(self.num_cpus)
        try:
            fs2.mount(ctx2)
            recovered = capture_state(fs2)
            check_consistency(fs2, recovered, pre, post)
        except ConsistencyError as exc:
            result.violations.append(
                f"{op}: epoch={epoch} surviving={sorted(surviving)}: {exc}")
        except Exception as exc:   # noqa: BLE001 — any crash is a bug
            result.violations.append(
                f"{op}: epoch={epoch} surviving={sorted(surviving)}: "
                f"mount raised {type(exc).__name__}: {exc}")

    def _subsets(self, seqs: List[int]) -> List[Tuple[int, ...]]:
        """All subsets if small; prefixes + singletons + complements if not."""
        if 2 ** len(seqs) <= self.max_subsets:
            out: List[Tuple[int, ...]] = []
            for r in range(len(seqs) + 1):
                out.extend(itertools.combinations(seqs, r))
            return out
        out = [()]
        for i in range(len(seqs)):
            out.append(tuple(seqs[:i + 1]))              # prefixes
            out.append((seqs[i],))                        # singletons
            out.append(tuple(seqs[:i] + seqs[i + 1:]))    # drop-one
        # dedupe, bound
        uniq = list(dict.fromkeys(out))
        return uniq[: self.max_subsets]

    def run_all(self, workloads: List[AceWorkload]) -> List[CrashTestResult]:
        return [self.run_workload(w) for w in workloads]
