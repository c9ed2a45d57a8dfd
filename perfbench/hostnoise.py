"""Host-noise attribution, process-memory sampling (both read from /proc)
and the reference kernel that measures the pinned core's current speed.

The host is a VM whose neighbours steal CPU in bursts; steal only accrues
while this guest wants to run, so loadavg and idle time read clean in the
very windows that run slow. Every run record therefore carries the steal
fraction and loadavg of its own timed region. They attribute a noisy
window; they never filter a run out. The core's speed also drifts with no
steal at all; the reference kernel measures that drift so the harness can
rescale job times by it.
"""

from __future__ import annotations

import os
import threading
import time


def cpu_jiffies() -> tuple[int, int]:
    """(steal, total) jiffies from the first line of /proc/stat."""
    with open("/proc/stat") as f:
        vals = [int(x) for x in f.readline().split()[1:]]
    return (vals[7] if len(vals) > 7 else 0), sum(vals)


def loadavg() -> list[float]:
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


class StealMeter:
    """CPU-steal fraction across a timed region (steal jiffies / all jiffies)."""

    def start(self) -> None:
        self._s0, self._t0 = cpu_jiffies()

    def stop(self) -> float:
        s1, t1 = cpu_jiffies()
        return (s1 - self._s0) / max(t1 - self._t0, 1)


_PAGE = os.sysconf("SC_PAGE_SIZE")


def _process_tree(root: int) -> list[int]:
    """``root`` and every live descendant (Ray's raylet, GCS, workers and
    actors are all started under the driver process)."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may hold spaces; fields resume after its ')'
        ppid = int(stat[stat.rindex(")") + 2 :].split()[1])
        children.setdefault(ppid, []).append(int(name))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def tree_mem_bytes(root: int) -> int:
    """Private resident memory of ``root`` and every descendant: each
    process's ``statm`` resident pages less its shared ones (file-backed and
    shared-memory pages), so every page is counted once. Summing plain RSS
    instead counts each shared library and each object-store page once per
    process that maps it. The object store itself is left out: the pages
    of /dev/shm it has touched are a high-water mark that climbs job after
    job up to its fixed budget, not the objects it holds."""
    total = 0
    for pid in _process_tree(root):
        try:
            with open(f"/proc/{pid}/statm") as f:
                resident, shared = f.read().split()[1:3]
        except OSError:
            continue  # the process ended between listing and reading
        total += (int(resident) - int(shared)) * _PAGE
    return total


def tree_cpu_ns(root: int) -> dict[int, int]:
    """On-CPU time (ns) of ``root`` and each descendant: the first field of
    /proc/<pid>/task/<tid>/schedstat summed over every thread of the
    process (the process-level file counts only its main thread, while Ray
    does much of its work on other threads). Time the hypervisor stole is
    not counted."""
    out = {}
    for pid in _process_tree(root):
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue  # the process ended between listing and reading
        total = 0
        for tid in tids:
            try:
                with open(f"/proc/{pid}/task/{tid}/schedstat") as f:
                    total += int(f.read().split()[0])
            except OSError:
                continue  # the thread ended between listing and reading
        out[pid] = total
    return out


def cpu_seconds_between(before: dict[int, int], after: dict[int, int]) -> float:
    """CPU seconds the process tree used between two ``tree_cpu_ns`` reads
    (processes started in between count from zero)."""
    return sum(ns - before.get(pid, 0) for pid, ns in after.items()) / 1e9


class MemSampler:
    """Peak of ``tree_mem_bytes`` over the driver's process tree while the
    sampler runs.

    Use as a context manager around one timed job; ``peak_bytes`` holds the
    maximum over samples taken every ``interval`` seconds (one sample at
    entry, kept as ``start_bytes``, and one at exit bracket jobs shorter
    than the interval). A sample reads one small /proc file per process."""

    def __init__(self, interval: float = 0.1, root: int | None = None):
        self.interval = interval
        self.root = os.getpid() if root is None else root
        self.start_bytes = 0
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _sample(self) -> None:
        self.peak_bytes = max(self.peak_bytes, tree_mem_bytes(self.root))

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self) -> "MemSampler":
        self._sample()
        self.start_bytes = self.peak_bytes
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()


#: iterations of the reference kernel, a fixed pure-Python loop
REF_LOOPS = 200_000
#: the kernel's CPU time on an otherwise idle core of the 2.1 GHz Xeon VM
#: the benchmark was built on; it defines the nominal core speed
REF_NOMINAL_S = 0.0112


def ref_kernel_s() -> float:
    """CPU seconds this thread needs for the reference kernel now.

    The host's cores change speed from one second to the next with CPU
    steal near 0, and every timing in a window moves with them. Thread
    CPU time of a fixed loop on the same pinned core tracks that speed;
    time this thread spent preempted (by the engine's own processes) or
    stolen is not counted, so the engine cannot move it."""
    t0 = time.thread_time()
    s = 0
    for i in range(REF_LOOPS):
        s += i * i
    return time.thread_time() - t0

