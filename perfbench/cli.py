"""Running engmeta commands as child processes, timed and measured."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import reference


@dataclass(frozen=True)
class Call:
    """One finished child process."""

    argv: tuple[str, ...]
    exit_code: int
    seconds: float
    max_rss_mib: float
    stdout: Path
    stderr: Path
    probe_s: float
    probing_s: float

    @property
    def normalised_s(self) -> float:
        """Wall time without the probe's share, rescaled to the reference speed."""
        return reference.normalised(self.seconds - self.probing_s, self.probe_s)


class Runner:
    """Starts children with the checkout's ``src`` on the import path.

    Output goes to files under ``log_dir`` (named after a counter), so a
    child can never block on a full pipe while it is being waited for.

    Each CPU of a shared host changes speed on its own, so the runner
    measures the speed of the CPUs a child runs on, in CPU time per unit of
    the reference probe. The runner and every serial child are kept on the
    first CPU: units run there right before the child starts, every
    ``PROBE_EVERY_S`` while it runs and right after it ends, and the CPU
    time they took from the child (``probing_s``) is taken off its wall
    time. A parallel child gets every CPU and runs alone; units run on each
    CPU right before and right after it. The speed is each CPU's median,
    averaged over the child's CPUs. A thread blocked in ``wait4`` takes the
    child's end time, so probing does not delay it.
    """

    PROBE_EVERY_S = 0.1
    PROBES_AROUND = 2

    def __init__(self, src: Path, log_dir: Path, workers: int):
        self.log_dir = log_dir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(src)
        self.env["ENGMETA_WORKERS"] = str(workers)
        self.calls = 0
        self.cpus = sorted(os.sched_getaffinity(0))
        self.home = self.cpus[0]
        os.sched_setaffinity(0, {self.home})
        # the waiter thread gets the GIL back within this when the child ends
        sys.setswitchinterval(0.0005)

    def _probe_on(self, cpus: list[int], probes: dict[int, list[float]]) -> None:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            probes[cpu] += [reference.probe() for _ in range(self.PROBES_AROUND)]
        os.sched_setaffinity(0, {self.home})

    def run(self, argv: list[str], parallel: bool = False) -> Call:
        self.calls += 1
        stdout = self.log_dir / f"{self.calls:05d}.out"
        stderr = self.log_dir / f"{self.calls:05d}.err"
        cpus = self.cpus if parallel else [self.home]
        probes: dict[int, list[float]] = {cpu: [] for cpu in cpus}
        self._probe_on(cpus, probes)
        ended: dict = {}
        probing = 0.0

        def reap(pid: int) -> None:
            ended["wait4"] = os.wait4(pid, 0)
            ended["at"] = time.perf_counter()

        with stdout.open("wb") as out, stderr.open("wb") as err:
            started = time.perf_counter()
            child = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                     stdin=subprocess.DEVNULL, env=self.env,
                                     preexec_fn=lambda: os.sched_setaffinity(0, cpus))
            waiter = threading.Thread(target=reap, args=(child.pid,), daemon=True)
            waiter.start()
            try:
                while True:
                    waiter.join(None if parallel else self.PROBE_EVERY_S)
                    if not waiter.is_alive():
                        break
                    probes[self.home].append(reference.probe())
                    probing += probes[self.home][-1]
            except BaseException:
                child.kill()
                waiter.join()
                raise
        if "wait4" not in ended:
            raise RuntimeError(f"could not wait for {argv}")
        _, status, usage = ended["wait4"]
        seconds = ended["at"] - started
        # wait4 reaped the child; tell Popen so it does not wait again
        child.returncode = os.waitstatus_to_exitcode(status)
        self._probe_on(cpus, probes)
        speed = statistics.mean(statistics.median(units) for units in probes.values())
        return Call(tuple(argv), child.returncode, seconds, usage.ru_maxrss / 1024, stdout, stderr,
                    speed, probing)

    def engmeta(self, *args: str, parallel: bool = False) -> Call:
        return self.run(["-m", "engmeta", *args], parallel=parallel)
