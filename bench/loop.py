"""Measured closed loop: one `tacd` CLI command at a time, in one process.

bench/run.py starts this as a child process, so that its CPU time, its
peak resident set and its pool children belong to the commands alone:

    python3 bench/loop.py '<job as JSON>'

The job gives the source tree to import tacd from, the CLI argv of the
measured command and of a small warm-up command, the artifact the command
writes, how many seconds to keep issuing commands, whether to trace, and
where to write the result JSON (and the span log when tracing). The next
command starts only after the previous one has returned; at least one
command runs even when the time is already up. The control kernel
(control.py) is timed once before the first command and after every
command, so each command has a host-speed reading on either side. When
the command uses a pool of N workers, N copies of the kernel run at once
in N forked processes, so the reading covers every vCPU the pool uses;
its CPU time is then the mean over the copies.
"""
from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import platform
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_job(job: dict) -> dict:
    src = os.path.realpath(job["src"])
    sys.path.insert(0, src)
    import numpy
    import scipy

    import control
    import tacd.cli

    if not os.path.realpath(tacd.__file__).startswith(src + os.sep):
        raise SystemExit(f"tacd was imported from {tacd.__file__}, not from {src}")

    recorder = None
    if job["trace"]:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()

    tacd.cli.main(job["warmup_argv"])
    workers = job["workers"]
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) if workers > 1 else None

    def timed_control() -> tuple[float, float]:
        if pool is None:
            return control.timed()
        t0 = time.perf_counter()
        done = [f.result() for f in [pool.submit(control.timed) for _ in range(workers)]]
        return time.perf_counter() - t0, sum(cpu for _, cpu in done) / workers

    try:
        timed_control()
        if recorder is not None:
            recorder.reset()

        artifact = job["artifact"]
        samples = []
        controls = [timed_control()]
        stop = time.perf_counter() + job["seconds"]
        while True:
            if os.path.exists(artifact):
                os.remove(artifact)
            c0, k0 = time.process_time(), _children_cpu_s()
            t0 = time.perf_counter()
            try:
                rc, error = tacd.cli.main(job["argv"]), None
            except (Exception, SystemExit) as exc:  # a failed command is counted, not fatal
                rc, error = None, repr(exc)
            t1 = time.perf_counter()
            cpu = time.process_time() - c0 + _children_cpu_s() - k0
            digest = _digest(artifact) if rc == 0 and os.path.exists(artifact) else None
            samples.append({"wall_s": t1 - t0, "cpu_s": cpu, "rc": rc, "error": error, "digest": digest})
            controls.append(timed_control())
            if time.perf_counter() >= stop:
                break

        out = {
            "samples": samples,
            "controls": [{"wall_s": wall, "cpu_s": cpu} for wall, cpu in controls],
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "children_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            "versions": {
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
            },
        }
    finally:
        if pool is not None:
            pool.shutdown()
    if recorder is not None:
        out["trace"] = recorder.summary()
        recorder.write_spans(job["spans"])
    return out


if __name__ == "__main__":
    job = json.loads(sys.argv[1])
    result = run_job(job)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
