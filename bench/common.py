"""Shared pieces of the workloads: the operation record, the run context and
a child-process runner that reports the child's peak memory."""

from __future__ import annotations

import os
import selectors
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Op:
    """One timed operation: `run()` does the work, `check(result)` returns
    error strings judged apart from piforge. `tag` groups per-layer metrics
    (problem size, subcommand, relation kind)."""

    tag: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass(frozen=True)
class Context:
    root: Path
    workdir: Path
    python: str
    child_env: dict


@dataclass(frozen=True)
class ChildResult:
    code: int
    out: str
    err: str
    seconds: float
    max_rss_kb: int


def run_child(cmd, ctx: Context, timeout: float = 120.0) -> ChildResult:
    """Run a command from the repository root, drain both pipes and reap it
    with wait4 so that its own peak resident memory is known."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ctx.root, env=ctx.child_env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = t0 + timeout
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                proc.kill()
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return ChildResult(
        code=proc.returncode,
        out=b"".join(chunks[proc.stdout]).decode(),
        err=b"".join(chunks[proc.stderr]).decode(),
        seconds=seconds,
        max_rss_kb=usage.ru_maxrss,
    )
