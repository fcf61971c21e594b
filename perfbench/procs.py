"""The `locspot` CLI as timed child processes.

Every child starts from the same pinned environment and is reaped with
os.wait4, so its peak RSS is its own and never the benchmark's. Output
is read as it arrives and each completed line is stamped with the time
its bytes were read.
"""

from __future__ import annotations

import os
import selectors
import subprocess
import sys
import time
from pathlib import Path

_READ = 1 << 16


def child_env(root: Path) -> dict:
    """The pinned environment every `locspot` child runs with.

    PYTHONUNBUFFERED is left out on purpose: users pipe `extract`
    without it, so its stdout is block-buffered, and the latency and
    cold-start numbers must show that.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "LOCSPOT"))}
    env.update(PYTHONHASHSEED="0", PYTHONPATH=str(root / "src"),
               PYTHONDONTWRITEBYTECODE="1", PYTHONUTF8="1")
    return env


def rss_mb(pid: int) -> float | None:
    """Current VmRSS of a process, from /proc/<pid>/status.

    None once the process has exited: a zombie has no VmRSS line.
    """
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


class Child:
    """One `python -m locspot ...` process and what it printed."""

    def __init__(self, root: Path, args, stdin, log_path: Path,
                 deadline: float):
        self.deadline = deadline
        self.log = open(log_path, "ab")
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "locspot", *map(str, args)],
            cwd=root, env=child_env(root), stdin=stdin,
            stdout=subprocess.PIPE, stderr=self.log)
        self.out = bytearray()
        self.stamps: list[float] = []  # read time of each output line
        self.rss: list[float | None] = []  # VmRSS at each read, if alive

    def on_data(self, data: bytes):
        now = time.perf_counter()
        self.out += data
        self.stamps.extend([now] * data.count(b"\n"))
        self.rss.append(rss_mb(self.proc.pid))

    def check_deadline(self) -> float:
        """Seconds left before the run's deadline; kill the child after."""
        left = self.deadline - time.perf_counter()
        if left <= 0:
            self.proc.kill()
            raise TimeoutError(f"locspot {self.proc.args[3:]} overran the run")
        return left

    def read(self, first_line_only=False):
        """Read stdout to EOF, or only until the first full line."""
        fd = self.proc.stdout.fileno()
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while not (first_line_only and self.stamps):
                if not sel.select(self.check_deadline()):
                    continue
                data = os.read(fd, _READ)
                if not data:
                    break
                self.on_data(data)

    def finish(self) -> "Child":
        """Reap the child; record exit code, wall time and peak RSS."""
        if self.proc.stdin:
            self.proc.stdin.close()
        self.proc.stdout.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.ended = time.perf_counter()
        self.proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.log.close()
        return self

    def lines(self) -> list[str]:
        return self.out.decode("utf-8").splitlines()


class OpenLoop:
    """A live stream into one `extract` child, sent in timed segments.

    Line i of a segment is due at start_at + i / rate, whatever the
    child's pace (independent users). A segment ends once its timed
    lines are answered; the lines after them keep the stream going
    until then, so the output buffer flushes as in a continuous stream.
    Between segments the child idles with its stdin open.
    """

    def __init__(self, child: Child):
        self.child = child
        self.stdin_fd = child.proc.stdin.fileno()
        self.stdout_fd = child.proc.stdout.fileno()
        os.set_blocking(self.stdin_fd, False)
        self.sent: list[bytes] = []

    def segment(self, lines: list[bytes], timed: int, rate: float,
                start_at: float):
        """Send lines on schedule until the first `timed` are answered.

        Returns the latency of each timed line, how late the generator
        handed each sent line to the pipe, and the largest number of
        lines sent but not yet answered.
        """
        child, base = self.child, len(self.sent)
        due = [start_at + i / rate for i in range(len(lines))]
        lag: list[float] = []
        pending = bytearray()
        sent = backlog_max = 0
        with selectors.DefaultSelector() as sel:
            sel.register(self.stdout_fd, selectors.EVENT_READ)
            writing = False
            while len(child.stamps) < base + timed:
                now = time.perf_counter()
                while sent < len(lines) and due[sent] <= now:
                    pending += lines[sent]
                    lag.append(now - due[sent])
                    sent += 1
                backlog_max = max(backlog_max,
                                  base + sent - len(child.stamps))
                if pending:
                    try:
                        del pending[:os.write(self.stdin_fd, pending)]
                    except BlockingIOError:
                        pass
                if bool(pending) != writing:
                    if pending:
                        sel.register(self.stdin_fd, selectors.EVENT_WRITE)
                    else:
                        sel.unregister(self.stdin_fd)
                    writing = bool(pending)
                timeout = child.check_deadline()
                if sent < len(lines):
                    timeout = min(timeout, max(0.0, due[sent] - now))
                elif not pending:
                    raise RuntimeError("open loop: ran out of lines before "
                                       "the timed ones were answered")
                for key, _ in sel.select(timeout):
                    if key.fd == self.stdout_fd:
                        data = os.read(self.stdout_fd, _READ)
                        if not data:
                            raise RuntimeError("open loop: extract closed "
                                               "its output early")
                        child.on_data(data)
        os.set_blocking(self.stdin_fd, True)  # the lines counted as sent
        while pending:
            del pending[:os.write(self.stdin_fd, pending)]
        os.set_blocking(self.stdin_fd, False)
        self.sent += lines[:sent]
        latency = [child.stamps[base + i] - due[i] for i in range(timed)]
        return latency, lag, backlog_max

    def close(self):
        """End the stream and read the rest of the output."""
        self.child.proc.stdin.close()
        self.child.read()
