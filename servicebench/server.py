"""The server under test, in its own process.

:class:`ServerProcess` boots ``launcher.py`` (which runs
``repro.service.http``), waits for its ``serving on`` line, reads its
peak resident memory, and always stops and reaps it.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """Have the kernel send SIGTERM to the server if the benchmark
    process dies first, so a killed run leaves no server behind."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    libc.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)


class ServerError(RuntimeError):
    """The server failed to boot or to stop cleanly."""


class ServerProcess:
    """One ``repro.serve`` process bound to an ephemeral port."""

    def __init__(
        self,
        serve_args: list[str],
        *,
        trace_out: str | None = None,
    ) -> None:
        argv = [sys.executable, os.path.join(HERE, "launcher.py")]
        if trace_out is not None:
            argv += ["--trace-out", trace_out]
        argv += ["--", "--port", "0", "--workers", "1", *serve_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        env.pop("REPRO_SERVICE_FAULTS", None)
        env.pop("REPRO_SANITIZE", None)
        self.trace_out = trace_out
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, preexec_fn=_die_with_parent,
        )
        self.url = ""
        self._stderr: list[str] = []
        self._drain = threading.Thread(
            target=self._read_stderr, name="server-stderr", daemon=True
        )
        self._drain.start()

    def _read_stderr(self) -> None:
        assert self.proc.stderr is not None
        for line in self.proc.stderr:
            self._stderr.append(line)

    def wait_ready(self) -> str:
        """Block until the server prints its address; returns the URL."""
        assert self.proc.stdout is not None
        timer = threading.Timer(BOOT_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            timer.cancel()
        if not line.startswith("serving on "):
            self.stop()
            raise ServerError(
                f"server did not boot: {line!r} {''.join(self._stderr)}"
            )
        self.url = line.split()[-1]
        return self.url

    def peak_rss_mb(self) -> float:
        """VmHWM of the live server process, in MiB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (a clean shutdown that writes the trace), then
        SIGKILL if the process has not exited in time; always reaps."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._drain.join(STOP_TIMEOUT_S)
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    @property
    def stderr(self) -> str:
        return "".join(self._stderr)
