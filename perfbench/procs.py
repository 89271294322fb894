"""Fresh ``repro`` processes under a pinned interpreter environment.

Every timed process is started the way a user starts the CLI
(``python3 -m repro ...``) with the environment below, and reaped
with :func:`os.wait4`, whose rusage gives its peak RSS.

The pinned environment:

* the garbage collector stays on: no ``gc`` call and no environment
  variable changes the interpreter default;
* bytecode caches are explicit: ``PYTHONPYCACHEPREFIX`` points into the
  run's work directory, so nothing is written under ``src/``, and
  set-up compiles the package there once, so timed processes start
  with warm caches as an installed package would;
  ``cli.import_nobytecode_s`` measures the cold-compile case apart;
* ``PYTHONHASHSEED=0``, and every other ``PYTHON*`` variable of the
  caller's environment is dropped (``PYTHONDONTWRITEBYTECODE``,
  ``PYTHONOPTIMIZE`` and the like would change what is measured), as
  is ``REPRO_CACHE_DIR``, so only explicit ``--cache-dir`` flags
  persist state;
* ``TMPDIR`` points into the run's work directory, so the stream
  engine's spill files (the system temp default when no cache
  directory is configured) stay inside the checkout.
"""

from __future__ import annotations

import os
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass


def pinned_env(root: str, pycache: str, tmp: str, *,
               bytecode: bool = True) -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("PYTHON") and key != "REPRO_CACHE_DIR"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = pycache
    env["TMPDIR"] = tmp
    if not bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


@dataclass
class Outcome:
    """One finished process: exit code, output and its costs."""

    code: int
    stdout: str
    stderr: str
    wall_s: float
    peak_rss_mb: float


def run(argv: list[str], env: dict, cwd: str,
        timeout: float = 120.0) -> Outcome:
    """Run one process to completion and reap it with ``wait4``.

    Output is drained through a selector while the process runs, so a
    chatty child never blocks on a full pipe; the wall time spans from
    just before the fork to the reap.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=cwd,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = start + timeout
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            selector.register(proc.stderr, selectors.EVENT_READ)
            while selector.get_map():
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    raise TimeoutError(f"{argv} ran over {timeout} s")
                for key, _ in selector.select(remaining):
                    data = os.read(key.fd, 65536)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        selector.unregister(key.fileobj)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        # a timeout, or this run being stopped: never leave the child
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Outcome(proc.returncode,
                   b"".join(chunks[proc.stdout]).decode(),
                   b"".join(chunks[proc.stderr]).decode(),
                   wall, usage.ru_maxrss / 1024.0)


def repro(args: list[str], env: dict, cwd: str,
          timeout: float = 120.0) -> Outcome:
    return run([sys.executable, "-m", "repro", *args], env, cwd, timeout)


class Daemon:
    """One ``repro serve`` process with default settings on an
    ephemeral port; :meth:`stop` sends SIGTERM and reaps it."""

    def __init__(self, env: dict, cwd: str, timeout: float = 30.0):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            env=env, cwd=cwd, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL)
        line = self._readline(timeout)
        prefix = "repro daemon listening on "
        if not line.startswith(prefix):
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        host, _, port = line[len(prefix):].strip().rpartition(":")
        self.host, self.port = host, int(port)

    def _readline(self, timeout: float) -> str:
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(timeout):
                return ""
        return self.proc.stdout.readline().decode()

    def stop(self, timeout: float = 20.0) -> None:
        """Stop the daemon (SIGTERM, then SIGKILL after *timeout*) and
        reap it."""
        if self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
