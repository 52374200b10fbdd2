"""The directory server processes of one benchmark run.

Each server is a real ``python -m repro.cli serve`` process (or
``traced_serve.py`` for per-layer runs) listening on a unix socket in the
run directory.  :class:`Fleet` owns every process it starts: ``close``
interrupts them, waits, and kills whatever is left, and an ``atexit``
hook does the same if the benchmark dies without reaching ``close``.
"""

from __future__ import annotations

import asyncio
import atexit
import os
import pathlib
import signal
import sys

HERE = pathlib.Path(__file__).resolve().parent

#: How long a server may take to bind its listener.
START_TIMEOUT_S = 60.0
#: How long an interrupted server may take to exit before it is killed.
STOP_TIMEOUT_S = 10.0

_live_pids: set[int] = set()


@atexit.register
def _reap_leftovers() -> None:
    for pid in list(_live_pids):
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
        _live_pids.discard(pid)


def _interruptible() -> None:
    """Run in each child before it execs: a shell starts background jobs
    with SIGINT ignored, and the server would inherit that and outlive
    :meth:`Fleet.stop`'s interrupt until the kill."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Server:
    """One spawned directory process.

    Attributes:
        label: ``A`` (queried) or ``B`` (backbone peer).
        address: ``unix:<path>`` protocol address.
        spans: JSON-lines span dump (traced servers only).
    """

    def __init__(self, label: str, address: str, spans: pathlib.Path | None):
        self.label = label
        self.address = address
        self.spans = spans
        self.process: asyncio.subprocess.Process | None = None
        self._drain: asyncio.Task | None = None

    def peak_rss_mib(self) -> float:
        """Peak resident set size (``VmHWM``) of the live process, MiB."""
        status = pathlib.Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")


class Fleet:
    """Spawns and reaps the servers of one run.

    Args:
        root: repository checkout (``src`` goes on the servers' path).
        rundir: per-run scratch directory, relative to the working
            directory so unix socket paths stay short.
        config: deployment config file the servers load.
        log: file receiving the servers' stderr.
    """

    def __init__(self, root: pathlib.Path, rundir: pathlib.Path, config: pathlib.Path, log) -> None:
        self.root = root
        self.rundir = rundir
        self.config = config
        self.log = log
        self.servers: list[Server] = []
        self._spawned = 0

    async def spawn(
        self, label: str, node_id: int, peers: dict[int, str] | None = None, traced: bool = False
    ) -> Server:
        """Start one server and wait until it listens."""
        self._spawned += 1
        name = f"{label}{self._spawned}"
        server = Server(
            label,
            f"unix:{self.rundir / (name + '.sock')}",
            self.rundir / f"{name}.spans.jsonl" if traced else None,
        )
        if traced:
            command = [
                sys.executable, str(HERE / "traced_serve.py"),
                "--spans", str(server.spans), "--label", label,
            ]
        else:
            command = [sys.executable, "-m", "repro.cli", "serve"]
        command += [
            "--listen", server.address, "--config", str(self.config),
            "--node-id", str(node_id), "--assume-directory",
        ]
        for peer_id, address in (peers or {}).items():
            command += ["--peer", f"{peer_id}={address}"]
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        server.process = await asyncio.create_subprocess_exec(
            *command, stdout=asyncio.subprocess.PIPE, stderr=self.log, env=env,
            preexec_fn=_interruptible,
        )
        _live_pids.add(server.process.pid)
        self.servers.append(server)
        try:
            await asyncio.wait_for(self._until_listening(server), START_TIMEOUT_S)
        except asyncio.TimeoutError:
            raise RuntimeError(f"server {name} did not start listening") from None
        server._drain = asyncio.ensure_future(server.process.stdout.read())
        return server

    async def _until_listening(self, server: Server) -> None:
        while True:
            line = await server.process.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"server {server.label} exited with {await server.process.wait()} "
                    "before listening (see its stderr in the run log)"
                )
            if b"listening on" in line:
                return

    async def stop(self, server: Server) -> None:
        """Interrupt one server, wait for it, kill it if it hangs."""
        process = server.process
        if process.returncode is None:
            process.send_signal(signal.SIGINT)
            try:
                await asyncio.wait_for(process.wait(), STOP_TIMEOUT_S)
            except asyncio.TimeoutError:
                process.kill()
                await process.wait()
        if server._drain is not None:
            await server._drain
        _live_pids.discard(process.pid)
        self.servers.remove(server)

    async def close(self) -> None:
        """Stop every server still running."""
        for server in list(self.servers):
            await self.stop(server)
