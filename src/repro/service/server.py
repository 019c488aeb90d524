"""The stdlib HTTP surface over :class:`~repro.service.jobs.JobManager`.

``ThreadingHTTPServer`` plus hand-rolled routing — no framework, no new
dependency, mirroring the repo-wide stdlib-only rule.  Responses speak
HTTP/1.0 so the streamed ``/events`` body is delimited by connection
close rather than chunked encoding.

Routes (all under ``/v1``)::

    GET  /v1/healthz              liveness + version + job counts
    GET  /v1/scenarios            the scenario registry listing
    POST /v1/jobs                 submit {"template": name} or {"document": {...}}
    GET  /v1/jobs                 all job snapshots
    GET  /v1/jobs/<id>            one job snapshot
    GET  /v1/jobs/<id>/events     streaming JSONL (follow until terminal,
                                  blank keep-alive lines while quiet;
                                  ?follow=0 for a snapshot)
    GET  /v1/jobs/<id>/result     terminal summary: digest + outcome rows
    GET  /v1/jobs/<id>/serialized canonical serialized results (text/plain)
    GET  /v1/jobs/<id>/figure     rendered per-process tables (text/plain)
    GET  /v1/jobs/<id>/trace      trace manifest; ?name=<file> fetches one

A running server maintains ``server.json`` in its state directory so
clients (``repro submit`` etc.) can discover the URL without flags.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro._version import __version__
from repro.experiments.report import format_process_table
from repro.ioutil import atomic_write_json
from repro.scenarios import ScenarioError, ScenarioRegistry
from repro.service.jobs import JobError, JobManager

__all__ = ["ExperimentServer", "serve"]

_MAX_BODY = 4 * 1024 * 1024  # a scenario document has no business being larger
# An events follower re-reads the file at least this often; the job's
# completion wakes it at once.
_EVENTS_WAIT_S = 0.05
# A follower that has written nothing for this long writes a blank line,
# so a quiet job does not trip the client's socket timeout.
_KEEPALIVE_S = 10.0


def _through_job_finished(chunk: bytes) -> Optional[int]:
    """The length of ``chunk`` through its first ``job.finished`` line, or
    ``None`` if it holds none."""
    end = 0
    for line in chunk.splitlines(keepends=True):
        end += len(line)
        if b'"job.finished"' in line and json.loads(line).get("kind") == "job.finished":
            return end
    return None


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.0"  # connection close delimits streamed bodies
    server_version = f"repro/{__version__}"

    # The owning ExperimentServer injects itself on the server object.
    @property
    def manager(self) -> JobManager:
        return self.server.experiment_manager  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        echo = getattr(self.server, "experiment_echo", None)
        if echo is not None:
            echo(f"{self.address_string()} {format % args}")

    # -- response helpers ----------------------------------------------------

    def _send_json(self, code: int, payload: Dict[str, object]) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, code: int, text: str, content_type: str = "text/plain") -> None:
        body = text.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", f"{content_type}; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, code: int, message: str, path: str = "") -> None:
        payload: Dict[str, object] = {"error": message}
        if path:
            payload["path"] = path
        self._send_json(code, payload)

    # -- routing -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib signature
        try:
            self._route_get()
        except JobError as exc:
            self._send_error_json(self._job_error_code(exc), str(exc))
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-stream
        except Exception as exc:  # pragma: no cover - defensive
            self._send_error_json(500, f"internal error: {exc}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib signature
        try:
            self._route_post()
        except (BrokenPipeError, ConnectionResetError):
            pass
        except Exception as exc:  # pragma: no cover - defensive
            self._send_error_json(500, f"internal error: {exc}")

    @staticmethod
    def _job_error_code(exc: JobError) -> int:
        text = str(exc)
        if "unknown job" in text:
            return 404
        if "still" in text:  # result requested before the job finished
            return 409
        return 400

    def _route_get(self) -> None:
        parsed = urllib.parse.urlsplit(self.path)
        query = dict(urllib.parse.parse_qsl(parsed.query))
        parts = [part for part in parsed.path.split("/") if part]
        if parts == ["v1", "healthz"]:
            self._send_json(
                200, {"status": "ok", "version": __version__, "jobs": self.manager.stats()}
            )
        elif parts == ["v1", "scenarios"]:
            self._send_json(200, {"scenarios": self.manager.registry.entries()})
        elif parts == ["v1", "jobs"]:
            self._send_json(200, {"jobs": self.manager.jobs()})
        elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            self._send_json(200, self.manager.job(parts[2]).snapshot())
        elif len(parts) == 4 and parts[:2] == ["v1", "jobs"]:
            job_id, leaf = parts[2], parts[3]
            if leaf == "events":
                self._stream_events(job_id, follow=query.get("follow", "1") != "0")
            elif leaf == "result":
                self._send_json(200, self.manager.result_payload(job_id))
            elif leaf == "serialized":
                self._send_text(200, self.manager.serialized_text(job_id))
            elif leaf == "figure":
                self._send_text(200, self._render_figure(job_id))
            elif leaf == "trace":
                self._send_trace(job_id, query.get("name"))
            else:
                self._send_error_json(404, f"no such endpoint: {parsed.path}")
        else:
            self._send_error_json(404, f"no such endpoint: {parsed.path}")

    def _route_post(self) -> None:
        parsed = urllib.parse.urlsplit(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        if parts != ["v1", "jobs"]:
            self._send_error_json(404, f"no such endpoint: {parsed.path}")
            return
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        # A negative length would make rfile.read() wait for the client to
        # close the connection.
        if length < 0:
            self._send_error_json(400, f"bad Content-Length: {header!r}")
            return
        if length > _MAX_BODY:
            self._send_error_json(413, f"body exceeds {_MAX_BODY} bytes")
            return
        try:
            body = json.loads(self.rfile.read(length).decode("utf-8") or "{}")
        except ValueError as exc:
            self._send_error_json(400, f"request body is not valid JSON: {exc}")
            return
        if not isinstance(body, dict):
            self._send_error_json(400, "request body must be a JSON object")
            return
        document = body.get("document")
        template = body.get("template")
        if document is None and "scenario" in body:
            document = body  # a bare scenario document is accepted as-is
        try:
            snapshot = self.manager.submit(
                document=document,
                template=str(template) if template is not None else None,
                name=str(body["name"]) if "name" in body else None,
            )
        except ScenarioError as exc:
            self._send_error_json(400, exc.problem, path=exc.path)
            return
        except (JobError, KeyError) as exc:
            self._send_error_json(400, str(exc))
            return
        self._send_json(201, snapshot)

    # -- bodies --------------------------------------------------------------

    def _stream_events(self, job_id: str, follow: bool) -> None:
        path = self.manager.events_path(job_id)  # raises JobError on bad id
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson; charset=utf-8")
        self.end_headers()  # no Content-Length: HTTP/1.0 close delimits
        position = 0
        written_at = time.monotonic()
        # The status is read before each read of the file.  job.finished
        # is written before the job turns terminal, so the first read
        # after a terminal status ends the stream with it.
        terminal = not follow or self.manager.job(job_id).terminal
        while True:
            chunk = b""
            if path.exists():
                with path.open("rb") as handle:
                    handle.seek(position)
                    chunk = handle.read()
                # Whole lines only: a line still being appended is read
                # again next time.
                chunk = chunk[: chunk.rfind(b"\n") + 1]
                position += len(chunk)
            # The stream ends with the first job.finished, even when a
            # later `repro sweep resume` of the job's directory appended
            # sweep.* events after it.
            end = _through_job_finished(chunk)
            if end is not None:
                chunk = chunk[:end]
                terminal = True
            if chunk or time.monotonic() - written_at >= _KEEPALIVE_S:
                self.wfile.write(chunk or b"\n")  # clients skip blank lines
                self.wfile.flush()
                written_at = time.monotonic()
            if terminal:
                return
            terminal = self.manager.wait_terminal(job_id, _EVENTS_WAIT_S)

    def _render_figure(self, job_id: str) -> str:
        """The per-process tables for every ok spec, in spec order."""
        name = self.manager.job(job_id).name
        tables = []
        for outcome, result in self.manager.results(job_id):
            if result is None:
                tables.append(f"spec {outcome.index}: FAILED ({outcome.kind})")
            else:
                tables.append(format_process_table(result, f"{name}[{outcome.index}]"))
        return "\n\n".join(tables) + "\n"

    def _send_trace(self, job_id: str, name: Optional[str]) -> None:
        paths = self.manager.trace_paths(job_id)
        root = self.manager.jobs_dir / job_id / "traces"
        if name is None:
            manifest = [str(path.relative_to(root)) for path in paths]
            self._send_json(200, {"traces": manifest})
            return
        target = (root / name).resolve()
        if target not in [path.resolve() for path in paths]:
            raise JobError(f"unknown trace {name!r} for job {job_id}")
        body = target.read_bytes()
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class ExperimentServer:
    """One job manager plus its HTTP listener, started together.

    ``port=0`` binds an ephemeral port; the resolved address is published
    in ``<state_dir>/server.json`` for client discovery.
    """

    def __init__(
        self,
        state_dir: Path,
        registry: Optional[ScenarioRegistry] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        timeout_s: Optional[float] = None,
        retries: int = 0,
        fsync: bool = True,
        echo=None,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.manager = JobManager(
            self.state_dir,
            registry=registry,
            workers=workers,
            timeout_s=timeout_s,
            retries=retries,
            fsync=fsync,
        )
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.daemon_threads = True
        self.httpd.experiment_manager = self.manager  # type: ignore[attr-defined]
        self.httpd.experiment_echo = echo  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self.httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> None:
        """Start workers and the listener; publish server.json."""
        self.manager.start()
        atomic_write_json(
            self.state_dir / "server.json",
            {
                "url": self.url,
                "host": self.address[0],
                "port": self.address[1],
                "pid": os.getpid(),
                "version": __version__,
            },
        )
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-http", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
        self.manager.stop(timeout=timeout)

    def __enter__(self) -> "ExperimentServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve(
    state_dir: Path,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 2,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    registry: Optional[ScenarioRegistry] = None,
    echo=print,
    install_signals: bool = True,
) -> None:
    """Run a server until SIGINT/SIGTERM — the body of ``repro serve``.

    Signal handlers only set an event; shutdown happens on the main
    thread afterwards, which avoids calling ``httpd.shutdown()`` from
    inside a handler (a classic self-deadlock).
    """
    server = ExperimentServer(
        state_dir,
        registry=registry,
        host=host,
        port=port,
        workers=workers,
        timeout_s=timeout_s,
        retries=retries,
    )
    stop_event = threading.Event()
    if install_signals:
        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(signum, lambda *_args: stop_event.set())
    server.start()
    if echo is not None:
        echo(f"repro service v{__version__} listening on {server.url}")
        echo(f"state: {server.state_dir}  (discovery: {server.state_dir / 'server.json'})")
    try:
        stop_event.wait()
    finally:
        if echo is not None:
            echo("shutting down (running jobs stay adoptable on restart)")
        server.stop()
        # This process is done serving: retire the process-wide warm pool
        # here, deterministically, instead of leaning on exit-time hooks.
        from repro.experiments.pool import shutdown_shared_pool

        shutdown_shared_pool()
