"""The urllib client for the experiment server.

``repro submit|jobs|watch|fetch`` and any user script speak the ``/v1``
API through this one class, so the CLI is an ordinary API consumer with
no private channel into the server.  Connection details come either from
an explicit URL or from the ``server.json`` discovery file a running
``repro serve`` maintains in its state directory.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Dict, Iterator, List, Optional

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """The server rejected a request or cannot be reached."""

    def __init__(self, message: str, status: int = 0, path: str = "") -> None:
        super().__init__(message)
        self.status = status
        self.path = path  # scenario path for validation errors, if any


class ServiceClient:
    """A thin JSON-over-HTTP client for one experiment server."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    @classmethod
    def discover(cls, state_dir: Path, timeout: float = 30.0) -> "ServiceClient":
        """Connect via the ``server.json`` a running server wrote."""
        path = Path(state_dir) / "server.json"
        try:
            meta = json.loads(path.read_text(encoding="utf-8"))
            url = str(meta["url"])
        except (OSError, ValueError, KeyError) as exc:
            raise ServiceError(
                f"no running server found at {path} (start one with 'repro serve'): {exc}"
            ) from exc
        return cls(url, timeout=timeout)

    # -- plumbing ------------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, object]] = None,
        raw: bool = False,
    ):
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            f"{self.base_url}{path}", data=data, headers=headers, method=method
        )
        try:
            response = urllib.request.urlopen(request, timeout=self.timeout)
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode("utf-8", "replace")
            scenario_path = ""
            try:
                payload = json.loads(detail)
                detail = str(payload.get("error", detail))
                scenario_path = str(payload.get("path", ""))
            except ValueError:
                pass
            raise ServiceError(detail, status=exc.code, path=scenario_path) from None
        except urllib.error.URLError as exc:
            raise ServiceError(f"cannot reach {self.base_url}: {exc.reason}") from None
        if raw:
            return response
        with response:
            text = response.read().decode("utf-8")
        return json.loads(text) if text else {}

    # -- API surface ---------------------------------------------------------

    def healthz(self) -> Dict[str, object]:
        return self._request("GET", "/v1/healthz")

    def scenarios(self) -> List[Dict[str, object]]:
        return self._request("GET", "/v1/scenarios")["scenarios"]

    def submit(
        self,
        document: Optional[Dict[str, object]] = None,
        template: Optional[str] = None,
    ) -> Dict[str, object]:
        body: Dict[str, object] = {}
        if template is not None:
            body["template"] = template
        if document is not None:
            body["document"] = document
        return self._request("POST", "/v1/jobs", body=body)

    def jobs(self) -> List[Dict[str, object]]:
        return self._request("GET", "/v1/jobs")["jobs"]

    def job(self, job_id: str) -> Dict[str, object]:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def result(self, job_id: str) -> Dict[str, object]:
        return self._request("GET", f"/v1/jobs/{job_id}/result")

    def serialized(self, job_id: str) -> str:
        response = self._request("GET", f"/v1/jobs/{job_id}/serialized", raw=True)
        with response:
            return response.read().decode("utf-8")

    def figure(self, job_id: str) -> str:
        response = self._request("GET", f"/v1/jobs/{job_id}/figure", raw=True)
        with response:
            return response.read().decode("utf-8")

    def trace_manifest(self, job_id: str) -> List[str]:
        return self._request("GET", f"/v1/jobs/{job_id}/trace")["traces"]

    def trace(self, job_id: str, name: str) -> bytes:
        response = self._request("GET", f"/v1/jobs/{job_id}/trace?name={name}", raw=True)
        with response:
            return response.read()

    def stream_events(self, job_id: str, follow: bool = True) -> Iterator[Dict[str, object]]:
        """Yield events from the job's JSONL stream as they arrive.

        With ``follow`` the connection stays open until the job finishes
        (the server closes it) and the server's blank keep-alive lines are
        skipped; without, it is a snapshot of events so far.
        """
        suffix = "" if follow else "?follow=0"
        response = self._request("GET", f"/v1/jobs/{job_id}/events{suffix}", raw=True)
        with response:
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))

    def wait(self, job_id: str, timeout: Optional[float] = None, poll: float = 0.2):
        """Poll until the job is terminal; returns the final snapshot."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            snapshot = self.job(job_id)
            if snapshot.get("status") in ("done", "failed"):
                return snapshot
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(f"timed out waiting for job {job_id}")
            time.sleep(poll)
