"""Blocking stdlib client for the sweep server.

Thin deliberate wrapper over :mod:`http.client` -- tests, the CI smoke
job and small scripts talk to ``repro serve`` through this without any
third-party HTTP stack.  One connection per request, mirroring the
server's ``Connection: close`` protocol.
"""

from __future__ import annotations

import json
import time
from http.client import HTTPConnection
from typing import Iterator

from repro.util.errors import ReproError


class ServeClientError(ReproError):
    """A non-success answer from the server; carries the HTTP status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class ServeClient:
    """Talk to one sweep server.

    Raises :class:`ServeClientError` on any non-2xx answer; the
    ``status`` attribute distinguishes admission rejection (429) from a
    bad spec (400) and friends.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8177,
        *,
        timeout: float = 60.0,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- plumbing ------------------------------------------------------

    def _request(
        self, method: str, path: str, payload: dict | None = None
    ) -> tuple[int, bytes, str]:
        conn = HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            body = None
            headers = {}
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
            ctype = response.getheader("Content-Type", "")
            return response.status, data, ctype
        finally:
            conn.close()

    def _json(self, method: str, path: str, payload: dict | None = None) -> dict:
        status, data, _ctype = self._request(method, path, payload)
        try:
            decoded = json.loads(data) if data else {}
        except ValueError:
            decoded = {"error": data.decode("utf-8", "replace")}
        if status >= 300:
            raise ServeClientError(
                status, decoded.get("error", f"HTTP {status}")
            )
        return decoded

    # -- the API -------------------------------------------------------

    def health(self) -> dict:
        return self._json("GET", "/healthz")

    def metrics(self) -> str:
        status, data, _ctype = self._request("GET", "/metrics")
        if status >= 300:
            raise ServeClientError(status, data.decode("utf-8", "replace"))
        return data.decode("utf-8")

    def submit(self, kind: str, spec: dict, *, priority: int = 0) -> dict:
        return self._json(
            "POST",
            "/jobs",
            {"kind": kind, "spec": spec, "priority": priority},
        )

    def submit_sweep(self, spec: dict, *, priority: int = 0) -> dict:
        return self.submit("sweep", spec, priority=priority)

    def jobs(self) -> list[dict]:
        return self._json("GET", "/jobs")["jobs"]

    def job(self, job_id: str) -> dict:
        return self._json("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> dict:
        return self._json("GET", f"/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> dict:
        return self._json("POST", f"/jobs/{job_id}/cancel")

    def wait(
        self, job_id: str, *, timeout: float = 300.0, poll_s: float = 0.05
    ) -> dict:
        """Poll until the job reaches a terminal state; returns it."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.job(job_id)
            if status["state"] in ("done", "failed", "cancelled"):
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} after {timeout}s"
                )
            time.sleep(poll_s)

    def events(self, job_id: str) -> Iterator[dict]:
        """Stream the job's server-sent events as decoded dicts.

        Yields every ``data:`` payload in order and returns after the
        terminal ``end`` event (or when the server closes the stream).
        """
        conn = HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            conn.request("GET", f"/jobs/{job_id}/events")
            response = conn.getresponse()
            if response.status >= 300:
                data = response.read()
                try:
                    message = json.loads(data).get("error", "")
                except ValueError:
                    message = data.decode("utf-8", "replace")
                raise ServeClientError(response.status, message)
            for raw in response:
                line = raw.decode("utf-8").rstrip("\r\n")
                if not line.startswith("data:"):
                    continue
                record = json.loads(line[len("data:"):].strip())
                yield record
                if record.get("kind") == "end":
                    return
        finally:
            conn.close()
