"""Minimal JSON-over-HTTP helper for the embedding and generation endpoints."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

TIMEOUT_S = 60.0


class HttpCallError(Exception):
    def __init__(self, cause: str):
        self.cause = cause
        super().__init__(cause)


def post_json(url: str, payload: dict) -> dict:
    """POST a JSON body and decode a JSON response. Raises HttpCallError on
    any transport, status, or decode problem."""
    body = json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}, method="POST"
    )
    try:
        with urllib.request.urlopen(req, timeout=TIMEOUT_S) as resp:
            status = getattr(resp, "status", 200)
            if status != 200:
                raise HttpCallError(f"status {status}")
            raw = resp.read()
    except urllib.error.HTTPError as exc:
        raise HttpCallError(f"status {exc.code}") from exc
    except (urllib.error.URLError, OSError, TimeoutError) as exc:
        raise HttpCallError(str(exc)) from exc
    try:
        out = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, a too-long integer, deep nesting
        raise HttpCallError(f"invalid JSON response: {exc}") from exc
    if not isinstance(out, dict):
        raise HttpCallError("response is not a JSON object")
    return out
