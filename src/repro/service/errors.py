"""Typed service errors, mapped 1:1 onto HTTP responses.

Every failure the ingest/query plane can hand a client is a
:class:`ServiceError` subclass carrying a stable machine-readable
``code`` (the contract clients and tests match on — never the message
text), an HTTP status, and optional JSON-safe ``details``.  The HTTP
layer renders any raised ``ServiceError`` as::

    HTTP/1.1 <status> ...
    Content-Type: application/json

    {"error": "<code>", "message": "<human text>", "details": {...}}

so a truncated upload, a quota breach, and a bad token are all
distinguishable mechanically, not by parsing prose.
"""

from __future__ import annotations

from typing import Dict

__all__ = [
    "ServiceError",
    "BadRequest",
    "TruncatedTrace",
    "MalformedTrace",
    "RetiredTrace",
    "BadName",
    "AuthRequired",
    "UnknownRun",
    "NotFound",
    "QuotaExceeded",
    "PayloadTooLarge",
    "HeadersTooLarge",
    "RequestTimeout",
]


class ServiceError(Exception):
    """Base of every typed service failure."""

    status = 500
    code = "internal-error"

    def __init__(self, message: str, **details: object) -> None:
        super().__init__(message)
        self.message = message
        self.details: Dict[str, object] = details

    def to_json_dict(self) -> dict:
        return {"error": self.code, "message": self.message,
                "details": self.details}


class BadRequest(ServiceError):
    status = 400
    code = "bad-request"


class TruncatedTrace(BadRequest):
    """Upload too short to carry the four trace magic bytes.

    The streamed-body counterpart of
    :class:`repro.mapper.persist.UnknownTraceFormat`; ``details`` name
    the byte count so a client can tell an empty POST from a cut-off
    stream.
    """

    code = "unknown-trace-format"


class MalformedTrace(BadRequest):
    """Sniffed fine but failed to decode as the sniffed format."""

    code = "malformed-trace"


class RetiredTrace(BadRequest):
    """Upload in the retired row-binary trace format (``DYU1`` magic).

    The upload counterpart of
    :class:`repro.mapper.persist.RetiredTraceFormat`.
    """

    code = "retired-trace-format"


class BadName(BadRequest):
    """Run id (or tenant name) outside the allowed character set."""

    code = "bad-name"


class AuthRequired(ServiceError):
    status = 401
    code = "unauthorized"


class NotFound(ServiceError):
    status = 404
    code = "not-found"


class UnknownRun(NotFound):
    code = "unknown-run"


class QuotaExceeded(ServiceError):
    """Tenant byte or run-count quota would be exceeded."""

    status = 413
    code = "quota-exceeded"


class PayloadTooLarge(ServiceError):
    """Single upload larger than the service's body cap."""

    status = 413
    code = "payload-too-large"


class HeadersTooLarge(ServiceError):
    """Request header block over the service's line or byte cap."""

    status = 431
    code = "headers-too-large"


class RequestTimeout(ServiceError):
    """Request headers and body not received within the deadline."""

    status = 408
    code = "request-timeout"
