"""Error model shared by the Chirp client, server, and wire protocol.

The Chirp protocol reports failures as small negative integers on the wire,
in the style of the original cctools implementation.  Locally those map to
a :class:`ChirpError` exception hierarchy, and at the server they are
produced from ordinary :class:`OSError` values raised by the host
filesystem.  Keeping the mapping in one module guarantees the client sees
the same error class regardless of whether the failure happened in the
server's access-control check or deep in the host kernel.
"""

from __future__ import annotations

import errno
from enum import IntEnum

__all__ = [
    "StatusCode",
    "ChirpError",
    "NotAuthenticatedError",
    "NotAuthorizedError",
    "DoesNotExistError",
    "AlreadyExistsError",
    "TooBigError",
    "NoSpaceError",
    "InvalidRequestError",
    "TooManyOpenError",
    "BusyError",
    "TryAgainError",
    "BadFileDescriptorError",
    "IsADirectoryError_",
    "NotADirectoryError_",
    "NotEmptyError",
    "CrossDeviceLinkError",
    "DisconnectedError",
    "CircuitOpenError",
    "PartialFailureError",
    "TimedOutError",
    "StaleHandleError",
    "IntegrityError",
    "UnknownError",
    "status_from_exception",
    "error_from_status",
    "wrap_os_error",
    "busy_message",
    "parse_retry_after",
]


class StatusCode(IntEnum):
    """Negative wire status codes, one per failure class.

    A non-negative wire status is a successful result value (for example a
    file descriptor from ``open`` or a byte count from ``pread``), so all
    failure codes are strictly negative.
    """

    NOT_AUTHENTICATED = -1
    NOT_AUTHORIZED = -2
    DOESNT_EXIST = -3
    ALREADY_EXISTS = -4
    TOO_BIG = -5
    NO_SPACE = -6
    NO_MEMORY = -7
    INVALID_REQUEST = -8
    TOO_MANY_OPEN = -9
    BUSY = -10
    TRY_AGAIN = -11
    BAD_FD = -12
    IS_DIR = -13
    NOT_DIR = -14
    NOT_EMPTY = -15
    CROSS_DEVICE_LINK = -16
    DISCONNECTED = -17
    TIMED_OUT = -18
    STALE = -19
    UNKNOWN = -127


class ChirpError(Exception):
    """Base class for every protocol-visible failure.

    :ivar status: the :class:`StatusCode` carried on the wire.
    """

    status: StatusCode = StatusCode.UNKNOWN

    def __init__(self, message: str = ""):
        super().__init__(message or self.status.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.status.name}: {self})"


class NotAuthenticatedError(ChirpError):
    status = StatusCode.NOT_AUTHENTICATED


class NotAuthorizedError(ChirpError):
    status = StatusCode.NOT_AUTHORIZED


class DoesNotExistError(ChirpError):
    status = StatusCode.DOESNT_EXIST


class AlreadyExistsError(ChirpError):
    status = StatusCode.ALREADY_EXISTS


class TooBigError(ChirpError):
    status = StatusCode.TOO_BIG


class NoSpaceError(ChirpError):
    status = StatusCode.NO_SPACE


class NoMemoryError(ChirpError):
    status = StatusCode.NO_MEMORY


class InvalidRequestError(ChirpError):
    status = StatusCode.INVALID_REQUEST


class TooManyOpenError(ChirpError):
    status = StatusCode.TOO_MANY_OPEN


class BusyError(ChirpError):
    """The server refused the work because it is saturated or draining.

    Unlike every other refusal this one is *server-driven backoff*: the
    message may carry a ``retry_after_ms=<int>`` token (see
    :func:`busy_message`), surfaced here as ``retry_after_s``.  Clients
    honor the hint instead of their own backoff schedule, and a BUSY
    refusal never moves the circuit breaker -- a shedding server is the
    server *working*, not the transport failing.
    """

    status = StatusCode.BUSY

    def __init__(self, message: str = "", retry_after_s: "float | None" = None):
        super().__init__(message)
        if retry_after_s is None:
            retry_after_s = parse_retry_after(message)
        self.retry_after_s = retry_after_s


class TryAgainError(ChirpError):
    status = StatusCode.TRY_AGAIN


class BadFileDescriptorError(ChirpError):
    status = StatusCode.BAD_FD


class IsADirectoryError_(ChirpError):
    status = StatusCode.IS_DIR


class NotADirectoryError_(ChirpError):
    status = StatusCode.NOT_DIR


class NotEmptyError(ChirpError):
    status = StatusCode.NOT_EMPTY


class CrossDeviceLinkError(ChirpError):
    status = StatusCode.CROSS_DEVICE_LINK


class DisconnectedError(ChirpError):
    """The TCP connection to the server was lost.

    Raised locally by the client; never carried on the wire.  Per the
    paper's failure semantics, the server frees all state (open files) on
    disconnect, so recovery is the adapter's job (reconnect, re-open,
    verify inode).
    """

    status = StatusCode.DISCONNECTED


class CircuitOpenError(DisconnectedError):
    """The endpoint's circuit breaker is open: recent consecutive transport
    failures exceeded the threshold, so calls fail fast without dialing
    until the cooldown elapses (see :mod:`repro.transport.health`).

    Subclasses :class:`DisconnectedError` so every existing recovery and
    failover path treats a breaker-rejected endpoint exactly like a dead
    one -- just without paying for the doomed TCP handshake.
    """


class PartialFailureError(DisconnectedError):
    """A multi-server operation lost *some* of its servers.

    Raised by striped I/O so the caller learns exactly which stripes died
    instead of a bare disconnect.  ``failures`` is a tuple of
    ``(index, "host:port", reason)`` triples, one per failed participant.
    """

    def __init__(self, message: str = "", failures: tuple = ()):
        self.failures = tuple(failures)
        if self.failures and message:
            names = ", ".join(f"#{i}@{ep}" for i, ep, _ in self.failures)
            message = f"{message} [{names}]"
        super().__init__(message)

    @property
    def endpoints(self) -> tuple[str, ...]:
        """The distinct ``host:port`` labels that failed."""
        seen = []
        for _, ep, _ in self.failures:
            if ep not in seen:
                seen.append(ep)
        return tuple(seen)


class TimedOutError(ChirpError):
    status = StatusCode.TIMED_OUT


class StaleHandleError(ChirpError):
    """The file changed identity across a reconnect (renamed or deleted).

    This mirrors the NFS "stale file handle" behaviour the paper adopts:
    after reconnecting, the adapter ``stat``\\ s the re-opened file, and if
    the inode differs the original handle is declared stale.
    """

    status = StatusCode.STALE


class UnknownError(ChirpError):
    status = StatusCode.UNKNOWN


class IntegrityError(ChirpError):
    """Fetched bytes do not hash to the expected content digest.

    Raised locally by checksum-verified readers (client, DSDB, replfs);
    never carried on the wire.  The server that produced the bytes is a
    *lying* replica -- readers treat this like a replica failure: fail
    over, mark the replica suspect/damaged, and let repair machinery
    re-replicate from an intact copy.
    """

    status = StatusCode.UNKNOWN


_ERRNO_TO_STATUS = {
    errno.ENOENT: StatusCode.DOESNT_EXIST,
    # EIO deliberately maps to UNKNOWN (and UNKNOWN maps back to EIO in
    # _STATUS_TO_ERRNO): a disk I/O error carries no more protocol
    # meaning than "the resource failed", and readers must not confuse
    # it with a policy refusal like NO_SPACE.
    errno.EIO: StatusCode.UNKNOWN,
    errno.EEXIST: StatusCode.ALREADY_EXISTS,
    errno.EACCES: StatusCode.NOT_AUTHORIZED,
    errno.EPERM: StatusCode.NOT_AUTHORIZED,
    errno.EFBIG: StatusCode.TOO_BIG,
    errno.ENOSPC: StatusCode.NO_SPACE,
    errno.EDQUOT: StatusCode.NO_SPACE,
    errno.ENOMEM: StatusCode.NO_MEMORY,
    errno.EINVAL: StatusCode.INVALID_REQUEST,
    errno.EMFILE: StatusCode.TOO_MANY_OPEN,
    errno.ENFILE: StatusCode.TOO_MANY_OPEN,
    errno.EBUSY: StatusCode.BUSY,
    errno.EAGAIN: StatusCode.TRY_AGAIN,
    errno.EBADF: StatusCode.BAD_FD,
    errno.EISDIR: StatusCode.IS_DIR,
    errno.ENOTDIR: StatusCode.NOT_DIR,
    errno.ENOTEMPTY: StatusCode.NOT_EMPTY,
    errno.EXDEV: StatusCode.CROSS_DEVICE_LINK,
    errno.ETIMEDOUT: StatusCode.TIMED_OUT,
    errno.ESTALE: StatusCode.STALE,
    errno.ENAMETOOLONG: StatusCode.INVALID_REQUEST,
    errno.ELOOP: StatusCode.INVALID_REQUEST,
}

_STATUS_TO_ERROR: dict[int, type[ChirpError]] = {
    StatusCode.NOT_AUTHENTICATED: NotAuthenticatedError,
    StatusCode.NOT_AUTHORIZED: NotAuthorizedError,
    StatusCode.DOESNT_EXIST: DoesNotExistError,
    StatusCode.ALREADY_EXISTS: AlreadyExistsError,
    StatusCode.TOO_BIG: TooBigError,
    StatusCode.NO_SPACE: NoSpaceError,
    StatusCode.NO_MEMORY: NoMemoryError,
    StatusCode.INVALID_REQUEST: InvalidRequestError,
    StatusCode.TOO_MANY_OPEN: TooManyOpenError,
    StatusCode.BUSY: BusyError,
    StatusCode.TRY_AGAIN: TryAgainError,
    StatusCode.BAD_FD: BadFileDescriptorError,
    StatusCode.IS_DIR: IsADirectoryError_,
    StatusCode.NOT_DIR: NotADirectoryError_,
    StatusCode.NOT_EMPTY: NotEmptyError,
    StatusCode.CROSS_DEVICE_LINK: CrossDeviceLinkError,
    StatusCode.DISCONNECTED: DisconnectedError,
    StatusCode.TIMED_OUT: TimedOutError,
    StatusCode.STALE: StaleHandleError,
    StatusCode.UNKNOWN: UnknownError,
}

_STATUS_TO_ERRNO = {
    StatusCode.NOT_AUTHENTICATED: errno.EACCES,
    StatusCode.NOT_AUTHORIZED: errno.EACCES,
    StatusCode.DOESNT_EXIST: errno.ENOENT,
    StatusCode.ALREADY_EXISTS: errno.EEXIST,
    StatusCode.TOO_BIG: errno.EFBIG,
    StatusCode.NO_SPACE: errno.ENOSPC,
    StatusCode.NO_MEMORY: errno.ENOMEM,
    StatusCode.INVALID_REQUEST: errno.EINVAL,
    StatusCode.TOO_MANY_OPEN: errno.EMFILE,
    StatusCode.BUSY: errno.EBUSY,
    StatusCode.TRY_AGAIN: errno.EAGAIN,
    StatusCode.BAD_FD: errno.EBADF,
    StatusCode.IS_DIR: errno.EISDIR,
    StatusCode.NOT_DIR: errno.ENOTDIR,
    StatusCode.NOT_EMPTY: errno.ENOTEMPTY,
    StatusCode.CROSS_DEVICE_LINK: errno.EXDEV,
    StatusCode.DISCONNECTED: errno.EIO,
    StatusCode.TIMED_OUT: errno.ETIMEDOUT,
    StatusCode.STALE: errno.ESTALE,
    StatusCode.UNKNOWN: errno.EIO,
}


def busy_message(retry_after_ms: int, reason: str = "") -> str:
    """Format the message token of a ``BUSY`` refusal.

    The whole message is one percent-escaped wire token, so the hint is
    embedded as ``retry_after_ms=<int>`` where :func:`parse_retry_after`
    can recover it on the client side.
    """
    hint = f"retry_after_ms={max(0, int(retry_after_ms))}"
    return f"{reason} {hint}" if reason else hint


def parse_retry_after(message: str) -> float | None:
    """Extract the ``retry_after_ms=<int>`` hint from a refusal message.

    Returns the hint in *seconds*, or ``None`` when the message carries
    none (an old server, or a BUSY produced from a host ``EBUSY``).
    """
    for word in message.split():
        if word.startswith("retry_after_ms="):
            try:
                return max(0, int(word.partition("=")[2])) / 1000.0
            except ValueError:
                return None
    return None


def status_from_exception(exc: BaseException) -> StatusCode:
    """Map a local exception to the wire status the server should send."""
    if isinstance(exc, ChirpError):
        return exc.status
    if isinstance(exc, OSError) and exc.errno is not None:
        return _ERRNO_TO_STATUS.get(exc.errno, StatusCode.UNKNOWN)
    return StatusCode.UNKNOWN


def error_from_status(status: int, message: str = "") -> ChirpError:
    """Construct the :class:`ChirpError` subclass for a wire status code."""
    try:
        code = StatusCode(status)
    except ValueError:
        return UnknownError(message or f"unknown status {status}")
    cls = _STATUS_TO_ERROR.get(code, UnknownError)
    return cls(message)


def wrap_os_error(exc: OSError, path: str = "") -> ChirpError:
    """The :class:`ChirpError` for an ``OSError`` raised on ``path``."""
    return error_from_status(status_from_exception(exc), f"{path}: {exc.strerror or exc}")


def oserror_from_status(status: int, message: str = "", path: str | None = None) -> OSError:
    """Construct an :class:`OSError` for POSIX-surface callers (the adapter).

    The adapter re-implements the Unix syscall surface, so errors that cross
    it must look like the kernel's: ``OSError`` with a correct ``errno``.
    """
    try:
        code = StatusCode(status)
    except ValueError:
        code = StatusCode.UNKNOWN
    num = _STATUS_TO_ERRNO.get(code, errno.EIO)
    err = OSError(num, message or code.name)
    if path is not None:
        err.filename = path
    return err
