"""The "sec2"-style POSIX file driver.

HDF5's default driver (named *sec2* after the POSIX section-2 syscalls)
maps the format's flat address space one-to-one onto file offsets and issues
plain ``pread``/``pwrite`` calls.  :class:`Sec2VFD` does exactly that over
the simulated filesystem, so every format-level address materializes as a
POSIX operation with a modeled device cost.
"""

from __future__ import annotations

from repro.posix.simfs import SimFS
from repro.vfd.base import IoClass, VirtualFileDriver

__all__ = ["Sec2VFD"]


class Sec2VFD(VirtualFileDriver):
    """POSIX passthrough driver over :class:`~repro.posix.simfs.SimFS`.

    Args:
        fs: The simulated filesystem.
        path: File path to open.
        mode: A :meth:`SimFS.open` mode (``"r"``, ``"r+"``, ``"w"``...).
    """

    def __init__(self, fs: SimFS, path: str, mode: str = "r") -> None:
        self._fs = fs
        self._path = path
        self._fd: int | None = fs.open(path, mode)

    @property
    def path(self) -> str:
        return self._path

    @property
    def fs(self) -> SimFS:
        """The filesystem this driver operates on."""
        return self._fs

    def _require_open(self) -> int:
        if self._fd is None:
            raise ValueError(f"VFD for {self._path!r} is closed")
        return self._fd

    def read(self, addr: int, nbytes: int, io_class: IoClass) -> bytes:
        fd = self._fd
        if fd is None:
            self._require_open()
        return self._fs.pread(fd, nbytes, addr)

    def write(self, addr: int, data: bytes, io_class: IoClass) -> None:
        fd = self._fd
        if fd is None:
            self._require_open()
        self._fs.pwrite(fd, data, addr)

    def get_eof(self) -> int:
        return self._fs.file_size(self._require_open())

    def truncate(self, size: int) -> None:
        self._fs.truncate(self._require_open(), size)

    def close(self) -> None:
        if self._fd is not None:
            self._fs.close(self._fd)
            self._fd = None
