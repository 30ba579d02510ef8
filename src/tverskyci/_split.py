"""Count a record file in byte ranges on every CPU, for ``ingest``.

``ingest`` asks for ranges only when a file's header (or first JSON record)
is its first line. A regular file is cut just after newlines into one byte
range per CPU this process may run on, at most ``MAX_WORKERS`` and each at
least the length ``ingest`` gives, unless other threads run. Each range is
decoded as ``open`` decodes the serial count (``io.TextIOWrapper``), in text
blocks of 16 Ki characters each taken on to the end of the line it cuts, so
that ``ingest`` can count a block of common rows at once. This process counts
the first range after that line; forked workers count the others and send
their four counts back over pipes. If any range fails, ``ingest`` counts the
whole file again in one process, which reports the error.
"""

from __future__ import annotations

import _thread
import io
import itertools
import os
import stat
from collections.abc import Callable, Iterator

MAX_WORKERS = 8
_BLOCK = 1 << 14  # characters in a range's text block, unless a line is longer


def cut(fd: int, min_range: int) -> list[tuple[int, int]]:
    """Byte ranges [start, end) of the file open as fd, the first from byte
    0, about min_range bytes or more each and each cut just after a newline,
    which ends a line under universal newlines and never falls inside a
    UTF-8 character; [] to count in this process."""
    info = os.fstat(fd)
    if not stat.S_ISREG(info.st_mode):
        return []
    # fork copies only the calling thread, so never fork beside another one.
    if not hasattr(os, "fork") or _thread._count():
        return []
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    size = info.st_size
    k = min(MAX_WORKERS, cpus, size // min_range)
    if k < 2:
        return []
    cuts = [0] + [_line_end(fd, size * i // k, size) for i in range(1, k)]
    ranges = [(a, b) for a, b in zip(cuts, cuts[1:] + [size]) if a < b]
    return ranges if len(ranges) > 1 else []


class _Range(io.RawIOBase):
    """Bytes [start, end) of the file open as fd, each read with os.pread,
    which leaves the file offset shared with the forked workers alone."""

    def __init__(self, fd: int, start: int, end: int) -> None:
        self.fd, self.at, self.end = fd, start, end

    def readable(self) -> bool:
        return True

    def readinto(self, buffer: bytearray | memoryview) -> int:
        data = os.pread(self.fd, min(len(buffer), self.end - self.at), self.at)
        buffer[: len(data)] = data
        self.at += len(data)
        return len(data)


def _line_end(fd: int, at: int, end: int) -> int:
    """The offset just after the first newline at or after at, or end."""
    reader = io.BufferedReader(_Range(fd, at, end))
    while line := reader.readline(_BLOCK):
        at += len(line)
        if line.endswith(b"\n"):
            return at
    return end


def _range_blocks(fd: int, start: int, end: int) -> Iterator[str]:
    r"""The text of bytes [start, end) of the file open as fd as open() reads
    it, in blocks of _BLOCK characters each taken on to the end of the line
    it cuts: each line but perhaps the range's last ends at a \n."""
    text = io.TextIOWrapper(_Range(fd, start, end), encoding="utf-8")
    while block := text.read(_BLOCK):
        yield block if block[-1] == "\n" else block + text.readline()


def count_ranges(
    fd: int, ranges: list[tuple[int, int]], count: Callable[[Iterator[str], list], None]
) -> list | None:
    """Count the first range here, after its first line, and each other in
    a forked worker, with count(blocks, cells) on its _range_blocks; each
    range's cells, or None if any failed."""
    children = []  # (pid, read end of its pipe)
    parts = [[0, 0, 0, 0]]
    try:
        for start, end in ranges[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _work(count, _range_blocks(fd, start, end), write)
            os.close(write)
            children.append((pid, read))
        blocks = _range_blocks(fd, *ranges[0])
        # Less the header or first JSON record, which ingest has read.
        count(itertools.chain([next(blocks).partition("\n")[2]], blocks), parts[0])
    except Exception:  # of any kind: the serial count raises it in file order
        parts[0] = None
    finally:
        for pid, read in children:  # each ends when its range is counted
            with open(read, "rb") as pipe:
                reply = pipe.read()
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # reaped already: SIGCHLD is ignored
                pass
            parts.append([int(n) for n in reply.split()] if reply.endswith(b"\n") else None)
    return None if None in parts else parts


def _work(count: Callable[[Iterator[str], list], None], blocks: Iterator[str], write: int) -> None:
    """In a forked worker: count blocks, write the four counts and a newline
    to the pipe end write at once (under PIPE_BUF bytes, so atomic), and
    exit without running exit handlers or flushing the buffers copied from
    the parent; a reply without the newline is a range that failed."""
    try:
        cells = [0, 0, 0, 0]
        count(blocks, cells)
        os.write(write, f"{cells[0]} {cells[1]} {cells[2]} {cells[3]}\n".encode())
    finally:
        os._exit(0)
