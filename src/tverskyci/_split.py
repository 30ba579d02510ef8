"""Count a record file in byte ranges on every CPU, for ``ingest``.

``ingest`` asks for ranges only when a file's header (or first JSON record)
is its first line. A regular file is cut just after newlines into one byte
range per CPU this process may run on, at most ``MAX_WORKERS`` and each at
least the length ``ingest`` gives, unless other threads run. Each range is
read in text blocks of at most 16 KiB (unless a line is longer), each cut
just after a line end and newline-translated, so that ``ingest`` can count
a block of common rows at once. This process counts the first range after
that line; forked workers count the others and send their four counts back
over pipes. If any range fails, ``ingest`` counts the whole file again in
one process, which reports the error.
"""

from __future__ import annotations

import _thread
import itertools
import os
import stat
from collections.abc import Callable, Iterator

MAX_WORKERS = 8
_BLOCK = 1 << 14  # bytes a range reader holds at a time


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


def _line_end(fd: int, at: int, end: int) -> int:
    """The offset just after the first newline at or after at, or end."""
    while at < end:
        block = os.pread(fd, min(_BLOCK, end - at), at)
        if not block:
            break
        newline = block.find(b"\n")
        if newline >= 0:
            return at + newline + 1
        at += len(block)
    return end


def _range_blocks(fd: int, start: int, end: int) -> Iterator[str]:
    r"""The text of bytes [start, end) of the file open as fd in blocks of
    whole lines, each read with os.pread (which leaves the shared file offset
    alone), at most _BLOCK bytes unless a line is longer, cut just after a
    line end, decoded and newline-translated: each line but perhaps the
    range's last ends at a \n."""
    at, line = start, []  # line: the pieces of a line longer than _BLOCK
    while at < end:
        data = os.pread(fd, min(_BLOCK, end - at), at)
        if not data:
            break
        # A \n ends a line, and so does a \r with a byte after it in this
        # block (that of a \r\n is the later \n); both are ASCII, so never
        # inside a UTF-8 character. The range's end ends its last line.
        cut = len(data)
        if at + cut < end:
            cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, cut - 1)) + 1
        if cut:
            line.append(data[:cut])
            yield _text(b"".join(line))
            line = []
            at += cut  # the next block starts at the next line
        else:
            line.append(data)
            at += len(data)
    if line:  # the file ended early
        yield _text(b"".join(line))


def _text(data: bytes) -> str:
    r"""The UTF-8 text data with each \r\n and lone \r made a \n."""
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


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
