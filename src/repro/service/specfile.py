"""The one place ``repro.service`` reads a specification file.

"Is this the text I already compiled?" is answered by the SHA-256 of
the file's bytes, remembered under the file's stat signature so that an
unchanged file is not read again.  Stat alone cannot see a same-size
rewrite inside one timestamp tick (git's *racily clean* entry), so a
digest is remembered only if ``mtime`` and ``ctime`` were both older
than :data:`RACY_WINDOW_NS` when the bytes were read: any later write
then lands in a later tick and moves ``mtime`` — or ``ctime``, should
``os.utime`` put ``mtime`` back.  A younger file is read on every call
until it has aged.  Assumes the wall clock and the filesystem's
timestamps do not run backwards.
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from time import time_ns as _clock_ns
from typing import Optional, Tuple

#: 2 s covers filesystems that stamp whole seconds.
RACY_WINDOW_NS = 2_000_000_000

#: Paths remembered per process (the one hashed longest ago goes first).
MEMO_LIMIT = 64


def _signature(status: os.stat_result) -> Tuple[int, int, int, int, int]:
    return (
        status.st_dev, status.st_ino, status.st_size,
        status.st_mtime_ns, status.st_ctime_ns,
    )


class SpecDigests:
    """Content digests of files, remembered by stat signature.

    No lock (a fork could inherit one held): each step on the memo is a
    single dict operation and an entry is believed only while the file
    still has its signature, so racing writers cost a re-hash at worst.
    """

    def __init__(self) -> None:
        self._memo: "OrderedDict[str, Tuple[tuple, str]]" = OrderedDict()

    def digest(self, path: str) -> str:
        """SHA-256 (hex) of the bytes of *path*; raises :class:`OSError`."""
        return self.read(path)[0]

    def read(
        self, path: str, need_bytes: bool = False
    ) -> Tuple[str, Optional[bytes]]:
        """``(digest, bytes)``; the bytes are None when the signature
        answered and *need_bytes* is false.  Raises :class:`OSError`."""
        if not need_bytes:
            entry = self._memo.get(path)
            if entry is not None and entry[0] == _signature(os.stat(path)):
                return entry[1], None
        read_ns = _clock_ns()
        with open(path, "rb") as handle:
            # The handle that is read, so the signature is of these bytes.
            before = _signature(os.fstat(handle.fileno()))
            data = handle.read()
            after = _signature(os.fstat(handle.fileno()))
        digest = hashlib.sha256(data).hexdigest()
        if before == after and max(after[3:]) + RACY_WINDOW_NS < read_ns:
            self._memo[path] = (after, digest)
            while len(self._memo) > MEMO_LIMIT:
                self._memo.popitem(last=False)
        return digest, data


#: Per process: the supervisor's poison registry and the spec cache (in
#: the daemon or a pool worker) ask the same question of the same files.
_digests = SpecDigests()
spec_digest = _digests.digest
read_spec = _digests.read
