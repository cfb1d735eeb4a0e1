"""The stat-validated content digest (``repro.service.specfile``).

Invalidation stays by content: every way a file can come to hold other
bytes is seen, inside the racy window by reading, outside it by the
signature; an unchanged file outside the window is never opened again.
"""

import builtins
import hashlib
import os
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.service import ServiceConfig, SimulatedServiceRuntime, specfile
from repro.service.handlers import SpecCache
from repro.service.pool import request_fingerprint
from repro.service.protocol import ProtocolError

REPO_ROOT = Path(__file__).resolve().parents[2]
CAMPUS = str(REPO_ROOT / "examples" / "campus.nmsl")
AGED_NS = 10 * specfile.RACY_WINDOW_NS


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture
def aged(monkeypatch):
    """Every file the test writes reads as older than the racy window
    (the clock is put ahead; nothing sleeps)."""
    monkeypatch.setattr(
        specfile, "_clock_ns", lambda: time.time_ns() + AGED_NS
    )


@pytest.fixture
def opens(monkeypatch):
    """Paths opened through the module, in order."""
    seen = []

    def counting_open(path, *args, **kwargs):
        seen.append(str(path))
        return builtins.open(path, *args, **kwargs)

    monkeypatch.setattr(specfile, "open", counting_open, raising=False)
    return seen


class TestUnchangedFile:
    def test_aged_file_is_hashed_once_over_a_thousand_calls(
        self, tmp_path, aged, opens
    ):
        spec = tmp_path / "a.nmsl"
        spec.write_bytes(b"domain d {}\n")
        digests = specfile.SpecDigests()
        answers = {digests.digest(str(spec)) for _ in range(1000)}
        assert answers == {_sha(b"domain d {}\n")}
        assert opens == [str(spec)]

    def test_young_file_is_read_every_time(self, tmp_path, opens):
        spec = tmp_path / "a.nmsl"
        spec.write_bytes(b"one")
        digests = specfile.SpecDigests()
        for _ in range(5):
            assert digests.digest(str(spec)) == _sha(b"one")
        assert len(opens) == 5
        assert not digests._memo

    def test_read_hands_back_bytes_only_when_it_read_them(
        self, tmp_path, aged
    ):
        spec = tmp_path / "a.nmsl"
        spec.write_bytes(b"one")
        digests = specfile.SpecDigests()
        assert digests.read(str(spec)) == (_sha(b"one"), b"one")
        assert digests.read(str(spec)) == (_sha(b"one"), None)
        assert digests.read(str(spec), need_bytes=True) == (
            _sha(b"one"), b"one",
        )

    def test_memo_is_bounded(self, tmp_path, aged, monkeypatch):
        monkeypatch.setattr(specfile, "MEMO_LIMIT", 3)
        digests = specfile.SpecDigests()
        for index in range(10):
            spec = tmp_path / f"{index}.nmsl"
            spec.write_bytes(b"x")
            digests.digest(str(spec))
        assert len(digests._memo) == 3

    def test_unreadable_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            specfile.SpecDigests().digest(str(tmp_path / "missing.nmsl"))
        with pytest.raises(OSError):
            specfile.SpecDigests().digest(str(tmp_path))  # a directory


class TestEveryRewriteIsSeen:
    def test_same_size_rewrite_right_after_hashing(self, tmp_path):
        spec = tmp_path / "a.nmsl"
        digests = specfile.SpecDigests()
        for content in (b"one", b"two", b"six", b"one"):
            spec.write_bytes(content)
            assert digests.digest(str(spec)) == _sha(content)

    def test_rewrite_with_mtime_put_back(self, tmp_path, aged):
        spec = tmp_path / "a.nmsl"
        spec.write_bytes(b"one")
        digests = specfile.SpecDigests()
        assert digests.digest(str(spec)) == _sha(b"one")
        assert str(spec) in digests._memo
        before = os.stat(spec)
        spec.write_bytes(b"two")
        os.utime(spec, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(spec)
        assert (after.st_size, after.st_mtime_ns) == (
            before.st_size, before.st_mtime_ns,
        )
        assert digests.digest(str(spec)) == _sha(b"two")  # ctime moved

    def test_size_change_with_mtime_put_back(self, tmp_path, aged):
        spec = tmp_path / "a.nmsl"
        spec.write_bytes(b"one")
        digests = specfile.SpecDigests()
        digests.digest(str(spec))
        before = os.stat(spec)
        spec.write_bytes(b"three")
        os.utime(spec, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert digests.digest(str(spec)) == _sha(b"three")

    def test_replace_by_rename(self, tmp_path, aged):
        spec = tmp_path / "a.nmsl"
        spec.write_bytes(b"one")
        digests = specfile.SpecDigests()
        digests.digest(str(spec))
        before = os.stat(spec)
        staged = tmp_path / "a.nmsl.new"
        staged.write_bytes(b"two")
        os.utime(staged, ns=(before.st_atime_ns, before.st_mtime_ns))
        os.replace(staged, spec)
        assert digests.digest(str(spec)) == _sha(b"two")  # another inode

    def test_symlink_retarget(self, tmp_path, aged):
        first, second = tmp_path / "first.nmsl", tmp_path / "second.nmsl"
        first.write_bytes(b"one")
        second.write_bytes(b"two")
        os.utime(second, ns=(os.stat(first).st_atime_ns,
                             os.stat(first).st_mtime_ns))
        link = tmp_path / "current.nmsl"
        link.symlink_to(first)
        digests = specfile.SpecDigests()
        assert digests.digest(str(link)) == _sha(b"one")
        link.unlink()
        link.symlink_to(second)
        assert digests.digest(str(link)) == _sha(b"two")

    def test_file_that_changes_under_the_read_is_not_remembered(
        self, tmp_path, aged, monkeypatch
    ):
        """fstat before and after the read disagree: the digest is
        answered, but filed under neither signature."""
        spec = tmp_path / "a.nmsl"
        spec.write_bytes(b"one")
        real_fstat = os.fstat
        calls = []

        def fstat(fd):
            status = real_fstat(fd)
            calls.append(fd)
            if len(calls) == 1:
                # Between the two looks another writer touches the file.
                os.utime(spec, ns=(status.st_atime_ns, status.st_mtime_ns + 1))
            return status

        monkeypatch.setattr(specfile.os, "fstat", fstat)
        digests = specfile.SpecDigests()
        assert digests.digest(str(spec)) == _sha(b"one")
        assert not digests._memo

    def test_threads_racing_a_rewriter_never_file_a_wrong_digest(
        self, tmp_path, aged
    ):
        """Readers hammer the digest while a writer rewrites same-size
        contents (restoring mtime half the time).  Whatever the memo
        holds at any moment belongs to the bytes with that signature."""
        spec = tmp_path / "a.nmsl"
        spec.write_bytes(b"v000")
        digests = specfile.SpecDigests()
        stop = threading.Event()
        wrong = []
        lock = threading.Lock()  # makes write+stat+record one step

        written = {}

        def record():
            status = os.stat(spec)
            written[specfile._signature(status)] = _sha(spec.read_bytes())

        record()

        def writer():
            for round_ in range(1, 200):
                with lock:
                    before = os.stat(spec)
                    spec.write_bytes(b"v%03d" % round_)
                    if round_ % 2:
                        os.utime(
                            spec, ns=(before.st_atime_ns, before.st_mtime_ns)
                        )
                    record()
            stop.set()

        def reader():
            while not stop.is_set():
                digests.digest(str(spec))
                with lock:
                    entry = digests._memo.get(str(spec))
                    if entry is not None and entry[0] in written:
                        if written[entry[0]] != entry[1]:
                            wrong.append(entry)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader) for _ in range(4)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []
        assert digests.digest(str(spec)) == _sha(b"v199")


class TestCallers:
    def test_fingerprint_sees_an_edit_outside_the_window(
        self, tmp_path, aged
    ):
        spec = tmp_path / "a.nmsl"
        spec.write_text("one")
        before = request_fingerprint("check", {"spec": str(spec)})
        assert before == request_fingerprint("check", {"spec": str(spec)})
        spec.write_text("two")
        assert before != request_fingerprint("check", {"spec": str(spec)})

    def test_fingerprint_value_is_the_one_the_parent_commit_computed(self):
        """Quarantine entries are keyed by this value; it did not move."""
        digest = hashlib.sha256()
        digest.update(b"check\x00")
        digest.update(('{"spec":"%s"}' % CAMPUS).encode("utf-8"))
        digest.update(b"\x00spec\x00")
        digest.update(hashlib.sha256(Path(CAMPUS).read_bytes()).digest())
        assert (
            request_fingerprint("check", {"spec": CAMPUS})
            == digest.hexdigest()
        )

    def test_path_with_a_nul_byte_still_fingerprints(self):
        assert len(request_fingerprint("check", {"spec": "a\x00b"})) == 64
        with pytest.raises(ProtocolError) as caught:
            SpecCache().get("a\x00b")
        assert caught.value.kind == "bad-request"

    def test_cache_hit_opens_nothing_and_an_edit_recompiles(
        self, tmp_path, aged, opens
    ):
        spec = tmp_path / "campus.nmsl"
        spec.write_bytes(Path(CAMPUS).read_bytes())
        cache = SpecCache()
        first = cache.get(str(spec))
        assert opens == [str(spec)]  # read once: hashed and compiled
        for _ in range(100):
            assert cache.get(str(spec)) is first
        assert opens == [str(spec)]
        assert (cache.hits, cache.misses) == (100, 1)
        spec.write_bytes(Path(CAMPUS).read_bytes() + b"\n")
        second = cache.get(str(spec))
        assert second is not first
        assert second.text_hash != first.text_hash
        assert (cache.hits, cache.misses) == (100, 2)
        assert len(opens) == 2

    def test_digest_known_but_nothing_compiled_reads_the_text(
        self, tmp_path, aged, opens
    ):
        """The supervisor's fingerprint hashed the file first (same
        process, as in the simulated runtime): the cache still gets its
        text."""
        spec = tmp_path / "campus.nmsl"
        spec.write_bytes(Path(CAMPUS).read_bytes())
        specfile.spec_digest(str(spec))
        session = SpecCache().get(str(spec))
        assert session.text_hash == _sha(Path(CAMPUS).read_bytes())
        assert len(opens) == 2

    def test_compile_fingerprint_is_the_sha256_of_the_file_bytes(
        self, tmp_path
    ):
        """...which is what the parent commit answered (the hash of the
        decoded-and-re-encoded text) for every file without a ``\\r``."""
        for path in sorted((REPO_ROOT / "examples").glob("*.nmsl")):
            data = path.read_bytes()
            assert b"\r" not in data
            parent_value = _sha(
                path.read_text(encoding="utf-8").encode("utf-8")
            )
            assert SpecCache().get(str(path)).text_hash == parent_value
            assert parent_value == _sha(data)
        crlf = tmp_path / "crlf.nmsl"
        crlf.write_bytes(Path(CAMPUS).read_bytes().replace(b"\n", b"\r\n"))
        session = SpecCache().get(str(crlf))
        assert session.text_hash == _sha(crlf.read_bytes())
        # The compiler still sees universal newlines, as read_text() gave.
        assert (
            session.result.specification.counts()
            == SpecCache().get(CAMPUS).result.specification.counts()
        )

    def test_simulated_transcripts_stay_byte_identical(self):
        def transcript():
            runtime = SimulatedServiceRuntime(ServiceConfig(workers=2))
            for index in range(6):
                runtime.offer(
                    0.1 * index,
                    {"id": f"r{index}",
                     "op": "compile" if index % 2 else "check",
                     "params": {"spec": CAMPUS}, "cost_s": 0.05},
                )
            runtime.run()
            return runtime.transcript_text()

        first = transcript()
        assert first == transcript()
        assert _sha(Path(CAMPUS).read_bytes()) in first
