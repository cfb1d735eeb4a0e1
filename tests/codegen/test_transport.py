"""Tests for shipping transports and the ConfigurationGenerator."""

import pytest

from repro.codegen.base import ConfigurationGenerator
from repro.codegen.transport import (
    CallbackTransport,
    FileDropTransport,
    MailSpoolTransport,
    ReliableTransport,
    ShipmentRecord,
    Transport,
)
from repro.errors import CodegenError, TransportError
from repro.nmsl.compiler import NmslCompiler
from repro.rollout import RetryPolicy
from repro.workloads.paper import PAPER_SPEC_TEXT


@pytest.fixture(scope="module")
def generator():
    compiler = NmslCompiler()
    result = compiler.compile(PAPER_SPEC_TEXT)
    return ConfigurationGenerator(compiler, result)


class TestFileDrop:
    def test_writes_one_file_per_element(self, generator, tmp_path):
        records = generator.ship("BartsSnmpd", FileDropTransport(tmp_path))
        assert len(records) == 2
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["cs.wisc.edu.conf", "romano.cs.wisc.edu.conf"]

    def test_file_contents(self, generator, tmp_path):
        generator.ship("BartsSnmpd", FileDropTransport(tmp_path))
        text = (tmp_path / "romano.cs.wisc.edu.conf").read_text()
        assert "community public" in text

    def test_element_filter(self, generator, tmp_path):
        records = generator.ship(
            "BartsSnmpd",
            FileDropTransport(tmp_path),
            elements=["romano.cs.wisc.edu"],
        )
        assert len(records) == 1

    def test_unsafe_names_sanitised(self, tmp_path):
        transport = FileDropTransport(tmp_path)
        record = transport.deliver("../evil", "x")
        assert "/evil" not in record.destination.replace(str(tmp_path), "")


class TestMailSpool:
    def test_message_format(self, generator, tmp_path):
        records = generator.ship("BartsSnmpd", MailSpoolTransport(tmp_path))
        assert all(record.method == "mail" for record in records)
        message = sorted(tmp_path.iterdir())[0].read_text()
        assert message.startswith("From: nmsl-compiler@noc\n")
        assert "Subject: NMSL configuration update for" in message

    def test_recipient_is_element_postmaster(self, generator, tmp_path):
        records = generator.ship("BartsSnmpd", MailSpoolTransport(tmp_path))
        assert records[0].destination == "postmaster@cs.wisc.edu"


class TestCallback:
    def test_receiver_called_per_element(self, generator):
        received = {}
        transport = CallbackTransport(lambda element, text: received.update({element: text}))
        generator.ship("BartsSnmpd", transport)
        assert set(received) == {"romano.cs.wisc.edu", "cs.wisc.edu"}


class TestDistributedGeneration:
    def test_generate_for_element(self, generator):
        config = generator.generate_for_element("BartsSnmpd", "romano.cs.wisc.edu")
        assert config.element == "romano.cs.wisc.edu"
        assert "snmpd.conf for romano" in config.text

    def test_unknown_element_raises(self, generator):
        with pytest.raises(CodegenError, match="no configuration"):
            generator.generate_for_element("BartsSnmpd", "ghost.example")

    def test_acl_output_routed_to_domain_members(self, generator):
        elements = set(generator.documents("acl-table"))
        # domain-level rows are delivered to both member systems
        assert {"romano.cs.wisc.edu", "cs.wisc.edu"} <= elements


class TestOctetAccounting:
    def test_file_octets_are_encoded_utf8_length(self, tmp_path):
        transport = FileDropTransport(tmp_path)
        text = "community publiç # café\n"
        record = transport.deliver("host.example", text)
        assert record.octets == len(text.encode("utf-8"))
        assert record.octets > len(text)  # non-ASCII costs extra octets

    def test_callback_octets_are_encoded_utf8_length(self):
        transport = CallbackTransport(lambda element, text: None)
        record = transport.deliver("host.example", "naïve\n")
        assert record.octets == len("naïve\n".encode("utf-8"))

    def test_mail_octets_count_the_whole_message(self, tmp_path):
        transport = MailSpoolTransport(tmp_path)
        record = transport.deliver("host.example", "x\n")
        spooled = sorted(tmp_path.iterdir())[0]
        assert record.octets == len(spooled.read_bytes())


class TestAtomicWrites:
    def test_no_temporary_left_behind(self, tmp_path):
        FileDropTransport(tmp_path).deliver("host.example", "x\n")
        assert [p.suffix for p in tmp_path.iterdir()] == [".conf"]

    def test_redelivery_replaces_not_appends(self, tmp_path):
        transport = FileDropTransport(tmp_path)
        transport.deliver("host.example", "first\n")
        transport.deliver("host.example", "second\n")
        assert (tmp_path / "host.example.conf").read_text() == "second\n"

    def test_failed_write_leaves_previous_version_intact(self, tmp_path, monkeypatch):
        transport = FileDropTransport(tmp_path)
        transport.deliver("host.example", "good\n")

        import repro.codegen.transport as module

        def torn_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(module.os, "replace", torn_replace)
        with pytest.raises(OSError):
            transport.deliver("host.example", "partial\n")
        assert (tmp_path / "host.example.conf").read_text() == "good\n"


class TestAcknowledgement:
    def test_file_acknowledge_reads_back(self, tmp_path):
        transport = FileDropTransport(tmp_path)
        record = transport.deliver("host.example", "x\n")
        assert transport.acknowledge(record, "x\n")
        assert not transport.acknowledge(record, "y\n")

    def test_file_acknowledge_false_when_file_missing(self, tmp_path):
        transport = FileDropTransport(tmp_path)
        record = transport.deliver("host.example", "x\n")
        (tmp_path / "host.example.conf").unlink()
        assert not transport.acknowledge(record, "x\n")

    def test_mail_acknowledge_checks_spooled_body(self, tmp_path):
        transport = MailSpoolTransport(tmp_path)
        record = transport.deliver("host.example", "payload\n")
        assert transport.acknowledge(record, "payload\n")
        assert not transport.acknowledge(record, "other\n")


class _FlakyTransport(Transport):
    """Fails deliveries until a budget runs out, then succeeds."""

    method = "flaky"

    def __init__(self, failures, ack_failures=0):
        self.failures = failures
        self.ack_failures = ack_failures
        self.deliveries = 0

    def deliver(self, element, text):
        self.deliveries += 1
        if self.failures:
            self.failures -= 1
            raise TransportError("spool unavailable")
        return ShipmentRecord(element, self.method, "dev/null", len(text))

    def acknowledge(self, record, text):
        if self.ack_failures:
            self.ack_failures -= 1
            return False
        return True


class TestReliableTransport:
    POLICY = RetryPolicy(
        max_attempts=3, base_backoff_s=0.01, max_backoff_s=0.1, jitter=0.0
    )

    def make(self, inner):
        sleeps = []
        transport = ReliableTransport(
            inner, policy=self.POLICY, seed=7, sleep=sleeps.append
        )
        return transport, sleeps

    def test_first_attempt_success_records_one_attempt(self, tmp_path):
        transport, sleeps = self.make(FileDropTransport(tmp_path))
        record = transport.deliver("host.example", "x\n")
        assert record.attempts == 1
        assert sleeps == []

    def test_retries_until_success(self):
        inner = _FlakyTransport(failures=2)
        transport, sleeps = self.make(inner)
        record = transport.deliver("host.example", "x\n")
        assert record.attempts == 3
        assert inner.deliveries == 3
        assert len(sleeps) == 2
        assert sleeps == sorted(sleeps)  # exponential growth

    def test_unacknowledged_delivery_is_retried(self):
        inner = _FlakyTransport(failures=0, ack_failures=1)
        transport, _sleeps = self.make(inner)
        record = transport.deliver("host.example", "x\n")
        assert record.attempts == 2

    def test_exhaustion_dead_letters_and_raises(self):
        inner = _FlakyTransport(failures=99)
        transport, sleeps = self.make(inner)
        with pytest.raises(TransportError, match="after 3 attempt"):
            transport.deliver("host.example", "x\n")
        assert transport.dead_letter == ["host.example"]
        assert inner.deliveries == 3
        assert len(sleeps) == 2  # no sleep after the final attempt

    def test_wraps_spool_transport_end_to_end(self, generator, tmp_path):
        transport = ReliableTransport(
            FileDropTransport(tmp_path), policy=self.POLICY, sleep=lambda s: None
        )
        records = generator.ship("BartsSnmpd", transport)
        assert len(records) == 2
        assert all(record.attempts == 1 for record in records)
        assert transport.method == "file"
