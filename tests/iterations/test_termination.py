"""Termination detection for synchronous and asynchronous execution."""

import pytest

from repro.iterations.termination import AsyncTerminationDetector


class TestAsyncTermination:
    def test_initially_terminated(self):
        detector = AsyncTerminationDetector(2)
        assert detector.terminated

    def test_in_flight_blocks_termination(self):
        detector = AsyncTerminationDetector(2)
        detector.sent(3)
        assert detector.in_flight == 3
        assert not detector.terminated
        detector.acked(3)
        assert detector.terminated
        assert detector.sent_count == 3  # acknowledgements don't lower it

    def test_busy_partition_blocks_termination(self):
        detector = AsyncTerminationDetector(2)
        detector.set_idle(0, False)
        assert not detector.terminated
        detector.set_idle(0, True)
        assert detector.terminated

    def test_over_acknowledgement_rejected(self):
        detector = AsyncTerminationDetector(1)
        detector.sent(1)
        detector.acked(1)
        with pytest.raises(RuntimeError):
            detector.acked(1)

    def test_interleaved_send_ack(self):
        detector = AsyncTerminationDetector(2)
        detector.sent(1)
        detector.set_idle(1, False)
        detector.acked(1)          # ack arrives while partition 1 is busy
        assert not detector.terminated
        detector.sent(2)           # busy partition generates more work
        detector.set_idle(1, True)
        assert not detector.terminated
        detector.acked(2)
        assert detector.terminated
