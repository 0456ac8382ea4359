"""Unit tests for stubs, placement policies, and the retry policy."""

import re

import pytest

from repro.core.placement import (
    MostFreePlacement,
    RandomPlacement,
    RoundRobinPlacement,
)
from repro.transport.recovery import RetryPolicy
from repro.core.stubs import Stub, unique_data_name
from repro.util.clock import ManualClock
from repro.util.errors import DisconnectedError, InvalidRequestError, StaleHandleError


class TestStub:
    def test_roundtrip(self):
        stub = Stub("host5", 9094, "/mydpfs/file596")
        assert Stub.decode(stub.encode()) == stub

    def test_encode_is_one_json_line(self):
        raw = Stub("h", 1, "/p").encode()
        assert raw.endswith(b"\n")
        assert raw.count(b"\n") == 1

    def test_not_json_rejected(self):
        with pytest.raises(InvalidRequestError):
            Stub.decode(b"\x00\x01binary garbage")

    def test_wrong_document_rejected(self):
        with pytest.raises(InvalidRequestError):
            Stub.decode(b'{"some": "other json"}')

    def test_missing_field_rejected(self):
        with pytest.raises(InvalidRequestError):
            Stub.decode(b'{"tss": "stub", "host": "h"}')

    def test_is_stub(self):
        assert Stub.is_stub(Stub("h", 1, "/p").encode())
        assert not Stub.is_stub(b"plain text")

    def test_endpoint(self):
        assert Stub("h", 9094, "/p").endpoint == ("h", 9094)


class TestUniqueDataName:
    def test_names_are_unique(self):
        names = {unique_data_name() for _ in range(500)}
        assert len(names) == 500

    def test_names_are_path_safe(self):
        name = unique_data_name()
        assert "/" not in name
        assert " " not in name
        assert name.startswith("file-")

    def test_names_carry_ip_time_and_random(self):
        # The paper's recipe: client IP, current time, a random number.
        first, second = unique_data_name(), unique_data_name()
        assert first != second
        pattern = r"file-\d{1,3}(-\d{1,3}){3}-[0-9a-f]+-[0-9a-f]{8}"
        for name in (first, second):
            assert re.fullmatch(pattern, name), name
        # the IP part is resolved once, so it never varies within a process
        assert first.rsplit("-", 2)[0] == second.rsplit("-", 2)[0]


class TestRoundRobin:
    def test_cycles_through_all(self):
        policy = RoundRobinPlacement(seed=1)
        servers = [("a", 1), ("b", 2), ("c", 3)]
        picks = [policy.choose(servers) for _ in range(9)]
        assert all(picks.count(s) == 3 for s in servers)

    def test_respects_exclusion(self):
        policy = RoundRobinPlacement(seed=1)
        servers = [("a", 1), ("b", 2)]
        picks = {policy.choose(servers, frozenset({("a", 1)})) for _ in range(10)}
        assert picks == {("b", 2)}

    def test_all_excluded_raises(self):
        policy = RoundRobinPlacement()
        with pytest.raises(LookupError):
            policy.choose([("a", 1)], frozenset({("a", 1)}))


class TestRandom:
    def test_deterministic_under_seed(self):
        servers = [("a", 1), ("b", 2), ("c", 3)]
        a = [RandomPlacement(seed=7).choose(servers) for _ in range(5)]
        b = [RandomPlacement(seed=7).choose(servers) for _ in range(5)]
        assert a == b

    def test_eventually_covers_all(self):
        policy = RandomPlacement(seed=3)
        servers = [("a", 1), ("b", 2), ("c", 3)]
        picks = {policy.choose(servers) for _ in range(100)}
        assert picks == set(servers)


class TestMostFree:
    class FakePool:
        """Stands in for ClientPool: statfs per endpoint, or down."""

        def __init__(self, free):
            self.free = free

        def try_get(self, host, port):
            if self.free.get((host, port)) is None:
                return None
            pool = self

            class C:
                def statfs(self):
                    from repro.chirp.protocol import StatFs

                    return StatFs(10**9, pool.free[(host, port)])

            return C()

    def test_picks_roomiest(self):
        pool = self.FakePool({("a", 1): 100, ("b", 2): 900, ("c", 3): 500})
        policy = MostFreePlacement(pool)
        assert policy.choose([("a", 1), ("b", 2), ("c", 3)]) == ("b", 2)

    def test_skips_unreachable(self):
        pool = self.FakePool({("a", 1): 100, ("b", 2): None})
        policy = MostFreePlacement(pool)
        assert policy.choose([("a", 1), ("b", 2)]) == ("a", 1)

    def test_all_unreachable_raises(self):
        pool = self.FakePool({("a", 1): None})
        policy = MostFreePlacement(pool)
        with pytest.raises(LookupError):
            policy.choose([("a", 1)])


class TestRetryPolicy:
    def test_delays_are_exponential_and_capped(self):
        policy = RetryPolicy(
            max_attempts=6, initial_delay=1.0, multiplier=2.0, max_delay=5.0
        )
        assert list(policy.delays()) == [1.0, 2.0, 4.0, 5.0, 5.0]

    def test_success_first_try_never_recovers(self):
        calls = {"recover": 0}
        policy = RetryPolicy(clock=ManualClock())
        result = policy.run(lambda: 42, lambda: calls.__setitem__("recover", 1))
        assert result == 42
        assert calls["recover"] == 0

    def test_recovers_after_transient_disconnect(self):
        clock = ManualClock()
        policy = RetryPolicy(max_attempts=3, initial_delay=0.1, clock=clock)
        state = {"fails": 2, "recovered": 0}

        def op():
            if state["fails"] > 0:
                state["fails"] -= 1
                raise DisconnectedError("down")
            return "ok"

        assert policy.run(op, lambda: state.__setitem__("recovered", state["recovered"] + 1)) == "ok"
        assert state["recovered"] == 2
        assert clock.now() == pytest.approx(0.1 + 0.2)

    def test_attempts_exhausted_raises_disconnected(self):
        policy = RetryPolicy(max_attempts=3, initial_delay=0.01, clock=ManualClock())

        def op():
            raise DisconnectedError("always down")

        with pytest.raises(DisconnectedError):
            policy.run(op, lambda: None)

    def test_max_attempts_one_disables_retry(self):
        clock = ManualClock()
        policy = RetryPolicy(max_attempts=1, clock=clock)

        def op():
            raise DisconnectedError("down")

        with pytest.raises(DisconnectedError):
            policy.run(op, lambda: None)
        assert clock.now() == 0  # never slept

    def test_recover_failure_burns_attempts(self):
        policy = RetryPolicy(max_attempts=3, initial_delay=0.01, clock=ManualClock())
        recover_calls = {"n": 0}

        def op():
            raise DisconnectedError("down")

        def recover():
            recover_calls["n"] += 1
            raise DisconnectedError("still down")

        with pytest.raises(DisconnectedError):
            policy.run(op, recover)
        assert recover_calls["n"] >= 1

    def test_stale_handle_from_recover_propagates_immediately(self):
        policy = RetryPolicy(max_attempts=5, initial_delay=0.01, clock=ManualClock())

        def op():
            raise DisconnectedError("down")

        def recover():
            raise StaleHandleError("file replaced")

        with pytest.raises(StaleHandleError):
            policy.run(op, recover)

    def test_non_disconnect_errors_pass_through(self):
        policy = RetryPolicy(clock=ManualClock())

        def op():
            raise ValueError("unrelated")

        with pytest.raises(ValueError):
            policy.run(op, lambda: None)
