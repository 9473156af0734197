"""REPROLINT lockset race detection (RL101-RL105)."""

import textwrap

from repro.selfcheck.engine import analyze_modules
from repro.selfcheck.loader import scan_source


def codes(source, path="inline.py"):
    module = scan_source(path, textwrap.dedent(source))
    return [f.code for f in analyze_modules([module])]


SHARED_COUNTER = """\
import threading


class Counter:  # repro: shared
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def bump(self):
        {body}
"""


class TestRL101UnguardedMutation:
    def test_unguarded_mutation_fires(self):
        assert codes(
            SHARED_COUNTER.format(body="self.count += 1")
        ) == ["RL101"]

    def test_mutation_under_lock_is_clean(self):
        source = SHARED_COUNTER.format(
            body="with self._lock:\n            self.count += 1"
        )
        assert codes(source) == []

    def test_init_assignments_are_exempt(self):
        assert codes(SHARED_COUNTER.format(body="pass")) == []

    def test_unshared_class_is_exempt(self):
        source = SHARED_COUNTER.format(body="self.count += 1").replace(
            "  # repro: shared", ""
        )
        assert codes(source) == []

    def test_mutating_method_call_counts(self):
        source = """\
        import threading


        class Bag:  # repro: shared
            def __init__(self):
                self._lock = threading.Lock()
                self.items = []

            def put(self, item):
                self.items.append(item)
        """
        assert codes(source) == ["RL101"]

    def test_allow_comment_suppresses(self):
        source = SHARED_COUNTER.format(
            body="self.count += 1  # repro: allow(RL101)"
        )
        assert codes(source) == []

    def test_private_helper_inherits_call_site_lock(self):
        source = """\
        import threading


        class Counter:  # repro: shared
            def __init__(self):
                self._lock = threading.Lock()
                self.count = 0

            def bump(self):
                with self._lock:
                    self._advance()

            def _advance(self):
                self.count += 1
        """
        assert codes(source) == []

    def test_locked_suffix_asserts_the_lock(self):
        source = """\
        import threading


        class Counter:  # repro: shared
            def __init__(self):
                self._lock = threading.Lock()
                self.count = 0

            def _advance_locked(self):
                self.count += 1
        """
        assert codes(source) == []


class TestRL102TornRead:
    def test_two_guarded_attrs_read_unlocked(self):
        source = """\
        import threading


        class Stats:  # repro: shared
            def __init__(self):
                self._lock = threading.Lock()
                self.hits = 0
                self.misses = 0

            def record(self, hit):
                with self._lock:
                    if hit:
                        self.hits += 1
                    else:
                        self.misses += 1

            def rate(self):
                return self.hits / (self.hits + self.misses)
        """
        assert codes(source) == ["RL102"]

    def test_single_attr_read_is_fine(self):
        source = """\
        import threading


        class Stats:  # repro: shared
            def __init__(self):
                self._lock = threading.Lock()
                self.hits = 0
                self.misses = 0

            def record(self, hit):
                with self._lock:
                    self.hits += 1
                    self.misses += 1

            def hit_total(self):
                return self.hits
        """
        assert codes(source) == []


class TestRL103IOUnderLock:
    def test_write_under_state_lock(self):
        source = """\
        import threading

        from repro.core.fsutil import atomic_write_text


        class Log:  # repro: shared
            def __init__(self):
                self._lock = threading.Lock()
                self.lines = []

            def flush(self, path):
                with self._lock:
                    atomic_write_text(path, "".join(self.lines))
        """
        assert codes(source) == ["RL103"]

    def test_write_under_sink_lock_is_the_fix(self):
        source = """\
        import threading

        from repro.core.fsutil import atomic_write_text


        class Log:  # repro: shared
            def __init__(self):
                self._lock = threading.Lock()
                self._sink_lock = threading.Lock()
                self.lines = []

            def flush(self, path):
                with self._sink_lock:
                    with self._lock:
                        text = "".join(self.lines)
                    atomic_write_text(path, text)
        """
        assert codes(source) == []

    def test_module_function_holding_local_lock(self):
        source = """\
        import threading

        _lock = threading.Lock()


        def flush(path, text):
            with _lock:
                open(path, "w")
        """
        # RL103 (I/O under a lock) and RL131 (non-atomic write)
        assert sorted(codes(source)) == ["RL103", "RL131"]


RL104_SOURCE = """\
import threading


class Digest:  # repro: synchronized-externally
    def __init__(self):
        self.count = 0

    def observe(self):
        self.count += 1


class Owner:  # repro: shared
    def __init__(self):
        self._lock = threading.Lock()
        self.digest = Digest()

    def record(self):
        {body}
"""


class TestRL104ExternallyGuardedCalls:
    def test_unlocked_call_fires(self):
        assert codes(
            RL104_SOURCE.format(body="self.digest.observe()")
        ) == ["RL104"]

    def test_call_under_lock_is_clean(self):
        body = "with self._lock:\n            self.digest.observe()"
        assert codes(RL104_SOURCE.format(body=body)) == []

    def test_guarded_class_internals_are_exempt(self):
        # Digest.observe mutates unlocked, but the contract moves the
        # obligation to the owner: no RL101/RL105 inside Digest
        body = "with self._lock:\n            self.digest.observe()"
        assert codes(RL104_SOURCE.format(body=body)) == []


class TestRL105NoLockAtAll:
    def test_shared_class_without_lock(self):
        source = """\
        class Registry:  # repro: shared
            def __init__(self):
                self.entries = {}

            def put(self, key, value):
                self.entries[key] = value
        """
        assert codes(source) == ["RL105"]

    def test_rl105_subsumes_per_site_reports(self):
        source = """\
        class Registry:  # repro: shared
            def __init__(self):
                self.a = 0
                self.b = 0

            def both(self):
                self.a += 1
                self.b += 1
        """
        assert codes(source) == ["RL105"]

    def test_immutable_shared_class_is_clean(self):
        source = """\
        class Frozen:  # repro: shared
            def __init__(self):
                self.value = 42

            def get(self):
                return self.value
        """
        assert codes(source) == []


class TestSharednessPropagation:
    def test_composition_propagates_sharedness(self):
        source = """\
        import threading


        class Inner:
            def __init__(self):
                self.n = 0

            def tick(self):
                self.n += 1


        class Outer:  # repro: shared
            def __init__(self):
                self._lock = threading.Lock()
                self.inner = Inner()
        """
        # Inner becomes shared through composition and owns no lock
        assert codes(source) == ["RL105"]

    def test_inheritance_propagates_sharedness(self):
        source = """\
        class Base:  # repro: shared
            def __init__(self):
                self.n = 0


        class Child(Base):
            def __init__(self):
                super().__init__()
                self.m = 0

            def tick(self):
                self.m += 1
        """
        assert codes(source) == ["RL105"]

    def test_subclass_mutates_under_the_base_lock(self):
        source = """\
        import threading


        class Core:  # repro: shared
            def __init__(self):
                self._lock = threading.Lock()


        class Child(Core):
            def __init__(self):
                super().__init__()
                self.m = 0

            def tick(self):
                with self._lock:
                    self.m += 1

            def race(self):
                self.m += 1
        """
        # the base's lock counts as owned: a per-site RL101, not RL105
        assert codes(source) == ["RL101"]


class TestSelfGuardedAttributes:
    def test_thread_local_is_per_thread(self):
        source = """\
        import threading


        class Client:  # repro: shared
            def __init__(self):
                self._lock = threading.Lock()
                self._local = threading.local()

            def conns(self):
                self._local.conns = {}
        """
        assert codes(source) == []

    def test_call_into_a_locked_class_is_its_business(self):
        source = """\
        import threading


        class Members:
            def __init__(self):
                self._lock = threading.Lock()
                self._names = set()

            def add(self, name):
                with self._lock:
                    self._names.add(name)


        class Router:  # repro: shared
            def __init__(self):
                self._lock = threading.Lock()
                self.members = Members()

            def join(self, name):
                self.members.add(name)
        """
        assert codes(source) == []

    def test_call_into_an_unlocked_class_still_fires(self):
        source = """\
        import threading


        class Router:  # repro: shared
            def __init__(self):
                self._lock = threading.Lock()
                self.members = set()

            def join(self, name):
                self.members.add(name)
        """
        assert codes(source) == ["RL101"]
