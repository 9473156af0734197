"""REPROLINT fork-safety checking (RL121-RL125)."""

import textwrap

from repro.selfcheck.engine import analyze_modules
from repro.selfcheck.loader import scan_source


def codes(source, path="inline.py"):
    module = scan_source(path, textwrap.dedent(source))
    return [f.code for f in analyze_modules([module])]


class TestRL121DispatchShapes:
    def test_lambda_to_pool_map(self):
        source = """\
        def launch(pool, chunks):
            return pool.map(lambda c: sum(c), chunks)
        """
        assert codes(source) == ["RL121"]

    def test_nested_function_to_pool_map(self):
        source = """\
        def launch(pool, chunks):
            def worker(chunk):
                return sum(chunk)
            return pool.map(worker, chunks)
        """
        assert codes(source) == ["RL121"]

    def test_module_level_function_is_fine(self):
        source = """\
        def worker(chunk):
            return sum(chunk)


        def launch(pool, chunks):
            return pool.map(worker, chunks)
        """
        assert codes(source) == []


class TestWorkerBodyRules:
    def test_captured_global_lock(self):
        source = """\
        # repro: workers
        import threading

        _LOCK = threading.Lock()


        def worker(chunk):
            with _LOCK:
                return sum(chunk)
        """
        assert codes(source) == ["RL122"]

    def test_local_name_shadows_global(self):
        source = """\
        # repro: workers
        import threading

        _LOCK = threading.Lock()


        def worker(chunk):
            _LOCK = threading.Lock()
            with _LOCK:
                return sum(chunk)
        """
        assert codes(source) == []

    def test_unsharable_default_argument(self):
        source = """\
        # repro: workers
        import threading


        def worker(chunk, guard=threading.Lock()):
            return sum(chunk)
        """
        assert codes(source) == ["RL123"]

    def test_global_statement(self):
        source = """\
        # repro: workers
        _TOTAL = 0


        def worker(chunk):
            global _TOTAL
            _TOTAL += sum(chunk)
            return _TOTAL
        """
        assert codes(source) == ["RL124"]

    def test_bare_activation_leaks(self):
        source = """\
        # repro: workers
        from repro.obs.context import TraceContext, activate


        def worker(chunk):
            activate(TraceContext.new())
            return sum(chunk)
        """
        assert codes(source) == ["RL125"]

    def test_with_scoped_activation_is_fine(self):
        source = """\
        # repro: workers
        from repro.obs.context import TraceContext, activate


        def worker(chunk):
            with activate(TraceContext.new()):
                return sum(chunk)
        """
        assert codes(source) == []

    def test_exitstack_enter_context_is_fine(self):
        source = """\
        # repro: workers
        import contextlib

        from repro.obs.context import TraceContext, activate


        def worker(chunk):
            with contextlib.ExitStack() as stack:
                stack.enter_context(activate(TraceContext.new()))
                return sum(chunk)
        """
        assert codes(source) == []

    def test_rules_apply_only_to_workers(self):
        # same body, no workers marker, never dispatched: not a worker
        source = """\
        import threading

        _LOCK = threading.Lock()


        def helper(chunk):
            with _LOCK:
                return sum(chunk)
        """
        assert codes(source) == []

    def test_dispatched_function_is_checked_without_marker(self):
        source = """\
        import threading

        _LOCK = threading.Lock()


        def worker(chunk):
            with _LOCK:
                return sum(chunk)


        def launch(pool, chunks):
            return pool.map(worker, chunks)
        """
        assert codes(source) == ["RL122"]

    def test_process_target_is_checked_without_marker(self):
        source = """\
        import threading

        _LOCK = threading.Lock()


        def worker(writer, chunk):
            with _LOCK:
                writer.send(sum(chunk))


        def launch(context, writer, chunk):
            return context.Process(target=worker, args=(writer, chunk))
        """
        assert codes(source) == ["RL122"]
