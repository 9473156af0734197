"""What each server role imports, checked in fresh interpreters.

A daemon (``repro-serve serve``) and a cluster router load only the
store, the profile codecs and the observability stack: never the
simulated runtime, the workloads, the experiment harness, the MIR
language or the fork pool.  Everything a role uses to answer a request
is imported before it prints ``listening``: a module first imported
inside ``/get`` or ``/diff`` would be charged to that request.
"""

import json
import os
import subprocess
import sys
import urllib.request

import pytest

import repro
from repro.baselines.dependence_lossless import LosslessDependenceProfiler
from repro.core.events import AccessKind
from repro.core.profile_io import dumps_bytes
from repro.profilers.leap import LeapProfiler
from repro.profilers.whomp import WhompProfiler
from repro.runtime.process import Process

#: packages no server role may load
PROFILING_ONLY = (
    "repro.workloads",
    "repro.runtime",
    "repro.parallel",
    "repro.lang",
    "repro.experiments",
)

PROFILERS = {
    "whomp": WhompProfiler,
    "leap": LeapProfiler,
    "dependence": LosslessDependenceProfiler,
}


def env_with_src():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_fresh(code, *args):
    """Run ``code`` in a new interpreter; return its stdout as JSON."""
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env_with_src(), timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def profiling_modules(loaded):
    return sorted(
        name for name in loaded
        if any(name == p or name.startswith(p + ".") for p in PROFILING_ONLY)
    )


class TestRoleImports:
    @pytest.mark.parametrize(
        "modules",
        [
            "repro.store.serve_cli, repro.store.server, repro.store.service",
            "repro.cluster.cli, repro.cluster.router, repro.cluster.supervisor",
        ],
        ids=["daemon", "cluster"],
    )
    def test_role_loads_no_profiling_package(self, modules):
        loaded = run_fresh(
            f"import json, sys, {modules}; print(json.dumps(list(sys.modules)))"
        )
        assert "repro.store.store" in loaded
        assert profiling_modules(loaded) == []

    def test_public_names_resolve_on_first_use(self):
        code = (
            "import json, sys, repro\n"
            "bare = 'repro.runtime' in sys.modules\n"
            "from repro import LeapProfiler, WhompProfiler, Process, AccessKind\n"
            "from repro.profilers.leap import LeapProfiler as leap\n"
            "try:\n"
            "    repro.no_such_name\n"
            "    missing = False\n"
            "except AttributeError:\n"
            "    missing = True\n"
            "print(json.dumps([bare, LeapProfiler is leap, Process.__module__,"
            " AccessKind.LOAD.name, WhompProfiler.__name__, missing]))"
        )
        assert run_fresh(code) == [
            False, True, "repro.runtime.process", "LOAD", "WhompProfiler", True,
        ]


def make_profile(kind, stride):
    process = Process()
    load = process.instruction("ld", AccessKind.LOAD)
    store = process.instruction("st", AccessKind.STORE)
    block = process.malloc("site", 512, type_name="long[]")
    for step in range(96):
        address = block + (step * stride % 64) * 8
        process.store(store, address)
        process.load(load, address)
    process.free(block)
    process.finish()
    return PROFILERS[kind]().profile(process.trace)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Two runs per profile kind, in both encodings, as a JSON file of
    hex strings a fresh interpreter reads without the profilers."""
    path = tmp_path_factory.mktemp("corpus") / "corpus.json"
    documents = {
        kind: [
            {fmt: dumps_bytes(make_profile(kind, stride), fmt).hex()
             for fmt in ("json", "binary")}
            for stride in (1, 3)
        ]
        for kind in PROFILERS
    }
    path.write_text(json.dumps(documents))
    return str(path)


#: send every read and write the daemon serves, for each profile kind,
#: then print the repro.* modules first loaded while serving them
REQUESTS = r"""
import http.client, json, sys

before = {name for name in sys.modules if name.startswith("repro")}
from repro.core.binformat import StreamWriter

def call(method, path, body=None):
    conn = http.client.HTTPConnection(*ADDRESS, timeout=60)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        payload = response.read()
    finally:
        conn.close()
    assert response.status in (200, 201), (path, response.status, payload[:200])
    return payload

with open(CORPUS) as handle:
    corpus = json.load(handle)
for kind, (first, second) in corpus.items():
    if INGEST:
        call("POST", f"/ingest?workload=a.{kind}", bytes.fromhex(first["json"]))
        call("POST", f"/ingest?workload=b.{kind}", bytes.fromhex(second["binary"]))
        wire = []
        writer = StreamWriter(wire.append)
        writer.send_document(f"a.{kind}", bytes.fromhex(first["binary"]))
        writer.send_document(f"b.{kind}", bytes.fromhex(second["json"]))
        writer.close()
        call("POST", "/ingest/stream", b"".join(wire))
        call("GET", f"/query/runs?kind={kind}")
        call("GET", f"/query/entries?workload=a.{kind}")
    call("GET", f"/get?run=a.{kind}@{kind}")
    call("GET", f"/blob?run=a.{kind}@{kind}")
    call("GET", f"/diff?a=a.{kind}@{kind}&b=b.{kind}@{kind}")
print(json.dumps(sorted(
    name for name in sys.modules
    if name.startswith("repro") and name not in before
)))
"""

DAEMON = r"""
import os, sys
import repro.store.serve_cli
from repro.obs.spans import Telemetry
from repro.store.server import StoreServer
from repro.store.service import serve_until_terminated
from repro.store.store import ProfileStore

ROOT, CORPUS = sys.argv[1:3]
INGEST = True
server = StoreServer(
    ProfileStore(ROOT), port=0, telemetry=Telemetry(),
    trace_out=os.path.join(ROOT, "events.jsonl"),
).start()
ADDRESS = server.address
try:
    exec(REQUESTS)
finally:
    server.stop()
"""

ROUTER = r"""
import sys
import repro.cluster.cli, repro.cluster.supervisor
from repro.cluster.router import ClusterRouter
from repro.store.service import serve_until_terminated

SHARD, CORPUS = sys.argv[1:3]
INGEST = False
router = ClusterRouter(port=0, replicas=1, probe_interval=0)
router.attach_shard("shard0", SHARD)
router.start()
ADDRESS = router.address
try:
    exec(REQUESTS)
finally:
    router.stop()
"""


class TestNoImportInsideARequest:
    def test_daemon_serves_every_kind_without_importing(self, tmp_path, corpus):
        code = f"REQUESTS = {REQUESTS!r}\n{DAEMON}"
        assert run_fresh(code, str(tmp_path), corpus) == []

    def test_router_reads_and_diff_without_importing(self, tmp_path, corpus):
        # the shard is a real daemon process holding a and b of each kind
        shard = subprocess.Popen(
            [sys.executable, "-m", "repro.store.serve_cli", "serve",
             "--root", str(tmp_path), "--port", "0"],
            stdout=subprocess.PIPE, text=True, env=env_with_src(),
        )
        try:
            line = ""
            while not line.startswith("listening "):
                line = shard.stdout.readline()
                assert line, "the shard exited before announcing"
            url = "http://" + line.split()[1]
            with open(corpus) as handle:
                documents = json.load(handle)
            for kind, pair in documents.items():
                for name, document in zip("ab", pair):
                    request = urllib.request.Request(
                        f"{url}/ingest?workload={name}.{kind}",
                        data=bytes.fromhex(document["json"]), method="POST",
                    )
                    urllib.request.urlopen(request, timeout=30).close()
            code = f"REQUESTS = {REQUESTS!r}\n{ROUTER}"
            assert run_fresh(code, url, corpus) == []
        finally:
            shard.terminate()
            shard.wait(timeout=30)
            shard.stdout.close()
