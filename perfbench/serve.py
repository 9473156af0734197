"""The two serving workloads: ``serve-mixed`` and ``serve-cluster``.

A daemon (``repro-serve serve``) or a cluster (``repro-cluster serve``,
router plus two shards) runs in its own process group on a fresh
store.  This process is the client: a closed loop over two keep-alive
connections, each with its own seed-determined op sequence and its own
list of acknowledged digests.  No op is ever retried; a failed or
refused request counts in the error rate and enters the latency
percentiles as infinite.

After the window, the first ``REPLAY_OPS`` ops of each connection are
replayed one op at a time against a fresh service over HTTP, each next
to a fixed calibration unit of the benchmark's own (``calibrate``) and
to the same op on a fresh ``ProfileStore`` and ``QueryEngine`` in this
process.  The user-mode CPU time the service's processes spend on the
replay, in calibration units, is the bounded ``dilation``: it grows with
the store's and the server's cost alike, while neither time-sharing
with other processes nor machine speed drifts move it much.  The traced run
replays the ops in-process once more with the store's public calls
(``sniff_format``, ``loads_bytes``, ``BlobStore.put``, the manifest
write) wrapped in spans; that is where the store's per-layer numbers
come from.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlencode

from repro.core.binformat import StreamWriter
from repro.core.profile_io import ProfileFormatError, document_from_bytes, dumps_bytes
from repro.store import store as store_module
from repro.store.diff import detect_regressions, diff_blobs
from repro.store.query import QueryEngine
from repro.store.store import ProfileStore

import batch
from common import ROOT, Run, child_env, is_layer, peak_rss_mb_pid
from spans import SpanRecorder
from stats import median, percentile

CONNECTIONS = 2
#: ops per connection replayed in-process after the window
REPLAY_OPS = 300
#: reads choose among a connection's latest HOT_SET acknowledged
#: documents half of the time (two connections fill the daemon's
#: 32-entry LRU) and uniformly over everything acknowledged otherwise
HOT_SET = 16
SETUP_REPEATS = 7
#: seconds a service gets to exit on SIGTERM before its group is killed
STOP_GRACE = 10.0
#: reads per side for the router-overhead measurement (traced cluster)
ROUTER_PROBES = 60

#: op kind -> weight, in percent.  The weights are those of the
#: program's own mixed-load harness (``DEFAULT_MIX`` in
#: ``repro/cluster/loadgen.py``, which its cluster benchmark and CI
#: drive), copied here so that an edit there cannot move this
#: benchmark: ingest 60 (JSON 30, BINCAP 20, one-document stream 10),
#: query-runs 15, query-entries 10, get 10, diff 5.
MIX = (
    ("ingest", 60),
    ("query-runs", 15),
    ("query-entries", 10),
    ("get", 10),
    ("diff", 5),
)
#: ingests take their encoding from this cycle (JSON 3 : BINCAP 2 :
#: stream 1, as in the weights above) and their documents in corpus
#: order, so every seed ingests the same mix of kinds and sizes
INGEST_CYCLE = (
    "ingest-json", "ingest-bin", "ingest-json", "ingest-stream", "ingest-json", "ingest-bin",
)
INGESTS = ("ingest-json", "ingest-bin", "ingest-stream")
KINDS = INGESTS + tuple(kind for kind, __ in MIX[1:])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- corpus --------------------------------------------------------------------


@dataclass
class Doc:
    program: str
    kind: str
    binary: bytes
    json: bytes
    #: sha256 of the /get answer for each encoding (the canonical
    #: JSON document the daemon serves, plus its newline)
    get_binary: str
    get_json: str


def _get_answer_hash(data: bytes) -> str:
    document = document_from_bytes(data)
    return sha256(json.dumps(document, sort_keys=True).encode("utf-8") + b"\n")


def build_corpus(run: Run) -> List[Doc]:
    """Real profiles of the seven programs, encoded both ways; the
    binary documents are checked against the pinned profile-both
    digests when the seed has them."""
    scale = run.scale = run.scale or batch.SCALES["profile-both"]
    pins = batch.load_pins("profile-both", scale, run.seed)
    docs = []
    raw = {}
    for name in batch.PROGRAMS:
        trace, profiles, encoded = batch.both_untraced(name, scale, run.seed)
        raw[name] = batch.raw_stream(trace)
        for kind, profile in zip(("whomp", "leap", "dependence"), profiles):
            text = dumps_bytes(profile, "json")
            docs.append(Doc(name, kind, encoded[kind], text, "", ""))
    if run.fault == "flip":
        bad = bytearray(docs[0].binary)
        bad[len(bad) // 2] ^= 0x01
        docs[0].binary = bytes(bad)
    # the corpus is the profilers' output: gate it like profile-both's
    for doc in docs:
        run.attempted += 1
        why = batch.check_document(
            _NULL_REC, doc.kind, doc.binary, raw[doc.program] if doc.kind == "whomp" else None
        )
        if why is None and pins is not None and pins.get(doc.program, {}).get(doc.kind) != sha256(doc.binary):
            why = "differs from the pinned digest"
        if why is not None:
            run.fail(f"corpus {doc.program} {doc.kind}: {why}")
            continue
        doc.get_binary = _get_answer_hash(doc.binary)
        doc.get_json = _get_answer_hash(doc.json)
    run.context["access_counts"] = {name: len(stream) for name, stream in raw.items()}
    run.context["corpus_scale"] = scale
    run.context["corpus_pinned"] = pins is not None
    run.context["corpus_sha256"] = {f"{d.program}.{d.kind}": sha256(d.binary) for d in docs}
    return docs


# -- the plan ------------------------------------------------------------------


@dataclass
class Op:
    index: int
    kind: str
    doc: int
    hot: bool
    pick: float
    pick2: float
    pad: int


def plan(seed: int, connection: int):
    """The connection's op sequence: a function of seed and connection
    only, never of timing.  Read targets are resolved against the
    connection's own acknowledged list when the op runs."""
    rng = random.Random(f"perfbench:{seed}:{connection}")
    kinds = [kind for kind, __ in MIX]
    weights = [weight for __, weight in MIX]
    index = 0
    pads = 0
    ingests = 0
    cursor = rng.randrange(1 << 20)
    while True:
        kind = rng.choices(kinds, weights)[0]
        doc = rng.randrange(1 << 30)
        if kind == "ingest":
            kind = INGEST_CYCLE[ingests % len(INGEST_CYCLE)]
            ingests += 1
            doc = cursor
            cursor += 1
        op = Op(
            index=index,
            kind=kind,
            doc=doc,
            hot=rng.random() < 0.5,
            pick=rng.random(),
            pick2=rng.random(),
            pad=(connection << 20) | pads,
        )
        if kind == "ingest-json":
            pads += 1
        index += 1
        yield op


def padded(text: bytes, pad: int) -> bytes:
    """A JSON document made unique by trailing whitespace: each JSON
    ingest is a new blob, while the document it decodes to is not."""
    bits = bytes(32 if (pad >> i) & 1 else 9 for i in range(24))
    return text + b"\n" + bits


@dataclass
class Acked:
    digest: str
    kind: str
    program: str
    get_hash: str


class Ledger:
    """One connection's acknowledged documents."""

    def __init__(self) -> None:
        self.all: List[Acked] = []
        self.by_kind: Dict[str, List[Acked]] = {}

    def add(self, row: Acked) -> None:
        self.all.append(row)
        self.by_kind.setdefault(row.kind, []).append(row)

    @staticmethod
    def choose(rows: List[Acked], hot: bool, pick: float) -> Acked:
        if hot:
            window = min(HOT_SET, len(rows))
            return rows[len(rows) - 1 - int(pick * window)]
        return rows[int(pick * len(rows))]


def resolve(op: Op, corpus: List[Doc], ledger: Ledger) -> Tuple[str, tuple]:
    """The concrete action for an op: (kind, arguments).  A read with
    nothing acknowledged to read ingests instead."""
    doc = corpus[op.doc % len(corpus)]
    kind = op.kind
    if kind == "get" and not ledger.all:
        kind = "ingest-bin"
    if kind == "query-entries" and not ledger.by_kind.get("leap"):
        kind = "ingest-bin"
    if kind == "diff":
        first = ledger.all and ledger.choose(ledger.all, op.hot, op.pick)
        if not first:
            kind = "ingest-bin"
    if kind == "ingest-json":
        return kind, (doc, padded(doc.json, op.pad), doc.get_json)
    if kind == "ingest-bin":
        return kind, (doc, doc.binary, doc.get_binary)
    if kind == "ingest-stream":
        return kind, (doc,)
    if kind == "get":
        return kind, (ledger.choose(ledger.all, op.hot, op.pick),)
    if kind == "query-runs":
        return kind, (doc.program, doc.kind)
    if kind == "query-entries":
        return kind, (ledger.choose(ledger.by_kind["leap"], op.hot, op.pick),)
    same = ledger.by_kind[first.kind]
    return kind, (first, ledger.choose(same, op.hot, op.pick2))


def stream_body(docs: List[Doc]) -> bytes:
    parts: List[bytes] = []
    writer = StreamWriter(parts.append)
    writer.begin()
    for doc in docs:
        writer.send_document(doc.program, doc.binary)
    writer.close()
    return b"".join(parts)


# -- the HTTP client -----------------------------------------------------------


@dataclass
class Sample:
    connection: int
    index: int
    kind: str
    seconds: float
    ok: bool
    why: str = ""
    #: perf_counter at completion
    done: float = 0.0


class Client:
    """One keep-alive connection running its plan in a closed loop."""

    def __init__(self, run: Run, address: Tuple[str, int], connection: int, corpus: List[Doc]):
        self.run = run
        self.address = address
        self.connection = connection
        self.corpus = corpus
        self.ledger = Ledger()
        self.samples: List[Sample] = []
        self.replica_writes = 0
        self.documents = 0
        self._conn: Optional[http.client.HTTPConnection] = None

    def _http(self, method: str, path: str, body=None, headers=None):
        if self._conn is None:
            self._conn = http.client.HTTPConnection(*self.address, timeout=60)
        try:
            self._conn.request(method, path, body=body, headers=headers or {},
                               encode_chunked=bool(headers and "Transfer-Encoding" in headers))
            response = self._conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        if response.will_close:
            self.close()
        return response.status, data

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def execute(self, kind: str, args: tuple) -> Tuple[bool, str]:
        """Run one resolved op; (ok, why-not).  Acknowledged ingests
        join the ledger."""
        if kind in ("ingest-json", "ingest-bin"):
            doc, body, get_hash = args
            status, data = self._http(
                "POST", f"/ingest?{urlencode({'workload': doc.program})}", body,
                {"Content-Type": "application/octet-stream"},
            )
            if status not in (200, 201):
                return False, f"{kind} answered {status}"
            answer = json.loads(data)
            digest = sha256(body)
            if answer.get("digest") != digest:
                return False, f"{kind} acknowledged {answer.get('digest')} for {digest}"
            self.replica_writes += int(answer.get("written", 1))
            self.documents += 1
            self.ledger.add(Acked(digest, doc.kind, doc.program, get_hash))
            return True, ""
        if kind == "ingest-stream":
            docs = list(args)
            body = stream_body(docs)
            status, data = self._http(
                "POST", "/ingest/stream", iter([body]), {"Transfer-Encoding": "chunked"}
            )
            if status not in (200, 201):
                return False, f"{kind} answered {status}"
            answer = json.loads(data)
            rows = answer.get("ingested") or []
            wanted = [sha256(d.binary) for d in docs]
            if [row.get("digest") for row in rows] != wanted or not answer.get("complete"):
                return False, f"{kind} acknowledged {len(rows)} of {len(docs)} documents"
            for doc, row in zip(docs, rows):
                self.replica_writes += len(row.get("replicas") or [None])
                self.documents += 1
                self.ledger.add(Acked(sha256(doc.binary), doc.kind, doc.program, doc.get_binary))
            return True, ""
        if kind == "get":
            (target,) = args
            status, data = self._http("GET", f"/get?{urlencode({'run': target.digest})}")
            if status != 200:
                return False, f"get answered {status}"
            if sha256(data) != target.get_hash:
                return False, f"get {target.digest[:12]} returned another document"
            return True, ""
        if kind == "query-runs":
            workload, profile_kind = args
            path = f"/query/runs?{urlencode({'workload': workload, 'kind': profile_kind})}"
        elif kind == "query-entries":
            path = f"/query/entries?{urlencode({'run': args[0].digest})}"
        else:
            path = f"/diff?{urlencode({'a': args[0].digest, 'b': args[1].digest})}"
        status, __ = self._http("GET", path)
        return (status == 200), (f"{kind} answered {status}" if status != 200 else "")

    def loop(self, deadline: float) -> None:
        rec = self.run.rec
        # each request is a call into the serving layer: the daemon, or
        # the router in front of the shards
        layer = "cluster.request" if self.run.workload == "serve-cluster" else "store.server.request"
        clock = time.perf_counter
        for op in plan(self.run.seed, self.connection):
            if clock() >= deadline:
                return
            kind, args = resolve(op, self.corpus, self.ledger)
            start = clock()
            try:
                with rec.span(layer):
                    ok, why = self.execute(kind, args)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                ok, why = False, f"{kind}: {type(exc).__name__}: {exc}"
            end = clock()
            self.samples.append(Sample(self.connection, op.index, kind, end - start, ok, why, end))


# -- the daemon or cluster -------------------------------------------------------


class Service:
    """A daemon or cluster process group on a fresh store root."""

    def __init__(self, run: Run, root: str) -> None:
        self.run = run
        self.root = root
        self.cluster = run.workload == "serve-cluster"
        self.log_path = os.path.join(root + ".log")
        os.makedirs(root, exist_ok=True)
        module = "repro.cluster.cli" if self.cluster else "repro.store.serve_cli"
        command = [sys.executable, "-m", module, "serve", "--root", root, "--port", "0"]
        if self.cluster:
            command += ["--shards", "2", "--replicas", "2"]
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            command, stdout=self._log, stderr=subprocess.STDOUT,
            env=child_env(), cwd=ROOT, start_new_session=True,
        )
        self.address: Tuple[str, int] = ("127.0.0.1", 0)

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while not self.address[1]:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"service did not start; see {self.log_path}")
            with open(self.log_path, "rb") as handle:
                for line in handle.read().decode("utf-8", "replace").splitlines():
                    if line.startswith("listening "):
                        host, __, port = line.split()[1].rpartition(":")
                        self.address = (host, int(port))
            time.sleep(0.005)
        while True:
            try:
                status, body = self.get_json("/healthz")
                if status == 200 and body.get("status") == "ok":
                    return
            except (OSError, http.client.HTTPException, ValueError):
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"service never became healthy; see {self.log_path}")
            time.sleep(0.005)

    def get_json(self, path: str):
        conn = http.client.HTTPConnection(*self.address, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def pids(self) -> List[int]:
        """The daemon, or the router and every shard."""
        shards = [pid for pid, __ in self.shard_pids().values()] if self.cluster else []
        return [self.proc.pid] + shards

    def shard_pids(self) -> Dict[str, Tuple[int, str]]:
        __, body = self.get_json("/clusterz")
        return {
            name: (row["pid"], row["url"])
            for name, row in body.get("shards", {}).items()
            if isinstance(row.get("pid"), int)
        }

    def stop(self) -> None:
        """SIGTERM and wait up to STOP_GRACE; then SIGKILL whatever of
        the process group is left.  Idempotent."""
        if self._log.closed:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_GRACE)
            except subprocess.TimeoutExpired:
                # recorded, not failed: shutdown is outside what is measured
                hung = self.run.context.setdefault("services_killed_after_sigterm", 0)
                self.run.context["services_killed_after_sigterm"] = hung + 1
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except OSError:
            pass
        self.proc.wait()
        self._log.close()


def disk_bytes(root: str) -> int:
    """Bytes of blob files and manifests under a store (or shard) root."""
    total = 0
    for directory, __, files in os.walk(root):
        for name in files:
            path = os.path.join(directory, name)
            if name == "manifest.jsonl" or f"{os.sep}objects{os.sep}" in path:
                try:
                    total += os.path.getsize(path)
                except OSError:
                    pass
    return total


# -- in-process replay -----------------------------------------------------------


class _FrozenClock:
    """Stands in for the ``time`` module inside the store during the
    replay, so manifest lines (which carry a creation time) have the
    same length on every run."""

    def time(self) -> float:
        return 1.5e9

    def __getattr__(self, name):
        return getattr(time, name)


class _StoreSpans:
    """Spans around the store's public calls while the replay runs."""

    def __init__(self, rec, store: ProfileStore) -> None:
        self.rec = rec
        self.store = store
        self.saved = []
        self.json_bytes = 0
        self.binary_bytes = 0

    def install(self) -> None:
        rec = self.rec
        spans = self

        def spanned(name, func):
            def wrapper(*args, **kwargs):
                with rec.span(name):
                    return func(*args, **kwargs)

            return wrapper

        loads = store_module.loads_bytes

        def validate_decode(data, *args, **kwargs):
            # ingest validates with a full decode; the read cache's
            # loader decodes too, and that is not validation
            current = rec.current
            validating = current is not None and rec.spans[current].name == "store.ingest"
            binary = data[:1] == b"\x89"
            if binary:
                spans.binary_bytes += len(data)
            else:
                spans.json_bytes += len(data)
            decode = "core.binformat.decode" if binary else "core.profile_io.json_decode"
            if not validating:
                with rec.span(decode):
                    return loads(data, *args, **kwargs)
            with rec.span("store.validate"):
                with rec.span(decode):
                    return loads(data, *args, **kwargs)

        for attr, replacement in (
            ("sniff_format", spanned("store.validate", store_module.sniff_format)),
            ("loads_bytes", validate_decode),
            ("atomic_write_text", spanned("store.manifest", store_module.atomic_write_text)),
        ):
            self.saved.append((store_module, attr, getattr(store_module, attr)))
            setattr(store_module, attr, replacement)
        self.store.blobs.put = spanned("store.blobs.put", self.store.blobs.put)

    def restore(self) -> None:
        for module, attr, original in self.saved:
            setattr(module, attr, original)
        self.saved = []
        del self.store.blobs.put


def _calibration_payload() -> bytes:
    """About 30 kB of JSON that depends on nothing of the program and
    is the same for every seed."""
    rng = random.Random("perfbench-calibration")
    rows = [
        {"instruction": i, "address": rng.randrange(1 << 32), "stride": rng.randrange(-64, 65)}
        for i in range(400)
    ]
    return json.dumps({"rows": rows}).encode("utf-8")


_CALIBRATION = _calibration_payload()


def _unit() -> None:
    document = json.loads(_CALIBRATION)
    text = json.dumps(document, sort_keys=True).encode("utf-8")
    zlib.compress(text, 6)
    hashlib.sha256(text).hexdigest()
    folded = 0
    for row in document["rows"]:
        folded ^= row["address"] + row["stride"] * row["instruction"]


def calibrate() -> float:
    """CPU seconds of one fixed unit of the kind of work a request
    costs -- JSON decode and encode, zlib, sha256, an interpreted loop --
    run by the standard library only, so no change to the program moves
    it.  The unit is timed on its second run, with warm caches, so that
    whatever op ran just before does not weigh in; the collector is off
    meanwhile, so neither does this process's heap."""
    gc.disable()
    try:
        _unit()
        start = time.thread_time()
        _unit()
        return time.thread_time() - start
    finally:
        gc.enable()


def cpu_seconds(pids: List[int]) -> Tuple[float, float]:
    """(user, system) CPU seconds the given live processes have used."""
    user = system = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat") as handle:
            # the fields after the parenthesised command name, from state
            fields = handle.read().rpartition(")")[2].split()
        user += int(fields[11])
        system += int(fields[12])
    ticks = os.sysconf("SC_CLK_TCK")
    return user / ticks, system / ticks


def _bytes_written() -> int:
    """Bytes this process has passed to write system calls so far."""
    with open("/proc/self/io") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


class Replay:
    """The first REPLAY_OPS ops of every connection, round-robin, run
    against the library in this process and, when a fresh service is
    given, the same op over HTTP with a calibration unit between the
    two, alternating which side goes first."""

    def __init__(
        self, run: Run, corpus: List[Doc], traced: bool, root: str,
        service: Optional["Service"] = None,
    ) -> None:
        self.run = run
        self.corpus = corpus
        self.traced = traced
        self.root = root
        self.service = service
        #: (connection, op index) -> seconds, in-process and over HTTP
        self.latency: Dict[Tuple[int, int], float] = {}
        self.http: Dict[Tuple[int, int], float] = {}
        #: (user, system) CPU seconds of the service over the replay,
        #: and CPU seconds of the calibration units run beside its ops
        self.service_cpu = (0.0, 0.0)
        self.calibration_cpu = 0.0
        #: (connection, op index) -> the op's resolved kind
        self.kinds: Dict[Tuple[int, int], str] = {}
        self.wall = 0.0
        self.manifest_bytes = 0
        self.ingest_bytes = 0
        self.spans: Optional[_StoreSpans] = None
        self.store: Optional[ProfileStore] = None

    def execute(self, store: ProfileStore, query: QueryEngine, op: Op, ledger: Ledger) -> None:
        rec = self.run.rec if self.traced else _NULL_REC
        kind, args = resolve(op, self.corpus, ledger)
        if kind in INGESTS:
            if kind == "ingest-stream":
                items = [(d, d.binary, d.get_binary, "http-stream") for d in args]
            else:
                items = [(args[0], args[1], args[2], "http")]
            for doc, body, get_hash, source in items:
                if self.traced:
                    blob = store.blobs.path(sha256(body))
                    fresh = not os.path.exists(blob)
                    written = _bytes_written()
                with rec.span("store.ingest"):
                    record = store.ingest_bytes(body, doc.program, meta={"source": source})
                if self.traced:
                    # everything the ingest wrote but the new blob file:
                    # the manifest, however the store chooses to write it
                    written = _bytes_written() - written
                    self.manifest_bytes += written - (os.path.getsize(blob) if fresh else 0)
                self.ingest_bytes += len(body)
                ledger.add(Acked(record.digest, doc.kind, doc.program, get_hash))
            return
        if kind == "get":
            with rec.span("store.get"):
                store.get_document(args[0].digest)
        elif kind == "query-runs":
            with rec.span("store.query.runs"):
                query.find_runs(workload=args[0], kind=args[1])
        elif kind == "query-entries":
            with rec.span("store.query.entries"):
                query.find_entries(run=args[0].digest)
        else:
            with rec.span("store.diff"):
                a = store.resolve(args[0].digest)
                b = store.resolve(args[1].digest)
                detect_regressions(diff_blobs(store.get_bytes(a.run_id), store.get_bytes(b.run_id)))

    def _over_http(self, client: "Client", op: Op) -> None:
        kind, args = resolve(op, self.corpus, client.ledger)
        self.kinds[(client.connection, op.index)] = kind
        self.run.attempted += 1
        start = time.perf_counter()
        try:
            ok, why = client.execute(kind, args)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            ok, why = False, f"{type(exc).__name__}: {exc}"
        if ok:
            self.http[(client.connection, op.index)] = time.perf_counter() - start
        else:
            self.run.fail(f"paired replay conn {client.connection} op {op.index} {kind}: {why}")

    def _in_process(self, store, query, op: Op, ledger: Ledger, connection: int) -> None:
        rec = self.run.rec if self.traced else _NULL_REC
        self.run.attempted += 1
        start = time.perf_counter()
        try:
            with rec.span("op"):
                self.execute(store, query, op, ledger)
        except (ProfileFormatError, KeyError, ValueError) as exc:
            self.run.fail(f"replay conn {connection} op {op.index}: {exc}")
            return
        self.latency[(connection, op.index)] = time.perf_counter() - start

    def run_all(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        store = self.store = ProfileStore(self.root)
        query = QueryEngine(store)
        plans = [plan(self.run.seed, c) for c in range(CONNECTIONS)]
        ledgers = [Ledger() for __ in range(CONNECTIONS)]
        clients = []
        if self.service is not None:
            clients = [Client(self.run, self.service.address, c, self.corpus) for c in range(CONNECTIONS)]
        if self.traced:
            self.spans = _StoreSpans(self.run.rec, store)
            self.spans.install()
        saved_time = store_module.time
        store_module.time = _FrozenClock()
        in_process = 0.0
        pids = self.service.pids() if self.service is not None else []
        cpu = cpu_seconds(pids)
        try:
            for step in range(REPLAY_OPS):
                for connection in range(CONNECTIONS):
                    op = next(plans[connection])
                    # alternate which side goes first; the calibration
                    # unit always sits between them
                    http_first = clients and (step + connection) % 2
                    if http_first:
                        self._over_http(clients[connection], op)
                    if clients:
                        self.calibration_cpu += calibrate()
                    start = time.perf_counter()
                    self._in_process(store, query, op, ledgers[connection], connection)
                    in_process += time.perf_counter() - start
                    if clients and not http_first:
                        self._over_http(clients[connection], op)
            after = cpu_seconds(pids)
            self.service_cpu = (after[0] - cpu[0], after[1] - cpu[1])
        finally:
            self.wall = in_process
            store_module.time = saved_time
            if self.spans is not None:
                self.spans.restore()
            for client in clients:
                client.close()

    def paired(self) -> Tuple[List[float], List[float]]:
        """(HTTP, in-process) seconds of the ops both sides completed."""
        keys = [key for key in self.http if key in self.latency]
        return [self.http[k] for k in keys], [self.latency[k] for k in keys]

    def dilation(self) -> float:
        """The service's user-mode CPU time over the replay in
        calibration units.  Its kernel time (fsync, page-cache writes)
        is left out: between replays of the same ops it varied by a
        quarter, against a twentieth for the user-mode time."""
        return self.service_cpu[0] / self.calibration_cpu if self.calibration_cpu else 0.0


_NULL_REC = SpanRecorder("untraced", enabled=False)


# -- the run ---------------------------------------------------------------------


def _block_rate(samples: List[Sample], started: float, block: int = 64) -> float:
    """Median rate over consecutive blocks of ``block`` completed
    requests: a stall of a few seconds moves it less than the mean."""
    done = sorted(s.done for s in samples if s.ok)
    rates = []
    previous = started
    for end in range(block - 1, len(done), block):
        rates.append(block / (done[end] - previous))
        previous = done[end]
    return median(rates) if rates else 0.0


def _ms_percentiles(samples: List[Sample], kinds, block: int = 256) -> Dict[int, float]:
    """p50, p95 and p99 in ms of the given kinds: each percentile within
    every block of ``block`` consecutive completions, median over the
    blocks (a burst of stalls moves one block, not the run)."""
    chosen = sorted((s for s in samples if s.kind in kinds), key=lambda s: s.done)
    values = [s.seconds * 1000.0 if s.ok else float("inf") for s in chosen]
    blocks = [values[i:i + block] for i in range(0, len(values), block)]
    if len(blocks) > 1 and len(blocks[-1]) < block:
        blocks[-2].extend(blocks.pop())
    return {
        q: median([percentile(b, q) for b in blocks]) if blocks else float("nan")
        for q in (50, 95, 99)
    }


def _router_overhead(run: Run, service: Service, clients: List[Client]) -> float:
    """p50 of a fixed read list through the router minus the p50 of the
    same reads sent straight to a shard (with two shards and two
    replicas every shard holds every document)."""
    rows = [row for client in clients for row in client.ledger.all]
    if not rows:
        return 0.0
    rng = random.Random(f"perfbench-router:{run.seed}")
    picks = [rng.choice(rows) for __ in range(ROUTER_PROBES)]
    shard_url = sorted(service.shard_pids().values())[0][1]
    host, __, port = shard_url.split("//")[-1].rpartition(":")
    sides = {"router": service.address, "shard": (host, int(port))}
    times: Dict[str, List[float]] = {"router": [], "shard": []}
    conns = {side: http.client.HTTPConnection(*addr, timeout=60) for side, addr in sides.items()}
    try:
        for index, row in enumerate(picks):
            order = ("router", "shard") if index % 2 == 0 else ("shard", "router")
            for side in order:
                start = time.perf_counter()
                conns[side].request("GET", f"/get?{urlencode({'run': row.digest})}")
                response = conns[side].getresponse()
                data = response.read()
                times[side].append(time.perf_counter() - start)
                if response.status != 200 or sha256(data) != row.get_hash:
                    run.fail(f"router-overhead get via {side} answered {response.status}")
    finally:
        for conn in conns.values():
            conn.close()
    return (median(times["router"]) - median(times["shard"])) * 1000.0


def run_serve(run: Run):
    work = run.scratch(run.workload)
    services: List[Service] = []
    try:
        return _run_serve(run, work, services)
    finally:
        for service in services:
            service.stop()
        shutil.rmtree(work, ignore_errors=True)


def _footprint(run: Run, service: Service, corpus: List[Doc]) -> float:
    """Bytes on disk per stored document: every corpus document ingested
    once as JSON and once as BINCAP into a fresh store (cluster: all
    replicas count)."""
    client = Client(run, service.address, 0, corpus)
    for doc in corpus:
        for kind, args in (
            ("ingest-json", (doc, doc.json, doc.get_json)),
            ("ingest-bin", (doc, doc.binary, doc.get_binary)),
        ):
            run.attempted += 1
            try:
                ok, why = client.execute(kind, args)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                ok, why = False, f"{type(exc).__name__}: {exc}"
            if not ok:
                run.fail(f"footprint {doc.program} {doc.kind} {kind}: {why}")
    client.close()
    return disk_bytes(service.root) / (2 * len(corpus))


def _spawn(run: Run, root: str, services: List[Service]) -> Service:
    service = Service(run, root)
    services.append(service)
    service.wait_ready()
    return service


def _run_serve(run: Run, work: str, services: List[Service]):
    corpus = build_corpus(run)
    setup: List[float] = []
    footprint = 0.0
    for attempt in range(SETUP_REPEATS):
        if services:
            # a daemon still shutting down would slow the next one's start
            services[-1].stop()
        start = time.perf_counter()
        service = _spawn(run, os.path.join(work, f"store{attempt}"), services)
        setup.append(time.perf_counter() - start)
        if attempt == 0:
            footprint = _footprint(run, service, corpus)

    clients = [Client(run, service.address, c, corpus) for c in range(CONNECTIONS)]
    killer = None
    if run.fault == "kill":
        killer = threading.Timer(run.seconds / 2, lambda: os.kill(service.proc.pid, signal.SIGKILL))
        killer.start()
    started = time.perf_counter()
    deadline = started + run.seconds
    threads = [threading.Thread(target=c.loop, args=(deadline,)) for c in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    run.context["window_s"] = time.perf_counter() - started
    for client in clients:
        client.close()
    if killer is not None:
        killer.join()
    rss = shard_rss = 0.0
    repairs = 0
    router_overhead = 0.0
    try:
        if service.cluster:
            pids = service.shard_pids()
            shard_rss = max(peak_rss_mb_pid(pid) for pid, __ in pids.values())
            rss = shard_rss
            __, clusterz = service.get_json("/clusterz")
            repairs = int(clusterz.get("replication", {}).get("read_repairs", 0))
            if run.traced:
                router_overhead = _router_overhead(run, service, clients)
        else:
            rss = peak_rss_mb_pid(service.proc.pid)
    except (OSError, http.client.HTTPException, ValueError) as exc:
        run.fail(f"service unreachable after the window: {exc}")
    service.stop()

    samples = [s for client in clients for s in client.samples]
    for sample in samples:
        run.attempted += 1
        if not sample.ok:
            run.fail(f"conn {sample.connection} op {sample.index} {sample.why}")
    documents = sum(c.documents for c in clients)

    # the same first ops over HTTP to a fresh service, each beside a
    # calibration unit and the same op in-process on a fresh store.  The
    # ops run one at a time, so this process and the service (which
    # inherits the mask) share one CPU: the service's CPU time and the
    # calibration units' are then measured at the same core's speed.
    # The window's writes are flushed first, not during the replay.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    os.sync()
    try:
        paired_service = _spawn(run, os.path.join(work, "paired"), services)
        replay = Replay(
            run, corpus, traced=False, root=os.path.join(work, "replay"),
            service=paired_service,
        )
        try:
            replay.run_all()
        except (OSError, http.client.HTTPException, ValueError) as exc:
            run.fail(f"paired replay: service unreachable: {exc}")
        paired_service.stop()
    finally:
        os.sched_setaffinity(0, cpus)
    http_ops, library_ops = replay.paired()
    run.context["replay_cpu_s"] = {
        "service_user": replay.service_cpu[0],
        "service_system": replay.service_cpu[1],
        "calibration": replay.calibration_cpu,
    }

    reads = set(KINDS) - set(INGESTS)
    every = _ms_percentiles(samples, KINDS)
    ingest = _ms_percentiles(samples, INGESTS)
    read = _ms_percentiles(samples, reads)
    count = len(samples)
    ingest_n = sum(1 for s in samples if s.kind in INGESTS)
    read_n = count - ingest_n
    ok = sum(1 for s in samples if s.ok)
    e2e = {
        "setup_s": (median(setup), "s", len(setup)),
        "throughput_per_s": (_block_rate(samples, started), "1/s", ok),
        "p50_ms": (every[50], "ms", count),
        "p95_ms": (every[95], "ms", count),
        "dilation": (replay.dilation(), "ratio", len(http_ops)),
        "output_bytes": (footprint, "B", 2 * len(corpus)),
        "peak_rss_mb": (rss, "MB", 1),
        "ingest_p50_ms": (ingest[50], "ms", ingest_n),
        "ingest_p99_ms": (ingest[99], "ms", ingest_n),
        "read_p50_ms": (read[50], "ms", read_n),
        "read_p99_ms": (read[99], "ms", read_n),
    }
    run.context["requests"] = {kind: sum(1 for s in samples if s.kind == kind) for kind in KINDS}
    run.context["store_runs"] = documents
    if not run.traced:
        return e2e, None

    # the store's layers: the same ops in-process again, spans on; the
    # paired replay's in-process side ran them with spans off
    traced = Replay(run, corpus, traced=True, root=os.path.join(work, "replay-traced"))
    traced.run_all()
    rec = run.rec
    # the window's own ingests, in completion order: the store grows
    # through the whole window
    ingests = [s.seconds for s in sorted(samples, key=lambda s: s.done) if s.kind in INGESTS and s.ok]
    tenth = max(1, len(ingests) // 10)
    hits, misses, __ = traced.store.cache.stats()
    per_op = rec.self_times_by_root("op")
    layers = {
        "serve_rps": e2e["throughput_per_s"][0],
        "core.binformat.decode_s": rec.totals("core.binformat.decode"),
        "core.binformat.bytes": traced.spans.binary_bytes,
        "core.profile_io.json_decode_s": rec.totals("core.profile_io.json_decode"),
        "core.profile_io.json_bytes": traced.spans.json_bytes,
        "store.validate_s": rec.totals("store.validate"),
        "store.blobs.put_s": rec.totals("store.blobs.put"),
        "store.blobs.stored_per_input_byte": (
            disk_bytes(os.path.join(traced.root, "objects") + os.sep) / traced.ingest_bytes
            if traced.ingest_bytes else 0.0
        ),
        "store.ingest_s": rec.totals("store.ingest"),
        "store.ingest_growth": (
            (sum(ingests[-tenth:]) / tenth) / (sum(ingests[:tenth]) / tenth) if ingests else 0.0
        ),
        "store.manifest_bytes_written": traced.manifest_bytes,
        "store.manifest_s": rec.totals("store.manifest"),
        "store.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "store.query_s": rec.totals("store.query.runs") + rec.totals("store.query.entries"),
        "store.diff_s": rec.totals("store.diff"),
        "store.server.http_overhead_ms": (
            (median(http_ops) - median(library_ops)) * 1000.0 if library_ops else 0.0
        ),
        "store.server.ingest_p50_ms": ingest[50],
        "store.server.ingest_p99_ms": ingest[99],
        "store.server.read_p50_ms": read[50],
        "store.server.read_p99_ms": read[99],
        "obs.tracing_overhead": traced.wall / replay.wall if replay.wall else 0.0,
        "unattributed_s": sum(v for row in per_op for k, v in row.items() if not is_layer(k)),
    }
    if service.cluster:
        layers.update({
            "cluster.router.overhead_ms": router_overhead,
            "cluster.replica_writes": sum(c.replica_writes for c in clients) / documents if documents else 0.0,
            "cluster.read_repairs": repairs,
            "cluster.shard_rss_mb": shard_rss,
        })
    return e2e, layers

