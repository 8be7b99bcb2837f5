"""Run discipline, clocks, spans, checks and result records shared by the workloads.

Nothing here imports ``numpy`` or ``repro`` at module load: ``pin_environment``
has to run first, because BLAS reads its thread count and ``repro.ann.native``
reads ``REPRO_NATIVE`` when they are first imported.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")

#: One BLAS thread: on a shared 2-core box OpenBLAS's second thread made
#: identical in-process repetitions differ 3x (CPU time > wall time).
#: ``REPRO_NATIVE=require``: a silent fall-back to the numpy path would
#: measure a different program.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "REPRO_NATIVE": "require",
}


def pin_environment() -> None:
    """Apply the run discipline to this process and everything it spawns."""
    os.environ.update(PINNED_ENV)
    os.environ["PYTHONPATH"] = SRC
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def prepare() -> dict:
    """Everything that must not land inside a clock: import, kernel, warm-up.

    The native kernel compiles on the first run of a fresh checkout (2.4 s
    cold vs 1.1 s warm on the sizing box); doing it here keeps it out of
    ``setup_s``. Raises ``SystemExit`` naming ``native.disabled_reason``
    when the kernel cannot load.
    """
    try:
        import repro
        from repro.ann import native
    except ImportError as error:
        raise SystemExit(f"bench: cannot import the program from {SRC}: {error}") from None

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        raise SystemExit(f"bench: imported repro from {repro.__file__}, expected {SRC}")
    started = time.perf_counter()
    try:
        native.get_kernel()
    except RuntimeError:
        raise SystemExit(
            f"bench: REPRO_NATIVE=require cannot be met: {native.disabled_reason}"
        ) from None
    load_s = time.perf_counter() - started
    warm = repro.load_benchmark("music-20", "tiny", seed=0)
    repro.MultiEM(repro.paper_default_config("music-20")).match(warm)
    return {"native_load_s": load_s, "kernel_variant": native.kernel_variant()}


# ------------------------------------------------------------------- numbers
def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(fraction * (len(ordered) - 1))))
    return float(ordered[rank])


def tuple_digest(tuples) -> str:
    """Order-independent digest of a predicted tuple set."""
    rows = sorted(sorted((ref.source, int(ref.index)) for ref in members) for members in tuples)
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def item_table_digest(table) -> str:
    """Digest of an ``ItemTable``: representative vectors and member lists."""
    digest = hashlib.sha256()
    for array in (table.vectors, table.member_sources, table.member_indices, table.member_offsets):
        digest.update(memoryview(array).cast("B"))
    return digest.hexdigest()[:16]


def row_texts(dataset, attributes, config) -> list[str]:
    """Every row of every table, serialized the way the representer serializes it."""
    from repro.data.serialization import serialize_table

    max_tokens = config.representation.max_sequence_length
    return [
        text
        for table in dataset.table_list()
        for text in serialize_table(table, attributes, max_tokens=max_tokens)
    ]


def peak_rss_mb() -> float:
    """This process's high-water resident set (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------- tracing
class Tracer:
    """In-memory spans and counts, written out once when the run ends.

    Disabled (the ``--trace 0`` run) ``span`` is a bare ``yield`` and
    ``count`` returns at once, so end-to-end numbers are taken with tracing
    off.
    """

    def __init__(self, enabled: bool, run_id: str) -> None:
        self.enabled = enabled
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + amount

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the part its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        totals: dict[str, float] = {}
        for span in self.spans:
            own = span["end"] - span["start"] - child_time[span["id"]]
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def dump(self, path: str) -> None:
        document = {
            "run_id": self.run_id,
            "spans": self.spans,
            "counts": self.counts,
            "self_time_s": self.self_times(),
        }
        with open(path, "w") as handle:
            json.dump(document, handle)


@contextlib.contextmanager
def timed(tracer: Tracer, name: str, sink: list):
    """Clock a block into ``sink`` (the span is a no-op when tracing is off)."""
    with tracer.span(name):
        started = time.perf_counter()
        try:
            yield
        finally:
            sink.append(time.perf_counter() - started)


# -------------------------------------------------------------------- checks
class Checks:
    """Operations attempted and failed; a failed correctness check is a failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def ops(self, attempted: int, failed: int = 0, what: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{failed} of {attempted} {what} failed")

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"check {name}: {detail}" if detail else f"check {name}")


# ------------------------------------------------------------------- context
class Run:
    """What one workload run is given: arguments, scratch directory, tracer, checks."""

    def __init__(self, workload: str, seed: int, seconds: float, nominal_seconds: float,
                 scale: str, trace: bool, expect_digest: str | None) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        #: ``run_seconds`` of BENCHMARK.json, which the repetition counts are sized for
        self.nominal_seconds = nominal_seconds
        self.scale = scale
        self.trace = trace
        self.expect_digest = expect_digest
        self.tracer = Tracer(trace, run_id=f"{workload}-seed{seed}-{os.getpid()}")
        self.checks = Checks()
        self.workdir = os.path.join(OUT, f"tmp-{workload}-{os.getpid()}")
        self.prepared: dict = {}
        #: extra facts for the result record (rows, digests, repetition counts)
        self.facts: dict = {}

    def scaled(self, nominal: int, minimum: int) -> int:
        """A repetition count sized for ``run_seconds``, scaled to ``--seconds``."""
        return max(minimum, round(nominal * self.seconds / self.nominal_seconds))

    def check_digest(self, digests: list[str]) -> None:
        """Repetitions must agree with each other and with ``--expect-digest``."""
        self.facts["tuple_digest"] = digests[0]
        self.checks.check(
            "repetitions agree", len(set(digests)) == 1, f"tuple-set digests {sorted(set(digests))}"
        )
        if self.expect_digest is not None:
            self.checks.check(
                "expected digest",
                digests[0] == self.expect_digest,
                f"got {digests[0]}, expected {self.expect_digest}",
            )

    def __enter__(self) -> "Run":
        os.makedirs(self.workdir, exist_ok=True)
        # Anything the library or the server spools goes under the checkout.
        os.environ["TMPDIR"] = self.workdir
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# ---------------------------------------------------------------- fingerprint
def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def fingerprint(run: Run) -> dict:
    """The machine and build the numbers came from."""
    import numpy

    flags: list[str] = []
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("flags"):
                    flags = sorted(
                        set(line.split(":", 1)[1].split())
                        & {"sse4_2", "avx", "avx2", "fma", "avx512f", "avx512vnni"}
                    )
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_flags": flags,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "kernel_variant": run.prepared.get("kernel_variant"),
        "git_sha": _git_sha(),
        "seed": run.seed,
        "scale": run.scale,
        "seconds": run.seconds,
    }
