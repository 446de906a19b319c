"""Build, host record, and process measurements for the benchmark.

The benchmark runs from a plain checkout of the repository, where the
compiled event core is not built.  :func:`build_evcore` builds it with
the repository's own ``setup.py`` into the benchmark's build directory
(never into ``src/``), and :func:`activate` puts that build first on
``repro.manet``'s package path, so ``REPRO_COMPILED=auto`` finds it.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import sys
import threading
from pathlib import Path

__all__ = [
    "BuildError",
    "ChildPeakSampler",
    "activate",
    "build_evcore",
    "children_cpu_s",
    "host_record",
    "host_steal_s",
    "nproc",
    "program_present",
    "self_peak_rss_kb",
]


class BuildError(RuntimeError):
    """The compiled event core could not be built."""


def program_present(root: Path) -> bool:
    """Whether ``root`` holds the program's sources and build file."""
    return (root / "src" / "repro" / "__init__.py").is_file() and (
        root / "setup.py"
    ).is_file()


def build_evcore(root: Path, build_dir: Path) -> Path:
    """Build ``repro.manet._evcore`` under ``build_dir``; return its dir.

    ``setup.py build_ext`` skips the compile when the library is newer
    than its source, so every run after the first pays only the check.
    ``REPRO_REQUIRE_COMPILED=1`` makes a failed compile fatal instead of
    the repository's silent fallback to the pure path.
    """
    lib = build_dir / "evcore" / "lib"
    cmd = [
        sys.executable, "setup.py", "-q", "build_ext",
        "--build-lib", str(lib),
        "--build-temp", str(build_dir / "evcore" / "tmp"),
    ]
    env = dict(os.environ, REPRO_REQUIRE_COMPILED="1")
    proc = subprocess.run(
        cmd, cwd=root, env=env, capture_output=True, text=True, timeout=600
    )
    ext_dir = lib / "repro" / "manet"
    if proc.returncode != 0 or not list(ext_dir.glob("_evcore*.so")):
        raise BuildError(
            f"building _evcore failed (exit {proc.returncode}): "
            f"{proc.stderr[-2000:]}"
        )
    return ext_dir


def activate(root: Path, ext_dir: Path) -> None:
    """Import the program from ``root/src`` with the built extension."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import repro.manet

    if str(ext_dir) not in repro.manet.__path__:
        repro.manet.__path__.insert(0, str(ext_dir))


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def _git_revision(root: Path) -> str | None:
    try:
        top = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    if Path(lines[0]).resolve() != root.resolve():
        return None  # a checkout nested inside some other repository
    return lines[1]


def _source_digest(root: Path) -> str:
    """sha1 over the program's sources: the revision when git is absent."""
    digest = hashlib.sha1()
    paths = sorted(
        p for p in (root / "src").rglob("*")
        if p.suffix in (".py", ".c") and p.is_file()
    )
    for path in paths + [root / "setup.py"]:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_record(root: Path, workload: str, seed: int,
                evcore_loaded: bool) -> dict:
    """What every result record carries, so hosts and revisions never mix."""
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "git_revision": _git_revision(root),
        "source_digest": _source_digest(root),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "evcore_loaded": evcore_loaded,
    }


# --------------------------------------------------------------------- #
def self_peak_rss_kb() -> int:
    """Peak RSS of this process so far, kB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def children_cpu_s() -> float:
    """User + system CPU seconds of every child waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def host_steal_s() -> float:
    """CPU seconds the hypervisor has taken from this host's vCPUs.

    The ``steal`` column of ``/proc/stat``, summed over CPUs.  On a
    shared virtual machine it is the main source of run-to-run noise in
    wall times, so each record keeps it beside the times it inflated.
    """
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _child_pids(pid: int) -> list[int]:
    out: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as fh:
                out.extend(int(c) for c in fh.read().split())
        except OSError:
            continue
    return out


def _vm_hwm_kb(pid: int) -> int | None:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


class ChildPeakSampler:
    """Peak RSS of the workers a timed region forks, summed over workers.

    ``getrusage(RUSAGE_CHILDREN)`` keeps one maximum over every child
    ever waited for, which would mix the workload's workers with the
    build and the set-up probes; this samples each live child's own
    high-water mark (``VmHWM``) every ``interval_s`` instead.
    """

    def __init__(self, interval_s: float = 0.2):
        self.interval_s = interval_s
        self.peaks_kb: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _poll(self) -> None:
        for child in _child_pids(os.getpid()):
            hwm = _vm_hwm_kb(child)
            if hwm is not None:
                self.peaks_kb[child] = max(self.peaks_kb.get(child, 0), hwm)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._poll()

    def __enter__(self) -> "ChildPeakSampler":
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        assert self._thread is not None
        self._thread.join(timeout=10)

    @property
    def total_kb(self) -> int:
        """Sum of every sampled worker's peak RSS, kB."""
        return sum(self.peaks_kb.values())
