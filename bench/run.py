#!/usr/bin/env python3
"""Benchmark of the ktk command-line tool.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

It drives ``python -m ktk.cli`` from this checkout's ``src`` as a closed
loop with one client: one child process at a time, each started after the
previous one has exited.  A pass runs the workload's operation once on
each m = 4 signature, in an order the seed shuffles, so every seed measures
the same work; for op-check the seed also picks ``--kappa2``.  Every
operation's output is checked against digests and counts recorded in
``expected.json``.

``--trace 0`` reports the end-to-end metrics, measured on CLI children.
Pass times are scaled to a reference host speed by a speed probe that runs
in this process while each child runs (see ``at_reference_speed``).
``--trace 1`` runs the first signature's operation in-process, untraced and
traced in turn, and reports per-layer metrics from spans that this benchmark
records around ktk's public functions (see ``spans.py``).

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; a readable summary goes to stderr, and a record of the
run (provenance, samples, failures, and with --trace 1 the spans) to
``.bench_out/``.  Exit status: 0 every output was correct, 1 some check
failed, 2 the benchmark cannot run here (ktk missing or outside this
checkout).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED = json.loads((BENCH / "expected.json").read_text())

SIGNATURES = ((4, 0), (3, 1), (2, 2), (1, 3))
KAPPA2 = ("0", "1", "-1", "3/7", "-5/2")
WORKLOADS = ("basis-conformal", "opcheck-conformal", "verify-conformal")
# About five times the slowest single invocation at the commit that added the
# benchmark.  No child runs past RUN_LIMIT_S after the run began either, so a
# run whose children hang still ends within three minutes.
CHILD_TIMEOUT_S = 60.0
RUN_LIMIT_S = 165.0
# --help starts timed before each operation of the first pass, so that they
# spread over the run.
STARTS_PER_OP = 3
# The host's speed switches between a fast state and one up to 1.8x slower,
# for seconds to minutes at a time, on both cores at once.  A measured child
# is timed alongside a probe on the other core; see at_reference_speed.
PROBE_TERMS = 200
PROBE_GAP_S = 0.005
# probe_unit's time in the fast state of the host the benchmark was built on
# (2 vCPUs, Python 3.11.7): the 5th percentile of its times in a run.
PROBE_REF_S = 0.42e-3
# A --help start is timed only once GATE_PROBES probe units in a row average
# at most FAST_STATE times PROBE_REF_S, which takes up to SETUP_WAIT_S in all.
GATE_PROBES = 8
FAST_STATE = 1.3
GATE_PAUSE_S = 0.02
SETUP_WAIT_S = 5.0
END_TO_END = (("wall_s", "s"), ("elements_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mib", "MiB"))
# A percentile is reported only with at least this many samples beyond it.
TAIL_MIN_BEYOND = 10
run_deadline = float("inf")  # set by run()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One CLI invocation and the check its stdout must pass."""

    args: list[str]
    elements: int
    check: Callable[[bytes], str | None]


@dataclass
class Input:
    """A basis file a workload reads, made by ``ktk basis`` before timing."""

    key: str
    args: list[str]
    path: Path


@dataclass
class Workload:
    name: str
    subcommand: str
    signatures: list[tuple[int, int]]  # in the order a pass runs them
    kappa2: str | None
    inputs: list[Input] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)

    @property
    def elements(self) -> int:
        return sum(op.elements for op in self.ops)


def basis_key(kind: str, j: int, s: int, sig: tuple[int, int]) -> str:
    return f"{kind}-j{j}-s{s}-p{sig[0]}q{sig[1]}"


def basis_args(kind: str, j: int, s: int, sig: tuple[int, int]) -> list[str]:
    return ["basis", "--kind", kind, "--rank", str(j), "--order", str(s),
            "--p", str(sig[0]), "--q", str(sig[1]), "--format", "json"]


def _json(out: bytes):
    try:
        return json.loads(out), None
    except ValueError as exc:
        return None, f"stdout is not JSON: {exc}"


def check_basis(key: str) -> Callable[[bytes], str | None]:
    want = EXPECTED[key]

    def check(out: bytes) -> str | None:
        if hashlib.sha256(out).hexdigest() != want["sha256"]:
            return f"{key}: stdout sha256 differs from the recorded digest"
        data, err = _json(out)
        if err:
            return err
        if data.get("count") != want["count"] or len(data.get("elements", ())) != want["count"]:
            return f"{key}: count {data.get('count')} != {want['count']}"
        return None

    return check


def check_verify(count: int) -> Callable[[bytes], str | None]:
    def check(out: bytes) -> str | None:
        data, err = _json(out)
        if err:
            return err
        if data.get("ok") is not True or data.get("count") != count:
            return f"verify: ok={data.get('ok')} count={data.get('count')}, want ok and {count}"
        return None

    return check


def check_opcheck(count: int, kappa2: str) -> Callable[[bytes], str | None]:
    def check(out: bytes) -> str | None:
        data, err = _json(out)
        if err:
            return err
        results = data.get("results", [])
        if (data.get("all_pass") is not True or data.get("count") != count
                or len(results) != count
                or not all(r.get("is_symmetry") is True for r in results)
                or data.get("kappa2") != str(Fraction(kappa2))):
            return (f"op-check: all_pass={data.get('all_pass')} count={data.get('count')} "
                    f"kappa2={data.get('kappa2')}, want all pass, {count}, {kappa2}")
        return None

    return check


def make_workload(name: str, seed: int, traced: bool = False) -> Workload:
    """The workload's operations for this seed.

    A pass runs the operation once on every signature, in an order the seed
    shuffles, so every seed measures the same work.  The traced run takes
    only the first signature of that order.
    """
    rng = random.Random(seed)
    sigs = list(SIGNATURES)
    rng.shuffle(sigs)
    if traced:
        sigs = sigs[:1]
    if name == "basis-conformal":
        wl = Workload(name, "basis", sigs, None)
        for sig in sigs:
            key = basis_key("conformal", 3, 1, sig)
            wl.ops.append(Op(basis_args("conformal", 3, 1, sig), EXPECTED[key]["count"],
                             check_basis(key)))
        return wl
    if name == "opcheck-conformal":
        kappa2 = rng.choice(KAPPA2)
        wl = Workload(name, "op-check", sigs, kappa2)
        for sig in sigs:
            inp = input_basis(2, sig)
            count = EXPECTED[inp.key]["count"]
            wl.inputs.append(inp)
            # the = form, since argparse reads a value like -5/2 as an option
            wl.ops.append(Op(["op-check", str(inp.path), f"--kappa2={kappa2}", "--format", "json"],
                             count, check_opcheck(count, kappa2)))
        return wl
    if name == "verify-conformal":
        wl = Workload(name, "verify", sigs, None)
        for sig in sigs:
            inp = input_basis(3, sig)
            count = EXPECTED[inp.key]["count"]
            wl.inputs.append(inp)
            wl.ops.append(Op(["verify", str(inp.path), "--format", "json"], count,
                             check_verify(count)))
        return wl
    raise ValueError(f"unknown workload {name!r}")


def input_basis(j: int, sig: tuple[int, int]) -> Input:
    key = basis_key("conformal", j, 1, sig)
    return Input(key, basis_args("conformal", j, 1, sig), OUT / "inputs" / f"{key}.json")


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    """ktk from this checkout's src; KTK_THREADS unset, so the serial path runs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("KTK_THREADS", None)
    return env


@dataclass
class Child:
    args: list[str]
    returncode: int | None  # None: killed at the time cap
    wall_s: float
    maxrss_kib: int
    stdout: bytes
    stderr: bytes
    probes: list[float] = field(default_factory=list)  # probe_unit times while it ran


def probe_unit() -> float:
    """Time a fixed piece of exact rational arithmetic, about 0.5 ms on one core."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, PROBE_TERMS):
        total += Fraction(i * i + 1, i + 7)
    return time.perf_counter() - t0


def run_child(argv: list[str], env: dict, timeout_s: float = CHILD_TIMEOUT_S,
              probe: bool = False) -> Child:
    """Run argv to completion; wall time is from spawn to exit.

    Output goes to files, so the child never blocks on a pipe, and the child
    is reaped with wait4 for its own peak resident set size.  It is killed
    after timeout_s, or at the run's deadline if that comes first.  With
    ``probe``, this process times ``probe_unit`` every PROBE_GAP_S while it
    waits, on the core the child leaves free, to sample the host's speed.
    """
    OUT.mkdir(exist_ok=True)
    out_path, err_path = OUT / "child.stdout", OUT / "child.stderr"
    probes: list[float] = []
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        try:
            pidfd = os.pidfd_open(proc.pid)
            deadline = min(t0 + timeout_s, run_deadline)
            try:
                while True:
                    if probe:
                        probes.append(probe_unit())
                    left = deadline - time.perf_counter()
                    wait = min(left, PROBE_GAP_S) if probe else left
                    ready, _, _ = select.select([pidfd], [], [], max(0.0, wait))
                    if ready or time.perf_counter() >= deadline:
                        break
            finally:
                os.close(pidfd)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return Child(argv, proc.returncode if ready else None, wall, usage.ru_maxrss,
                 out_path.read_bytes(), err_path.read_bytes(), probes)


def ktk_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "ktk.cli", *args]


class CannotRun(Exception):
    """The benchmark cannot run in this directory."""


class Tally:
    """Every operation attempted, and why each failed one failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, label: str, returncode, stdout: bytes, check, stderr: bytes = b"") -> bool:
        self.attempted += 1
        if returncode is None:
            reason = f"timed out ({CHILD_TIMEOUT_S:g} s cap, {RUN_LIMIT_S:g} s run limit)"
        elif returncode != 0:
            last = stderr.decode(errors="replace").strip().splitlines()[-1:]
            reason = f"exit status {returncode}" + "".join(f" ({line})" for line in last)
        else:
            reason = check(stdout)
        if reason:
            self.failures.append(f"{label}: {reason}")
        return not reason

    def child(self, child: Child, check) -> bool:
        return self.record(" ".join(child.args[1:]), child.returncode, child.stdout, check,
                           child.stderr)


def resolve_ktk(env: dict) -> str:
    """Path of the ktk package the children import; it must be this checkout's."""
    probe = subprocess.run(
        [sys.executable, "-c", "import ktk, sys; sys.stdout.write(ktk.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if probe.returncode != 0:
        raise CannotRun(f"cannot import ktk from {SRC}:\n{probe.stderr.strip()}")
    path = Path(probe.stdout).resolve()
    if not path.is_relative_to(SRC.resolve()):
        raise CannotRun(f"ktk resolves to {path}, outside {SRC}")
    return str(path)


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def prepare(workload: Workload, env: dict, tally: Tally) -> dict[str, float | None]:
    """Make the workload's input files with ``ktk basis``, checked by digest.

    A file an earlier run in this checkout made is kept if it still matches
    its digest; its entry in the result is None.  Otherwise the entry is the
    time ``ktk basis`` took to make it.
    """
    seconds = {}
    for inp in workload.inputs:
        check = check_basis(inp.key)
        if inp.path.exists() and check(inp.path.read_bytes()) is None:
            tally.record(f"reuse {inp.key}", 0, inp.path.read_bytes(), check)
            seconds[inp.key] = None
            continue
        inp.path.parent.mkdir(parents=True, exist_ok=True)
        inp.path.unlink(missing_ok=True)
        child = run_child(ktk_argv([*inp.args, "--output", str(inp.path)]), env)
        seconds[inp.key] = child.wall_s
        made = inp.path.read_bytes() if inp.path.exists() else b""
        tally.record(f"prepare {inp.key}", child.returncode, made, check, child.stderr)
    return seconds


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail_percentile(samples: list[float]):
    """The highest of p99, p95 and p90 with TAIL_MIN_BEYOND samples beyond it.

    Returns (percentile, value) or None.  The value is the nearest-rank
    sample, so exactly the samples ranked above it lie beyond it.
    """
    n = len(samples)
    ordered = sorted(samples)
    for pct in (99.0, 95.0, 90.0):
        rank = -(-pct * n // 100)  # ceil(pct/100 * n), 1-based
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            return pct, ordered[int(rank) - 1]
    return None


def keep_going(started: float, samples: list[float], seconds: float) -> bool:
    """Start another pass only if a typical one still ends inside the budget."""
    return time.perf_counter() - started + statistics.median(samples) <= seconds


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def measure(workload: Workload, seconds: float, env: dict, tally: Tally, record: dict) -> dict:
    """End-to-end metrics from untraced CLI children."""

    def usage_ok(out: bytes):
        return None if out.startswith(b"usage:") else "no usage text"

    help_argv = ktk_argv([workload.subcommand, "--help"])
    tally.child(run_child(help_argv, env), usage_ok)  # writes bytecode caches; not timed

    # A start is too short to scale by the probe, and it slows less than the
    # probe does, so it is timed only with the host in its fast state.
    setup, gate_s = [], 0.0
    passes, raw, peak_kib = [], [], 0
    started = time.perf_counter()
    while not raw or keep_going(started, raw, seconds):
        passes.append([])
        for op in workload.ops:
            for _ in range(STARTS_PER_OP if len(passes) == 1 else 0):
                t = time.perf_counter()
                while gate_s + time.perf_counter() - t < SETUP_WAIT_S and not host_fast():
                    time.sleep(GATE_PAUSE_S)
                gate_s += time.perf_counter() - t
                start = run_child(help_argv, env)
                tally.child(start, usage_ok)
                setup.append(start.wall_s)
            child = run_child(ktk_argv(op.args), env, probe=True)
            tally.child(child, op.check)
            passes[-1].append(child)
            peak_kib = max(peak_kib, child.maxrss_kib)
        raw.append(sum(child.wall_s for child in passes[-1]))

    walls = [sum(at_reference_speed(child) for child in children) for children in passes]
    wall_s = statistics.median(walls)
    record["setup_gate_s"] = gate_s
    record["samples"] = {"wall_s": walls, "raw_wall_s": raw, "setup_s": setup}
    record["ops"] = [[{"raw_wall_s": c.wall_s, "probe_mean_ms": statistics.fmean(c.probes) * 1e3}
                      for c in children] for children in passes]
    record["tail"] = {"wall_s": tail_percentile(walls)}
    values = {
        "wall_s": wall_s,
        "elements_per_s": workload.elements / wall_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mib": peak_kib / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def at_reference_speed(child: Child) -> float:
    """The child's wall time with the host at the speed PROBE_REF_S stands for.

    It is scaled by PROBE_REF_S / mean, where mean is the mean probe time
    while the child ran.
    """
    return child.wall_s * PROBE_REF_S / statistics.fmean(child.probes)


def host_fast() -> bool:
    """Whether GATE_PROBES probe units now average within FAST_STATE of PROBE_REF_S."""
    return statistics.fmean(probe_unit() for _ in range(GATE_PROBES)) <= FAST_STATE * PROBE_REF_S


def inprocess_pass(workload: Workload, main, tally: Tally, tracer=None) -> float:
    """One pass through ktk.cli.main in this process; returns the time in main."""
    total = 0.0
    for op in workload.ops:
        out, err = io.StringIO(), io.StringIO()
        scope = tracer.operation() if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                with scope:
                    code = main(op.args)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
                code = f"{type(exc).__name__}: {exc}"
            total += time.perf_counter() - t0
        tally.record(" ".join(op.args) + " (in-process)", code, out.getvalue().encode(), op.check,
                     err.getvalue().encode())
    return total


def trace(workload: Workload, seconds: float, tally: Tally, record: dict, tag: str) -> dict:
    """Per-layer metrics: untraced and traced in-process passes, alternating."""
    os.environ.pop("KTK_THREADS", None)
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("ktk.cli")
    if not Path(sys.modules["ktk"].__file__).resolve().is_relative_to(SRC.resolve()):
        raise CannotRun(f"in-process ktk resolves outside {SRC}")
    tracer = spans.Tracer()
    untraced, traced = [], []
    started = time.perf_counter()
    while True:
        untraced.append(inprocess_pass(workload, cli.main, tally))
        with spans.installed(tracer):
            traced.append(inprocess_pass(workload, cli.main, tally, tracer))
        if not keep_going(started, [u + t for u, t in zip(untraced, traced)], seconds):
            break
    spans_path = OUT / f"{tag}-spans.json"
    tracer.dump(spans_path)
    record["samples"] = {"untraced_s": untraced, "traced_s": traced}
    record["spans"] = str(spans_path.relative_to(ROOT))
    record["moves"] = {name: moves for name, _, moves in spans.PER_LAYER}
    return spans.layer_metrics(tracer, traced, untraced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        return run(args)
    except CannotRun as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


def run(args) -> int:
    global run_deadline
    run_deadline = time.perf_counter() + RUN_LIMIT_S
    env = child_env()
    ktk_file = resolve_ktk(env)
    workload = make_workload(args.workload, args.seed, traced=bool(args.trace))
    tally = Tally()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "signatures": [list(sig) for sig in workload.signatures],
        "kappa2": workload.kappa2,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "ktk_file": ktk_file,
    }
    record["prepare_s"] = prepare(workload, env, tally)
    if args.trace:
        metrics = trace(workload, args.seconds, tally, record, tag)
    else:
        metrics = measure(workload, args.seconds, env, tally, record)
    record.update(metrics=metrics, attempted=tally.attempted, failed=tally.failed,
                  ops_failed_frac=tally.failed / tally.attempted, failures=tally.failures)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    sigs = " ".join(f"({p},{q})" for p, q in workload.signatures)
    kappa2 = f" kappa2 {workload.kappa2}" if workload.kappa2 else ""
    counts = ", ".join(f"{k} {len(v)}" for k, v in record["samples"].items())
    print(f"{args.workload} signatures {sigs}{kappa2}; samples: {counts}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    if "raw_wall_s" in record["samples"]:
        raw = statistics.median(record["samples"]["raw_wall_s"])
        print(f"  wall_s unadjusted = {raw:.6g} s", file=sys.stderr)
    for name, tail in record.get("tail", {}).items():
        if tail:
            print(f"  {name} p{tail[0]:g} = {tail[1]:.6g}", file=sys.stderr)
    print(f"  ops_failed_frac = {record['ops_failed_frac']:g} "
          f"({tally.failed} of {tally.attempted})", file=sys.stderr)
    for reason in tally.failures[:10]:
        print(f"  FAILED {reason}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
