"""The reciteqa benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It generates the workload's inputs from the
seed, starts the localhost completions stub when the workload needs one,
runs the workload in a fresh process against `src/`, checks every output,
and prints one JSON line last: `correct`, `attempted`, `failed` and
`metrics`. With `--trace 0` the metrics are the end-to-end ones; with
`--trace 1` they are the per-layer ones from a traced run. The line before
it, and `.perfbench/out/<workload>-<seed>-trace<t>.json`, hold the full
result with the environment facts and the workload's properties.

Workloads (one closed-loop client: one question and two paths in flight,
recite_answer with K=20 paths and 5 shots of long recitations):
  recite_inproc  in-process backend, no latency, half the recitations repeat
  recite_http    HttpBackend behind a cold cache, stub with 5 ms latency and
                 about 1% malformed replies
  recite_replay  the same inputs from a fully warm cache, no stub running
  analyze_1k     `reciteqa analyze` on a generated 1000-question run

End-to-end metrics are reported on every workload. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from workload import END_TO_END, PER_LAYER  # noqa: E402

# The whole run must end within 180 s.
DEADLINE_S = 170


def environment(seed: int) -> dict:
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        requests_version = importlib.metadata.version("requests")
    except importlib.metadata.PackageNotFoundError:
        requests_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "requests": requests_version,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


class Stub:
    """The completions stub in its own process, stopped on exit."""

    def __init__(self, workdir: Path, latency_ms: float, cpu: int):
        self.proc = subprocess.Popen(
            [
                sys.executable,
                str(HERE / "stub.py"),
                "--table",
                str(workdir / "table.json"),
                "--malformed",
                str(workdir / "malformed.json"),
                "--latency-ms",
                str(latency_ms),
                "--cpu",
                str(cpu),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        port = self.proc.stdout.readline().strip()
        if not port.isdigit():
            self.stop()
            raise RuntimeError("the stub did not start")
        self.base_url = f"http://127.0.0.1:{port}/v1"
        self.stats_url = f"http://127.0.0.1:{port}/stats"

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


def child(mode: str, args: list[str], timeout: float) -> dict:
    """Run workload.py in a fresh process; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), mode, *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload {mode} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def run(args) -> dict:
    started = time.monotonic()
    remaining = lambda: DEADLINE_S - (time.monotonic() - started)  # noqa: E731
    workdir = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out = ROOT / ".perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(workdir, ignore_errors=True)
    # Each pass of the workload keeps to one CPU. Python threads share one
    # interpreter lock, so the client gains nothing from a second CPU, while
    # handing the lock across CPUs makes every wake-up wait on the scheduler;
    # pinned, the timings measure the program. The stub gets its own CPU;
    # without one, passes alternate CPUs so a run samples both.
    cpus = sorted(os.sched_getaffinity(0))
    stub_cpu = cpus[-1]
    workload_cpus = cpus[:1] if args.workload == "recite_http" else cpus
    try:
        description = gen.generate(args.workload, args.seed, workdir)
        common = ["--workload", args.workload, "--workdir", str(workdir)]
        if args.workload == "recite_replay":
            # Warm the cache through the product itself, so its keys are
            # whatever the product computes; then stop the stub.
            with Stub(workdir, 0, stub_cpu) as stub:
                common += ["--base-url", stub.base_url]
                child("warm", common, remaining())

        run_args = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        run_args += ["--cpus", ",".join(map(str, workload_cpus))]
        run_args += ["--spans", str(out / f"{args.workload}-{args.seed}.spans.jsonl")]
        if args.workload == "recite_http":
            with Stub(workdir, description["latency_ms"], stub_cpu) as stub:
                stub_args = ["--base-url", stub.base_url, "--stats-url", stub.stats_url]
                result = child("run", common + run_args + stub_args, remaining())
        else:
            result = child("run", common + run_args, remaining())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = result.pop("metrics")
    units = PER_LAYER if args.trace else END_TO_END
    result.update(
        {
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
            "workload": description,
            "environment": environment(args.seed),
        }
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="reciteqa benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "reciteqa" / "__init__.py").is_file():
        print(f"no reciteqa sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    path = ROOT / ".perfbench" / "out" / f"{args.workload}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    summary = {key: result[key] for key in ("correct", "attempted", "failed")}
    if not result["correct"]:
        print("\n".join(result["errors"]), file=sys.stderr)
        print(json.dumps({**summary, "metrics": {}}))
        return 1
    print(json.dumps({**summary, "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
