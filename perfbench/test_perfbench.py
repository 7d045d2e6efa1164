"""Tests of the benchmark itself: output schema, correctness gates, stub
counting, generator determinism and the tracer. They check what the
benchmark reports and refuses, never how fast anything ran.

Run from the repository root: python3 -m pytest perfbench
"""

from __future__ import annotations

import http.client
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import stub  # noqa: E402
from oracle import Oracle  # noqa: E402
from run import Stub  # noqa: E402
from tracer import Tracer, children, covered, self_time  # noqa: E402
from workload import END_TO_END, PER_LAYER  # noqa: E402


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- BENCHMARK.json and the result line -----------------------------------


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert spec["command"] == ["python3", "perfbench/run.py"]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", list(gen.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    line = last_json(proc)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    assert {k: v["unit"] for k, v in line["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in line["metrics"].values())
    full = json.loads(proc.stdout.strip().splitlines()[-2])
    env = full["environment"]
    assert env["seed"] == 3 and env["nproc"] >= 1 and env["python"] and env["src_sha256"]
    assert "requests" in env and "cpu_model" in env and "git_commit" in env
    assert full["workload"]["why"] == gen.WORKLOADS[workload]["why"]


def test_traced_http_run_reports_exact_counts():
    proc = bench("--workload", "recite_http", "--seed", "4", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    line = last_json(proc)
    assert line["correct"] is True
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    assert set(metrics) == set(PER_LAYER)
    spec = gen.WORKLOADS["recite_http"]
    calls = 2 * gen.K * spec["questions"] - spec["malformed"]["recite"]
    assert metrics["backend.generate.calls"] == calls
    assert metrics["http.requests"] == calls
    assert metrics["cache.misses"] == calls and metrics["cache.hits"] == 0
    assert metrics["http.malformed"] == sum(spec["malformed"].values())
    assert metrics["http.retries"] == 0
    paths = gen.K * spec["questions"]
    assert metrics["failed_path_frac"] == sum(spec["malformed"].values()) / paths
    assert metrics["failed_question_frac"] == 0
    assert metrics["cap_efficiency"] > 0


def test_outside_a_checkout_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "recite_inproc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- correctness gates ------------------------------------------------------


def runner_for(workload: str, workdir: Path):
    import workload as wl

    gen.generate(workload, 5, workdir)
    wl.import_product()
    args = SimpleNamespace(
        workload=workload, workdir=str(workdir), base_url=None, stats_url=None,
        seconds=1, trace=0, spans=None, cpus=None,
    )
    return wl.Runner(args)


def test_gate_rejects_a_vote_that_differs_from_the_expectation(tmp_path):
    runner = runner_for("recite_inproc", tmp_path)
    first = next(iter(runner.expected["questions"]))
    runner.expected["questions"][first]["vote"] = "something else"
    runner.recite_pass()
    assert any(first in e and "voted" in e for e in runner.errors)


def test_gate_rejects_an_uninjected_failed_path(tmp_path):
    runner = runner_for("recite_inproc", tmp_path)
    first = next(iter(runner.expected["questions"]))
    runner.expected["questions"][first]["failed_paths"] = [3]
    runner.recite_pass()
    assert any("failed paths" in e for e in runner.errors)


def test_gate_rejects_extra_generation_calls(tmp_path):
    runner = runner_for("recite_inproc", tmp_path)
    runner.expected["generate_calls"] -= 1
    runner.recite_pass()
    assert any("generation calls" in e for e in runner.errors)


def test_gate_rejects_a_wrong_report(tmp_path):
    runner = runner_for("analyze_1k", tmp_path)
    runner.expected["report"]["category_counts"]["not_recit"] += 1
    runner.one_pass()
    assert any("category_counts" in e for e in runner.errors)


# -- generator --------------------------------------------------------------


def tree(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize("workload", list(gen.WORKLOADS))
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    gen.generate(workload, 11, a)
    gen.generate(workload, 11, b)
    gen.generate(workload, 12, c)
    files_a, files_b = tree(a), tree(b)
    if workload == "analyze_1k":
        # run.json names the questions file by its absolute path.
        files_a["run/run.json"] = files_a["run/run.json"].replace(str(a).encode(), b"")
        files_b["run/run.json"] = files_b["run/run.json"].replace(str(b).encode(), b"")
    assert files_a == files_b
    assert (a / "questions.jsonl").read_bytes() != (c / "questions.jsonl").read_bytes()
    # The structure, and with it every exact count, is the same for any seed;
    # only which recite_http paths fail is drawn from it.
    ea = json.loads((a / "expected.json").read_text())
    ec = json.loads((c / "expected.json").read_text())
    for key in ("generate_calls", "generate_calls_floor", "failed_paths"):
        assert ea[key] == ec[key]
    if workload == "analyze_1k":
        assert ea["report"] == ec["report"]


def test_generator_records_workload_properties(tmp_path):
    desc = gen.generate("recite_inproc", 1, tmp_path)
    assert desc["duplicate_share"] == 0.5
    assert (desc["k"], desc["shots"], desc["questions_in_flight"], desc["paths_in_flight"]) == (
        gen.K, gen.SHOTS, 1, 2,
    )
    desc = gen.generate("recite_http", 1, tmp_path / "h")
    assert desc["duplicate_share"] == 0 and desc["latency_ms"] == 5
    assert 0.009 < desc["malformed_share"] < 0.011
    assert json.loads((tmp_path / "workload.json").read_text())["why"]


def test_replay_uses_the_http_inputs(tmp_path):
    gen.generate("recite_http", 9, tmp_path / "h")
    gen.generate("recite_replay", 9, tmp_path / "r")
    for name in ("questions.jsonl", "table.json", "prompts/manifest.json"):
        assert (tmp_path / "h" / name).read_bytes() == (tmp_path / "r" / name).read_bytes()
    assert json.loads((tmp_path / "r" / "malformed.json").read_text()) == []


# -- oracle and stub --------------------------------------------------------


def recitation_prompt(question: str) -> str:
    return f"Question: q\n\nRecitation: r\n\n\nQuestion: {question}\n\nRecitation:"


def test_oracle_follows_the_scripted_seed_rule(tmp_path):
    gen.generate("recite_http", 2, tmp_path)
    oracle = Oracle.load(tmp_path / "table.json")
    question, samples = next(iter(oracle.recitations.items()))
    prompt = recitation_prompt(question)
    assert oracle.complete(prompt, 3, 2) == [" " + samples[3], " " + samples[4]]
    assert oracle.complete(prompt, 4, 1) == [" " + samples[4]]
    answer_prompt = f"X\n\n\nRecitation: {samples[4]}\n\nQuestion: {question}\n\nAnswer:"
    assert oracle.request_id(answer_prompt, 0) == ("answer", question, 4)


def test_stub_replies_in_one_write():
    writes = []
    handler = stub.make_handler(None, set(), 0.0, stub.Stats())
    fake = SimpleNamespace(close_connection=False, wfile=SimpleNamespace(write=writes.append))
    sizes = []
    handler._reply(fake, 200, {"choices": []}, sizes.append)
    assert len(writes) == 1 and [len(writes[0])] == sizes
    assert writes[0].startswith(b"HTTP/1.1 200 OK\r\n") and writes[0].endswith(b'{"choices": []}')


def test_stub_counts_connections_requests_bytes_and_malformed(tmp_path):
    gen.generate("recite_http", 2, tmp_path)
    table = json.loads((tmp_path / "table.json").read_text())
    question = next(iter(table["recitations"]))
    (tmp_path / "malformed.json").write_text(json.dumps([["recite", question, 1]]))
    with Stub(tmp_path, 0, 0) as server:
        port = int(server.base_url.split(":")[2].split("/")[0])
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        sent = received = 0
        started = time.perf_counter()
        bodies = []
        for seed in range(3):
            body = json.dumps({"prompt": recitation_prompt(question), "seed": seed, "n": 1})
            conn.request("POST", "/v1/completions", body, {"Content-Type": "application/json"})
            response = conn.getresponse()
            data = response.read()
            bodies.append(json.loads(data))
            sent += len(body)
            received += len(data)
        elapsed = time.perf_counter() - started
        conn.close()
        with urllib_open(server.stats_url) as stats:
            counts = json.loads(stats.read())
    assert counts["connections"] == 1 and counts["requests"] == 3
    assert counts["malformed"] == 1 and "choices" not in bodies[1]
    assert bodies[0]["choices"][0]["text"] == " " + table["recitations"][question][0]
    # Headers ride on top of the bodies in both directions.
    assert counts["bytes_received"] > sent and counts["bytes_sent"] > received
    # Three keep-alive requests with no injected latency: no delayed-ACK stall.
    assert elapsed < 0.1


def urllib_open(url):
    import urllib.request

    return urllib.request.urlopen(url, timeout=10)


# -- tracer -----------------------------------------------------------------


def test_covered_merges_overlapping_intervals():
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert covered([]) == 0


def test_tracer_parents_self_time_and_pool_threads():
    from concurrent.futures import ThreadPoolExecutor

    class Work:
        def leaf(self):
            time.sleep(0.01)

        def batch(self):
            with ThreadPoolExecutor(2) as pool:
                list(pool.map(lambda _: self.leaf(), range(2)))

        def outer(self):
            self.batch()
            time.sleep(0.01)

    tracer = Tracer()
    tracer.wrap(Work, "leaf", "leaf")
    tracer.wrap(Work, "batch", "batch", ambient=True)
    tracer.wrap(Work, "outer", "outer")
    tracer.enabled = True
    Work().outer()
    tracer.enabled = False
    Work().outer()
    names = {s.name: s for s in tracer.spans}
    assert len(tracer.spans) == 4
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert {s.parent for s in leaves} == {names["batch"].id}
    assert names["batch"].parent == names["outer"].id
    by_parent = children(tracer.spans)
    outer = names["outer"]
    assert self_time(outer, by_parent) == pytest.approx(
        outer.duration - names["batch"].duration
    )
    assert 0.005 < self_time(outer, by_parent) < outer.duration


def test_tracer_counts_only_while_enabled():
    holder = SimpleNamespace(f=lambda x: x + 1)
    tracer = Tracer()
    tracer.count(holder, "f", "f")
    holder.f(1)
    tracer.enabled = True
    assert holder.f(1) == 2
    assert tracer.counts["f"] == 1


def test_traced_generator_records_emit_times():
    holder = SimpleNamespace(g=lambda n: iter(range(n)))
    tracer = Tracer()
    tracer.wrap_generator(holder, "g", "g")
    tracer.enabled = True
    assert list(holder.g(3)) == [0, 1, 2]
    (span,) = tracer.spans
    assert len(span.info) == 3 and span.start <= span.info[0] <= span.info[-1] <= span.end
