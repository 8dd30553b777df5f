"""dynzeta benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload {zeta,monoid,maps} --seed N \
        --seconds S --trace {0,1} [--records FILE]

Run from the root of a checkout. The program is built from that checkout's
src/ (pure Python, so building is importing). Every output is checked
against the oracles in perfbench/oracles.py, outside the timed interval.

Times are scaled to a reference machine speed that calibrate.py measures
in a process of its own between rounds.

--trace 0 prints the end-to-end metrics; --trace 1 runs a fixed number of
rounds untraced and then traced, checks that both give byte-identical
outputs, and prints the per-layer metrics. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 4  # extra fresh processes that only set up; the median of 5 is reported
MIN_REQUESTS = 100  # so that at least 10 samples lie beyond the 90th percentile
TRACE_ROUNDS = 3
DEADLINE_S = 170


class BenchError(Exception):
    pass


class Inputs:
    """The seeded requests of one run, generated here and written to files
    as the workload process asks for them; kept for the oracle checks."""

    def __init__(self, args, work: Path):
        self.args, self.work = args, work
        self.rounds = {}  # cycle -> requests with their oracle data
        warmup = workloads.build_warmup(args.workload, args.seed, self.rel())
        self._write(warmup)
        with open(work / "warmup.json", "w", encoding="utf-8") as fh:
            json.dump([self._light(req) for req in warmup], fh)

    def rel(self) -> str:
        return str(self.work.relative_to(ROOT))

    @staticmethod
    def _light(req: dict) -> dict:
        """What the program is shown: the argv or library job, no answers."""
        return {k: req[k] for k in ("id", "kind", "size", "argv", "job") if k in req}

    @staticmethod
    def _write(requests) -> None:
        for req in requests:
            for path, produce in req["files"].items():
                if not (ROOT / path).exists():
                    (ROOT / path).write_text(produce(), encoding="utf-8")

    def round(self, r: int) -> list[dict]:
        cycle = r % workloads.CYCLE
        if cycle not in self.rounds:
            requests = workloads.build_round(self.args.workload, self.args.seed, cycle, self.rel())
            self._write(requests)
            self.rounds[cycle] = requests
        return self.rounds[cycle]

    def light_round(self, r: int) -> str:
        return json.dumps([self._light(req) for req in self.round(r)])

    def request(self, r: int, slot: str) -> dict:
        return next(q for q in self.round(r) if q["id"].split(":")[1] == slot)


class Calibrator:
    """The calibration kernel in a process of its own (see calibrate.py)."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-I", str(HERE / "calibrate.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def measure(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def worker(inputs: Inputs, cal: Calibrator, tag: str, deadline: float, *extra: str) -> dict:
    """Run one fresh workload process, feed it rounds, and time the
    calibration kernel whenever it waits; return its summary."""
    work = inputs.work
    cmd = [sys.executable, "-I", str(HERE / "worker.py"), "--work", inputs.rel(),
           "--tag", tag, "--cycle", str(workloads.CYCLE), *extra]
    kernel = []  # kernel seconds before each round and after the last
    with open(work / f"{tag}.stderr", "w", encoding="utf-8") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=err, text=True)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            while line := proc.stdout.readline():
                kernel.append(cal.measure())
                what = line.split()
                reply = inputs.light_round(int(what[1])) if what[0] == "round" else "null"
                proc.stdin.write(reply + "\n")
                proc.stdin.flush()
            code = proc.wait()
        except BrokenPipeError:
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdin.close()
            proc.stdout.close()
    if code != 0:
        tail = (work / f"{tag}.stderr").read_text(encoding="utf-8").strip()[-2000:]
        reason = "was stopped at the deadline" if code == -9 else f"exited {code}"
        raise BenchError(f"worker {tag} {reason}: {tail}")
    with open(work / f"{tag}.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    # a set-up-only process is timed against the kernel right after it ends
    summary["kernel_s"] = kernel or [cal.measure()]
    return summary


def load_outputs(work: Path, tag: str) -> dict:
    outputs = {}
    with open(work / f"{tag}.outputs.jsonl", encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            outputs[row["id"]] = (row["code"], row["out"])
    return outputs


def speed_scale(summary: dict, r: int) -> float:
    """Factor taking round r's measured times to the reference speed."""
    kernel = summary["kernel_s"]
    return calibrate.REFERENCE_S / ((kernel[r] + kernel[r + 1]) / 2)


def judge(args, inputs: Inputs, summary: dict, outputs: dict) -> list[dict]:
    """One verdict row per request record, in the order they were sent."""
    first = {}  # (cycle, slot) -> verdict of the first checked output
    rows = []
    for rec in summary["records"]:
        r, slot = rec["id"].split(":")
        key = (int(r) % workloads.CYCLE, slot)
        req = inputs.request(int(r), slot)
        if rec["id"] in outputs:
            code, text = outputs[rec["id"]]
            verdict = verify.check(req, code, text, rec["error"])
            first.setdefault(key, verdict)
        else:  # a repeated input whose output matched the first one byte for byte
            verdict = first[key]
        rows.append({"workload": args.workload, "seed": args.seed, "id": rec["id"],
                     "kind": rec["kind"], "size": rec["size"],
                     "latency_ms": rec["seconds"] * 1000 * speed_scale(summary, int(r)),
                     "raw_latency_ms": rec["seconds"] * 1000, "exit_code": rec["code"],
                     "verdict": verdict, "over_limit": req["over_limit"],
                     **({"layer_self_s": rec["layers"]} if "layers" in rec else {})})
    return rows


def scaled_busy(summary: dict) -> float:
    return sum(rec["seconds"] * speed_scale(summary, int(rec["id"].split(":")[0]))
               for rec in summary["records"])


def nearest_rank(values: list[float], q: float) -> float:
    return values[max(0, math.ceil(q * len(values)) - 1)]


def latency_metrics(rows: list[dict], key: str) -> dict:
    ok = sorted(row[key] for row in rows if row["verdict"] == "ok")
    busy_ms = sum(row[key] for row in rows)
    # a failed request ranks above every completed one: it waited the whole run
    ranked = ok + [busy_ms] * (len(rows) - len(ok))
    return {"throughput_rps": len(ok) / busy_ms * 1000,
            "latency_p50_ms": nearest_rank(ranked, 0.5),
            "latency_p90_ms": nearest_rank(ranked, 0.9)}


def end_to_end(summary: dict, rows: list[dict], setups: list[dict]) -> dict:
    ok = sum(row["verdict"] == "ok" for row in rows)
    return {
        **latency_metrics(rows, "latency_ms"),
        "ok_ratio": ok / len(rows),
        "peak_rss_mb": summary["rss_mb"],
        "setup_s": statistics.median(
            s["setup_s"] * calibrate.REFERENCE_S / s["kernel_s"][0] for s in setups),
    }


def report(args, rows, metrics, units, notes) -> None:
    failed = [row for row in rows if row["verdict"] != "ok"]
    per_kind = {}
    for row in rows:
        per_kind.setdefault((row["kind"], row["size"]), []).append(row["latency_ms"])
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"requests={len(rows)} failed={len(failed)} ({len(failed) / len(rows):.4f} failed_ratio)")
    for line in notes:
        print(f"  {line}")
    for (kind, size), lat in sorted(per_kind.items()):
        print(f"  {kind:20s} {size:5s} n={len(lat):4d} median={statistics.median(lat):9.2f} ms "
              f"max={max(lat):9.2f} ms")
    for row in failed:
        why = f"over the int<->str limit: {row['over_limit']}" if row["over_limit"] else ""
        print(f"  failed {row['id']} {row['kind']} {row['size']}: {row['verdict']} {why}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--records", help="write one JSON row per request to this file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dynzeta" / "__init__.py").is_file():
        print(f"error: no dynzeta sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    cal = Calibrator()
    try:
        return run(args, Inputs(args, work), cal, deadline)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        cal.close()
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()


def run(args, inputs: Inputs, cal: Calibrator, deadline: float) -> int:
    per_round = sum(copies for *_, copies in workloads.SLOTS[args.workload])
    notes = []
    if args.trace:
        rounds = ["--min-rounds", str(TRACE_ROUNDS), "--max-rounds", str(TRACE_ROUNDS)]
        base = worker(inputs, cal, "base", deadline, *rounds)
        traced = worker(inputs, cal, "traced", deadline, *rounds, "--trace")
        summary, tag = traced, "traced"
        same = [(r["id"], r["code"], r["digest"]) for r in base["records"]] == [
            (r["id"], r["code"], r["digest"]) for r in traced["records"]]
        notes.append(f"traced and untraced outputs byte-identical: {same}")
    else:
        setups = [worker(inputs, cal, f"setup{i}", deadline, "--setup-only")
                  for i in range(SETUP_PROBES)]
        summary = worker(inputs, cal, "loop", deadline, "--seconds", str(args.seconds),
                         "--min-rounds", str(math.ceil(MIN_REQUESTS / per_round)))
        tag, same = "loop", True
        setups.append(summary)
    rows = judge(args, inputs, summary, load_outputs(inputs.work, tag))
    if args.trace:
        metrics = dict(traced["layers"], **{
            "trace.overhead_ratio": scaled_busy(traced) / scaled_busy(base)})
    else:
        metrics = end_to_end(summary, rows, setups)
        raw = latency_metrics(rows, "raw_latency_ms")
        notes.append("unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
                     + f", setup_s {statistics.median(s['setup_s'] for s in setups):.6g}")
        notes.append("speed scale per round: " + " ".join(
            f"{speed_scale(summary, r):.3f}" for r in range(summary["rounds"])))
    notes.append(f"rounds={summary['rounds']} of {per_round} requests, "
                 f"timed loop {summary['busy_s']:.3f} s")
    if args.records:
        with open(args.records, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
    failed = [row for row in rows if row["verdict"] != "ok"]
    # the only acceptable failures are the requests over the int<->str limit
    correct = same and all(row["over_limit"] and row["verdict"].startswith("failed")
                           for row in failed)
    units = {m["name"]: m["unit"] for m in _declared(args.trace)}
    report(args, rows, {name: metrics[name] for name in units}, units, notes)
    print(json.dumps({"correct": correct, "attempted": len(rows), "failed": len(failed),
                      "metrics": {name: {"value": metrics[name], "unit": units[name]}
                                  for name in units}}))
    return 0


def _declared(trace: int) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)["per_layer" if trace else "end_to_end"]


if __name__ == "__main__":
    sys.exit(main())
