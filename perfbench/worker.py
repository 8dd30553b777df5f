"""One workload process: set up dynzeta, then send requests in a closed loop.

Started by run.py as `python3 -I perfbench/worker.py ...` from the root of a
checkout, and fed by it: the warm-up requests come from <work>/warmup.json,
and each round's requests arrive on stdin after the worker asks for them
with a line "round R" on stdout; a last line "done" ends the loop. Input generation therefore never runs, and
never holds memory, in this process. dynzeta is imported from the
checkout's src/ only.

After one untimed warm-up request per kind (the set-up), the worker sends
whole rounds one request at a time until the summed request time reaches
--seconds and at least --min-rounds rounds are done, or --max-rounds is
reached. CLI requests go through `dynzeta.cli.main(argv)` in this process;
library jobs call the public API.

Outputs of the first CYCLE rounds go to <work>/<tag>.outputs.jsonl; later
rounds repeat those inputs, so only an output whose digest differs is
written again. A summary with one record per request goes to
<work>/<tag>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _gens(word) -> list:
    return [[g.kind, g.prime, g.level] for g in word.gens]


def _compile_verify(dz, job):
    spec = dz.ExponentSpec({p: dz.ExponentFunction(shape, tuple(values))
                            for p, shape, values in job["spec"]})
    result = dz.compile_spec(spec)
    return result, dz.verify_compile(result, spec, job["max_n"])


def _compile_verify_json(out) -> dict:
    result, mismatch = out
    return {"word": _gens(result.word),
            "agreement": {str(p): b for p, b in sorted(result.agreement.items())},
            "mismatch": None if mismatch is None
            else [mismatch.n, str(mismatch.got), str(mismatch.expected)]}


def _normal_form(dz, job):
    word = dz.random_word(job["seed"], job["length"], job["max_prime"], job["max_level"])
    nf = dz.normal_form(word)
    return word, nf, dz.is_normal_shape(nf), dz.equal_upto(word, nf, job["max_n"])


def _normal_form_json(out) -> dict:
    word, nf, shape, witness = out
    return {"word": _gens(word), "normal_form": _gens(nf), "normal_shape": shape,
            "witness": None if witness is None
            else [witness.n, str(witness.left), str(witness.right)]}


JOBS = {"compile-verify": (_compile_verify, _compile_verify_json),
        "normal-form": (_normal_form, _normal_form_json)}


def execute(dz, req, tracer=None):
    """Send one request; returns (seconds, exit code or None, output, error)."""
    if tracer is not None:
        tracer.begin(req["size"])
    out, err = io.StringIO(), io.StringIO()
    error = ""
    start = perf_counter()
    try:
        if "argv" in req:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = dz.cli.main(list(req["argv"]))
            elapsed = perf_counter() - start
            text = out.getvalue()
            error = err.getvalue().strip()
        else:
            run, to_json = JOBS[req["kind"]]
            result = run(dz, req["job"])
            elapsed = perf_counter() - start
            code, text = 0, json.dumps(to_json(result), sort_keys=True)
    except Exception as exc:  # a library failure is a failed request, not a crash
        elapsed = perf_counter() - start
        code, text, error = None, "", f"{type(exc).__name__}: {exc}"
    return elapsed, code, text, error[:160]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--work", required=True)
    parser.add_argument("--tag", required=True)
    parser.add_argument("--cycle", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-rounds", type=int, default=1)
    parser.add_argument("--max-rounds", type=int, default=10**6)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    with open(f"{args.work}/warmup.json", encoding="utf-8") as fh:
        warmup = json.load(fh)

    start = perf_counter()
    import dynzeta
    import dynzeta.cli

    dz = dynzeta
    if not Path(dz.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"dynzeta imported from {dz.__file__}, not from {ROOT / 'src'}")
    warm_codes = [execute(dz, req)[1] for req in warmup]
    summary = {"setup_s": perf_counter() - start, "warmup_codes": warm_codes}

    if not args.setup_only:
        tracer = None
        if args.trace:
            import layertrace

            tracer = layertrace.Tracer()
            tracer.install()
        summary.update(loop(dz, args, tracer))
        summary["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            summary["layers"] = tracer.metrics()

    with open(f"{args.work}/{args.tag}.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return 0


def ask(line: str, protocol_out):
    """Tell the parent where the loop is and wait for its answer; the parent
    times the calibration kernel meanwhile."""
    protocol_out.write(line + "\n")
    protocol_out.flush()
    return json.loads(sys.stdin.readline())


def loop(dz, args, tracer) -> dict:
    protocol_out = sys.stdout  # requests swap sys.stdout while they run
    first_digest = {}  # (cycle, slot) -> digest of the first cycle's output
    records = []
    busy = 0.0  # summed request time: the loop's clock
    r = 0
    with open(f"{args.work}/{args.tag}.outputs.jsonl", "w", encoding="utf-8") as outputs:
        while r < args.max_rounds and (r < args.min_rounds or busy < args.seconds):
            cycle = r % args.cycle
            for req in ask(f"round {r}", protocol_out):  # generated by the parent
                elapsed, code, text, error = execute(dz, req, tracer)
                busy += elapsed
                slot = req["id"].split(":")[1]
                rid = f"{r}:{slot}"
                digest = hashlib.sha256(text.encode()).hexdigest()
                record = {"id": rid, "kind": req["kind"], "size": req["size"],
                          "seconds": elapsed, "code": code, "digest": digest, "error": error}
                if tracer is not None:
                    record["layers"] = tracer.end()
                    if "argv" in req:
                        tracer.counters["bytes_in"] += sum(
                            os.path.getsize(a.split(":", 1)[-1]) for a in req["argv"]
                            if os.path.isfile(a.split(":", 1)[-1]))
                        tracer.counters["bytes_out"] += len(text.encode())
                        tracer.counters[f"exit{code}"] += 1
                records.append(record)
                if first_digest.setdefault((cycle, slot), digest) != digest or r < args.cycle:
                    outputs.write(json.dumps({"id": rid, "code": code, "out": text}) + "\n")
            r += 1
    ask("done", protocol_out)
    return {"rounds": r, "busy_s": busy, "records": records}


if __name__ == "__main__":
    sys.exit(main())
