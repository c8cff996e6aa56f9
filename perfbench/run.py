"""adictrop benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload tilted_lattice --seed 1 --seconds 12 --trace 0

`--trace 0` measures the end-to-end metrics: requests from the seeded list
are sent one after another until they have taken `--seconds` seconds at
reference speed (see `reference.py`), and each response is checked as it
returns, outside its timed span.  `--trace 1` runs a fixed number of
requests (so its counters are exact for a seed) once with span tracing and
once without, and reports the per-layer metrics and the tracing overhead.  `--workload all` runs every
workload in turn in its own process.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give the
same figures for people, with the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / ".work"
SETUP_REPEATS = 3
# Seconds the reference takes, in process and as a fresh process, on the
# machine that times are scaled to (a 2-CPU x86-64 machine, Python 3.11, in
# its fast phase).
REFERENCE_S = {True: 0.012, False: 0.065}
REQUIRED = ("src/adictrop/cli.py", "tests/oracles.py",
            "demos/data/line_embedding.json", "demos/out/line_skeleton.json")
UNITS = {"throughput_rps": "1/s", "latency_p50_s": "s", "latency_tail_s": "s",
         "setup_s": "s", "peak_rss_mb": "MB"}


def _preflight() -> None:
    missing = [rel for rel in REQUIRED if not (ROOT / rel).is_file()]
    if missing:
        sys.stderr.write(f"perfbench: {', '.join(missing)} not found; run from the "
                         "root of a full adictrop checkout\n")
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]


def _commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _setup(workload, seed: int) -> list[dict]:
    """Generate the request list and warm up (imports, first-call paths)."""
    requests = workload.generate(seed, WORKDIR / f"{workload.name}-{seed}")
    for req in workload.warmup_requests():
        workload.run(req)
    return requests


def _reference(in_process: bool) -> float:
    """Seconds taken by the reference (`reference.py`), in process or as a
    fresh interpreter."""
    import reference
    start = time.perf_counter()
    if in_process:
        reference.loop()
    else:
        # waited for like a CLI request: a wait with a timeout but no pipes
        # polls, which would round the time up to the polling step
        subprocess.run([sys.executable, reference.__file__], check=True,
                       capture_output=True, timeout=60)
    return time.perf_counter() - start


def _scaled(span: float, before: float, after: float, in_process: bool) -> float:
    """A span's seconds at reference speed, from the reference timed just
    before and just after it."""
    return span * 2 * REFERENCE_S[in_process] / (before + after)


def _setup_seconds(name: str, seed: int) -> list[float]:
    """Set-up time of fresh interpreters, so import-time work counts too."""
    out = []
    for _ in range(SETUP_REPEATS):
        before = _reference(False)
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), name,
                               str(seed)], cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr[-500:]}")
        out.append(_scaled(float(proc.stdout.split()[-1]), before, _reference(False),
                           False))
    return out


def _send(workload, req, tracer=None, rid=0, spans_dir=None):
    """One request; returns (latency seconds, response or None, error or None).

    A traced request runs under `tracer` in process, or writes its CLI
    child's spans to `spans_dir`.
    """
    t0 = time.perf_counter()
    try:
        if tracer is not None:
            resp = tracer.request(rid, workload.run, req)
        elif spans_dir is not None:
            resp = workload.run(req, (str(spans_dir / f"request-{rid}"), rid))
        else:
            resp = workload.run(req)
    except Exception as exc:  # a crash is a failed request, not a harness error
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, resp, None


def _fingerprint(workload, resp):
    return resp[-1] if workload.in_process else resp[:2]


def _check(workload, req, resp, key, first) -> str | None:
    """Check the first response to request `key` fully and keep only its
    fingerprint in `first`; a repeat must match that fingerprint."""
    if key in first:
        if _fingerprint(workload, resp) != first[key]:
            return "response differs from the first response to the same input"
        return None
    first[key] = _fingerprint(workload, resp)
    try:
        return workload.check(req, resp)
    except Exception as exc:  # a malformed response fails its check
        return f"check raised {type(exc).__name__}: {exc}"


def _tail(latencies, percentile: float):
    """Nearest-rank value at `percentile`, and the number of samples beyond it.

    Each workload fixes the percentile so that a run of the seed code has at
    least ten samples beyond it; a faster program has more, never fewer, and
    the figure stays comparable between commits.
    """
    ordered = sorted(latencies)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def _timed_run(workload, seed: int, seconds: float):
    """Whole rounds of the request list until `seconds` of requests have run.

    A round holds every size class of the workload's schedule once, so the
    mix behind each figure is the same however many rounds fit.  Each
    response is checked as soon as it returns, outside its timed span, and
    then dropped, so the benchmark's own memory does not grow with the
    number of requests sent.  Every request span is scaled to reference
    speed (`_reference`), and the loop runs until the scaled spans add up to
    `seconds`, so a run does the same work whatever the machine's speed at
    the time; the unscaled figures go to the notes.
    """
    setup = _setup_seconds(workload.name, seed)
    requests = _setup(workload, seed)
    round_size = workload.round_size or len(requests)
    raw, latencies, failures, first = [], [], [], {}
    refs = [_reference(workload.in_process)]
    while sum(latencies) < seconds:
        for _ in range(round_size):
            index = len(raw)
            key = index % len(requests)
            latency, resp, error = _send(workload, requests[key])
            raw.append(latency)
            refs.append(_reference(workload.in_process))
            latencies.append(_scaled(latency, refs[-2], refs[-1], workload.in_process))
            if error is None:
                error = _check(workload, requests[key], resp, key, first)
            if error is not None:
                failures.append(f"request {index} ({requests[key]['class']}): {error}")
    sent = len(raw)
    rss = _peak_rss_mb(workload.in_process)
    elapsed = sum(latencies)
    tail, beyond = _tail(latencies, workload.tail_percentile)
    metrics = {
        "throughput_rps": sent / elapsed,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
    }
    notes = {
        "requests": sent, "rounds": sent // round_size,
        "distinct_requests": len({json.dumps(requests[i % len(requests)], default=str)
                                  for i in range(sent)}),
        "elapsed_s": elapsed, "tail_percentile": workload.tail_percentile,
        "unscaled": {"throughput_rps": sent / sum(raw),
                     "latency_p50_s": statistics.median(raw),
                     "latency_tail_s": _tail(raw, workload.tail_percentile)[0]},
        "reference_s_p50": statistics.median(refs),
        "tail_samples_beyond": beyond,
        "setup_samples_s": setup,
        "error_rate": len(failures) / sent,
        "classes": _class_counts(requests, sent),
    }
    return metrics, notes, sent, failures


def _class_counts(requests, count):
    out = {}
    for i in range(count):
        cls = requests[i % len(requests)]["class"]
        out[cls] = out.get(cls, 0) + 1
    return out


def _scaled_pass(workload, batch, send):
    """`send(i, request)` for each request of the batch; returns the results
    and the batch's request time at reference speed."""
    results, total = [], 0.0
    before = _reference(workload.in_process)
    for i, req in enumerate(batch):
        results.append(send(i, req))
        after = _reference(workload.in_process)
        total += _scaled(results[-1][0], before, after, workload.in_process)
        before = after
    return results, total


def _traced_run(workload, seed: int):
    import tracer as tr
    requests = _setup(workload, seed)
    count = workload.trace_requests
    batch = [requests[i % len(requests)] for i in range(count)]
    spans_dir = WORKDIR / f"{workload.name}-{seed}" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)

    # traced pass first, so its cache counters start from the same state as
    # the timed run's first request
    summaries = []
    if workload.in_process:
        tracer = tr.Tracer()
        tracer.install()
        try:
            traced, traced_s = _scaled_pass(
                workload, batch, lambda i, req: _send(workload, req, tracer, i))
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary())
        tracer.write_spans(spans_dir / "spans.tsv")
    else:
        traced, traced_s = _scaled_pass(
            workload, batch, lambda i, req: _send(workload, req, rid=i, spans_dir=spans_dir))
        for i in range(count):
            path = spans_dir / f"request-{i}.json"
            if path.is_file():
                summaries.append(json.loads(path.read_text()))
    plain, plain_s = _scaled_pass(workload, batch, lambda i, req: _send(workload, req))

    failures, first = [], {}
    for i, ((_, resp, err), (_, resp0, err0)) in enumerate(zip(traced, plain)):
        if err is None:
            err = _check(workload, batch[i], resp, i % len(requests), first)
        if err is not None:
            failures.append(f"request {i} ({batch[i]['class']}): {err}")
        if err0 is not None:
            failures.append(f"untraced request {i}: {err0}")
        elif err is None and _fingerprint(workload, resp) != _fingerprint(workload, resp0):
            failures.append(f"request {i}: traced and untraced responses differ")
    if not workload.in_process and len(summaries) != count:
        failures.append(f"only {len(summaries)} of {count} traced processes "
                        "reported their spans")
    merged = tr.merge(summaries)
    metrics = tr.layer_metrics(merged)
    metrics["trace.throughput_ratio"] = plain_s / traced_s
    notes = {"requests": count, "spans": merged.get("spans", 0),
             "traced_s": traced_s, "untraced_s": plain_s,
             "classes": _class_counts(batch, count), "spans_dir":
             str(spans_dir.relative_to(ROOT))}
    return metrics, notes, count, failures


def _units(trace: bool) -> dict:
    if not trace:
        return UNITS
    import tracer as tr
    return {**tr.PER_LAYER_UNITS, "trace.throughput_ratio": "ratio"}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    workload = workloads.WORKLOADS[name]
    if trace:
        metrics, notes, attempted, failures = _traced_run(workload, seed)
    else:
        metrics, notes, attempted, failures = _timed_run(workload, seed, seconds)
    units = _units(trace)
    print(f"workload {name}, seed {seed}: {attempted} requests, closed loop with "
          f"one client ({'traced fixed batch' if trace else f'{seconds} s measured'})")
    for key, value in metrics.items():
        extra = ""
        if key == "latency_tail_s":
            extra = (f"  (p{notes['tail_percentile']:g}: "
                     f"{notes['tail_samples_beyond']} of {attempted} samples beyond)")
        elif key == "setup_s":
            extra = f"  (median of {SETUP_REPEATS} fresh interpreters)"
        if not trace and key != "peak_rss_mb":
            extra += "  [at reference speed]"
        print(f"  {key:34s} {value:.6g} {units[key]}{extra}")
    if not trace:
        print(f"  {'error_rate':34s} {len(failures) / attempted:.6g} ratio  "
              f"({len(failures)} failed of {attempted})")
        print("  unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in notes["unscaled"].items())
              + f"; reference p50 {notes['reference_s_p50']:.6g} s")
    for line in failures[:20]:
        print(f"  FAIL {line}")
    env = {"workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
           "python": platform.python_version(), "commit": _commit(),
           "nproc": os.cpu_count(), **notes}
    print("env " + json.dumps(env, sort_keys=True))
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def run_all(args) -> dict:
    """Every workload in its own process; metric names get a workload prefix."""
    import workloads
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT,
                              capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{name} failed: {proc.stderr[-500:]}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = metric
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    _preflight()
    import workloads
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
