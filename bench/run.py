"""The repository benchmark: end-to-end and per-layer cost of ``repro``.

Usage, from the root of a checkout::

    python bench/run.py --seed 7                 # every workload, end to end
    python bench/run.py --seed 7 --trace         # ... plus the traced layer table
    python bench/run.py --workload serve-steady --seed 3 --seconds 30 --trace 0
    python bench/run.py --smoke --trace          # tiny sizes, for tests only
    python bench/run.py --seed 7 --out run.json  # self-describing records
    python bench/run.py compare BASE.json HEAD.json [BASE2.json HEAD2.json ...]

Each workload runs in a fresh child process (``bench/workloads.py``); the
children import ``repro`` from ``src/``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Timings are normalized by a host-speed reference (``bench/reference.py``).
The exit code is non-zero when a check fails.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import datetime
import http.client
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from stats import changed_counts, tail_percentile, verdict
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"

#: children still running this long after the start are killed and the run fails
RUN_TIMEOUT_S = 170.0
#: closed-loop /health prober: think time between a reply and the next probe
PROBE_THINK_S = 0.05
PROBE_TIMEOUT_S = 30.0
RECORD_SCHEMA_VERSION = 2
#: layer call counts that depend on timing, not on the seed
TIMING_DEPENDENT = {"serve.health.calls"}
EXACT_RATIOS = ("net.tcp_rounds_per_transfer", "net.tcp_retx_ratio", "cdn.miss_ratio")


class BenchError(RuntimeError):
    """A child failed to produce a result."""


def load_spec() -> Dict[str, Any]:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


# -- children ----------------------------------------------------------------


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # the same string hashing in every run, so dict and set layouts match
    env["PYTHONHASHSEED"] = "0"
    return env


def _child_cmd(workload: str, opts: argparse.Namespace, result: Path, traced: bool,
               spill_dir: Path, prep: bool = False) -> List[str]:
    cmd = [
        sys.executable, str(BENCH / "workloads.py"),
        "--workload", workload,
        "--seed", str(opts.seed),
        "--seconds", str(opts.seconds),
        "--result", str(result),
        "--spill-dir", str(spill_dir),
    ]
    if traced:
        cmd.append("--trace")
    if opts.smoke:
        cmd.append("--smoke")
    if prep:
        cmd.append("--prep")
    return cmd


def _read_result(path: Path, returncode: int, what: str) -> Dict[str, Any]:
    if returncode != 0 or not path.is_file():
        raise BenchError(f"{what}: child exited with code {returncode}")
    return json.loads(path.read_text(encoding="utf-8"))


def _time_left(deadline: float, what: str) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"{what}: no time left of the {RUN_TIMEOUT_S:.0f} s run limit")
    return left


def _run_plain(cmd: List[str], result: Path, what: str, deadline: float) -> Dict[str, Any]:
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
            stdout=sys.stderr, timeout=_time_left(deadline, what),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what}: killed at the {RUN_TIMEOUT_S:.0f} s run limit") from None
    return _read_result(result, proc.returncode, what)


class HealthProber(threading.Thread):
    """One thread, one keep-alive connection, closed loop with think time.

    Latency is timed from sending the request to reading the whole reply;
    a non-200 reply, a timeout or a connection error is a failed probe.
    """

    def __init__(self, port: int) -> None:
        super().__init__(name="bench-health-prober", daemon=True)
        self.port = port
        self.halt = threading.Event()
        #: (sent at, latency s, ok)
        self.samples: List[tuple] = []

    def run(self) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=PROBE_TIMEOUT_S)
        try:
            while not self.halt.is_set():
                sent = time.perf_counter()
                try:
                    conn.request("GET", "/health")
                    reply = conn.getresponse()
                    reply.read()
                    ok = reply.status == 200
                except (OSError, http.client.HTTPException):
                    ok = False
                    conn.close()  # reconnects on the next request
                self.samples.append((sent, time.perf_counter() - sent, ok))
                self.halt.wait(PROBE_THINK_S)
        finally:
            conn.close()


def _expect(proc: subprocess.Popen, prefix: str) -> str:
    line = proc.stdout.readline().strip()
    if not line.startswith(prefix):
        raise BenchError(f"serve-steady: expected {prefix!r} from the child, got {line!r}")
    return line


def _run_serve(cmd: List[str], result: Path, what: str, deadline: float) -> Dict[str, Any]:
    timeout = _time_left(deadline, what)
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_child_env(), stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True,
    )
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    prober: Optional[HealthProber] = None
    try:
        port = int(_expect(proc, "ready ").split()[1])
        prober = HealthProber(port)
        proc.stdin.write("go\n")
        proc.stdin.flush()
        prober.start()
        _expect(proc, "rounds-done")
        done_at = time.perf_counter()
        prober.halt.set()
        prober.join(PROBE_TIMEOUT_S + 5.0)
        proc.stdin.write("stop\n")
        proc.stdin.flush()
        proc.wait()
    except (BenchError, OSError, ValueError, IndexError) as exc:
        raise BenchError(f"{what}: {exc}") from None
    finally:
        watchdog.cancel()
        if prober is not None:
            prober.halt.set()
            prober.join(PROBE_TIMEOUT_S + 5.0)
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stdin.close()
    outcome = _read_result(result, proc.returncode, what)
    probes = [(lat, ok) for sent, lat, ok in prober.samples if sent < done_at]
    latencies = [lat for lat, ok in probes if ok]
    failed = sum(1 for _, ok in probes if not ok)
    outcome["attempted"] += len(probes)
    outcome["failed"] += failed
    outcome["checks"].append({
        "name": "every round and /health probe succeeded (error ratio 0)",
        "ok": bool(probes) and outcome["failed"] == 0,
        "detail": f"{outcome['failed']} failed of {outcome['attempted']}",
    })
    if latencies:
        p90 = tail_percentile(latencies, 90)
        outcome["details"]["health_p50_ms"] = statistics.median(latencies) * 1e3
        outcome["details"]["health_p90_ms"] = None if p90 is None else p90 * 1e3
    outcome["details"]["health_probes"] = len(probes)
    return outcome


def run_workload(workload: str, opts: argparse.Namespace, traced_modes,
                 deadline: float) -> List[Dict[str, Any]]:
    """Run *workload* once per entry of *traced_modes*, each in a fresh child."""
    workdir = WORK / f"{os.getpid()}-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    spill_dir = workdir / "spill"
    outcomes = []
    try:
        prep_details: Dict[str, Any] = {}
        if workload == "spill-read":
            result = workdir / "prep.json"
            cmd = _child_cmd(workload, opts, result, False, spill_dir, prep=True)
            prep_details = _run_plain(cmd, result, "spill-read prep", deadline)["details"]
        for traced in traced_modes:
            result = workdir / f"result-{int(traced)}.json"
            cmd = _child_cmd(workload, opts, result, traced, spill_dir)
            what = f"{workload}{' (traced)' if traced else ''}"
            runner = _run_serve if workload == "serve-steady" else _run_plain
            outcome = runner(cmd, result, what, deadline)
            outcome["details"].update(prep_details)
            outcomes.append(outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run's directory is still there
    if len(outcomes) == 2:
        untraced, traced = outcomes
        traced["layers"]["trace.overhead_ratio"] = (
            traced["measured_s"] / untraced["measured_s"] - 1.0
        )
        # a probe waits out the current round, and traced rounds are slower,
        # so /health latency is taken from the untraced run
        traced["layers"]["serve.health_p50_ms"] = untraced["details"].get("health_p50_ms", 0.0)
    return outcomes


# -- reporting ---------------------------------------------------------------


def e2e_values(outcome: Dict[str, Any], spec: Dict[str, Any]) -> Dict[str, float]:
    values = dict(outcome["metrics"], peak_rss_mb=outcome["peak_rss_mb"])
    return {m["name"]: values[m["name"]] for m in spec["end_to_end"]}


def layer_values(outcome: Dict[str, Any], spec: Dict[str, Any]) -> Dict[str, float]:
    return {m["name"]: outcome["layers"][m["name"]] for m in spec["per_layer"]}


def exact_counts(outcome: Dict[str, Any]) -> Dict[str, float]:
    counts = dict(outcome.get("counts", {}))
    for name, value in outcome.get("layers", {}).items():
        if (name.endswith(".calls") and name not in TIMING_DEPENDENT) or name in EXACT_RATIOS:
            counts[name] = value
    return counts


def _fmt(value: Any) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_outcome(outcome: Dict[str, Any], spec: Dict[str, Any]) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    mode = "traced" if outcome["instrumented"] else "untraced"
    print(f"== {outcome['workload']} (seed {outcome['seed']}, {mode}) ==")
    if not outcome["instrumented"]:
        for name, value in e2e_values(outcome, spec).items():
            print(f"  {name:<24} {_fmt(value):>14} {units[name]}")
    for name, value in sorted(outcome["details"].items()):
        print(f"  . {name:<22} {_fmt(value):>14}")
    for name, value in sorted(outcome["counts"].items()):
        print(f"  # {name:<22} {_fmt(value):>14}")
    if outcome["instrumented"]:
        print_layers(outcome, units)
    for check in outcome["checks"]:
        mark = "ok  " if check["ok"] else "FAIL"
        line = f"  [{mark}] {check['name']}"
        print(line if check["ok"] else f"{line}: {check['detail']}")


def print_layers(outcome: Dict[str, Any], units: Dict[str, str]) -> None:
    layers = outcome["layers"]
    trace = outcome["trace"]
    wall = trace["wall_s"]
    names = sorted({key.rsplit(".", 1)[0] for key in layers if key.endswith(".self_s")})
    print(f"  {'layer':<24} {'calls':>10} {'busy_s':>10} {'self_s':>10} {'self %':>7}")
    for layer in names:
        if layer in trace["absent"] and not layers[f"{layer}.calls"]:
            print(f"  {layer:<24} {'absent':>10}")
            continue
        self_s = layers[f"{layer}.self_s"]
        print(
            f"  {layer:<24} {layers[f'{layer}.calls']:>10} "
            f"{layers[f'{layer}.busy_s']:>10.4f} {self_s:>10.4f} {100 * self_s / wall:>6.1f}%"
        )
    print(
        f"  sum self {trace['self_total_s']:.4f} s + other {trace['other_s']:.4f} s"
        f" = traced wall {wall:.4f} s"
    )
    for name in sorted(layers):
        if not name.endswith((".calls", ".busy_s", ".self_s")):
            print(f"  {name:<24} {_fmt(layers[name]):>14} {units.get(name, '')}")
    for layer, targets in sorted(trace["absent"].items()):
        for target in targets:
            print(f"  absent: {layer}: {target}")


def metric_block(names_units, values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    return {name: {"value": values[name], "unit": unit} for name, unit in names_units}


# -- records -----------------------------------------------------------------


def _git(*args: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def build_records(outcomes: List[Dict[str, Any]], opts: argparse.Namespace,
                  spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One self-describing record per child run (ROADMAP schema v2 fields)."""
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    identity = {
        "schema_version": RECORD_SCHEMA_VERSION,
        "commit": commit.strip() if commit else None,
        "dirty": None if status is None else bool(status.strip()),
        "host": {
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "cpu_model": _cpu_model(),
        },
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seconds": opts.seconds,
    }
    records = []
    for outcome in outcomes:
        record = dict(identity)
        record.update({
            key: outcome[key]
            for key in ("workload", "seed", "smoke", "instrumented", "python", "numpy",
                        "attempted", "failed", "details", "counts", "checks")
        })
        record["correct"] = all(c["ok"] for c in outcome["checks"])
        record["exact_counts"] = exact_counts(outcome)
        if outcome["instrumented"]:
            record["layers"] = outcome["layers"]
            record["trace"] = outcome["trace"]
        else:
            record["metrics"] = e2e_values(outcome, spec)
        records.append(record)
    return records


# -- compare -----------------------------------------------------------------


def compare(argv: List[str]) -> int:
    """Paired base/head verdicts per (metric, workload); exit 1 on a regression."""
    parser = argparse.ArgumentParser(
        prog="run.py compare",
        description="Files alternate base and head: BASE HEAD [BASE HEAD ...]; "
        "each is a --out file, and each base/head pair should share a seed.",
    )
    parser.add_argument("files", nargs="+", type=Path)
    paths = parser.parse_args(argv).files
    if len(paths) < 2 or len(paths) % 2:
        parser.error("give BASE HEAD pairs")
    spec = load_spec()
    docs = [json.loads(p.read_text(encoding="utf-8")) for p in paths]
    if len({r["smoke"] for doc in docs for r in doc}) > 1:
        parser.error("smoke records cannot be compared with full runs")
    hosts = {json.dumps(r["host"], sort_keys=True) for doc in docs for r in doc}
    if len(hosts) > 1:
        print("warning: records come from more than one host", file=sys.stderr)

    def by_workload(doc, instrumented):
        return {r["workload"]: r for r in doc if r["instrumented"] == instrumented}

    values: Dict[tuple, tuple] = {}
    count_changes: List[str] = []
    for pair, (base_doc, head_doc) in enumerate(zip(docs[0::2], docs[1::2]), start=1):
        for instrumented in (False, True):
            base, head = by_workload(base_doc, instrumented), by_workload(head_doc, instrumented)
            for workload in sorted(set(base) & set(head)):
                b, h = base[workload], head[workload]
                if not instrumented:
                    for m in spec["end_to_end"]:
                        entry = values.setdefault((workload, m["name"]), ([], []))
                        entry[0].append(b["metrics"][m["name"]])
                        entry[1].append(h["metrics"][m["name"]])
                if b["seed"] == h["seed"]:
                    for name in changed_counts(b["exact_counts"], h["exact_counts"]):
                        count_changes.append(
                            f"pair {pair} {workload}: {name} "
                            f"{b['exact_counts'].get(name)} -> {h['exact_counts'].get(name)}"
                        )
    regressed = False
    print(f"{'workload':<14} {'metric':<16} {'base median [q1, q3]':>30} "
          f"{'head median [q1, q3]':>30} {'change':>8} {'wins':>5} verdict")
    for m in spec["end_to_end"]:
        for workload in WORKLOADS:
            if (workload, m["name"]) not in values:
                continue
            base, head = values[(workload, m["name"])]
            v = verdict(base, head, m["better"], m["bound"])
            regressed |= v["status"] == "regressed"
            print(
                f"{workload:<14} {m['name']:<16} {_span(v['base']):>30} {_span(v['head']):>30} "
                f"{100 * v['change']:>+7.1f}% {v['win_fraction']:>5.2f} {v['status']}"
                f" (n={v['pairs']}, bound {m['bound']:.0%})"
            )
    if count_changes:
        print("exact counts changed (the simulated workload differs):")
        for line in count_changes:
            print("  " + line)
    else:
        print("exact counts: identical for every same-seed pair")
    return 1 if regressed else 0


def _span(q) -> str:
    q1, med, q3 = q
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


# -- main --------------------------------------------------------------------


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run the repro benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=None,
                        help="size of the measured phase (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="also run each workload traced and print the layer table")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; output is labelled smoke and never compared")
    parser.add_argument("--out", type=Path, help="write self-describing records here")
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    if argv and argv[0] == "compare":
        return compare(argv[1:])
    opts = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if opts.seconds is None:
        opts.seconds = spec["run_seconds"]
    workloads = [opts.workload] if opts.workload else list(WORKLOADS)
    single_workload = opts.workload is not None
    modes = (False, True) if opts.trace else (False,)
    if opts.smoke:
        print("SMOKE RUN: tiny sizes, labelled smoke; never compare with full runs")

    outcomes: List[Dict[str, Any]] = []
    # one workload must end within the limit; a full run gets it per workload
    deadline = time.monotonic() + RUN_TIMEOUT_S * len(workloads)
    try:
        for workload in workloads:
            for outcome in run_workload(workload, opts, modes, deadline):
                print_outcome(outcome, spec)
                outcomes.append(outcome)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    if opts.out:
        records = build_records(outcomes, opts, spec)
        opts.out.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    correct = all(c["ok"] for o in outcomes for c in o["checks"])
    attempted = sum(o["attempted"] for o in outcomes)
    failed = sum(o["failed"] for o in outcomes)
    e2e_units = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layer_units = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    per_workload = {}
    for outcome in outcomes:
        block = per_workload.setdefault(outcome["workload"], {})
        if outcome["instrumented"]:
            block.update(metric_block(layer_units, layer_values(outcome, spec)))
        elif not (single_workload and opts.trace):
            block.update(metric_block(e2e_units, e2e_values(outcome, spec)))
    metrics = per_workload[workloads[0]] if single_workload else per_workload
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    # on SIGTERM, unwind through the finally blocks that stop the children
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    sys.exit(main(sys.argv[1:]))
