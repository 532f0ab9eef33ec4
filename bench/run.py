"""The powertree benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
One client sends the workload's items to `powertree.cli.main(argv)` one at
a time (a closed loop). Every pass over the items runs in a fresh
interpreter (`child.py`), because the package caches factorizations for the
life of a process and every real CLI call starts with that cache empty.
The seed permutes the item order of each pass; the item set is fixed.

Passes repeat until the next one would end after S seconds (at least one
runs). Every output is checked against `expected.json` after the pass. The
last line printed is one JSON object: with `--trace 0` it holds the
end-to-end metrics of untraced passes; with `--trace 1` untraced and traced
passes alternate, and it holds the per-layer metrics, which come from spans
recorded around each module's public functions. The spans are written to
`.bench_out/` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, item_key, items as workload_items  # noqa: E402

SETUP_SAMPLES_PER_PASS = 3   # import-only children before each pass
HARD_LIMIT_S = 170           # the whole run ends within this, however slow the program
CHILD_ENV_DROPPED = ("PYTHONPATH", "PYTHONSTARTUP", "PYTHONDONTWRITEBYTECODE",
                     "PYTHONPYCACHEPREFIX", "KAPPA_MAX_ORDER")

TIME_LAYERS = {
    "treecount.det_s": "treecount.det",
    "treecount.assembly_s": "treecount.assembly",
    "treecount.blocks_s": "treecount.blocks",
    "numutil.factor_s": "numutil.factor",
    "closedform.formula_s": "closedform.formula",
    "cli.self_s": "cli.main",
    "groups.build_s": "groups.build",
    "powergraph.graph_s": "powergraph.graph",
    "powergraph.render_s": "powergraph.render",
}


class BenchError(Exception):
    """The benchmark itself could not run to the end."""


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return q1, q3


def run_child(job: dict, deadline: float) -> dict:
    """Run child.py on one job and return its parsed result."""
    # Bytecode is written, as for an installed package, so setup_s is the
    # import itself and not a compile; hash seeds are fixed for repeatability.
    env = {k: v for k, v in os.environ.items() if k not in CHILD_ENV_DROPPED}
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, "-s", str(HERE / "child.py")]
    timeout = max(1.0, deadline - time.perf_counter())
    try:
        proc = subprocess.run(cmd, input=json.dumps(job), capture_output=True,
                              text=True, env=env, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass did not finish within the {HARD_LIMIT_S} s limit") from None
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def check(argv, code, exc_name, digest, expected) -> str | None:
    """Failure class of one item, or None when it is ok."""
    if exc_name is not None:
        return "untyped"
    if code != 0:
        return "typed"
    want = expected.get(item_key(argv))
    if want is None or digest is None or "unreadable" in digest:
        return "wrong"
    if argv[0] == "graph":
        return None if digest == want else "wrong"
    if digest["kappa"] != want["kappa"] or not digest["factorization_consistent"]:
        return "wrong"
    return None


class Pass:
    """One child's pass, mapped back to the workload's fixed item order."""

    def __init__(self, result: dict, order: list[int], items, expected, traced: bool):
        self.traced = traced
        self.order = order
        self.pass_s = result["pass_s"]
        self.max_item_s = max(result["item_s"])
        self.peak_rss_mb = result["peak_rss_mb"]
        self.output_bytes = result["output_bytes"]
        self.spans = result.get("spans", [])
        self.unpatched = result.get("unpatched", [])
        self.failures = {}
        for pos, index in enumerate(order):
            cls = check(items[index], result["codes"][pos], result["exceptions"][pos],
                        result["digests"][pos], expected)
            if cls is not None:
                self.failures[index] = (cls, result["exceptions"][pos] or result["codes"][pos])
        self.attempted = len(order)
        self.checked = sum(d is not None for d in result["digests"])


def layer_metrics(p: Pass) -> dict:
    """Per-layer figures of one traced pass, from its spans."""
    child_time = [0.0] * len(p.spans)
    for name, item, parent, start, end, attrs in p.spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = {}
    for (name, item, parent, start, end, attrs), inner in zip(p.spans, child_time):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - inner
    roots = sum(end - start for _, _, parent, start, end, _ in p.spans if parent < 0)

    def attrs_of(name):
        return [a for n, _, _, _, _, a in p.spans if n == name and a is not None]

    dets = [a for a in attrs_of("treecount.det") if "dim" in a]
    factors = attrs_of("numutil.factor")
    factor_calls = sum(1 for s in p.spans if s[0] == "numutil.factor")
    builds = [a for a in attrs_of("groups.build") if "elements" in a]
    graphs = [a for a in attrs_of("powergraph.graph") if "vertices" in a]
    m = {key: self_s.get(span, 0.0) for key, span in TIME_LAYERS.items()}
    m.update({
        "treecount.det_calls": sum(1 for s in p.spans if s[0] == "treecount.det"),
        "treecount.det_dim_sum": sum(a["dim"] for a in dets),
        "treecount.det_dim_max": max((a["dim"] for a in dets), default=0),
        "treecount.det_bits_max": max((a["bits"] for a in dets), default=0),
        "numutil.factor_calls": factor_calls,
        "numutil.factor_errors": sum(1 for a in factors if "error" in a),
        "numutil.factor_complete_ratio": (
            sum(1 for a in factors if a.get("complete")) / factor_calls
            if factor_calls else 1.0),
        "closedform.calls": sum(1 for s in p.spans if s[0] == "closedform.formula"),
        "cli.output_bytes": p.output_bytes,
        "groups.build_calls": sum(1 for s in p.spans if s[0] == "groups.build"),
        "groups.elements": sum(a["elements"] for a in builds),
        "powergraph.vertices": sum(a["vertices"] for a in graphs),
        "powergraph.edges": sum(a["edges"] for a in graphs),
        "trace.loop_s": p.pass_s - roots,
    })
    return m


def declared_units() -> dict:
    """Unit of every metric, as BENCHMARK.json declares it."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}


def run(workload: str, seed: int, seconds: float, trace: bool,
        item_list=None, log=print) -> tuple[dict, dict]:
    """Measure one workload.

    Returns the result object printed last, and the details behind its
    counts: outputs checked, and the failure class of each failing item.
    """
    started = time.perf_counter()
    deadline = started + HARD_LIMIT_S
    if not (SRC / "powertree" / "cli.py").is_file():
        raise BenchError(f"no powertree package under {SRC}")
    items = item_list if item_list is not None else workload_items(workload)
    expected = json.loads((HERE / "expected.json").read_text())[workload]
    units = declared_units()
    src = str(SRC)

    import_only = {"src": src, "items": [], "trace": False}
    run_child(import_only, deadline)  # writes bytecode
    setups = []
    rng = random.Random(seed)
    passes: list[Pass] = []
    kinds = [False, True] if trace else [False]
    window_start = time.perf_counter()
    while True:
        # setup samples are spread over the run, like the passes they precede
        setups += [run_child(import_only, deadline)["setup_s"]
                   for _ in range(SETUP_SAMPLES_PER_PASS)]
        traced = kinds[len(passes) % len(kinds)]
        order = list(range(len(items)))
        rng.shuffle(order)
        result = run_child({"src": src, "items": [items[i] for i in order],
                            "trace": traced}, deadline)
        passes.append(Pass(result, order, items, expected, traced))
        setups.append(result["setup_s"])
        spent = time.perf_counter() - window_start
        if len(passes) >= len(kinds) and spent + spent / len(passes) > seconds:
            break

    plain = [p for p in passes if not p.traced]
    traced_passes = [p for p in passes if p.traced]
    counted = passes if trace else plain
    attempted = sum(p.attempted for p in counted)
    classes = {"typed": 0, "untyped": 0, "wrong": 0}
    failed_items = {}
    for p in counted:
        for index, (cls, why) in p.failures.items():
            classes[cls] += 1
            failed_items[item_key(items[index])] = (cls, why)
    failed = sum(classes.values())
    checked = sum(p.checked for p in counted)

    timings = {
        "setup_s": setups,
        "pass_s": [p.pass_s for p in plain],
        "max_item_s": [p.max_item_s for p in plain],
        "peak_rss_mb": [p.peak_rss_mb for p in plain],
    }
    log(f"workload {workload}: {len(items)} items, seed {seed}, "
        f"{len(plain)} untraced and {len(traced_passes)} traced passes, "
        f"{time.perf_counter() - started:.1f} s")
    for name, values in timings.items():
        q1, q3 = quartiles(values)
        log(f"  {name:<12} median {median(values):.6g} {units[name]}  "
            f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
    log(f"  attempted {attempted}, failed {failed} (fail_ratio {failed / attempted:.6g}): "
        f"typed {classes['typed']}, untyped {classes['untyped']}, wrong {classes['wrong']}; "
        f"{checked} outputs checked")
    for key, (cls, why) in sorted(failed_items.items()):
        log(f"  FAIL {cls} ({why}): {key}")

    if not trace:
        # max_item_s, one item per pass, moves with this host's noise by more
        # than the largest bound allowed, so it is reported per layer instead
        metrics = {name: median(values) for name, values in timings.items()
                   if name != "max_item_s"}
        metrics["ok_ratio"] = (attempted - failed) / attempted
        log(f"  ok_ratio     {metrics['ok_ratio']:.6g} {units['ok_ratio']}")
    else:
        # All layer figures come from one pass, the traced pass of median
        # time (the lower one of an even count), so they add up to its time.
        ranked = sorted(traced_passes, key=lambda p: p.pass_s)
        typical = ranked[(len(ranked) - 1) // 2]
        metrics = {"max_item_s": median(timings["max_item_s"]), **layer_metrics(typical)}
        metrics["trace.pass_s"] = typical.pass_s
        metrics["trace.overhead_s"] = metrics["trace.pass_s"] - median(timings["pass_s"])
        metrics["fail.ratio"] = failed / attempted
        metrics.update({f"fail.{cls}": count for cls, count in classes.items()})
        unpatched = sorted({u for p in traced_passes for u in p.unpatched})
        if unpatched:
            log("  not traced (absent from this source): " + ", ".join(unpatched))
        for name, value in metrics.items():
            log(f"  {name:<32} {value:.6g} {units[name]}")
        log(f"  spans written to {write_spans(workload, seed, traced_passes, items)}")
    result = {
        "correct": classes["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, {"checked": checked, "failed_items": failed_items}


def write_spans(workload: str, seed: int, passes: list[Pass], items) -> str:
    """Write the traced passes' spans, one JSON object per line."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w") as fh:
        for number, p in enumerate(passes):
            for name, item, parent, start, end, attrs in p.spans:
                fh.write(json.dumps({
                    "pass": number, "item": item_key(items[p.order[item]]),
                    "name": name, "parent": parent, "start": start, "end": end,
                    "attrs": attrs}) + "\n")
    return str(path.relative_to(ROOT))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="powertree benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, _ = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
