#!/usr/bin/env python3
"""Summaries and comparisons of benchmark result files.

    python3 perfbench/report.py summary [DIR]     # default perfbench/results
    python3 perfbench/report.py compare DIR_A DIR_B

``summary`` prints the environment of the first result and, per workload,
the median and quartile spread of every
end-to-end metric over the untraced seeds, the median per-layer table of the
traced seeds with each layer's share of the traced offline wall, the tracing
overhead (traced over untraced ``offline_s``, same seeds), whether traced and
untraced runs of a seed chose the same snapshots, the layer-stress checks
each workload was chosen for, and the metrics whose spread exceeds their
bound in BENCHMARK.json (``unresolved``).  ``compare`` reports, for every
result file present in both directories, whether the two runs chose the same
snapshots with the same basis size and counters, and for each workload the
change of every end-to-end median against its bound.  A metric whose spread
over the runs in DIR_A exceeds its bound gets the verdict ``unresolved``: a
change within that spread cannot be told from noise, so it neither passes
nor fails.  ``compare`` exits 1 when a snapshot sequence differs or a median
is worse than its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import OFFLINE_LAYERS  # noqa: E402

BENCHMARK = HERE.parent / "BENCHMARK.json"

# layers each workload was chosen to stress: (layers, base, least share)
STRESS = {
    "tb-classical": [(("reduced.sweep_solve_s", "reduced.residual_s"), "offline", 0.90)],
    "tb-cdm": [(("surrogate.cdm_construct_s", "surrogate.pivot_s"), "offline", 0.30)],
    "dd-cdm": [(("truth.solve_s",), "offline", 0.15)],
    "tb-fine": [
        (("reduced.extend_s", "truth.riesz_s"), "offline", 0.40),
        (("bounds.anchor_s",), "setup", 0.80),
    ],
}
MAX_DRIVER_SHARE = 0.05


def load(directory: Path) -> dict[tuple[str, int, int], dict]:
    """Result records keyed by (workload, seed, trace)."""
    out = {}
    for path in sorted(directory.glob("*/seed*-trace*.json")):
        rec = json.loads(path.read_text())
        out[(rec["workload"], rec["seed"], rec["trace"])] = rec
    return out


def end_to_end_specs() -> dict[str, dict]:
    """The end-to-end metrics of BENCHMARK.json by name."""
    if not BENCHMARK.is_file():
        return {}
    return {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"n": len(values), "median": med}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "n": len(values),
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else None,
    }


def _same_behaviour(a: dict, b: dict) -> bool:
    fa, fb = a.get("fingerprint"), b.get("fingerprint")
    return bool(fa and fb) and all(
        fa[k] == fb[k] for k in ("snapshot_indices", "n_basis", "counters")
    )


def summarize(records: dict) -> dict:
    specs = end_to_end_specs()
    report = {}
    for name in sorted({k[0] for k in records}):
        plain = {s: r for (w, s, t), r in records.items() if w == name and t == 0}
        traced = {s: r for (w, s, t), r in records.items() if w == name and t == 1}
        entry: dict = {
            "seeds": sorted(plain),
            "traced_seeds": sorted(traced),
            "all_correct": all(r["result"]["correct"] for r in [*plain.values(), *traced.values()]),
        }
        ok_plain = [r for r in plain.values() if r["result"]["correct"]]
        if ok_plain:
            names = ok_plain[0]["end_to_end"].keys()
            entry["end_to_end"] = {
                m: spread([r["end_to_end"][m] for r in ok_plain]) for m in names
            }
            entry["unresolved"] = [
                m
                for m, s in entry["end_to_end"].items()
                if m in specs and (s.get("spread") or 0.0) > specs[m]["bound"]
            ]
        ok_traced = [r for r in traced.values() if r["result"]["correct"]]
        if ok_traced:
            layers = {
                m: statistics.median(r["per_layer"][m] for r in ok_traced)
                for m in ok_traced[0]["per_layer"]
            }
            offline = layers["greedy.offline_traced_s"]
            setup = statistics.median(r["end_to_end"]["setup_s"] for r in ok_traced)
            entry["per_layer"] = layers
            entry["offline_share"] = {m: layers[m] / offline for m in OFFLINE_LAYERS}
            entry["traced_setup_s"] = setup
            checks = []
            for keys, base, least in STRESS.get(name, []):
                share = sum(layers[k] for k in keys) / (offline if base == "offline" else setup)
                checks.append(
                    {"layers": list(keys), "of": base, "share": share, "least": least,
                     "ok": share >= least}
                )
            share = layers["greedy.driver_share"]
            checks.append(
                {"layers": ["greedy.driver_s"], "of": "offline", "share": share,
                 "most": MAX_DRIVER_SHARE, "ok": share <= MAX_DRIVER_SHARE}
            )
            entry["stress_checks"] = checks
        both = sorted(set(plain) & set(traced))
        ratios = [
            traced[s]["end_to_end"]["offline_s"] / plain[s]["end_to_end"]["offline_s"]
            for s in both
            if plain[s]["result"]["correct"] and traced[s]["result"]["correct"]
        ]
        if ratios:
            entry["tracing_overhead"] = statistics.median(ratios)
        entry["traced_same_snapshots"] = all(_same_behaviour(plain[s], traced[s]) for s in both)
        report[name] = entry
    return report


def compare(a: dict, b: dict) -> tuple[dict, bool]:
    specs = end_to_end_specs()
    out: dict = {"same_snapshots": {}, "medians": {}}
    ok = True
    for key in sorted(set(a) & set(b)):
        same = _same_behaviour(a[key], b[key])
        out["same_snapshots"]["{}/seed{}-trace{}".format(*key)] = same
        ok &= same
    for name in sorted({k[0] for k in a}):
        va = [r for (w, _, t), r in a.items() if w == name and t == 0 and r["result"]["correct"]]
        vb = [r for (w, _, t), r in b.items() if w == name and t == 0 and r["result"]["correct"]]
        if not (va and vb):
            continue
        rows = {}
        for metric in va[0]["end_to_end"]:
            base = spread([r["end_to_end"][metric] for r in va])
            ma = base["median"]
            mb = statistics.median(r["end_to_end"][metric] for r in vb)
            row = {"a": ma, "b": mb, "b_over_a": mb / ma if ma else None}
            spec = specs.get(metric)
            if spec and ma:
                worse = (mb - ma) / ma if spec["better"] == "lower" else (ma - mb) / ma
                if (base.get("spread") or 0.0) > spec["bound"]:
                    verdict = "unresolved"
                else:
                    verdict = "pass" if worse <= spec["bound"] else "fail"
                row.update(
                    worse_by=worse, bound=spec["bound"], a_spread=base.get("spread"), verdict=verdict
                )
                ok &= verdict != "fail"
            rows[metric] = row
        out["medians"][name] = rows
    return out, ok


def main(argv: list[str]) -> int:
    if argv[:1] == ["summary"] and len(argv) <= 2:
        directory = Path(argv[1]) if len(argv) == 2 else HERE / "results"
        records = load(directory)
        first = next(iter(records.values()), {})
        out = {"environment": first.get("environment"), "workloads": summarize(records)}
        print(json.dumps(out, indent=1))
        return 0
    if argv[:1] == ["compare"] and len(argv) == 3:
        result, ok = compare(load(Path(argv[1])), load(Path(argv[2])))
        print(json.dumps(result, indent=1))
        return 0 if ok else 1
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
