#!/usr/bin/env python3
"""Run-to-run agreement tool for the qecbench benchmark.

Runs every workload N times with seeds seed0, seed0+1, ..., alternating the
workload order between rounds, and reports for every workload x metric the
median, the quartiles (statistics.quantiles(n=4)), the min/max and the
quartile spread as a share of the median, next to the metric's bound in
BENCHMARK.json. A second command checks whether two recorded sets agree:
every spread of both sets within its bound, every median of the second set
within the bound of the first's in either direction, and the same failed
share.

Run from the repository root:

    python3 qecbench/agree.py run --runs 10 --out .bench_work/set1.json
    python3 qecbench/agree.py run --runs 10 --out .bench_work/set2.json
    python3 qecbench/agree.py compare .bench_work/set1.json .bench_work/set2.json

`run` exits non-zero if any run fails or reports incorrect results;
`compare` exits non-zero if the two sets disagree.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time


def load_spec(path):
    with open(path) as f:
        return json.load(f)


def metric_specs(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def run_once(spec, workload, seed, seconds, trace):
    cmd = list(spec["command"]) + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    steal = re.search(r"host steal during the timed phase: ([0-9.]+)%", proc.stdout)
    result["steal_pct"] = float(steal.group(1)) if steal else None
    result["wall_s"] = round(wall, 2)
    return result


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "spread": spread}


def table(spec, results, trace):
    """Prints and returns {workload: {metric: summary}}."""
    out = {}
    for workload, runs in results.items():
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        steals = [r["steal_pct"] for r in runs if r.get("steal_pct") is not None]
        steal = f", host steal {min(steals):.1f}-{max(steals):.1f}%" if steals else ""
        print(f"\n{workload}: {len(runs)} runs, failed {failed}/{attempted}, "
              f"wall {statistics.median([r['wall_s'] for r in runs]):.1f} s median{steal}")
        print(f"  {'metric':<26}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'min':>12}{'max':>12}{'spread':>9}{'bound':>7}")
        out[workload] = {}
        for m in metric_specs(spec, trace):
            vals = [r["metrics"][m["name"]]["value"] for r in runs
                    if m["name"] in r["metrics"]
                    and r["metrics"][m["name"]]["value"] is not None]
            if not vals:
                print(f"  {m['name']:<26} missing")
                continue
            s = summarize(vals)
            out[workload][m["name"]] = s
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                flag = "ok" if s["spread"] <= bound / 3 else (
                    "wide" if s["spread"] <= bound else "OVER")
            print(f"  {m['name']:<26}{s['median']:>12.5g}{s['q1']:>12.5g}"
                  f"{s['q3']:>12.5g}{s['min']:>12.5g}{s['max']:>12.5g}"
                  f"{s['spread']:>9.3f}{'' if bound is None else bound:>7} {flag}")
    return out


def cmd_run(args):
    spec = load_spec(args.spec)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    results = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            r = run_once(spec, w, args.seed0 + i, seconds, args.trace)
            results[w].append(r)
            print(f"run {i + 1}/{args.runs} {w} seed {r['seed']}: "
                  f"correct {r['correct']} in {r['wall_s']} s, "
                  f"host steal {r['steal_pct']}%", flush=True)
            if not r["correct"]:
                raise SystemExit(f"{w} seed {r['seed']}: incorrect results")
    summary = table(spec, results, args.trace)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seconds": seconds, "trace": args.trace,
                       "results": results, "summary": summary}, f, indent=1)
        print(f"\nwrote {args.out}")


def cmd_compare(args):
    spec = load_spec(args.spec)
    with open(args.first) as f:
        a = json.load(f)
    with open(args.second) as f:
        b = json.load(f)
    ok = True
    for workload in a["results"]:
        ra, rb = a["results"][workload], b["results"].get(workload, [])
        share = lambda rs: (sum(r["failed"] for r in rs),
                            sum(r["attempted"] for r in rs))
        fa, fb = share(ra), share(rb)
        same_share = fa[0] * fb[1] == fb[0] * fa[1]
        ok &= same_share
        print(f"\n{workload}: failed share {fa[0]}/{fa[1]} vs {fb[0]}/{fb[1]}"
              f" {'same' if same_share else 'DIFFERENT'}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va = [r["metrics"][name]["value"] for r in ra]
            vb = [r["metrics"][name]["value"] for r in rb]
            sa, sb = summarize(va), summarize(vb)
            drift = (sb["median"] - sa["median"]) / sa["median"]
            if m["better"] == "higher":
                drift = -drift
            spread_ok = sa["spread"] <= bound and sb["spread"] <= bound
            good = abs(drift) <= bound and spread_ok
            ok &= good
            print(f"  {name:<18} median {sa['median']:.5g} -> {sb['median']:.5g}"
                  f" ({drift:+.3f} worse, bound {bound}), spreads"
                  f" {sa['spread']:.3f} / {sb['spread']:.3f}"
                  f" {'ok' if good else 'DISAGREE'}")
    print("\nagree" if ok else "\nDISAGREE")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--spec", default="BENCHMARK.json")
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run every workload N times")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed0", type=int, default=1)
    r.add_argument("--seconds", type=int, default=None)
    r.add_argument("--workloads", default=None, help="comma-separated subset")
    r.add_argument("--trace", action="store_true", help="traced runs (per-layer metrics)")
    r.add_argument("--out", default=None, help="write the set as JSON here")
    c = sub.add_parser("compare", help="check two recorded sets agree")
    c.add_argument("first")
    c.add_argument("second")
    args = p.parse_args()
    if args.cmd == "run":
        cmd_run(args)
        return 0
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
