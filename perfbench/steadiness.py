"""Run the benchmark once per seed and report each metric's spread.

The spread is the distance between the first and third quartile of the
per-seed values (``statistics.quantiles(values, n=4)``) as a share of
their median, the figure each end-to-end ``bound`` in BENCHMARK.json is
compared with.  Runs go one after another, each in its own process:

    python3 perfbench/steadiness.py OUT.json unknowns,complete 1-10
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "iqr_over_median": (q3 - q1) / statistics.median(values) if median else None,
    }


def main():
    out_path, names = Path(sys.argv[1]), sys.argv[2].split(",")
    first, last = (int(x) for x in sys.argv[3].split("-"))
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    report = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for name in names:
        runs = []
        for seed in range(first, last + 1):
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"],
                capture_output=True, text=True, timeout=900, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            result["process_s"] = time.perf_counter() - started
            runs.append(result)
            values = {k: round(m["value"], 4) for k, m in result["metrics"].items()}
            print(name, seed, f"{result['process_s']:.1f}s", result["correct"],
                  result["failed"], values, flush=True)
        metrics = {
            key: spread([r["metrics"][key]["value"] for r in runs])
            for key in runs[0]["metrics"]
        }
        report["workloads"][name] = {"metrics": metrics, "runs": runs}
        for key, s in metrics.items():
            print(f"  {name} {key}: median {s['median']:.4g} spread {s['iqr_over_median']}")
    out_path.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
