"""Pipeline benchmark for ecrplus.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's inputs are written from
the seed into .bench_work/, then rounds of the workload's CLI subcommands
run in this process through ``ecrplus.cli.main`` until S seconds have
passed (always whole rounds, at least one).  After each round every
output check runs; after the first, each check must also reject a
deliberately corrupted copy of the outputs.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics (medians over rounds); with --trace 1 the public
functions of ecrplus are wrapped and the per-layer metrics are reported
instead, and the spans are written to .bench_work/traces/.  The line
before it records the machine, library versions, thread settings and the
outcome of every check.  See bench/README.md.
"""

import os
import sys
import time


def _process_age() -> float:
    """Seconds since this process started (kernel start time, 10 ms ticks)."""
    with open("/proc/self/stat") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "ECRPLUS_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def output_bytes(directory: str, exclude=()) -> int:
    return sum(e.stat().st_size for e in os.scandir(directory) if e.is_file() and e.name not in exclude)


def machine_info(np, scipy) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ecrplus", "cli.py")):
        print(f"ecrplus sources not found under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import numpy as np
    import scipy

    import importlib

    import tracer as tr

    layers_mod = {layer: importlib.import_module(f"ecrplus.{layer}") for layer in tr.LAYERS}
    cli, estimation, trends = layers_mod["cli"], layers_mod["estimation"], layers_mod["trends"]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    ws = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(ws, ignore_errors=True)
    os.makedirs(os.path.join(ws, "out"))
    wl = WORKLOADS[args.workload](ws, args.seed)
    wl.generate()
    setup_s = _process_age()
    wl.prepare()
    checks = wl.checks()
    commands = wl.commands()

    tracer = None
    if args.trace:
        tracer = tr.Tracer(layers_mod)
        tracer.install()

    attempted = failed = 0
    walls, cpus, layers = [], [], []
    check_log: dict[str, str] = {}
    selftest: dict[str, str] = {}
    program_log = io.StringIO()  # the subcommands' own progress lines
    begin = time.perf_counter()
    while True:
        # Every round starts from an empty output directory, as a fresh run
        # would; rewriting last round's files in place can make the
        # truncate wait for their writeback, which adds noise unrelated to
        # the program.
        shutil.rmtree(wl.out)
        os.makedirs(wl.out)
        first_span = len(tracer.spans) if tracer else 0
        wall = cpu = 0.0
        ok = True
        for sub, argv in commands:
            attempted += 1
            root = tracer.root(f"cli.{sub}") if tracer else contextlib.nullcontext()
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                with root, contextlib.redirect_stdout(program_log):
                    code = cli.main(argv)
            except Exception:  # a crash is a failed operation, not the end of the run
                traceback.print_exc()
                code = -1
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
            if code != 0:
                print(f"{sub} exited with {code}", file=sys.stderr)
                failed += 1
                ok = False
        walls.append(wall)
        cpus.append(cpu)
        if tracer:
            exclude = {os.path.basename(getattr(wl, "chain", ""))}
            layers.append(tr.layer_metrics(tracer, first_span, len(tracer.spans),
                                           [s for s, _ in commands], output_bytes(wl.out, exclude)))
        outputs, missing = None, "a subcommand failed"
        if ok:
            try:
                outputs = wl.read_outputs()
            except Exception as exc:
                missing = f"outputs unreadable: {exc!r}"
        for check in checks:
            attempted += 1
            try:
                reason = check.test(outputs) if outputs is not None else missing
            except Exception as exc:
                reason = f"check raised {exc!r}"
            if reason is not None:
                failed += 1
                if check_log.get(check.name, "ok") == "ok":
                    check_log[check.name] = reason
                print(f"check {check.name} failed: {reason}", file=sys.stderr)
            else:
                check_log.setdefault(check.name, "ok")
            if outputs is not None and check.name not in selftest:
                try:
                    caught = check.test(check.corrupt(outputs))
                except Exception as exc:
                    caught = f"raised {exc!r}"
                selftest[check.name] = caught or "NOT REJECTED"
        if time.perf_counter() - begin >= args.seconds:
            break

    if tracer:
        tracer.uninstall()
    correct = (all(v == "ok" for v in check_log.values())
               and len(selftest) == len(checks)
               and all(v != "NOT REJECTED" for v in selftest.values()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer:
        values = {k: statistics.median(r[k] for r in layers) for k in layers[0]}
        values.update(layer_micro(wl, cli, estimation, trends, tr))
        metrics = {k: {"value": values[k], "unit": unit} for k, (unit, _) in tr.PER_LAYER.items()}
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        tracer.write(os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.json"))
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": len(walls), "attempted": attempted, "failed": failed,
        "round_wall_s": walls, "round_cpu_s": cpus, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
        "checks": check_log, "selftest": selftest, "machine": machine_info(np, scipy),
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({**record, "metrics": metrics}, fh, indent=1)
    shutil.rmtree(ws, ignore_errors=True)
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def layer_micro(wl, cli, estimation, trends, tr) -> dict:
    """Per-layer timings measured by repeating one public call on the
    workload's panel: the likelihood and the trend grids.  Workloads
    without a panel report 0."""
    if wl.panel is None:
        return {"estimation.log_likelihood_us": 0.0, "trends.grid_us": 0.0}
    cfg = cli.load_config(wl.config)
    panel = cli.panel_from_config(cfg)
    params = cli.load_params(wl.layer_params())
    years = panel.years

    def grids():
        trends.death_prob_grid(years, params.trends)
        trends.cause_weights_grid(years, params.trends)

    return {"estimation.log_likelihood_us": tr.median_us(lambda: estimation.log_likelihood(panel, params), 300),
            "trends.grid_us": tr.median_us(grids, 300)}


if __name__ == "__main__":
    sys.exit(main())
