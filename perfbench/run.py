"""Benchmark of the enaqt CLI, end to end and per layer.

Run one workload:

    python3 perfbench/run.py --workload bandwidth --seed 3 --seconds 25 --trace 0

Every workload (see ``workloads.py`` and ``BENCHMARK.json``) is a list of
CLI commands that runs in this process through ``enaqt.cli.main(argv)``.
The config is generated from ``--seed``, and the program sees only its
path.  One pass runs the whole list.  A warm pass runs the same commands on
a tiny config first, so imports and first-call set-up are done.  Passes then
repeat until ``--seconds`` have passed, with at least three.  After the timed
passes:

- the first pass's outputs go to the independent oracle (``oracle.py``, a
  separate process);
- every later pass must write byte-identical CSVs;
- in the ``parallel`` workload, a ``--workers 1`` rerun must write the same
  bytes as ``--workers 2``.

A command fails if it exits non-zero or any of these checks fails.

``--trace 0`` reports the end-to-end metrics:

- ``wall_s``: median seconds per pass;
- ``peak_rss_mb``: peak resident memory of this process plus its largest
  reaped child, read before the oracle and set-up probes start;
- ``setup_s``: median of seven fresh interpreters that import enaqt and parse
  the workload config.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from the spans of the first traced pass (``tracing.py``),
with self times as medians over the traced passes:

- ``<layer>.calls`` and ``.self_s``: calls, and span time not covered by
  child spans; a layer that does not run on a workload reports 0;
- ``decoherence.ensemble_average.useful_ratio``: ensemble calls whose
  efficiency appears in a CSV of the pass, over all ensemble calls;
- ``analysis.pool.*``: tasks mapped onto the process pool, CPU seconds of
  its reaped workers, and that CPU time over the pool's lifetime;
- ``trace.overhead_s``: traced minus untraced median pass time;
- ``oracle.max_abs_err`` and ``oracle.error_rate``: largest CSV deviation
  from the oracle, and failed over attempted commands.

The last stdout line is the JSON result.  Each run also saves that result,
with the machine facts, under ``.perfbench_out/results/``.  Compare two sets
of saved results with:

    python3 perfbench/run.py --compare DIR_A [DIR_B]

The benchmark sets no BLAS or OpenMP thread variable for the program; it
records the ones it finds.  Only the oracle's own process runs
single-threaded BLAS.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, aggregate, ensemble_etas  # noqa: E402

MIN_PASSES = 3
SETUP_PROBES = 7
SETUP_CODE = "import sys, enaqt; enaqt.parse_config(sys.argv[1])"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PER_LAYER_TIMES = [
    "propagate.evolve_lindblad", "decoherence.ensemble_average", "linalg.eigh",
    "lattice.build_hamiltonian", "propagate.evolve_trapped", "linalg.expm",
    "propagate.evolve_unitary", "propagate.sink_no_return_check",
    "decoherence.decoherence_strength", "analysis.sweep_bandwidth", "analysis.enaqt_map",
    "analysis.sweep_wavelength", "analysis.dark_state_diagnostics", "cli.write_csv",
    "config.parse_config",
]
PER_LAYER_CALLS = [
    "propagate.evolve_lindblad", "decoherence.ensemble_average", "linalg.eigh",
    "lattice.build_hamiltonian", "propagate.evolve_trapped", "linalg.expm",
    "propagate.evolve_unitary",
]


class HarnessError(RuntimeError):
    """The benchmark cannot run here (no program source, bad arguments)."""


def load_cli():
    if not (SRC / "enaqt" / "__init__.py").is_file():
        raise HarnessError(f"no program source at {SRC / 'enaqt'}")
    sys.path.insert(0, str(SRC))
    import enaqt
    from enaqt import cli
    if Path(enaqt.__file__).resolve().parent != (SRC / "enaqt").resolve():
        raise HarnessError(f"imported enaqt from {enaqt.__file__}, not from {SRC}")
    return cli


def machine_facts() -> dict:
    import numpy as np
    import scipy
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = "unknown"
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "mp_start_method": multiprocessing.get_context().get_start_method(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def output_digest(cmd: list, outdir: Path, stdout: str) -> str | None:
    name = oracle.output_name(cmd)
    data = stdout.encode() if name is None else (
        (outdir / name).read_bytes() if (outdir / name).exists() else None)
    return None if data is None else hashlib.sha256(data).hexdigest()


def run_pass(cli, cmds: list, outdir: Path, tracer: Tracer | None = None) -> dict:
    """Run every command once into ``outdir``; time only the ``cli.main`` calls."""
    outdir.mkdir(parents=True, exist_ok=True)
    gc.collect()
    wall = 0.0
    records = []
    for cmd in cmds:
        argv = cmd + ["--output-dir", str(outdir)]
        buf = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            span = tracer.open("cli") if tracer else None
            try:
                rc = cli.main(argv)
            except Exception as exc:  # a crash is a failed command, not a harness error
                rc = f"{type(exc).__name__}: {exc}"
            finally:
                if tracer:
                    tracer.close(span)
            seconds = time.perf_counter() - t0
        wall += seconds
        stdout = buf.getvalue()
        if oracle.output_name(cmd) is None:
            (outdir / "check_stdout.txt").write_text(stdout)
        records.append({"cmd": cmd, "rc": rc, "seconds": seconds,
                        "stderr": err.getvalue()[-500:],
                        "digest": output_digest(cmd, outdir, stdout)})
    return {"wall": wall, "records": records}


def oracle_verdicts(config_path: Path, outdir: Path, cmds: list) -> list:
    """Run the oracle in its own process on one pass's outputs."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(HERE / "oracle.py"), str(config_path), str(outdir),
         json.dumps(cmds)],
        capture_output=True, text=True, env=env, timeout=120)
    if proc.returncode != 0:
        return [{"cmd": c, "errors": [f"oracle crashed: {proc.stderr[-300:]}"],
                 "max_abs_err": 0.0} for c in cmds]
    return json.loads(proc.stdout.splitlines()[-1])["verdicts"]


def count_failures(passes: list, verdicts: list, same_as_serial: list | None = None):
    """(attempted, failed, messages) over every command of every pass.

    The oracle checks the first pass; a later pass inherits that verdict only
    if its output bytes are identical, and fails otherwise.
    """
    first = passes[0]["records"]
    attempted, failed, messages = 0, 0, []
    for k, p in enumerate(passes):
        for j, rec in enumerate(p["records"]):
            attempted += 1
            why = []
            if rec["rc"] != 0:
                why.append(f"exit {rec['rc']} {rec['stderr'].strip()[-200:]}")
            if rec["digest"] is None:
                why.append("no output")
            elif rec["digest"] != first[j]["digest"]:
                why.append("output bytes differ from the first pass")
            why += verdicts[j]["errors"]
            if same_as_serial is not None and not same_as_serial[j]:
                why.append("output differs from the --workers 1 run")
            if why:
                failed += 1
                messages.append(f"pass {k} {' '.join(rec['cmd'][:1] + rec['cmd'][2:])}: "
                                + "; ".join(why))
    return attempted, failed, messages


def serial_digests(cli, cmds: list, workdir: Path, first_pass: dict) -> list:
    """For commands run with --workers N > 1: rerun with --workers 1 and
    compare output bytes.  Commands already serial compare trivially."""
    serial = [c[:c.index("--workers") + 1] + ["1"] + c[c.index("--workers") + 2:]
              if "--workers" in c else c for c in cmds]
    if serial == cmds:
        return [True] * len(cmds)
    ref = run_pass(cli, serial, workdir / "serial")
    return [r["digest"] is not None and r["digest"] == f["digest"]
            for r, f in zip(ref["records"], first_pass["records"])]


def setup_seconds(config_path: Path) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(config_path)],
                              env=env, capture_output=True, timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise HarnessError(f"set-up probe failed: {proc.stderr.decode()[-300:]}")
    return statistics.median(times)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def timed_passes(cli, cmds: list, workdir: Path, seconds: float, trace: bool):
    """Untraced passes, alternating with traced ones when ``trace`` is set.

    A new round starts while less than ``seconds`` have passed; an untraced
    run makes at least MIN_PASSES passes.
    """
    plain, traced = [], []
    t_start = time.perf_counter()
    while True:
        plain.append(run_pass(cli, cmds, workdir / f"p{len(plain)}"))
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                p = run_pass(cli, cmds, workdir / f"t{len(traced)}", tracer)
            finally:
                tracer.uninstall()
            p["spans"] = tracer.spans
            traced.append(p)
        if (len(plain) >= (1 if trace else MIN_PASSES)
                and time.perf_counter() - t_start >= seconds):
            return plain, traced


def layer_metrics(traced: list, plain: list, csv_values: set, oracle_err: float,
                  attempted: int, failed: int) -> dict:
    aggs = [aggregate(p["spans"]) for p in traced]
    first = aggs[0]

    def stat(name, key, default=0):
        return first.get(name, {}).get(key, default)

    def self_s(name):
        return statistics.median(a.get(name, {}).get("self_s", 0.0) for a in aggs)

    m = {}
    for name in PER_LAYER_CALLS:
        m[f"{name}.calls"] = (stat(name, "calls"), "count")
    for name in PER_LAYER_TIMES:
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["propagate.evolve_lindblad.z_points"] = (stat("propagate.evolve_lindblad", "z_points"),
                                               "count")
    m["decoherence.ensemble_average.nodes"] = (stat("decoherence.ensemble_average", "nodes"),
                                               "count")
    etas = ensemble_etas(traced[0]["spans"])
    useful = sum(1 for e in etas if e in csv_values)
    m["decoherence.ensemble_average.useful_ratio"] = (useful / len(etas) if etas else 0.0,
                                                      "ratio")
    m["cli.write_csv.bytes"] = (stat("cli.write_csv", "bytes"), "bytes")
    m["cli.self_s"] = (self_s("cli"), "s")
    pool_wall = stat("analysis.pool", "total_s", 0.0)
    child_cpu = stat("analysis.pool", "child_cpu_s", 0.0)
    m["analysis.pool.tasks"] = (stat("analysis.pool", "tasks"), "count")
    m["analysis.pool.child_cpu_s"] = (child_cpu, "s")
    m["analysis.pool.cpu_per_wall"] = (child_cpu / pool_wall if pool_wall else 0.0, "ratio")
    m["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                             - statistics.median(p["wall"] for p in plain), "s")
    m["oracle.max_abs_err"] = (oracle_err, "abs")
    m["oracle.error_rate"] = (failed / attempted, "ratio")
    return m


def csv_numbers(outdir: Path, cmds: list) -> set:
    values = set()
    for cmd in cmds:
        name = oracle.output_name(cmd)
        if name and (outdir / name).exists():
            values.update(v for col in oracle.read_csv(outdir / name).values() for v in col)
    return values


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    """Run one workload and return the result (metrics plus details)."""
    if workload not in workloads.WORKLOADS:
        raise HarnessError(f"unknown workload {workload!r}; "
                           f"choose from {sorted(workloads.WORKLOADS)}")
    cli = load_cli()
    workdir = OUT / "work" / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        config_path = workdir / "config.json"
        config_path.write_text(json.dumps(workloads.make_config(seed, tiny=tiny), indent=1))
        warm_path = workdir / "warm.json"
        warm_path.write_text(json.dumps(workloads.make_config(seed, tiny=True), indent=1))
        cmds = workloads.commands(workload, config_path)

        run_pass(cli, workloads.commands(workload, warm_path), workdir / "warm")
        plain, traced = timed_passes(cli, cmds, workdir, seconds, trace)
        rss = peak_rss_mb()

        serial_ok = serial_digests(cli, cmds, workdir, plain[0])
        verdicts = oracle_verdicts(config_path, workdir / "p0", cmds)
        passes = plain + traced
        attempted, failed, messages = count_failures(passes, verdicts, serial_ok)
        max_err = max((v["max_abs_err"] for v in verdicts), default=0.0)

        if trace:
            metrics = layer_metrics(traced, plain, csv_numbers(workdir / "p0", cmds),
                                    max_err, attempted, failed)
            spans_dir = OUT / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            (spans_dir / f"{workload}-s{seed}.json").write_text(json.dumps(
                [s[:4] for s in traced[0]["spans"]]))
        else:
            metrics = {
                "setup_s": (setup_seconds(config_path), "s"),
                "wall_s": (statistics.median(p["wall"] for p in plain), "s"),
                "peak_rss_mb": (rss, "MiB"),
            }
        return {
            "workload": workload, "seed": seed, "trace": int(trace),
            "scale": workloads.seed_scale(seed),
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "error_rate": failed / attempted, "max_abs_err": max_err,
            "pass_walls": [p["wall"] for p in plain],
            "command_seconds": [[r["seconds"] for r in p["records"]] for p in plain],
            "traced_pass_walls": [p["wall"] for p in traced],
            "messages": messages,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(result: dict, facts: dict):
    print(f"machine: {json.dumps(facts, sort_keys=True)}")
    print(f"workload {result['workload']} seed {result['seed']} "
          f"(coupling scale {result['scale']!r}) trace {result['trace']}")
    print(f"passes: {len(result['pass_walls'])} untraced "
          f"{[round(w, 4) for w in result['pass_walls']]}"
          + (f", {len(result['traced_pass_walls'])} traced" if result["trace"] else ""))
    print(f"error_rate = {result['error_rate']!r} ({result['failed']} of "
          f"{result['attempted']} commands failed)")
    print(f"max_abs_err = {result['max_abs_err']!r} (largest CSV deviation from the oracle)")
    for msg in result["messages"]:
        print(f"FAILED {msg}")
    for name, m in sorted(result["metrics"].items()):
        print(f"{name} = {m['value']!r} {m['unit']}")


def save(result: dict, facts: dict):
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / (f"{result['workload']}-s{result['seed']}-t{result['trace']}-"
                      f"{stamp}-{os.getpid()}.json")
    path.write_text(json.dumps(dict(result, machine=facts), indent=1, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs="+", metavar="DIR",
                        help="summarize one result set, or compare two")
    args = parser.parse_args(argv)
    if args.compare:
        import compare
        return compare.main(args.compare)
    if not args.workload:
        parser.error("--workload is required")
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    facts = machine_facts()
    report(result, facts)
    save(result, facts)
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
