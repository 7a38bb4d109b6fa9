#!/usr/bin/env python3
"""Measured host benchmark of syclport.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (the executor in src/
plus the syclport library sources) into .bench_build/perfbench, runs one
workload for --seconds, checks every output, and prints one JSON object
as the last line of stdout. --trace 0 reports the end-to-end metrics;
--trace 1 is the separate traced run that reports the per-layer metrics,
writes a Chrome trace (opens in Perfetto) and a per-layer self-time
table under perfbench/out/.

Workloads (problem data is fixed; the seed only permutes the order in
which a pass runs its operations):
  bandwidth  BabelStream + the six OPS apps at DRAM-sized grids, Threads
  dispatch   the six OPS apps at L2-sized grids on threads/sycl-flat/sycl-nd
  mgcfd      MG-CFD on the mgcfd_bench mesh, Threads, default race strategy
  report     every modelled study cell (app x platform x variant) plus PP
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402

BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = os.path.join(HERE, "out")
REFERENCES = os.path.join(HERE, "references.json")

# Output checks. OPS checksums are compared with stored Serial-backend
# references; BabelStream with its closed form; MG-CFD and the report
# must match exactly. Drift between runs is reported as
# apps.<app>.checksum_variants, never absorbed by a wider tolerance.
OPS_REL_TOL = 1e-9
STREAM_REL_TOL = 1e-9
# Set-up repeats until both limits are met; setup_s is the median. Cheap
# set-ups (report, dispatch) thus get dozens of samples, the DRAM-sized
# bandwidth set-up three.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
WARMUP_S = 1.0

# Layers the workloads do not exercise, stated with every result.
NOT_MEASURED = {
    "minimpi": "distributed runs are outside this round's aims (ROADMAP)",
    "autotuner": "SYCLPORT_TUNE defaults to off and the benchmark sets no "
                 "SYCLPORT_* variable",
}

OPS_APPS = ("cloverleaf2d", "cloverleaf3d", "opensbli-sa", "opensbli-sn",
            "rtm", "acoustic")
STUDY_APPS = OPS_APPS + ("mgcfd",)
BACKENDS = ("serial", "threads", "sycl-flat", "sycl-nd")

# DRAM-sized grids: every app's state exceeds a 300 MiB LLC, so each
# sweep streams from memory. BabelStream uses its default 2^25 doubles
# per array (768 MiB over three arrays).
BANDWIDTH_GRIDS = {
    "cloverleaf2d": (1280, 1280, 1),
    "cloverleaf3d": (112, 112, 112),
    "opensbli-sa": (96, 96, 96),
    "opensbli-sn": (96, 96, 96),
    "rtm": (256, 256, 256),
    "acoustic": (256, 256, 256),
}
BANDWIDTH_STEPS = 2
STREAM_N = 1 << 25

# Grids whose state fits in one core's 2 MiB L2, over many steps, so
# per-step fixed costs (dispatch, launch, chunking, chain capture) lead.
DISPATCH_GRIDS = {
    "cloverleaf2d": (48, 48, 1),
    "cloverleaf3d": (16, 16, 16),
    "opensbli-sa": (20, 20, 20),
    "opensbli-sn": (20, 20, 20),
    "rtm": (28, 28, 28),
    "acoustic": (30, 30, 30),
}
DISPATCH_STEPS = 20

MGCFD_GRID = (64, 56, 40)  # apps::mgcfd_bench(): ~143k fine nodes
MGCFD_ITERS = 10


def spec(kind, app, backend, grid, steps):
    return f"{kind} {app} {backend} {grid[0]}x{grid[1]}x{grid[2]} {steps}"


def stream_spec(reps):
    return spec("stream", "babelstream", "threads", (STREAM_N, 1, 1), reps)


def workload_ops(name):
    """(setup ops, pass ops) of a workload. Set-up runs its ops once per
    repetition to build inputs and warm the pools; they are not timed as
    part of any pass."""
    if name == "bandwidth":
        grids = BANDWIDTH_GRIDS
        ops = [stream_spec(1)] + [
            spec("ops", a, "threads", grids[a], BANDWIDTH_STEPS)
            for a in OPS_APPS]
        setup = [stream_spec(0)] + [
            spec("ops", a, "threads", grids[a], 0) for a in OPS_APPS]
        return setup, ops
    if name == "dispatch":
        ops = [spec("ops", a, b, DISPATCH_GRIDS[a], DISPATCH_STEPS)
               for a in OPS_APPS for b in ("threads", "sycl-flat", "sycl-nd")]
        setup = [spec("ops", a, b, DISPATCH_GRIDS[a], 1)
                 for a in OPS_APPS for b in ("threads", "sycl-flat", "sycl-nd")]
        return setup, ops
    if name == "mgcfd":
        return ([spec("mgcfd", "mgcfd", "threads", MGCFD_GRID, 1)],
                [spec("mgcfd", "mgcfd", "threads", MGCFD_GRID, MGCFD_ITERS)])
    if name == "report":
        return ([spec("report", "cloverleaf2d", "model", (0, 0, 0), 0)],
                [spec("report", a, "model", (0, 0, 0), 0) for a in STUDY_APPS])
    raise ValueError(f"unknown workload '{name}'")


WORKLOADS = ("bandwidth", "dispatch", "mgcfd", "report")


def per_layer_units():
    """Every per-layer metric of the traced run with its unit."""
    u = {f"runtime.launch_us.{s}": "us" for s in ("static", "dynamic", "steal")}
    u.update({"runtime.steals_per_launch": "count",
              "runtime.threads_peak": "count",
              "runtime.mem.alloc_us": "us",
              "runtime.mem.fill_gbs": "GB/s",
              "sycl.flat_launch_us": "us",
              "sycl.nd_launch_us": "us"})
    u.update({f"ops.par_loop_us.{b}": "us"
              for b in ("threads", "sycl-flat", "sycl-nd")})
    u.update({"ops.chain_us_per_loop": "us",
              "ops.triad_gbs": "GB/s",
              "ops.dot_gbs.serial": "GB/s",
              "ops.dot_gbs.threads": "GB/s",
              "machine.triad_gbs": "GB/s"})
    u.update({f"op2.flux_ms.{s}": "ms"
              for s in ("atomics", "global", "hierarchical", "staged")})
    u.update({f"op2.plan_ms.{s}": "ms" for s in ("global", "hierarchical")})
    for a in OPS_APPS:
        u.update({f"apps.{a}.step_ms.{b}": "ms" for b in BACKENDS})
        u.update({f"apps.{a}.fixed_ms": "ms",
                  f"apps.{a}.loops_per_step": "count",
                  f"apps.{a}.eff_gbs": "GB/s",
                  f"apps.{a}.arch_eff": "ratio",
                  f"apps.{a}.speedup": "ratio",
                  f"apps.{a}.checksum_variants": "count"})
    u.update({"stream.gbs": "GB/s",
              "hwmodel.kernel_time_ns": "ns",
              "study.schedule_ms": "ms",
              "study.aggregate_us": "us",
              "study.cells": "count",
              "trace.overhead_frac": "ratio"})
    return u


def app_probe_grids(workload):
    """The app configuration the traced run's apps.* metrics use: the
    workload's own when it runs the OPS apps, else the dispatch one."""
    if workload == "bandwidth":
        return BANDWIDTH_GRIDS, BANDWIDTH_STEPS
    return DISPATCH_GRIDS, DISPATCH_STEPS


def ref_key(s):
    """references.json key of an op: everything but the backend."""
    kind, app, _backend, grid, steps = s.split()
    return f"{kind} {app} {grid} {steps}"


# --------------------------------------------------------------------------
# Environment, build and fingerprint


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build incrementally; returns the binary."""
    if not os.path.isdir("src") or not os.path.isfile(
            os.path.join("src", "runtime", "thread_pool.cpp")):
        fail("run from the repository root (src/ not found)")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = [cmake, "-S", HERE, "-B", BUILD_DIR]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(len(os.sched_getaffinity(0)))
    if subprocess.run([cmake, "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "perfbench")


def cmake_cache():
    cache = {}
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    return cache


def llc_bytes():
    """Largest cache at the highest level cpu0 reports in sysfs."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = (0, 0)
    try:
        for entry in os.listdir(base):
            if not entry.startswith("index"):
                continue
            with open(os.path.join(base, entry, "level")) as f:
                level = int(f.read())
            with open(os.path.join(base, entry, "size")) as f:
                text = f.read().strip()
            mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1], 1)
            size = int(text.rstrip("KMG")) * mult
            best = max(best, (level, size))
    except (OSError, ValueError):
        pass
    return best[1]


def fingerprint(seed):
    cache = cmake_cache()
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    try:
        compiler = subprocess.run([compiler, "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "llc_bytes": llc_bytes(),
        "compiler": compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "commit": commit,
        "seed": seed,
    }


# --------------------------------------------------------------------------
# Executor process


class Executor:
    """The C++ executor, driven one command per line."""

    def __init__(self, binary):
        self.proc = subprocess.Popen([binary], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True,
                                     bufsize=1)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        try:
            self.proc.stdin.write("quit\n")
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def send(self, line):
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"executor exited during '{line[:60]}'")
        out = json.loads(reply)
        if "fatal" in out:
            raise RuntimeError(f"executor: {out['fatal']}")
        return out

    def setup(self, ops):
        return self.send("setup " + "|".join(ops))

    def run_pass(self, ops, traced):
        return self.send(f"pass {1 if traced else 0} " + "|".join(ops))

    def probe(self, layer, *args):
        return self.send(" ".join(["probe", layer, *map(str, args)]))["metrics"]


# --------------------------------------------------------------------------
# Output checks


def load_references():
    if not os.path.isfile(REFERENCES):
        return {}
    with open(REFERENCES) as f:
        return json.load(f)


def check_op(op, refs, fails):
    """Count one op result (attempts and failures) into `fails`."""
    s = op["spec"]
    if s.startswith("report "):
        fails.add(op.get("cells", 1), op.get("failed_cells", 1),
                  f"{s}: {op.get('error', 'report cells failed')}")
        return
    if "error" in op:
        fails.add(1, 1, f"{s}: {op['error']}")
        return
    if s.startswith("stream "):
        ok = stats.within_tolerance(op["checksum"], op["expected"],
                                    STREAM_REL_TOL)
        ref = op["expected"]
    else:
        ref = refs.get(ref_key(s))
        tol = 0.0 if s.startswith("mgcfd ") else OPS_REL_TOL
        ok = stats.within_tolerance(op["checksum"], ref, tol)
    fails.add(1, 0 if ok else 1,
              f"{s}: checksum {op['checksum']!r} vs reference {ref!r}")


def check_pass(result, refs, fails):
    for op in result["ops"]:
        check_op(op, refs, fails)
    pp = result.get("pp") or {}
    if "pp_cells" in pp:
        fails.add(pp["pp_cells"], pp["pp_failed"], "PP rows differ between passes")


# --------------------------------------------------------------------------
# Measurement


def cell_of(s):
    """The (kind, app, backend) cell an op belongs to, for step_ms."""
    kind, app, backend = s.split()[:3]
    return f"{kind}:{app}:{backend}"


def per_step_ms(op):
    return op["wall_s"] / max(1, op["steps"]) * 1e3


def measure(ex, workload, seed, seconds, traced, refs, fails, samples):
    """Run passes until `seconds` have elapsed (at least one). In a traced
    run passes alternate untraced/traced. Returns (untraced pass walls,
    traced pass walls)."""
    _, ops = workload_ops(workload)
    plain, with_spans = [], []
    start = time.monotonic()
    i = 0
    while i == 0 or time.monotonic() - start < seconds or \
            (traced and not with_spans):
        spans_on = traced and i % 2 == 1
        result = ex.run_pass(stats.interleave(ops, seed, i), spans_on)
        check_pass(result, refs, fails)
        (with_spans if spans_on else plain).append(result["pass_s"])
        for op in result["ops"]:
            if "error" not in op:
                samples.setdefault(op["spec"], []).append(op)
        i += 1
    return plain, with_spans


# pass_ratio is 1 - fail_ratio: a metric that reads 0 on a healthy run
# cannot carry a relative bound, so the end-to-end list holds its
# complement; fail_ratio itself is printed and recorded with each run.
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "step_ms": "ms",
                    "peak_rss_mb": "MB", "pass_ratio": "ratio"}


def end_to_end(workload, setup_walls, walls, samples, status, fails):
    if workload == "report":
        # A report has no time steps; its step is one study cell, timed
        # over the whole pass. Per app, the small apps' reports last under
        # a millisecond and swing with the state of the shared LLC.
        n = sum(ops[0]["cells"] for ops in samples.values())
        step = statistics.median(walls) / n * 1e3
    else:
        cells = {}
        for s, ops in samples.items():
            cells.setdefault(cell_of(s), []).extend(per_step_ms(o)
                                                    for o in ops)
        step = stats.geomean(statistics.median(v) for v in cells.values())
    return {
        "setup_s": statistics.median(setup_walls),
        "wall_s": statistics.median(walls),
        "step_ms": step,
        "peak_rss_mb": status["peak_rss_mb"],
        "pass_ratio": 1.0 - fails.ratio(),
    }


def app_layer(ex, workload, samples, machine_gbs, refs, fails, recomputed):
    """apps.<app>.* metrics. Runs each OPS app at the workload's own
    configuration (see app_probe_grids) on every backend, and on Serial
    and Threads at a short length for the intercept. Pass samples of the
    same op join the medians; the Serial runs give the recomputed
    references."""
    grids, steps = app_probe_grids(workload)
    # A short run of about a tenth of the steps keeps the intercept's
    # error near the short run's own noise.
    short = max(1, steps // 10)
    # Small grids repeat every configuration. On the DRAM-sized grids a
    # run takes up to a second, so only the Threads runs that feed the
    # intercept repeat.
    big = workload == "bandwidth"
    m = {}
    for app in OPS_APPS:
        def runs(backend, k):
            return samples.get(spec("ops", app, backend, grids[app], k), [])

        for i in range(3 if big else 7):
            for backend, k in (("serial", short), ("serial", steps),
                               ("threads", short), ("threads", steps),
                               ("sycl-flat", steps), ("sycl-nd", steps)):
                if big and i and backend != "threads":
                    continue
                op = ex.run_pass([spec("ops", app, backend, grids[app], k)],
                                 False)["ops"][0]
                check_op(op, refs, fails)
                if "error" not in op:
                    samples.setdefault(op["spec"], []).append(op)
        for k in (short, steps):
            if runs("serial", k):
                op = runs("serial", k)[0]
                recomputed[ref_key(op["spec"])] = op["checksum"]
        for b in BACKENDS:
            if runs(b, steps):
                m[f"apps.{app}.step_ms.{b}"] = statistics.median(
                    per_step_ms(o) for o in runs(b, steps))
        few, full = runs("threads", short), runs("threads", steps)
        if few and full:
            t1 = statistics.median(o["wall_s"] for o in few)
            t2 = statistics.median(o["wall_s"] for o in full)
            fixed, per_step = stats.two_length_fit(short, t1, steps, t2)
            m[f"apps.{app}.fixed_ms"] = fixed * 1e3
            m[f"apps.{app}.loops_per_step"] = \
                (full[0]["loops"] - few[0]["loops"]) / (steps - short)
            # Computed bytes: the recorded loop profiles, not a counter.
            step_bytes = (full[0]["useful_bytes"] - few[0]["useful_bytes"]) \
                / (steps - short)
            gbs = step_bytes / (per_step if per_step > 0 else t2 / steps) / 1e9
            m[f"apps.{app}.eff_gbs"] = gbs
            m[f"apps.{app}.arch_eff"] = gbs / machine_gbs
        if runs("serial", steps) and full:
            m[f"apps.{app}.speedup"] = (m[f"apps.{app}.step_ms.serial"]
                                        / m[f"apps.{app}.step_ms.threads"])
        m[f"apps.{app}.checksum_variants"] = len(
            {o["checksum"] for o in full})
    return m


def traced_layers(ex, workload, fp, samples, refs, fails):
    big = 4 * fp["llc_bytes"]
    m = {}
    m.update(ex.probe("runtime", big))
    m.update(ex.probe("sycl"))
    m.update(ex.probe("machine", big))
    m.update(ex.probe("ops", big, 1 << 23))
    m.update(ex.probe("op2", spec("mgcfd", "mgcfd", "threads", MGCFD_GRID, 0)))
    m.update(ex.probe("study"))
    ss = stream_spec(1)
    if ss not in samples:
        op = ex.run_pass([ss], False)["ops"][0]
        check_op(op, refs, fails)
        if "error" not in op:
            samples[ss] = [op]
    if ss in samples:
        m["stream.gbs"] = statistics.median(
            o["stream_bytes"] / o["wall_s"] / 1e9 for o in samples[ss])
    recomputed = {}
    m.update(app_layer(ex, workload, samples, m["machine.triad_gbs"], refs,
                       fails, recomputed))
    if workload == "mgcfd":
        s = spec("mgcfd", "mgcfd", "serial", MGCFD_GRID, MGCFD_ITERS)
        op = ex.run_pass([s], False)["ops"][0]
        check_op(op, refs, fails)
        if "error" not in op:
            recomputed[ref_key(s)] = op["checksum"]
    return m, recomputed


def write_self_times(trace_path, table_path):
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    table = stats.self_times(events)
    lines = [f"{'layer':<10} {'spans':>7} {'total_ms':>12} {'self_ms':>12}"]
    for layer, row in sorted(table.items(), key=lambda kv: -kv[1]["self_us"]):
        lines.append(f"{layer:<10} {row['spans']:>7} "
                     f"{row['total_us'] / 1e3:>12.3f} {row['self_us'] / 1e3:>12.3f}")
    with open(table_path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return lines


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--update-references", action="store_true",
                   help="with --trace 1: store the recomputed Serial "
                        "references in references.json")
    args = p.parse_args()

    knobs = sorted(k for k in os.environ if k.startswith("SYCLPORT_"))
    if knobs:
        fail("refusing to run with " + ", ".join(knobs) + " set: the "
             "benchmark measures the program's defaults", 2)

    binary = build()
    fp = fingerprint(args.seed)
    refs = load_references()
    setup_ops, _ = workload_ops(args.workload)
    fails = stats.FailCount()
    samples = {}
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"

    with Executor(binary) as ex:
        # The executor reports whether it was compiled with optimisation.
        fp["optimised"] = ex.send("status")["optimised"]
        if not fp["optimised"]:
            print(f"perfbench: WARNING: build type '{fp['build_type']}' is "
                  "not optimised; timings are not representative",
                  file=sys.stderr)
        # Set-ups that start within WARMUP_S of launch are not timed: the
        # first second of work after the host idles runs up to 6x slower.
        setup_walls = []
        start = time.monotonic()
        while len(setup_walls) < SETUP_REPEATS or \
                sum(setup_walls) < SETUP_MIN_S:
            warming = time.monotonic() - start < WARMUP_S
            r = ex.setup(setup_ops)
            if not warming:
                setup_walls.append(r["setup_s"])
            for op in r["ops"]:
                if op["spec"].startswith("report ") or "error" in op:
                    check_op(op, refs, fails)
        plain, with_spans = measure(ex, args.workload, args.seed, args.seconds,
                                    args.trace == 1, refs, fails, samples)
        metrics = {}
        if args.trace == 0:
            values = end_to_end(args.workload, setup_walls, plain, samples,
                                ex.send("status"), fails)
            for name, unit in END_TO_END_UNITS.items():
                metrics[name] = {"value": values[name], "unit": unit}
        else:
            layers, recomputed = traced_layers(ex, args.workload, fp, samples,
                                               refs, fails)
            layers["runtime.threads_peak"] = ex.send("status")["threads_peak"]
            layers["trace.overhead_frac"] = (statistics.median(with_spans)
                                             / statistics.median(plain) - 1.0)
            trace_path = os.path.join(OUT_DIR, tag + ".trace.json")
            if not ex.send(f"trace {trace_path}")["written"]:
                fail(f"could not write {trace_path}")
            table = write_self_times(trace_path,
                                     os.path.join(OUT_DIR, tag + ".selftime.txt"))
            if args.update_references:
                refs.update(recomputed)
                with open(REFERENCES, "w") as f:
                    json.dump(dict(sorted(refs.items())), f, indent=2)
                    f.write("\n")
            missing = [n for n in per_layer_units() if n not in layers]
            if missing:
                fail("per-layer metrics not measured: " + ", ".join(missing))
            for name, unit in per_layer_units().items():
                metrics[name] = {"value": layers[name], "unit": unit}

    sizes = {s: max(o["state_bytes"] for o in ops)
             for s, ops in samples.items() if "state_bytes" in ops[0]}
    walls = plain if args.trace == 0 else plain + with_spans
    tail = stats.tail_percentile(walls)
    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "fingerprint": fp,
              "state_bytes": sizes, "passes": len(walls),
              "pass_walls_s": walls,
              "setup_walls_s": setup_walls,
              "op_ms": {s: sorted(per_step_ms(o) for o in ops)
                        for s, ops in samples.items()},
              "fail_ratio": fails.ratio(), "fail_reasons": fails.reasons,
              "not_measured": NOT_MEASURED,
              "metrics": metrics}
    if args.trace == 1:
        record["references_recomputed"] = recomputed
    with open(os.path.join(OUT_DIR, f"{tag}-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")

    print(f"fingerprint: {json.dumps(fp)}")
    for s, b in sorted(sizes.items()):
        print(f"state: {s}: {b / 2**20:.1f} MiB")
    print(f"passes: {len(walls)}; wall_s median {statistics.median(walls):.4f} s; "
          + (f"p{tail[0]:g} {tail[1]:.4f} s" if tail else
             "no tail percentile (needs >= 20 passes)"))
    print(f"fail_ratio: {fails.ratio():.6g} ({fails.failed}/{fails.attempted})")
    for reason in fails.reasons:
        print(f"  failed: {reason}")
    for layer, why in NOT_MEASURED.items():
        print(f"not measured: {layer}: {why}")
    if args.trace == 1:
        print("self time per layer (traced passes and probes):")
        for line in table:
            print("  " + line)
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": fails.failed == 0, "attempted": fails.attempted,
                      "failed": fails.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
