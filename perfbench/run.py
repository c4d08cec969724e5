"""Benchmark of qsdctl: one workload per run, closed loop, one process.

    python3 perfbench/run.py --workload {spectral,control,montecarlo}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; qsdctl is imported from its `src/`.
A round sends every request of the workload once, one after another,
each as soon as the previous one returned.  Rounds repeat until their
measured time reaches S seconds, so every run makes whole rounds and
the share of failed requests is the same in every run.  Each round's
answers are checked after the round, outside the timed span.

With --trace 0 the last line of standard output is a JSON object with
the end-to-end metrics: setup_s (median of several fresh interpreters
importing qsdctl and parsing the workload's models, launched before the
first round), wall_s and cpu_s (a round made of each request at its
median time over the rounds), req_p50_ms (latency of the median
request) and peak_rss_mb (peak memory of a forked copy that sends one
round of requests and checks none).  Times are scaled to a reference
speed of the host (see reference.py).  With --trace 1 the first half
of the time runs untraced and the second half traced, and the metrics
are the per-layer ones (see tracing.layer_metrics), with
trace.overhead_s, the traced minus the untraced wall_s.  Spans go to
results/spans-<workload>.jsonl and the whole result to
results/<workload>-trace<T>.json.
"""

import os

# One BLAS thread: with two, repeats of the same QSD solve scatter by
# about 30%; with one, by about 5%.  The enumeration thread pool stays
# at its default (QSDCTL_THREADS unset), so the load is one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("QSDCTL_THREADS", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import (REF_LAUNCH_CODE, REF_LAUNCH_S, REF_S,  # noqa: E402
                       ReferenceWork)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
WORKLOADS = ("spectral", "control", "montecarlo")
SETUP_REPEATS = 11
# a round is not started when it would end later than this after start
DEADLINE_S = 150.0
# measured seconds between two samples of the reference work
CALIBRATE_EVERY_S = 0.05

SETUP_PROBE = """\
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import modelset
modelset.load({workload!r})
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""


def launch(code: str) -> float:
    """Seconds from launching a fresh interpreter on `code` until it
    writes its ready line."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                          stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"launch probe exited with {proc.returncode}")
    return elapsed


def measure_setup(workload: str) -> tuple[float, list, list]:
    """Seconds from launching a fresh interpreter until it has imported
    qsdctl and parsed the workload's models.  SETUP_REPEATS launches,
    each followed by a reference launch (see reference.py); the median
    launch over the median reference launch, times REF_LAUNCH_S.  Also
    returns both lists of raw times."""
    code = SETUP_PROBE.format(src=str(SRC), bench=str(BENCH_DIR),
                              workload=workload)
    launches, refs = [], []
    for _ in range(SETUP_REPEATS):
        launches.append(launch(code))
        refs.append(launch(REF_LAUNCH_CODE))
    setup_s = (statistics.median(launches) / statistics.median(refs)
               * REF_LAUNCH_S)
    return setup_s, launches, refs


def request_peak_rss_mb(groups) -> float:
    """Peak resident memory of a forked copy of this process that sends
    one round of requests and checks none.  It is forked before the
    first round, so no check's oracle work is in the figure."""
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            for group in groups:
                for call in group.calls:
                    try:
                        call()
                    except Exception:  # refusals count as answers here
                        pass
        except BaseException:
            code = 1
        os._exit(code)
    _, status, usage = os.wait4(pid, 0)
    if status != 0:
        raise RuntimeError(f"memory probe ended with status {status}")
    return usage.ru_maxrss / 1024


class Timings:
    """Request times of the rounds of one run, scaled to REF_S.

    Every request's wall and CPU time is divided by the speed of the
    host around it: the mean of the reference-work samples taken just
    before and just after its stretch of the round, over REF_S.
    """

    def __init__(self):
        self.walls: list[list[float]] = []    # scaled, per round
        self.cpus: list[list[float]] = []
        self.raw_rounds: list[float] = []     # unscaled round wall time

    def add(self, walls, cpus, samples):
        """samples: (request index, reference seconds) pairs, the last
        one taken after the last request."""
        scale = []
        for (k0, s0), (k1, s1) in zip(samples, samples[1:]):
            scale += [REF_S * 2.0 / (s0 + s1)] * (k1 - k0)
        self.walls.append([w * f for w, f in zip(walls, scale)])
        self.cpus.append([c * f for c, f in zip(cpus, scale)])
        self.raw_rounds.append(sum(walls))

    def rounds(self) -> list[float]:
        return [sum(w) for w in self.walls]

    def wall_s(self) -> float:
        """A round made of each request at its median over the rounds:
        a burst of host noise that slows a few requests of one round
        does not move it."""
        return sum(self.request_s())

    def cpu_s(self) -> float:
        return sum(statistics.median(col) for col in zip(*self.cpus))

    def req_p50_ms(self) -> float:
        """Latency of the median request: each request at its median
        over the rounds, then the median over the request list.  Pooling
        every round's latencies instead would put the median between
        two kinds of request whenever one kind ends near the middle."""
        return 1e3 * statistics.median(self.request_s())

    def request_s(self) -> list[float]:
        """Each request's median scaled latency over the rounds."""
        return [statistics.median(col) for col in zip(*self.walls)]


class Runner:
    """Runs whole rounds of a workload's requests and checks them."""

    def __init__(self, groups, reference: ReferenceWork, tracer=None):
        self.groups = groups
        self.reference = reference
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.unexpected: dict[str, int] = {}
        self.known: dict[str, int] = {}

    def round(self, timings: Timings):
        """One round of every request, timed; then the checks."""
        walls, cpus, outcomes = [], [], []
        samples = [(0, self.reference.seconds())]
        since = 0.0
        for group in self.groups:
            outs = []
            for call in group.calls:
                if since >= CALIBRATE_EVERY_S:
                    samples.append((len(walls), self.reference.seconds()))
                    since = 0.0
                if self.tracer is not None:
                    self.tracer.request = len(walls)
                c0 = time.process_time()
                t0 = time.perf_counter()
                try:
                    outs.append((call(), None))
                except Exception as e:  # judged by the group's check
                    outs.append((None, e))
                walls.append(time.perf_counter() - t0)
                cpus.append(time.process_time() - c0)
                since += walls[-1]
            outcomes.append(outs)
        samples.append((len(walls), self.reference.seconds()))
        timings.add(walls, cpus, samples)
        self._judge(outcomes)
        del outcomes
        gc.collect()

    def _judge(self, outcomes):
        for group, outs in zip(self.groups, outcomes):
            try:
                oks = group.verdicts(outs)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                oks = [False] * len(outs)
            bad = oks.count(False)
            self.attempted += len(oks)
            self.failed += bad
            if bad:
                tally = self.known if group.known_fault else self.unexpected
                tally[group.name] = tally.get(group.name, 0) + bad
                if not group.known_fault:
                    errors = {repr(err) for _, err in outs if err is not None}
                    print(f"check failed: {group.name} ({bad} of {len(oks)})"
                          + (f": {sorted(errors)[:3]}" if errors else ""),
                          file=sys.stderr)

    def run(self, seconds: float, started: float) -> Timings:
        """Rounds until their unscaled time reaches `seconds`."""
        t = Timings()
        while not t.raw_rounds or sum(t.raw_rounds) < seconds:
            if t.raw_rounds and (time.perf_counter() - started
                                 + t.raw_rounds[-1] > DEADLINE_S):
                break
            self.round(t)
        return t


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "qsdctl" / "__init__.py").is_file():
        print(f"error: no qsdctl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import qsdctl
    if not Path(qsdctl.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: qsdctl imported from {qsdctl.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import modelset
    import tracing
    import workloads
    warnings.simplefilter("ignore", qsdctl.HypothesisFailureWarning)

    if not args.trace:
        setup_s, launches, refs = measure_setup(args.workload)
    models = modelset.load(args.workload)
    RESULTS.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS))
    try:
        groups = workloads.build(args.workload, models, args.seed, out_dir)
        if not args.trace:
            peak_mb = request_peak_rss_mb(groups)
            runner = Runner(groups, ReferenceWork())
            t = runner.run(args.seconds, started)
            metrics = {
                "setup_s": metric(setup_s, "s"),
                "wall_s": metric(t.wall_s(), "s"),
                "cpu_s": metric(t.cpu_s(), "s"),
                "req_p50_ms": metric(t.req_p50_ms(), "ms"),
                "peak_rss_mb": metric(peak_mb, "MB"),
            }
            detail = {"round_wall_s": t.rounds(),
                      "raw_round_wall_s": t.raw_rounds,
                      "request_s": t.request_s(),
                      "setup_launch_s": launches,
                      "setup_reference_launch_s": refs}
        else:
            runner = Runner(groups, ReferenceWork())
            untraced = runner.run(args.seconds / 2, started)
            tracer = tracing.Tracer()
            tracer.install(qsdctl, also=(workloads,))
            loads = 3
            for _ in range(loads):
                modelset.load(args.workload)
            load_s = sum(s for name, s in tracer.by_name()[1].items()
                         if name.startswith("modelfile.")) / loads
            tracer.reset()
            runner.tracer = tracer
            traced = runner.run(args.seconds / 2, started)
            tracer.uninstall()
            overhead = traced.wall_s() - untraced.wall_s()
            scale = sum(traced.rounds()) / sum(traced.raw_rounds)
            layers = tracing.layer_metrics(tracer, len(traced.walls),
                                           load_s * scale, overhead, scale)
            metrics = {k: metric(v, u) for k, (v, u) in layers.items()}
            tracer.write_spans(RESULTS / f"spans-{args.workload}.jsonl")
            detail = {"round_wall_s": untraced.rounds(),
                      "traced_round_wall_s": traced.rounds(),
                      "spans": len(tracer.span_name)}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    result = {"correct": not runner.unexpected, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    (RESULTS / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({**result, "workload": args.workload, "seed": args.seed,
                    "failed_groups": {**runner.known, **runner.unexpected},
                    **detail}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
