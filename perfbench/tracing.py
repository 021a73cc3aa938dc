"""Traced runs: per-layer metrics from spans around calls into wfuse.

The spans are recorded from the benchmark's own code only.  For the length
of a traced pass, :meth:`Tracer.installed` swaps a few module attributes of
``wfuse`` for timing wrappers (the names ``wfuse.cli`` imported from the
layer modules, and the kernel that ``wfuse.simulate`` calls per run), then
restores them.  The program's source is not changed.

A layer the workload's own commands never call is timed by a probe: a fixed
call into that layer with inputs derived from the seed, so every workload
reports every per-layer metric.  ``README.md`` lists which metric comes from
where.
"""

from __future__ import annotations

import inspect
import io
import statistics
import traceback
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from itertools import repeat
from pathlib import Path
from time import perf_counter

from workloads import BenchmarkError, Output, assess, cli_seed, require_same

# (attribute of wfuse.cli, span name): the layer functions the CLI calls.
CLI_HOOKS = (
    ("optimal_costs", "optimal.dp"),
    ("linear_recycled_costs", "growth_costs.linear_recycled"),
    ("w3_linear_cost", "growth_costs.closed_forms"),
    ("exponential_cost", "growth_costs.closed_forms"),
    ("verify_probabilities", "gate.verify"),
)

KERNEL_KS = range(7)
# Runs per k of the kernel probe: about 50 ms of kernel work each.
PROBE_RUNS = {0: 8000, 1: 2000, 2: 600, 3: 200, 4: 60, 5: 16, 6: 5}
PROBE_REPEATS = 5
PROBE_PAIRS = 20_000
FIGURE4_N_MAX = 65  # index range of `figure4 --max-k 6`
GATE_VERIFY_SIZE = 12
GATE_FUSE_SIZE = 20


class Tracer:
    """Spans aggregated by name, plus per-k kernel totals and batch records."""

    def __init__(self):
        self.busy: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self._open = [0.0]  # time spent in child spans of each open span
        # k -> [calls, busy s, attempts, successes, recycles, failures, draws]
        self.kernel: dict[int, list] = {}
        self.attempts: list[int] = []  # per kernel call, in call order
        # (k, runs, master seed, workers, index of the batch's first run in
        # self.attempts, wall s)
        self.batches: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        self._open.append(0.0)
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            children = self._open.pop()
            self._open[-1] += elapsed
            self.busy[name] = self.busy.get(name, 0.0) + elapsed
            self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - children

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def wrap_batch(self, fn):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            a = call.arguments
            first = len(self.attempts)
            start = perf_counter()
            with self.span("simulate.batch"):
                stats = fn(*args, **kwargs)
            self.batches.append(
                (a["k"], a["runs"], a["master_seed"], a["workers"], first, perf_counter() - start)
            )
            return stats

        return traced

    def wrap_kernel(self, fn):
        kernel, attempts, open_spans = self.kernel, self.attempts, self._open

        def traced(k, rng, **kwargs):
            start = perf_counter()
            result = fn(k, rng, **kwargs)
            elapsed = perf_counter() - start
            open_spans[-1] += elapsed
            t = kernel.get(k)
            if t is None:
                t = kernel[k] = [0, 0.0, 0, 0, 0, 0, 0]
            t[0] += 1
            t[1] += elapsed
            t[2] += result.fusion_attempts
            t[3] += result.successes
            t[4] += result.recycles
            t[5] += result.failures
            t[6] += result.cost
            attempts.append(result.fusion_attempts)
            return result

        return traced

    @contextmanager
    def installed(self, wf):
        hooks = [(wf.cli, attr, self.wrap(name, getattr(wf.cli, attr))) for attr, name in CLI_HOOKS]
        hooks.append((wf.cli, "simulate_batch", self.wrap_batch(wf.cli.simulate_batch)))
        hooks.append(
            (wf.simulate, "run_similar_sizes", self.wrap_kernel(wf.simulate.run_similar_sizes))
        )
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in hooks]
        for module, attr, wrapper in hooks:
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)


def run_inprocess(cmd, wf, workdir: str, tracer=None) -> tuple[Output, float]:
    """Run one command inside this process, as `python -m wfuse` would."""
    span = tracer.span if tracer else lambda name: nullcontext()
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            if cmd.oracle_k is None:
                with span("cli.main"):
                    code = wf.cli.main(list(cmd.argv))
            else:
                with span(f"simulate.oracle.k{cmd.oracle_k}"):
                    value = wf.simulate.exact_expected_cost(cmd.oracle_k)
                print(value)
                code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:
            traceback.print_exc()
            code = 1
    wall = perf_counter() - start
    files = {name: Path(workdir, name).read_text() for name in cmd.files}
    return Output(code, out.getvalue(), err.getvalue(), files), wall


def _run_pass(commands, wf, workdir, tracer=None) -> tuple[dict, float]:
    outputs, wall = {}, 0.0
    for cmd in commands:
        outputs[cmd.label], elapsed = run_inprocess(cmd, wf, workdir, tracer)
        wall += elapsed
    return outputs, wall


# ------------------------------------------------------------------ metrics


def _kernel_metrics(tracer: Tracer, ks) -> dict:
    """Kernel metrics over the given k; per-k rates only for k it ran."""
    rows = [tracer.kernel[k] for k in ks if k in tracer.kernel]
    busy = sum(t[1] for t in rows)
    attempts, successes, recycles, failures, draws = (sum(t[i] for t in rows) for i in range(2, 7))
    metrics = {
        "simulate.kernel.busy_s": busy,
        "simulate.kernel.attempts": attempts,
        "simulate.kernel.successes": successes,
        "simulate.kernel.recycles": recycles,
        "simulate.kernel.failures": failures,
        "simulate.kernel.draws": draws,
        "simulate.kernel.success_ratio": successes / attempts,
        "rng.words": attempts,  # one stream word per fusion attempt
    }
    for k in ks:
        if k in tracer.kernel:
            _, busy_k, attempts_k, *_ = tracer.kernel[k]
            metrics[f"simulate.kernel.attempts_per_s.k{k}"] = attempts_k / busy_k
    return metrics


def _batch_metrics(serial: Tracer, parallel: Tracer) -> dict:
    """Batch overhead at 1 worker and parallel efficiency at several."""
    serial_wall = sum(b[5] for b in serial.batches)
    kernel_busy = sum(t[1] for t in serial.kernel.values())
    parallel_cpu_budget = sum(b[3] * b[5] for b in parallel.batches)  # workers x wall
    return {
        "simulate.batch.overhead_s": serial_wall - kernel_busy,
        "simulate.batch.runs_per_s": sum(b[1] for b in serial.batches) / serial_wall,
        "simulate.batch.parallel_eff": kernel_busy / parallel_cpu_budget,
    }


def _split_by_workers(*tracers: Tracer) -> tuple[Tracer, Tracer]:
    serial = [t for t in tracers if t.batches and all(b[3] <= 1 for b in t.batches)]
    parallel = [t for t in tracers if t.batches and all(b[3] > 1 for b in t.batches)]
    if len(serial) != 1 or len(parallel) != 1 or not serial[0].kernel:
        raise BenchmarkError("the MC commands no longer reach simulate_batch and the kernel")
    return serial[0], parallel[0]


def _bytes_out(outputs: dict) -> int:
    return sum(
        len(out.stdout.encode()) + sum(len(text.encode()) for text in out.files.values())
        for out in outputs.values()
    )


def _pass_metrics(workload, own: Tracer, twin, outputs: dict) -> dict:
    """Per-layer values of one traced pass of the workload's own commands."""
    missing = sorted(workload.spans - own.busy.keys())
    if missing:
        raise BenchmarkError(f"{workload.name}: no spans recorded for {', '.join(missing)}")
    values = {_busy_metric(name): own.busy[name] for name in workload.spans}
    values["cli.self_s"] = own.self_s["cli.main"]
    values["cli.bytes_out"] = _bytes_out(outputs)
    if twin is not None:
        serial, parallel = _split_by_workers(own, twin)
        values.update(_kernel_metrics(serial, KERNEL_KS))
        values.update(_batch_metrics(serial, parallel))
    return values


def _busy_metric(span: str) -> str:
    if span.startswith("simulate.oracle."):
        return f"simulate.oracle.busy_s.{span.rsplit('.', 1)[1]}"
    return f"{span}.busy_s"


EXACT_COUNTS = (
    "rng.words",
    "simulate.kernel.attempts",
    "simulate.kernel.successes",
    "simulate.kernel.recycles",
    "simulate.kernel.failures",
    "simulate.kernel.draws",
    "cli.bytes_out",
)


# ------------------------------------------------------------------- probes


def _median_time(fn, repeats: int = PROBE_REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def _layer_probes(wf) -> dict:
    """Fixed calls into the layers a workload may not reach, by span name."""
    gc = wf.growth_costs

    def closed_forms():  # the closed-form cells of `figure4 --max-k 6`
        for n in range(1, FIGURE4_N_MAX + 1):
            gc.w3_linear_cost(n)
        for level in range(FIGURE4_N_MAX.bit_length()):
            gc.exponential_cost(level)

    probes = {
        "optimal.dp": lambda: wf.optimal.optimal_costs(FIGURE4_N_MAX),
        "growth_costs.linear_recycled": lambda: gc.linear_recycled_costs(FIGURE4_N_MAX),
        "growth_costs.closed_forms": closed_forms,
        "gate.verify": lambda: wf.gate.verify_probabilities(GATE_VERIFY_SIZE, GATE_VERIFY_SIZE),
    }
    for k in (0, 1, 2):
        probes[f"simulate.oracle.k{k}"] = lambda k=k: wf.simulate.exact_expected_cost(k)
    return probes


def _probe_pairs(wf, seed: int) -> list[tuple[int, int, float]]:
    """Seeded (n, m, u) triples: operands within one bucket, uniform u."""
    draw = wf.rng.stream_for_run(cli_seed(seed), 0).next64
    triples = []
    for _ in range(PROBE_PAIRS):
        n = 1 + draw() % 64
        m = max(1, n - draw() % ((n + 1) // 2))
        triples.append((n, m, (draw() >> 11) * 2.0**-53))
    return triples


def _fusion_model_probes(wf, seed: int) -> dict:
    triples = _probe_pairs(wf, seed)
    classify, distribution = wf.fusion_model.classify_uniform, wf.fusion_model.outcome_distribution

    def classify_all():
        for n, m, u in triples:
            classify(n, m, u)

    def distribute_all():
        for n, m, _ in triples:
            distribution(n, m)

    return {
        "fusion_model.classify_per_s": len(triples) / _median_time(classify_all, 3),
        "fusion_model.outcome_distribution_per_s": len(triples) / _median_time(distribute_all, 3),
    }


def _mc_probe(wf, seed: int, ks, workers: int) -> Tracer:
    """Seeded batches at each k in ``ks``, traced at the given worker count."""
    tracer = Tracer()
    with tracer.installed(wf):
        batch = tracer.wrap_batch(wf.simulate.simulate_batch)
        for k in ks:
            batch(k, PROBE_RUNS[k], cli_seed(seed) + k * 10**6, workers=workers)
    return tracer


def _rng_words_per_s(wf, tracer: Tracer) -> float:
    """Draw the per-run streams of the 1-worker batches to the words they used."""
    stream_for_run = wf.rng.stream_for_run
    words = 0
    start = perf_counter()
    for _, runs, master, workers, first, _ in tracer.batches:
        if workers > 1:
            continue
        for i, count in enumerate(tracer.attempts[first : first + runs]):
            draw = stream_for_run(master, i).next64
            for _ in repeat(None, count):
                draw()
            words += count
    return words / (perf_counter() - start)


# ---------------------------------------------------------------- the run


def traced_run(workload, seed: int, seconds: float, wf, workdir: str) -> dict:
    """Alternate untraced and traced in-process passes for ``seconds``.

    Returns a dict with the per-layer ``metrics``, the output check's
    ``problems`` and the ``attempted`` and ``failed`` command counts.
    Raises :class:`BenchmarkError` when an output or an exact count differs
    between two passes of the same seed.
    """
    commands = workload.commands(seed, workdir)
    twin_cmd = workload.twin(seed, workdir) if workload.twin else None
    untraced_walls, traced_walls, samples = [], [], []
    first = first_twin = rng_source = None
    deadline = perf_counter() + seconds
    while len(samples) < 2 or perf_counter() < deadline:
        outputs, wall = _run_pass(commands, wf, workdir)
        untraced_walls.append(wall)
        if first is None:
            first = outputs
        require_same(first, outputs, seed)

        own = Tracer()
        with own.installed(wf):
            outputs, wall = _run_pass(commands, wf, workdir, own)
        traced_walls.append(wall)
        require_same(first, outputs, seed)
        twin = None
        if twin_cmd is not None:
            twin = Tracer()
            with twin.installed(wf):
                twin_out, _ = run_inprocess(twin_cmd, wf, workdir, twin)
            if first_twin is None:
                first_twin = twin_out
                rng_source = _split_by_workers(own, twin)[0]
            require_same({twin_cmd.label: first_twin}, {twin_cmd.label: twin_out}, seed)
        samples.append(_pass_metrics(workload, own, twin, outputs))
        for name in EXACT_COUNTS:
            if name in samples[0] and samples[-1][name] != samples[0][name]:
                raise BenchmarkError(
                    f"{name} differs between repeats of seed {seed}: "
                    f"{samples[0][name]} then {samples[-1][name]}"
                )

    # Exact counts are equal in every pass; everything else is a median.
    metrics = {
        name: value if name in EXACT_COUNTS else statistics.median(s[name] for s in samples)
        for name, value in samples[0].items()
    }
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    )

    # Layers the workload's commands do not reach.
    if twin_cmd is None:
        serial = _mc_probe(wf, seed, KERNEL_KS, workers=1)
        parallel = _mc_probe(wf, seed, KERNEL_KS, workers=2)
        metrics.update(_kernel_metrics(serial, KERNEL_KS))
        metrics.update(_batch_metrics(serial, parallel))
        rng_source = serial
    else:
        absent = [k for k in KERNEL_KS if f"simulate.kernel.attempts_per_s.k{k}" not in metrics]
        if absent:
            probe = _mc_probe(wf, seed, absent, workers=1)
            metrics.update(
                (name, value)
                for name, value in _kernel_metrics(probe, absent).items()
                if name.startswith("simulate.kernel.attempts_per_s.")
            )
    metrics["rng.words_per_s"] = _rng_words_per_s(wf, rng_source)
    for span, probe in _layer_probes(wf).items():
        if span not in workload.spans:
            metrics[_busy_metric(span)] = _median_time(probe)
    w_state = wf.gate.make_w_state
    metrics["gate.fuse.busy_s"] = _median_time(
        lambda: wf.gate.fuse(w_state(GATE_FUSE_SIZE), w_state(GATE_FUSE_SIZE))
    )
    metrics.update(_fusion_model_probes(wf, seed))

    checked = dict(first)
    if twin_cmd is not None:
        checked[twin_cmd.label] = first_twin
    passes = len(untraced_walls) + len(traced_walls)
    problems, work, attempted, failed = assess(workload, seed, commands, checked, passes, wf)
    if twin_cmd is not None and metrics["simulate.kernel.attempts"] != work:
        raise BenchmarkError(
            f"the traced kernel made {metrics['simulate.kernel.attempts']} fusion attempts, "
            f"a replay of the same streams {work}"
        )
    return {"metrics": metrics, "problems": problems, "attempted": attempted, "failed": failed}
