#!/usr/bin/env python3
"""prunesearch benchmark: drive the CLI as a user would and report metrics.

    python3 bench/run.py --workload oracle|search|pipeline --seed N --seconds S --trace 0|1

Run from the repository root; the program is taken from ``src/``. With
``--trace 0`` every command runs as its own ``prunesearch`` subprocess and the
end-to-end metrics are reported. With ``--trace 1`` the same commands run
in-process through ``prunesearch.cli.run``, once plain and once with the
layer wrappers of ``tracing.py`` installed, and the per-layer metrics are
reported. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See bench/README.md.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Pinned before numpy loads, here and in every child, so that --jobs is the only
# parallelism and the thread count stays at or below nproc.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import checks  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
NPROC = len(os.sched_getaffinity(0))
DEADLINE_S = 170.0  # the whole run, set-up included, ends well within 180 s
SETUP_REPEATS = 3
CLI = "from prunesearch.cli import main; main()"

# Model and calibration seeds of the acceptance fixture; --seed 0 reproduces it
# on every workload.
FIXTURE_MODEL_SEED = 42
FIXTURE_CALIB_SEED = 7
PIPELINE_PRESETS = ("magnitude", "ria", "optishear-l2-gsm8k")
SPARSITIES = ("0.5", "2:4")

# Metric names and units come from the benchmark's declaration, so they are listed once.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


# -- commands ---------------------------------------------------------------------


@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int = 0


@dataclass
class Step:
    """One measured CLI command and the check of what it produced."""

    argv: list[str]
    check: Callable[[Outcome], list[str]] | None = None


def _child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Runner:
    """Runs commands and keeps the attempted / failed tally of one benchmark run."""

    def __init__(self, files: Path, deadline: float):
        self.files = files
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def spawn(self, argv: list[str]) -> Outcome:
        """Run `prunesearch <argv>` as a child and take its max RSS."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return Outcome(-1, "", "benchmark deadline passed before the command ran")
        out_path, err_path = self.files / "_stdout", self.files / "_stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-c", CLI, *argv], cwd=self.files, env=_child_env(),
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
            watchdog = threading.Timer(remaining, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(
            proc.returncode,
            out_path.read_text(errors="replace"),
            err_path.read_text(errors="replace"),
            usage.ru_maxrss,
        )

    def in_process(self, argv: list[str]) -> Outcome:
        """Run `prunesearch.cli.run(argv)` in this process with output captured."""
        from prunesearch import cli

        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        try:
            os.chdir(self.files)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
        except Exception:  # a crash is a failed command, not a crashed benchmark
            err.write(traceback.format_exc())
            code = -1
        finally:
            os.chdir(cwd)
        return Outcome(code, out.getvalue(), err.getvalue())

    def judge(self, argv: list[str], outcome: Outcome, check=None) -> bool:
        """Count the command; record it as failed on a non-zero exit, a traceback
        or a failed output check."""
        self.attempted += 1
        label = argv[0]
        if outcome.code != 0:
            found = [f"exit code {outcome.code}: {outcome.stderr.strip()[-500:]}"]
        elif "Traceback" in outcome.stderr:
            found = ["printed a traceback"]
        else:
            try:
                found = check(outcome) if check is not None else []
            except (OSError, ValueError, KeyError, TypeError) as exc:
                found = [f"output check could not read the output: {exc!r}"]
        self.failed += bool(found)
        self.problems.extend(f"{label}: {p}" for p in found)
        return not found


# -- workloads --------------------------------------------------------------------


@dataclass
class Workload:
    setup: list  # CLI argv lists, or callables writing an input themselves
    steps: list[Step]
    summary: Callable[[], tuple[int, float]]  # (configs evaluated, best l_div) of the last pass
    results: list[Path] = field(default_factory=list)  # search/enumerate result files


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _fixture_setup(calib_seed: int) -> list[list[str]]:
    return [
        ["gen-model", "--seed", str(FIXTURE_MODEL_SEED), "--out", "model.opsh"],
        ["gen-calib", "--seed", str(calib_seed), "--out", "calib.jsonl"],
        ["stats", "--model", "model.opsh", "--calib", "calib.jsonl", "--out", "stats.json"],
    ]


def oracle(seed: int, files: Path) -> Workload:
    """Exhaustive 2401-config table at unstructured 0.5 on the acceptance-fixture
    model; the seed draws the calibration tokens."""
    table = files / "table.json"
    reference = _load(checks.REFERENCE) if seed == 0 else None
    step = Step(
        ["enumerate", "--model", "model.opsh", "--calib", "calib.jsonl", "--sparsity", "0.5",
         "--jobs", str(NPROC), "--out", table.name],
        lambda outcome: checks.check_table(_load(table), reference),
    )
    return Workload(
        setup=_fixture_setup(FIXTURE_CALIB_SEED + seed),
        steps=[step],
        summary=lambda: (checks.SPACE_SIZE, _load(table)["best"]["l_div"]),
        results=[table],
    )


def search(seed: int, files: Path) -> Workload:
    """Ten NSGA-II searches (budget 350, pop 24) on the acceptance fixture: five
    search seeds drawn from the seed, each at 0.5 and at 2:4.

    The fixture stays fixed because the best divergence moves by about 9%
    between calibration sets, while over five search seeds it moves by well
    under 1%; the evaluation count still varies with the search seeds.
    """
    budget = 350
    steps, outs = [], []
    for sparsity in SPARSITIES:
        for s in range(5 * seed + 1, 5 * seed + 6):
            out = files / f"search-{sparsity.replace(':', 'of')}-{s}.json"
            outs.append(out)
            steps.append(Step(
                ["search", "--model", "model.opsh", "--calib", "calib.jsonl",
                 "--sparsity", sparsity, "--algo", "nsga2", "--budget", str(budget),
                 "--pop", "24", "--seed", str(s), "--jobs", str(NPROC), "--out", out.name],
                lambda outcome, out=out: checks.check_search(_load(out), budget),
            ))

    def summary():
        docs = [_load(p) for p in outs]
        return (sum(d["evaluations_used"] for d in docs),
                statistics.fmean(d["best"]["l_div"] for d in docs))

    return Workload(setup=_fixture_setup(FIXTURE_CALIB_SEED), steps=steps, summary=summary,
                    results=outs)


def pipeline(seed: int, files: Path) -> Workload:
    """A 4-layer d_model-256 model on 32 ragged sequences: stats, prune + eval
    per preset and sparsity, then the two analysis reports. The model seed is
    fixed and the seed draws the calibration set, which moves the divergence
    about half as much as a new model does."""
    d_model, d_ff, layers, heads, vocab, max_seq = 256, 1024, 4, 8, 4096, 256
    gen_model = ["gen-model", "--layers", str(layers), "--d-model", str(d_model),
                 "--heads", str(heads), "--d-ff", str(d_ff), "--vocab", str(vocab),
                 "--max-seq", str(max_seq), "--seed", str(FIXTURE_MODEL_SEED),
                 "--out", "model.opsh"]
    shapes = {}
    for i in range(layers):
        for name, shape in (("q", (d_model, d_model)), ("k", (d_model, d_model)),
                            ("v", (d_model, d_model)), ("o", (d_model, d_model)),
                            ("gate", (d_ff, d_model)), ("up", (d_ff, d_model)),
                            ("down", (d_model, d_ff))):
            shapes[f"layer.{i}.{name}"] = shape

    def write_calib():
        import numpy as np

        rng = np.random.default_rng(seed)
        # One random length from each of 32 equal strata of [16, 256], shuffled:
        # ragged like real data, yet the token count and the T^2 attention work
        # barely move between seeds, so wall time compares across seeds.
        lengths = rng.permutation(np.floor(16 + (np.arange(32) + rng.random(32)) * (max_seq - 15) / 32))
        with open(files / "calib.jsonl", "w", encoding="utf-8", newline="\n") as f:
            for length in lengths:
                tokens = [int(t) for t in rng.integers(0, vocab, size=int(length))]
                f.write(json.dumps({"tokens": tokens}, separators=(",", ":")) + "\n")

    def masks_check(path: Path, sparsity: str):
        def check(outcome):
            from prunesearch.io import read_masks

            return checks.check_masks(
                {k: m.bits for k, m in read_masks(path).items()}, shapes, sparsity)
        return check

    divergences: dict[tuple[str, str], float] = {}

    def eval_check(key):
        def check(outcome):
            found = checks.check_eval_output(outcome.stdout)
            if not found:
                divergences[key] = float(outcome.stdout.split()[-1])
            return found
        return check

    steps = [Step(["stats", "--model", "model.opsh", "--calib", "calib.jsonl", "--out", "stats.json"])]
    for sparsity in SPARSITIES:
        for metric in PIPELINE_PRESETS:
            tag = f"{metric}-{sparsity.replace(':', 'of')}"
            steps.append(Step(
                ["prune", "--model", "model.opsh", "--stats", "stats.json", "--metric", metric,
                 "--sparsity", sparsity, "--out", f"pruned-{tag}.opsh",
                 "--masks-out", f"masks-{tag}.opsh"],
                masks_check(files / f"masks-{tag}.opsh", sparsity),
            ))
            steps.append(Step(
                ["eval", "--dense", "model.opsh", "--pruned", f"pruned-{tag}.opsh",
                 "--calib", "calib.jsonl"],
                eval_check((sparsity, metric)),
            ))
    steps.append(Step(
        ["align", "--model", "model.opsh", "--stats", "stats.json",
         "--metric", "optishear-l2-gsm8k", "--out", "align.json"],
        lambda outcome: checks.check_align(files / "align.json"),
    ))
    steps.append(Step(
        ["dist", "--model", "model.opsh", "--stats", "stats.json", "--out", "dist.csv"],
        lambda outcome: checks.check_dist(files / "dist.csv", layers),
    ))

    def summary():
        # "Best" per sparsity is the lowest divergence among the presets.
        best = [min(divergences[(s, m)] for m in PIPELINE_PRESETS) for s in SPARSITIES]
        return len(divergences), statistics.fmean(best)

    return Workload(
        setup=[
            gen_model,
            write_calib,
            ["stats", "--model", "model.opsh", "--calib", "calib.jsonl", "--out", "stats.json"],
        ],
        steps=steps,
        summary=summary,
    )


WORKLOADS = {"oracle": oracle, "search": search, "pipeline": pipeline}


# -- set-up and measured passes ---------------------------------------------------------


def set_up(work: Workload, runner: Runner) -> float:
    """Build the inputs: gen-model, then the calibration set, then stats."""
    start = time.perf_counter()
    for argv in work.setup:
        if callable(argv):
            argv()
            continue
        outcome = runner.spawn(argv)
        if not runner.judge(argv, outcome):
            raise RuntimeError(f"set-up command {argv[0]} failed: {runner.problems[-1]}")
    return time.perf_counter() - start


def measured_pass(work: Workload, run_one) -> tuple[float, list[Outcome]]:
    """Run every step once, timed as a whole."""
    start = time.perf_counter()
    outcomes = [run_one(step.argv) for step in work.steps]
    return time.perf_counter() - start, outcomes


def judge_pass(work: Workload, runner: Runner, outcomes: list[Outcome]) -> None:
    """The output checks of one pass, run after its timing ended."""
    for step, outcome in zip(work.steps, outcomes):
        runner.judge(step.argv, outcome, step.check)


def _from_outputs(read):
    """Metrics read from the program's outputs; a missing output ends the run."""
    try:
        return read()
    except (OSError, KeyError, ValueError) as exc:
        raise RuntimeError(f"outputs the metrics need are missing: {exc!r}") from None


def end_to_end(work: Workload, runner: Runner, seconds: float) -> dict:
    setups = [set_up(work, runner) for _ in range(SETUP_REPEATS)]
    walls, rss_kb = [], 0
    measure_start = time.perf_counter()
    while True:
        wall, outcomes = measured_pass(work, runner.spawn)
        judge_pass(work, runner, outcomes)
        walls.append(wall)
        rss_kb = max([rss_kb] + [o.maxrss_kb for o in outcomes])
        # Another pass only if it is expected to end within --seconds and the deadline.
        typical = statistics.median(walls)
        if (time.perf_counter() - measure_start + typical > seconds
                or time.monotonic() + typical > runner.deadline):
            break
    evals, best = _from_outputs(work.summary)
    wall_s = statistics.median(walls)
    return {
        "wall_s": wall_s,
        "setup_s": statistics.median(setups),
        "evals_per_s": evals / wall_s,
        "best_l_div": best,
        "peak_rss_mb": rss_kb / 1024.0,
        "ok_ratio": 1.0 - runner.failed / runner.attempted,
        "_pass_walls_s": walls,
    }


# -- traced run -------------------------------------------------------------------------


def _import_seconds(runner: Runner, repeats: int = 3) -> float:
    code = "import time; t = time.perf_counter(); import prunesearch.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], cwd=runner.files, env=_child_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout.strip()))
    return statistics.median(times)


def traced(work: Workload, runner: Runner) -> tuple[dict, tracing.Tracer]:
    set_up(work, runner)
    import_s = _import_seconds(runner)
    tracing.package_modules()  # import once here, so neither timed pass pays for it
    plain, outcomes = measured_pass(work, runner.in_process)
    judge_pass(work, runner, outcomes)

    tracer = tracing.Tracer()

    def run_traced(argv):
        with tracer.command(argv[0]):
            return runner.in_process(argv)

    tracer.install()
    try:
        traced_wall, outcomes = measured_pass(work, run_traced)
    finally:
        tracer.uninstall()
    judge_pass(work, runner, outcomes)

    metrics = layer_metrics(tracer)
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_s"] = traced_wall - plain
    metrics["_plain_in_process_s"] = plain
    metrics["_traced_in_process_s"] = traced_wall
    metrics["search.memo_hit_ratio"] = _from_outputs(lambda: _memo_hit_ratio(work.results))
    return metrics, tracer


def _memo_hit_ratio(results: list[Path]) -> float:
    """Trial-log entries served from the memo, over all trial-log entries."""
    entries = hits = 0
    for path in results:
        doc = _load(path)
        entries += len(doc["trials"])
        hits += len(doc["trials"]) - doc["evaluations_used"]
    return hits / entries if entries else 0.0


def layer_metrics(tracer: tracing.Tracer) -> dict:
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(*names):
        return sum(s.end - s.start for n in names for s in by_name.get(n, ()))

    def self_total(*names):
        return sum(selfs[s.id] for n in names for s in by_name.get(n, ()))

    names = {s.id: s.name for s in spans}
    forward_s = total("model.forward")
    evals = by_name.get("objective.evaluate_config", [])
    eval_ms = [(s.end - s.start) * 1e3 for s in evals]
    tail = tracing.tail_percentile(len(eval_ms))

    new_masks, seen = 0, {}
    for _, command, digest in sorted(tracer.mask_digests, key=lambda d: d[0]):
        known = seen.setdefault(command, set())
        if digest not in known:
            known.add(digest)
            new_masks += 1

    commands = [s for s in spans if s.name.startswith("cli.")]
    layer_spans = [(s.start, s.end) for s in spans if not s.name.startswith("cli.")]
    # Share of the search/enumerate commands' time spent inside evaluate_config.
    search_cmds = [s for s in commands if s.name in ("cli.enumerate", "cli.search")]
    search_cmd_s = sum(s.end - s.start for s in search_cmds)
    eval_cover = sum(
        tracing.covered_length([(e.start, e.end) for e in evals], d.start, d.end) for d in search_cmds
    )

    return {
        "model.forward_s": forward_s,
        "model.forward_calls": len(by_name.get("model.forward", ())),
        "model.tokens_per_s": tracer.tokens / forward_s if forward_s else 0.0,
        "model.softmax_s": total("model.softmax_rows"),
        "metric.score_s": total("metric.score"),
        "metric.score_calls": len(by_name.get("metric.score", ())),
        "prune.build_mask_s": total("prune.build_mask"),
        "prune.apply_mask_s": total("prune.apply_mask"),
        "prune.prune_model_self_s": self_total("prune.prune_model"),
        "objective.evaluations": len(evals),  # also the sample count of the eval_ms percentiles
        "objective.divergence_self_s": self_total("objective.divergence"),
        "objective.eval_ms_p50": tracing.percentile(eval_ms, 50) if eval_ms else 0.0,
        "objective.eval_ms_p99": (
            tracing.percentile(eval_ms, 99) if tail is not None and tail >= 99 else 0.0
        ),
        "objective.new_mask_ratio": new_masks / len(tracer.mask_digests) if tracer.mask_digests else 0.0,
        "objective.stats_s": total("objective.collect_activation_stats"),
        "objective.dense_cache_s": sum(
            s.end - s.start for s in by_name.get("model.final_hidden_batch", ())
            if names.get(s.parent) == "objective.make_context"
        ),
        "search.bookkeeping_s": self_total("search.nsga2_search", "search.exhaustive_search"),
        "io.read_s": total(*(n for n in by_name if n.startswith("io.read_"))),
        "io.write_s": total(*(n for n in by_name if n.startswith("io.write_"))),
        "io.bytes_read": tracer.bytes_read,
        "io.bytes_written": tracer.bytes_written,
        "analysis.report_s": total(*(n for n in by_name if n.startswith("analysis."))),
        "trace.uncovered_s": sum(
            (c.end - c.start) - tracing.covered_length(layer_spans, c.start, c.end)
            for c in commands
        ),
        "trace.eval_coverage": eval_cover / search_cmd_s if search_cmd_s else 0.0,
    }


def write_spans(tracer: tracing.Tracer, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for s in tracer.spans:
            f.write(json.dumps([s.id, s.name, s.start, s.end, s.parent, s.thread]) + "\n")


# -- environment and entry point ------------------------------------------------------


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "prunesearch").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "nproc": NPROC,
        "git_sha": sha,
        "src_sha256": src_hash.hexdigest(),
        "threads": {**{k: os.environ.get(k) for k in THREAD_ENV}, "jobs": NPROC},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "prunesearch" / "cli.py").is_file():
        print(f"error: no prunesearch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # output checks and the traced run import the package

    deadline = time.monotonic() + DEADLINE_S
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    files = run_dir / "files"
    shutil.rmtree(run_dir, ignore_errors=True)
    files.mkdir(parents=True)
    runner = Runner(files, deadline)
    work = WORKLOADS[args.workload](args.seed, files)
    try:
        if args.trace:
            metrics, tracer = traced(work, runner)
            write_spans(tracer, run_dir / "spans.jsonl")
            units = PER_LAYER
        else:
            metrics = end_to_end(work, runner, args.seconds)
            units = END_TO_END
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(files, ignore_errors=True)

    failed = runner.failed
    env = environment()
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env, "problems": runner.problems,
        "failed_ratio": failed / runner.attempted,
        "detail": {k[1:]: metrics.pop(k) for k in [k for k in metrics if k.startswith("_")]},
        "metrics": metrics,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
