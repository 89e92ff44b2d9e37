"""Output checks run on each workload's files, outside the timed region.

Each check returns a list of problems; an empty list means the output is
correct. The benchmark counts a command with any problem as failed.
"""

import csv
import json
import math
from pathlib import Path

SPACE_SIZE = 2401
_CONFIG_FIELDS = ("alpha", "beta", "f1", "f2")
REFERENCE = Path(__file__).with_name("oracle_reference.json")


def _config(row: dict) -> tuple:
    return tuple(row[f] for f in _CONFIG_FIELDS)


def _finite_nonneg(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value >= 0.0


def check_table(doc: dict, reference: dict | None = None) -> list[str]:
    """The exhaustive table: 2401 distinct configs, finite l_div, ascending,
    `best` equal to the first row, and (with `reference`) the same argmin and
    top-10 order as the table recorded for the same inputs."""
    trials = doc.get("trials")
    if not isinstance(trials, list) or len(trials) != SPACE_SIZE:
        return [f"table has {len(trials) if isinstance(trials, list) else 'no'} rows, expected {SPACE_SIZE}"]
    problems = []
    if len({_config(t) for t in trials}) != SPACE_SIZE:
        problems.append("table configs are not distinct")
    values = [t["l_div"] for t in trials]
    if not all(_finite_nonneg(v) for v in values):
        problems.append("table has a non-finite or negative l_div")
    elif any(a > b for a, b in zip(values, values[1:])):
        problems.append("table is not sorted by ascending l_div")
    best = doc.get("best", {})
    if _config(best) != _config(trials[0]) or best.get("l_div") != values[0]:
        problems.append("best does not match the first table row")
    if doc.get("evaluations_used") != SPACE_SIZE:
        problems.append(f"evaluations_used {doc.get('evaluations_used')} != {SPACE_SIZE}")
    if reference is not None:
        top = [list(_config(t)) for t in trials[:10]]
        if top != reference["top10"]:
            problems.append(f"top-10 order {top} differs from the reference {reference['top10']}")
    return problems


def check_search(doc: dict, budget: int) -> list[str]:
    """A search log: evaluations within budget, best equal to the trial minimum."""
    trials = doc.get("trials") or []
    if not trials:
        return ["search log has no trials"]
    problems = []
    used = doc.get("evaluations_used")
    if not isinstance(used, int) or not 1 <= used <= budget:
        problems.append(f"evaluations_used {used} outside [1, {budget}]")
    values = [t["l_div"] for t in trials]
    if not all(_finite_nonneg(v) for v in values):
        problems.append("search log has a non-finite or negative l_div")
        return problems
    best = doc.get("best", {})
    low = min(values)
    if best.get("l_div") != low:
        problems.append(f"best l_div {best.get('l_div')} != trial minimum {low}")
    elif _config(best) not in {_config(t) for t in trials if t["l_div"] == low}:
        problems.append("best config is not a minimising trial")
    return problems


def check_masks(masks: dict, shapes: dict, sparsity: str) -> list[str]:
    """Exact keep count per row (ratio) or per group of m columns (n:m).

    `masks` maps sub-module key -> boolean numpy array (output x input);
    `shapes` maps each expected key to its (rows, cols).
    """
    if set(masks) != set(shapes):
        return [f"mask keys differ: missing {sorted(set(shapes) - set(masks))}, "
                f"unexpected {sorted(set(masks) - set(shapes))}"]
    problems = []
    for key, bits in masks.items():
        if bits.shape != shapes[key]:
            problems.append(f"mask {key} has shape {bits.shape}, expected {shapes[key]}")
            continue
        rows, cols = bits.shape
        if ":" in sparsity:
            n, m = (int(x) for x in sparsity.split(":"))
            kept = bits.reshape(rows, cols // m, m).sum(axis=2)
            want = n
        else:
            kept = bits.sum(axis=1)
            want = cols - math.floor(float(sparsity) * cols)
        if not (kept == want).all():
            problems.append(f"mask {key} does not keep exactly {want} per {'group' if ':' in sparsity else 'row'}")
    return problems


def check_eval_output(stdout: str) -> list[str]:
    """`eval` prints one finite non-negative number."""
    lines = stdout.strip().splitlines()
    try:
        value = float(lines[-1])
    except (IndexError, ValueError):
        return [f"eval printed {stdout.strip()!r}, not a number"]
    if not _finite_nonneg(value):
        return [f"eval printed {value}, not a finite non-negative number"]
    return []


def check_align(path: Path) -> list[str]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    if not _finite_nonneg(doc.get("model_mean")):
        return [f"align report model_mean {doc.get('model_mean')!r} is not finite"]
    return []


def check_dist(path: Path, n_layers: int) -> list[str]:
    with path.open(encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    if len(rows) != n_layers + 1:
        return [f"dist report has {len(rows) - 1} rows, expected {n_layers}"]
    return []
