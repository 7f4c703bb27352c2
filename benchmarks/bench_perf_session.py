"""Session-step throughput benchmark: incremental engine vs from-scratch.

Unlike the ``bench_table*``/``bench_figure*`` modules (which reproduce the
paper's *results*), this benchmark records the *performance trajectory* of
the interactive loop itself: iterations/second of the full
select → develop → refit step at several training-set sizes, for

* the **scratch** path (``full_refit_every=1``: every refit cold and
  uncapped) — the from-scratch refit semantics of the seed
  implementation, recorded as the baseline; and
* the **incremental** path (the engine defaults: warm-started label/end
  model refits with capped inner iterations, k-step cold backstops,
  sparse-native LF application, refit-scoped SEU caching).

Both the binary pipeline (amazon recipe, SEU + simulated user) and the
multiclass one (4-topic recipe, MC-SEU + MC simulated user) are swept —
they share one engine, so both tasks ride the same incremental machinery.
Each timing additionally reports the engine's per-phase attribution
(select / develop / label_model / end_model, plus the contextualize slice
of the label-model phase), read from
``IncrementalSessionEngine.phase_timings``, so future optimizations can be
attributed to the phase they touch.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_session.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_perf_session.py --quick    # CI smoke

Writes ``BENCH_session_throughput.json`` (see ``--output``) with
iterations/sec per (task, size), the speedup, the per-phase seconds, the
process peak RSS after each row, and the end-of-session test scores of
both paths (the quality-parity sanity check).  Binary sizes beyond the
grow-base document count (the n=500k ceiling row) build their corpora by
sampled growth (``repro.data.growth``) instead of full token-level
generation.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
for _path in (SRC, REPO_ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import numpy as np  # noqa: E402

from benchmarks.dense_reference import (  # noqa: E402
    DenseMCDawidSkeneModel,
    DenseMetalLabelModel,
)
from repro.core.session import DataProgrammingSession  # noqa: E402
from repro.core.seu import SEUSelector  # noqa: E402
from repro.data import load_dataset  # noqa: E402
from repro.interactive.simulated_user import SimulatedUser  # noqa: E402

#: The acceptance target this benchmark tracks: step throughput of the
#: incremental engine at n_train=10k (binary task) must be ≥ this multiple
#: of scratch.
TARGET_N_TRAIN = 10_000
TARGET_SPEEDUP = 3.0

#: The large-n acceptance row: the committed record must carry a binary
#: n_train=50k entry at ≥ this speedup (the 50k-scale ceiling item).
LARGE_N_TRAIN = 50_000
LARGE_N_SPEEDUP = 2.5

#: The raised ceiling: the committed record must carry a binary
#: n_train=500k row at ≥ this speedup (the sparse cold-backstop item —
#: the scratch baseline keeps its historical dense cold fits while the
#: incremental path's colds run the O(nnz) kernels).
XL_N_TRAIN = 500_000
XL_N_SPEEDUP = 8.0

#: Per-mode timing fields attributing the label-model phase: EM/SGD
#: iteration totals, fit wall seconds, and refit counts, each split by
#: warm/cold path (mirrors the engine's transient obs counters).
LABEL_MODEL_KEYS = ("em_iterations", "fit_seconds", "refits")

#: Base corpus size for sampled growth (``data/growth.py``): sizes whose
#: document count exceeds this are generated at the base size and grown by
#: document bootstrap, so the 500k row builds in seconds-per-100k instead
#: of minutes of token-level RNG churn.
GROW_BASE_DOCS = 62_500

TRAIN_FRACTION = 0.8  # the 80/10/10 split of featurize_corpus

#: Phase keys every timing entry must report (engine attribution).
PHASE_KEYS = ("select", "develop", "label_model", "end_model", "contextualize")


def peak_rss_mb() -> float:
    """Process-wide peak resident set size in MiB.

    ``ru_maxrss`` is a cumulative high-water mark, so per-row readings are
    monotone across a sweep: a row documents the footprint needed to reach
    it (dominated by its own dataset + sessions at the largest sizes).
    """
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    scale = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return maxrss / scale


def check_record(record: dict) -> list[str]:
    """Validate a throughput record's shape: per-phase timing keys plus
    per-mode ``label_model`` attribution (EM iterations / fit seconds /
    refits by path) and a peak-RSS reading on every row, incremental
    scores ≥ scratch at every size, the binary n_train=50k row at its
    speedup floor, and the binary n_train=500k row at the sparse-cold
    floor.  Returns the list of problems (empty = OK); the CI smoke and
    the tier-1 test both run this against the committed record."""
    problems = []
    results = record.get("results", [])
    if not results:
        problems.append("record has no results")
    for entry in results:
        for mode in ("scratch", "incremental"):
            phases = entry.get(mode, {}).get("phase_seconds", {})
            missing = [k for k in PHASE_KEYS if k not in phases]
            if missing:
                problems.append(
                    f"{entry.get('task')}/n={entry.get('n_train')}/{mode} "
                    f"missing phase keys {missing}"
                )
            label_model = entry.get(mode, {}).get("label_model", {})
            lm_missing = [k for k in LABEL_MODEL_KEYS if k not in label_model]
            if lm_missing:
                problems.append(
                    f"{entry.get('task')}/n={entry.get('n_train')}/{mode} "
                    f"missing label_model attribution {lm_missing}"
                )
        if not isinstance(entry.get("peak_rss_mb"), (int, float)):
            problems.append(
                f"{entry.get('task')}/n={entry.get('n_train')} missing peak_rss_mb"
            )
        if entry.get("score_gap", 0.0) < 0.0:
            problems.append(
                f"{entry.get('task')}/n={entry.get('n_train')} incremental "
                f"score below scratch (score_gap={entry.get('score_gap')})"
            )
    large = [
        r
        for r in results
        if r.get("task") == "binary" and r.get("n_train") == LARGE_N_TRAIN
    ]
    if not large:
        problems.append(f"no binary n_train={LARGE_N_TRAIN} entry")
    elif large[0].get("speedup", 0.0) < LARGE_N_SPEEDUP:
        problems.append(
            f"binary n_train={LARGE_N_TRAIN} speedup {large[0].get('speedup')} "
            f"< {LARGE_N_SPEEDUP}"
        )
    xl = [
        r
        for r in results
        if r.get("task") == "binary" and r.get("n_train") == XL_N_TRAIN
    ]
    if not xl:
        problems.append(f"no binary n_train={XL_N_TRAIN} entry")
    elif xl[0].get("speedup", 0.0) < XL_N_SPEEDUP:
        problems.append(
            f"binary n_train={XL_N_TRAIN} speedup {xl[0].get('speedup')} "
            f"< {XL_N_SPEEDUP}"
        )
    return problems


def build_binary_dataset(dataset: str, n_train: int, seed: int, grow_base: int = GROW_BASE_DOCS):
    n_docs = int(round(n_train / TRAIN_FRACTION))
    grow_from = grow_base if n_docs > grow_base else None
    return load_dataset(dataset, scale="bench", seed=seed, n_docs=n_docs, grow_from=grow_from)


def build_mc_dataset(n_train: int, seed: int):
    from repro.multiclass import make_topics_dataset

    n_docs = int(round(n_train / TRAIN_FRACTION))
    return make_topics_dataset(n_docs=n_docs, seed=seed)


ENGINE_MODES = {
    "scratch": {"full_refit_every": 1},
    "incremental": {},  # the engine defaults ARE the incremental config
}


def scratch_label_model_factory(ds, task: str):
    """The historical from-scratch label model: dense cold fits.

    The scratch baseline documents the *seed implementation's* semantics,
    which predate the O(nnz) kernels every production label model now
    fits on — the dense reference models of ``benchmarks/dense_reference.py``
    keep that arithmetic, so the scratch column does not silently inherit
    the optimization the incremental column measures.
    """
    if task == "binary":
        prior = ds.label_prior
        return lambda: DenseMetalLabelModel(class_prior=prior)
    K = ds.n_classes
    priors = ds.class_priors
    return lambda: DenseMCDawidSkeneModel(n_classes=K, class_priors=priors)


def make_session(ds, task: str, mode: str, seed: int):
    engine_kwargs = dict(ENGINE_MODES[mode])
    if mode == "scratch":
        engine_kwargs["label_model_factory"] = scratch_label_model_factory(ds, task)
    if task == "binary":
        return DataProgrammingSession(
            ds,
            SEUSelector(),
            SimulatedUser(ds, seed=seed + 1),
            seed=seed,
            **engine_kwargs,
        )
    from repro.multiclass.session import MultiClassSession
    from repro.multiclass.seu import MCSEUSelector
    from repro.multiclass.simulated_user import MCSimulatedUser

    return MultiClassSession(
        ds,
        MCSEUSelector(),
        MCSimulatedUser(ds, seed=seed + 1),
        seed=seed,
        **engine_kwargs,
    )


def time_session(
    ds, task: str, mode: str, n_iterations: int, seed: int, repeats: int = 1
) -> dict:
    """Time ``repeats`` identical sessions and keep the fastest.

    Sessions are deterministic given the seed, so repeats share scores and
    differ only in scheduler noise; best-of-N keeps the recorded ratios
    from being artifacts of a busy machine.
    """
    best = None
    for _ in range(max(repeats, 1)):
        session = make_session(ds, task, mode, seed)
        start = time.perf_counter()
        session.run(n_iterations)
        elapsed = time.perf_counter() - start
        timing = {
            "mode": mode,
            "seconds": round(elapsed, 4),
            "iters_per_sec": round(n_iterations / elapsed, 4),
            "n_lfs": len(session.lfs),
            "test_score": round(session.test_score(), 4),
            "phase_seconds": {
                phase: round(seconds, 4)
                for phase, seconds in sorted(session.phase_timings.items())
            },
            "label_model": {
                "em_iterations": {
                    path: int(v)
                    for path, v in sorted(session.em_iteration_counts.items())
                },
                "fit_seconds": {
                    path: round(float(v), 4)
                    for path, v in sorted(session.label_fit_seconds.items())
                },
                "refits": {
                    path: int(v) for path, v in sorted(session.refit_counts.items())
                },
            },
        }
        if best is None or timing["seconds"] < best["seconds"]:
            best = timing
    return best


def sweep(task: str, sizes, args) -> list[dict]:
    results = []
    for n_train in sizes:
        print(f"[bench] building {task} dataset with n_train={n_train} ...", flush=True)
        t0 = time.perf_counter()
        if task == "binary":
            ds = build_binary_dataset(args.dataset, n_train, args.seed, args.grow_base)
        else:
            ds = build_mc_dataset(n_train, args.seed)
        build_s = time.perf_counter() - t0
        print(
            f"[bench]   built in {build_s:.1f}s "
            f"(n_train={ds.train.n}, |Z|={ds.n_primitives}, nnz(B)={ds.train.B.nnz})",
            flush=True,
        )
        entry = {"task": task, "n_train": ds.train.n, "n_primitives": ds.n_primitives}
        for mode in ("scratch", "incremental"):
            timing = time_session(ds, task, mode, args.iterations, args.seed, args.repeats)
            entry[mode] = timing
            phases = timing["phase_seconds"]
            dominant = max(phases, key=phases.get)
            print(
                f"[bench]   {mode:<12} {timing['seconds']:>8.2f}s "
                f"= {timing['iters_per_sec']:>7.2f} iters/sec "
                f"(score {timing['test_score']:.3f}, "
                f"dominant phase {dominant}={phases[dominant]:.2f}s)",
                flush=True,
            )
        entry["speedup"] = round(
            entry["incremental"]["iters_per_sec"] / entry["scratch"]["iters_per_sec"], 3
        )
        entry["score_gap"] = round(
            entry["incremental"]["test_score"] - entry["scratch"]["test_score"], 4
        )
        entry["peak_rss_mb"] = round(peak_rss_mb(), 1)
        print(
            f"[bench]   speedup {entry['speedup']}x  "
            f"peak RSS {entry['peak_rss_mb']:.0f} MiB",
            flush=True,
        )
        results.append(entry)
    return results


def run_benchmark(args) -> dict:
    results = sweep("binary", args.sizes, args)
    results += sweep("multiclass", args.mc_sizes, args)
    return {
        "benchmark": "session_throughput",
        "dataset": args.dataset,
        "mc_dataset": "topics",
        "iterations_per_session": args.iterations,
        "timing_repeats": args.repeats,
        "seed": args.seed,
        "quick": bool(args.quick),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "target": {
            "n_train": TARGET_N_TRAIN,
            "min_speedup": TARGET_SPEEDUP,
            "xl_n_train": XL_N_TRAIN,
        },
        "results": results,
    }


def apply_quick_mode(args) -> None:
    """Clamp sweep parameters for the CI smoke and redirect the output.

    Quick runs must never clobber the committed full-sweep record: even an
    explicit ``--output`` pointing at it is redirected to the
    ``.quick.json`` sibling.  Tier-1 tests pin this invariant.
    """
    args.sizes = [1_000]
    args.mc_sizes = [1_000]
    args.iterations = 10
    args.repeats = 1
    committed = REPO_ROOT / "BENCH_session_throughput.json"
    try:
        clobbers = Path(args.output).resolve() == committed.resolve()
    except OSError:
        clobbers = False
    if clobbers:
        args.output = str(committed.with_suffix("")) + ".quick.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=[1_000, 10_000, 50_000, 500_000],
        help="binary training-set sizes to sweep (default: 1k 10k 50k 500k)",
    )
    parser.add_argument(
        "--mc-sizes",
        type=int,
        nargs="+",
        default=[1_000, 10_000],
        help="multiclass training-set sizes to sweep (default: 1k 10k)",
    )
    parser.add_argument(
        "--iterations", type=int, default=30, help="session iterations per timing run"
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=2,
        help=(
            "timing repeats per (size, mode); the fastest is recorded "
            "(sessions are seed-deterministic, so repeats only shave "
            "scheduler noise)"
        ),
    )
    parser.add_argument("--dataset", default="amazon", help="binary recipe dataset name")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--grow-base",
        type=int,
        default=GROW_BASE_DOCS,
        help=(
            "base corpus size for sampled growth; binary sizes needing more "
            "documents are generated at this size then grown by bootstrap"
        ),
    )
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_session_throughput.json"),
        help="where to write the JSON record",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=(
            "CI smoke: n_train=1000 only (both tasks), 10 iterations; writes "
            "next to the committed record (never over it) and asserts the "
            "committed record still carries the phase keys, per-row "
            "label_model attribution, peak-RSS readings, and the n=50k and "
            "n=500k rows at their speedup floors"
        ),
    )
    args = parser.parse_args(argv)
    default_output = str(REPO_ROOT / "BENCH_session_throughput.json")
    if args.quick:
        apply_quick_mode(args)

    record = run_benchmark(args)
    out = Path(args.output)
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"[bench] wrote {out}")

    if args.quick:
        committed = Path(default_output)
        problems = (
            check_record(json.loads(committed.read_text()))
            if committed.exists()
            else [f"committed record {committed} missing"]
        )
        if problems:
            for problem in problems:
                print(f"[bench] committed record FAILED check: {problem}")
            return 1
        print(
            f"[bench] committed record {committed.name} OK "
            "(phase keys + label_model attribution + RSS + 50k/500k floors)"
        )
        return 0

    at_target = [
        r
        for r in record["results"]
        if r["task"] == "binary"
        and abs(r["n_train"] - TARGET_N_TRAIN) <= TARGET_N_TRAIN * 0.05
    ]
    if at_target and not args.quick:
        speedup = at_target[0]["speedup"]
        status = "OK" if speedup >= TARGET_SPEEDUP else "BELOW TARGET"
        print(
            f"[bench] speedup at n_train={TARGET_N_TRAIN}: "
            f"{speedup}x (target {TARGET_SPEEDUP}x) -> {status}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
