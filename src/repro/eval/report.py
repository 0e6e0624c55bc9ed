"""One-shot reproduction report.

Runs every experiment driver at a chosen scale and writes a single
markdown report with all regenerated tables/figures — the mechanical part
of EXPERIMENTS.md.  Exposed on the CLI as ``python -m repro report``.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any

from repro import __version__
from repro.errors import ConfigurationError, StorageError
from repro.eval import experiments

#: Drivers in presentation order with per-driver argument overrides (the
#: ablations take no ``scale``; the offline experiments need larger data).
_DRIVERS: tuple[tuple[str, dict], ...] = (
    ("fig2_background_prob", {"scale": None}),
    ("fig3_f1_all_queries", {"scale": None}),
    ("table3_predicates", {"scale": None}),
    ("table4_models", {"scale": None}),
    ("table5_noise", {"scale": None}),
    ("fig4_clip_size", {"scale": None}),
    ("fig5_frame_f1", {"scale": None}),
    ("runtime_decomposition", {"scale": None}),
    ("table6_movie_topk", {"scale": "double"}),
    ("table7_youtube_topk", {"scale": None}),
    ("table8_speedup", {"scale": "double"}),
    ("ablation_alpha", {"scale": None}),
    ("ablation_kernel_bandwidth", {}),
    ("ablation_predicate_order", {"scale": None}),
    ("ablation_markov", {}),
)


def generate(
    path: str | Path,
    scale: float = 0.15,
    seed: int = 0,
    names: tuple[str, ...] | None = None,
) -> Path:
    """Run the experiment drivers and write the combined report.

    ``names`` restricts the run to a subset of drivers; ``scale`` applies
    to every scale-aware driver (offline experiments run at twice it, as
    the benchmarks do).  Returns the written path.  A name that is not a
    driver, or a path that cannot be written, is a ``repro.errors`` error.
    """
    unknown = sorted(set(names or ()) - {name for name, _ in _DRIVERS})
    if unknown:
        raise ConfigurationError(
            f"unknown experiment(s) {', '.join(map(repr, unknown))}; see `repro list`"
        )
    target = Path(path)
    sections: list[str] = [
        "# svq-act reproduction report",
        "",
        f"- package version: {__version__}",
        f"- dataset scale: {scale} (offline experiments at {min(1.0, 2 * scale)})",
        f"- seed: {seed}",
        "",
    ]
    for name, overrides in _DRIVERS:
        if names is not None and name not in names:
            continue
        module = getattr(experiments, name)
        kwargs: dict[str, Any] = {"seed": seed}
        if "scale" in overrides:
            if overrides["scale"] == "double":
                kwargs["scale"] = min(1.0, 2 * scale)
            else:
                kwargs["scale"] = scale
        started = time.perf_counter()
        result = module.run(**kwargs)
        elapsed = time.perf_counter() - started
        sections.append(f"## {name}")
        sections.append("")
        sections.append("```")
        sections.append(result.render())
        sections.append("```")
        sections.append(f"_regenerated in {elapsed:.1f}s_")
        sections.append("")
    try:
        target.write_text("\n".join(sections))
    except OSError as exc:
        raise StorageError(f"cannot write report {target}: {exc.strerror or exc}") from exc
    return target
