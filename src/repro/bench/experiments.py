"""Experiment functions — one per paper table/figure (see DESIGN.md §5).

Each ``fig*`` function builds the *real* schedules of every compared
scheme for the scaled Table 4 problem, runs them through the simulated
machine across core counts, and returns a :class:`FigureResult` whose
``checks`` record the paper's qualitative claims evaluated on the
measured series.  ``python -m repro.bench`` renders all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines import (
    diamond_schedule,
    mwd_schedule,
    naive_schedule,
    overlapped_schedule,
    trapezoid_schedule,
)
from repro.bench.problems import CORE_COUNTS, PROBLEMS, ProblemConfig
from repro.bench.report import format_scaling, format_table
from repro.core import make_lattice
from repro.core.geometry import table1
from repro.core.schedules import tess_schedule
from repro.machine.model import SimResult, scaling_curve
from repro.machine.spec import MachineSpec, paper_machine
from repro.runtime.levelize import levelize
from repro.runtime.schedule import RegionSchedule
from repro.stencils.library import get_stencil


@dataclass
class FigureResult:
    """Series and checks of one regenerated figure."""

    exp_id: str
    title: str
    kernel: str
    shape: Tuple[int, ...]
    steps: int
    series: Dict[str, List[SimResult]]
    notes: str = ""
    #: paper claim -> (holds?, detail)
    checks: Dict[str, Tuple[bool, str]] = field(default_factory=dict)

    def table(self, metric: str = "gstencils") -> str:
        return format_scaling(self.series, metric=metric)

    def at(self, scheme: str, cores: int) -> SimResult:
        for r in self.series[scheme]:
            if r.cores == cores:
                return r
        raise KeyError(f"no result for {scheme} at {cores} cores")

    def render(self) -> str:
        lines = [f"== {self.exp_id}: {self.title} ==",
                 f"kernel={self.kernel} shape={self.shape} steps={self.steps}"]
        if self.notes:
            lines.append(self.notes)
        lines.append(self.table("gstencils"))
        if self.checks:
            lines.append("paper-claim checks:")
            for name, (holds, detail) in self.checks.items():
                mark = "PASS" if holds else "DIVERGES"
                lines.append(f"  [{mark}] {name}: {detail}")
        return "\n".join(lines)


#: schedules are expensive to build (10^5 tasks) and immutable once
#: built — share them between experiments (fig11/fig12 reuse heat3d)
_SCHEDULE_CACHE: Dict[Tuple[str, str], RegionSchedule] = {}


def build_schedules(
    cfg: ProblemConfig,
    schemes: Sequence[str],
) -> Dict[str, RegionSchedule]:
    """Build the requested schemes' schedules for one problem config."""
    spec = get_stencil(cfg.kernel)
    out: Dict[str, RegionSchedule] = {}
    for name in schemes:
        key = (cfg.name + str(cfg.shape) + str(cfg.steps), name)
        if key in _SCHEDULE_CACHE:
            out[name] = _SCHEDULE_CACHE[key]
            continue
        if name == "tess":
            lat = make_lattice(spec, cfg.shape, cfg.tess_b,
                               core_widths=cfg.tess_core_widths,
                               uncut_dims=cfg.tess_uncut_dims)
            out[name] = tess_schedule(spec, cfg.shape, lat, cfg.steps,
                                      merged=True)
            out[name].scheme = "tess"
        elif name == "tess-unmerged":
            lat = make_lattice(spec, cfg.shape, cfg.tess_b,
                               core_widths=cfg.tess_core_widths,
                               uncut_dims=cfg.tess_uncut_dims)
            out[name] = tess_schedule(spec, cfg.shape, lat, cfg.steps)
            out[name].scheme = "tess-unmerged"
        elif name == "pluto":
            out[name] = diamond_schedule(spec, cfg.shape, cfg.pluto_b,
                                         cfg.steps,
                                         cut_dims=cfg.pluto_cut_dims)
            out[name].scheme = "pluto"
        elif name == "pochoir":
            raw = trapezoid_schedule(spec, cfg.shape, cfg.steps,
                                     base_dt=cfg.pochoir_base_dt,
                                     base_widths=cfg.pochoir_base_widths)
            out[name] = levelize(spec, raw)  # Cilk work-stealing model
            # dynamic blocking / recursive descent / steal overhead per
            # task — the paper's stated reason Pochoir trails in 1D
            out[name].task_overhead_factor = 4.0
            out[name].scheme = "pochoir"
        elif name == "girih":
            if cfg.mwd_b is None:
                raise ValueError(f"no Girih config for {cfg.name}")
            out[name] = mwd_schedule(spec, cfg.shape, cfg.mwd_b, cfg.steps,
                                     chunks=cfg.mwd_chunks)
            out[name].scheme = "girih"
        elif name == "naive":
            out[name] = naive_schedule(spec, cfg.shape, cfg.steps, chunks=24)
        elif name == "overlapped":
            tile = tuple(max(8, n // 16) for n in cfg.shape)
            out[name] = overlapped_schedule(spec, cfg.shape, cfg.steps, tile,
                                            max(2, cfg.tess_b // 2))
        else:
            raise ValueError(f"unknown scheme {name!r}")
        _SCHEDULE_CACHE[key] = out[name]
    return out


def run_scaling(
    cfg: ProblemConfig,
    schemes: Sequence[str],
    cores: Sequence[int] = CORE_COUNTS,
    machine: Optional[MachineSpec] = None,
) -> Dict[str, List[SimResult]]:
    """Simulate the config's schemes; caches scale with the problem."""
    if machine is None:
        machine = paper_machine().scaled_caches(cfg.cache_scale)
    spec = get_stencil(cfg.kernel)
    scheds = build_schedules(cfg, schemes)
    return {
        name: scaling_curve(spec, sched, machine, list(cores))
        for name, sched in scheds.items()
    }


def _ratio(a: SimResult, b: SimResult) -> float:
    return a.gstencils / b.gstencils if b.gstencils else float("inf")


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------

def fig8_1d(cores: Sequence[int] = CORE_COUNTS,
            machine: Optional[MachineSpec] = None) -> List[FigureResult]:
    """Figure 8: Heat-1D and 1d5p performance vs cores."""
    out = []
    for key in ("heat1d", "1d5p"):
        cfg = PROBLEMS[key]
        series = run_scaling(cfg, ("tess", "pluto", "pochoir"), cores,
                             machine)
        fr = FigureResult(
            exp_id="fig8",
            title=f"1D results — {cfg.name}",
            kernel=cfg.kernel, shape=cfg.shape, steps=cfg.steps,
            series=series,
            notes="paper: linear scaling for all three; ours comparable "
                  "to Pluto (same diamond code), better than Pochoir",
        )
        pmax = max(cores)
        t, pl, po = (fr.at(s, pmax) for s in ("tess", "pluto", "pochoir"))
        t1 = fr.at("tess", min(cores))
        fr.checks["tess ≈ pluto (same diamond code)"] = (
            0.8 <= _ratio(t, pl) <= 1.25,
            f"ratio at {pmax} cores = {_ratio(t, pl):.2f}",
        )
        fr.checks["tess ≥ pochoir"] = (
            _ratio(t, po) >= 1.0,
            f"ratio at {pmax} cores = {_ratio(t, po):.2f}",
        )
        fr.checks["near-linear scaling of tess"] = (
            t.gstencils / t1.gstencils >= 0.5 * pmax / t1.cores,
            f"speedup {t.gstencils / t1.gstencils:.1f}x on {pmax} cores",
        )
        out.append(fr)
    return out


def fig9_life(cores: Sequence[int] = CORE_COUNTS,
              machine: Optional[MachineSpec] = None) -> FigureResult:
    """Figure 9: Game of Life performance vs cores."""
    cfg = PROBLEMS["life"]
    series = run_scaling(cfg, ("tess", "pluto", "pochoir"), cores, machine)
    fr = FigureResult(
        exp_id="fig9",
        title="Game of Life",
        kernel=cfg.kernel, shape=cfg.shape, steps=cfg.steps,
        series=series,
        notes="paper: Pochoir beats Pluto below ~12 cores, Pluto wins "
              "beyond; ours highest with ideal scalability",
    )
    pmax = max(cores)
    t, pl, po = (fr.at(s, pmax) for s in ("tess", "pluto", "pochoir"))
    fr.checks["tess highest at full machine"] = (
        t.gstencils >= pl.gstencils and t.gstencils >= po.gstencils,
        f"tess {t.gstencils:.2f} vs pluto {pl.gstencils:.2f} / "
        f"pochoir {po.gstencils:.2f} GStencil/s",
    )
    fr.checks["pluto overtakes pochoir at high cores"] = (
        pl.gstencils >= po.gstencils,
        f"at {pmax} cores: pluto {pl.gstencils:.2f} vs "
        f"pochoir {po.gstencils:.2f}",
    )
    return fr


def fig10_2d(cores: Sequence[int] = CORE_COUNTS,
             machine: Optional[MachineSpec] = None) -> List[FigureResult]:
    """Figure 10: Heat-2D (star) and 2d9p (box) performance vs cores."""
    out = []
    for key, kind in (("heat2d", "star"), ("2d9p", "box")):
        cfg = PROBLEMS[key]
        series = run_scaling(cfg, ("tess", "pluto", "pochoir"), cores,
                             machine)
        fr = FigureResult(
            exp_id="fig10",
            title=f"2D results — {cfg.name} ({kind})",
            kernel=cfg.kernel, shape=cfg.shape, steps=cfg.steps,
            series=series,
            notes="paper: star — ours ≈ Pochoir, Pluto load-imbalanced; "
                  "box — ours outperforms by 14%/20% on average",
        )
        pmax = max(cores)
        t, pl, po = (fr.at(s, pmax) for s in ("tess", "pluto", "pochoir"))
        if kind == "box":
            fr.checks["tess beats pluto & pochoir on box stencil"] = (
                t.gstencils > pl.gstencils and t.gstencils > po.gstencils,
                f"tess/pluto {_ratio(t, pl):.2f}, "
                f"tess/pochoir {_ratio(t, po):.2f} at {pmax} cores",
            )
        else:
            fr.checks["tess and pluto within ~15% on 2D star"] = (
                0.85 <= _ratio(t, pl) <= 1.2,
                f"ratio {_ratio(t, pl):.2f} at {pmax} cores (paper: "
                f"Pluto ahead by <5% at 24 cores; the [3] load-imbalance "
                f"mechanism is not modelled — see EXPERIMENTS.md)",
            )
            fr.checks["tess competitive on star stencil"] = (
                _ratio(t, max((pl, po), key=lambda r: r.gstencils)) >= 0.9,
                f"tess {t.gstencils:.2f} vs best baseline "
                f"{max(pl.gstencils, po.gstencils):.2f}",
            )
        out.append(fr)
    return out


def fig11_3d(cores: Sequence[int] = CORE_COUNTS,
             machine: Optional[MachineSpec] = None) -> List[FigureResult]:
    """Figure 11: Heat-3D (star, with Girih) and 3d27p (box)."""
    out = []
    for key, kind in (("heat3d", "star"), ("3d27p", "box")):
        cfg = PROBLEMS[key]
        schemes = ["tess", "pluto", "pochoir"]
        if kind == "star":
            schemes.append("girih")
        series = run_scaling(cfg, schemes, cores, machine)
        fr = FigureResult(
            exp_id="fig11",
            title=f"3D results — {cfg.name} ({kind})",
            kernel=cfg.kernel, shape=cfg.shape, steps=cfg.steps,
            series=series,
            notes="paper: star — Girih ≈ Pochoir, Pluto slightly ahead at "
                  ">20 cores; box — ours outperforms Pluto/Pochoir by "
                  "30%/99% on average (max 74%/100%), headline +12%",
        )
        pmax = max(cores)
        t, pl, po = (fr.at(s, pmax) for s in ("tess", "pluto", "pochoir"))
        if kind == "box":
            fr.checks["tess clearly ahead on 3d27p"] = (
                _ratio(t, pl) >= 1.05 and _ratio(t, po) >= 1.05,
                f"tess/pluto {_ratio(t, pl):.2f}, "
                f"tess/pochoir {_ratio(t, po):.2f} at {pmax} cores",
            )
        else:
            fr.checks["tess and pluto close on 3d7p"] = (
                0.75 <= _ratio(t, pl) <= 1.35,
                f"ratio {_ratio(t, pl):.2f} at {pmax} cores",
            )
            gi = fr.at("girih", pmax)
            fr.checks["girih and pochoir similar on 3d7p"] = (
                0.6 <= gi.gstencils / po.gstencils <= 1.7,
                f"girih {gi.gstencils:.2f} vs pochoir {po.gstencils:.2f}",
            )
        out.append(fr)
    return out


def fig12_memory(cores: Sequence[int] = CORE_COUNTS,
                 machine: Optional[MachineSpec] = None) -> FigureResult:
    """Figure 12: Heat-3D memory transfer volume and bandwidth."""
    cfg = PROBLEMS["heat3d"]
    series = run_scaling(cfg, ("tess", "pluto", "girih", "naive"), cores,
                         machine)
    fr = FigureResult(
        exp_id="fig12",
        title="Heat-3D memory performance",
        kernel=cfg.kernel, shape=cfg.shape, steps=cfg.steps,
        series=series,
        notes="paper: ours and Pluto show similar cache complexity; "
              "Girih (LLC-resident diamonds) transfers the least",
    )
    pmax = max(cores)
    t, pl, gi, na = (fr.at(s, pmax)
                     for s in ("tess", "pluto", "girih", "naive"))
    fr.checks["tess & pluto in the same Θ(1/b) traffic class"] = (
        0.25 <= (t.traffic_bytes / pl.traffic_bytes) <= 4.0,
        f"tess {t.traffic_gb:.2f} GB vs pluto {pl.traffic_gb:.2f} GB "
        f"(paper's Table 4 gives Pluto half the depth: b=6 vs b=12)",
    )
    fr.checks["girih lowest traffic"] = (
        gi.traffic_bytes <= min(t.traffic_bytes, pl.traffic_bytes,
                                na.traffic_bytes),
        f"girih {gi.traffic_gb:.2f} GB vs tess {t.traffic_gb:.2f} / "
        f"pluto {pl.traffic_gb:.2f} / naive {na.traffic_gb:.2f} GB",
    )
    fr.checks["time tiling cuts naive traffic"] = (
        t.traffic_bytes < 0.5 * na.traffic_bytes,
        f"tess {t.traffic_gb:.2f} GB vs naive {na.traffic_gb:.2f} GB",
    )
    return fr


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def table1_properties(max_dim: int = 6, b: int = 4) -> str:
    """Regenerate Table 1 for d = 1..max_dim."""
    headers = ["property"] + [f"d={d}" for d in range(1, max_dim + 1)]
    rows = []
    data = [table1(d, b) for d in range(1, max_dim + 1)]
    rows.append(["stages per phase"] + [t["stages_per_phase"] for t in data])
    rows.append([f"|B_0| (b={b})"] + [t["b0_size"] for t in data])
    rows.append(["shape kinds"] + [t["shape_kinds"] for t in data])
    rows.append(["splits of B_0"] + [t["split_counts"][0] for t in data])
    rows.append(["B_1 centres on B_0 surface"]
                + [t["surface_centerpoints"][0] for t in data])
    return format_table(headers, rows)


def table4_problems() -> str:
    """Render Table 4 with the scaled configurations used here."""
    headers = ["benchmark", "paper size", "scaled size", "steps",
               "tess b/widths", "pluto b", "scaling note"]
    rows = []
    for cfg in PROBLEMS.values():
        rows.append([
            cfg.name, cfg.paper_size,
            "x".join(str(n) for n in cfg.shape), cfg.steps,
            f"{cfg.tess_b}/{cfg.tess_core_widths}", cfg.pluto_b,
            cfg.scale_note,
        ])
    return format_table(headers, rows)


# ---------------------------------------------------------------------------
# Ablations (design choices called out in DESIGN.md)
# ---------------------------------------------------------------------------

def ablation_sync_counts(shape_1d: int = 512, steps: int = 32,
                         b: int = 8) -> str:
    """Barriers per time step for each scheme, d = 1..3 (§2.2 claims)."""
    headers = ["scheme", "d=1", "d=2", "d=3"]
    shapes = [(shape_1d,), (64, 64), (32, 32, 32)]
    kernels = ["heat1d", "heat2d", "heat3d"]
    rows = []
    for scheme in ("tess-unmerged", "tess", "pluto", "pochoir"):
        row = [scheme]
        for shape, kernel in zip(shapes, kernels):
            spec = get_stencil(kernel)
            bb = min(b, min(shape) // 4)
            if scheme in ("tess", "tess-unmerged"):
                lat = make_lattice(spec, shape, bb)
                s = tess_schedule(spec, shape, lat, steps,
                                  merged=(scheme == "tess"))
            elif scheme == "pluto":
                s = diamond_schedule(spec, shape, bb, steps)
            else:
                s = levelize(spec, trapezoid_schedule(
                    spec, shape, steps, base_dt=max(2, bb // 2)))
            row.append(f"{s.num_groups / steps:.2f}")
        rows.append(row)
    return format_table(headers, rows)


def ablation_merge(cores: Sequence[int] = (1, 12, 24),
                   machine: Optional[MachineSpec] = None) -> FigureResult:
    """§4.3 merging on/off on Heat-2D."""
    cfg = PROBLEMS["heat2d"]
    series = run_scaling(cfg, ("tess", "tess-unmerged"), cores, machine)
    fr = FigureResult(
        exp_id="ablation-merge",
        title="B_d + B_0 merging (§4.3) on/off — Heat-2D",
        kernel=cfg.kernel, shape=cfg.shape, steps=cfg.steps, series=series,
    )
    pmax = max(cores)
    m, u = fr.at("tess", pmax), fr.at("tess-unmerged", pmax)
    fr.checks["merging saves barriers"] = (
        m.barriers < u.barriers,
        f"{m.barriers} vs {u.barriers} barriers",
    )
    fr.checks["merging does not hurt"] = (
        m.time_s <= u.time_s * 1.02,
        f"{m.time_s * 1e3:.2f} ms vs {u.time_s * 1e3:.2f} ms",
    )
    return fr


def ablation_tile_sensitivity(
    depths: Sequence[int] = (2, 4, 8, 16, 32),
    cores: int = 24,
    machine: Optional[MachineSpec] = None,
) -> str:
    """§5.1: performance sensitivity to the time-tile depth (Heat-2D).

    Runs on a 1/4-linear Heat-2D (600², caches scaled to match) — the
    sensitivity shape is scale-free and small depths on the full grid
    would generate millions of tiny blocks.
    """
    shape = (600, 600)
    steps = 48
    machine = (machine or paper_machine()).scaled_caches(1 / 16)
    spec = get_stencil("heat2d")
    headers = ["b", "GStencil/s", "tasks", "barriers", "traffic GB"]
    rows = []
    from repro.machine.model import simulate

    for b in depths:
        lat = make_lattice(spec, shape, b,
                           core_widths=(1, max(1, 4 * b)))
        sched = tess_schedule(spec, shape, lat, steps, merged=True)
        r = simulate(spec, sched, machine, cores)
        rows.append([b, r.gstencils, len(sched.tasks), r.barriers,
                     r.traffic_gb])
    return format_table(headers, rows)


def validation_matrix(steps: int = 7) -> str:
    """Every scheme × every kernel, verified against the naive sweep.

    The cross-product safety net behind all experiments: every builder
    scheme × the 7 paper kernels, each run through the unified pipeline
    (:func:`repro.api.run` with ``verify=True``) and checked bit-level
    (integer kernels) or to fp tolerance on a small instance.
    """
    from repro.api import RunConfig, Session

    shapes = {1: (64,), 2: (22, 20), 3: (12, 11, 10)}
    kernels = ["heat1d", "1d5p", "heat2d", "2d9p", "life", "heat3d",
               "3d27p"]
    schemes = ["tess-unmerged", "tess", "diamond", "pochoir", "mwd",
               "hexagonal", "skewed", "overlapped", "naive"]
    headers = ["scheme"] + kernels
    rows = []
    for scheme in schemes:
        row = [scheme]
        for kernel in kernels:
            spec = get_stencil(kernel)
            shape = shapes[spec.ndim]
            b = 2 if spec.order > 1 else 3
            backend = ("baseline:overlapped" if scheme == "overlapped"
                       else "serial")
            cfg = RunConfig(scheme=scheme, shape=shape, steps=steps,
                            b=b, backend=backend, verify=True)
            row.append("ok" if Session(spec).run(cfg).ok else "FAIL")
        rows.append(row)
    return format_table(headers, rows)


def ablation_distributed(nodes: Sequence[int] = (1, 2, 4, 8),
                         machine: Optional[MachineSpec] = None) -> str:
    """§4.1 build-out: strong scaling of Heat-2D across cluster nodes."""
    from repro.distributed import ClusterSpec, simulate_distributed
    from repro.stencils.library import get_stencil

    machine = machine or paper_machine()
    spec = get_stencil("heat2d")
    shape = (2400, 2400)
    steps = 96
    lat = make_lattice(spec, shape, 32, core_widths=(1, 128))
    headers = ["nodes", "GStencil/s", "comm GB", "comm %", "speedup"]
    rows = []
    base = None
    for n in nodes:
        r = simulate_distributed(spec, shape, lat, steps,
                                 ClusterSpec(n, machine))
        if base is None:
            base = r.time_s
        rows.append([
            n, f"{r.gstencils:.2f}", f"{r.comm_bytes / 1e9:.3f}",
            f"{r.comm_fraction * 100:.1f}", f"{base / r.time_s:.2f}x",
        ])
    return format_table(headers, rows)


#: Experiment registry for ``python -m repro.bench`` and the test-suite.
ALL_EXPERIMENTS: Dict[str, Callable] = {
    "table1": table1_properties,
    "table4": table4_problems,
    "fig8": fig8_1d,
    "fig9": fig9_life,
    "fig10": fig10_2d,
    "fig11": fig11_3d,
    "fig12": fig12_memory,
    "ablation-sync": ablation_sync_counts,
    "ablation-merge": ablation_merge,
    "ablation-tilesize": ablation_tile_sensitivity,
    "ablation-distributed": ablation_distributed,
    "validation": validation_matrix,
}
