"""Experiment orchestration: configs, presets, CSV artifacts, manifests.

Every setting is declared once, in ``SETTINGS``: its INI key, its INI
section and the help of its flag.  ``parse_setting`` turns the text of one
setting, from the INI file or from its flag, into a config field, so a bad
value is a ``ConfigError`` that names the field.  Each kind's runner takes
the config alone and returns its CSV tables, ``{name: (header, *columns)}``;
``run_experiment`` makes the output directory only once the runner has
returned, and writes every table (comma separator, dot decimal point,
header row, 17 significant digits, LF line endings) through ``write_csv``,
plus a JSON manifest listing the config, code version, wall time, and a
content hash per artifact.  So a run that fails, with exit status 1 or 2,
leaves nothing behind.
``write_csv`` and ``csv_text`` come from :mod:`homokin.csvfmt`, which
formats float columns in bulk to the bytes of '%.17g'.  The ode and
oscillator kinds march 10,000 steps to t = 10 and print every
``PRINT_EVERY``-th step, 1,001 rows a file; the ode kind's sup gaps are
taken over every step.  Each formats its printed time axis once
(``csv_text``) and shares that text among its three time-series files.
The boltzmann kind's sweep points run one after another and share one
solve of the limit (``boltzmann.sweep``), so reruns are byte-identical.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import ConfigError, __version__
from .boltzmann import DEFAULT_SWEEP, INIT_MODES, PLACEMENTS, EnergyGrid, example_presets, sweep
from .cell import CellFunction, PeriodicGrid, sine_profile, two_valued_profile
from .csvfmt import csv_text, write_csv
from .diagnostics import ConvergenceReport
from .kernels import KernelTable, verify_tartar_equivalence
from .multiscale import (
    COUPLED_MAX_CELLS,
    OdeProblem,
    solve_eps_exact,
    three_route_report,
    weak_test_function_errors,
)
from .oscillator import (
    YoungMeasure,
    cell_averaged_limit,
    kernel_components,
    kernel_time_table,
    solve_oscillator_limit,
)
from .transport import (
    TransportGrids,
    coercivity_test,
    hat_initial_data,
    solve_characteristics_eps,
    solve_two_scale_transport,
    subcriticality_check,
    transport_preset,
    windowed_weak_error,
)
from .volterra import TimeGrid

KINDS = ("tartar", "ode", "boltzmann", "transport", "oscillator", "kernel-dump")
# the ode and oscillator kinds print every PRINT_EVERY-th of their 10,000 steps
PRINT_EVERY = 10

# every setting by its INI key (its flag writes _ as -): INI section, flag help
SETTINGS = {
    "kind": ("experiment", None),  # no flag: on the command line, the subcommand
    "preset": ("experiment", "preset id (example number or named preset)"),
    "placement": ("experiment", " | ".join(PLACEMENTS)),
    "init_mode": ("experiment", " | ".join(INIT_MODES)),
    "eps": ("sweep", "comma-separated sweep values, decreasing"),
    "n_cell": ("grids", "periodic-cell nodes (ode, boltzmann)"),
    "n_e": ("grids", "energy nodes of the reference grid (transport)"),
    "n_omega": ("grids", "angles on the circle (transport)"),
    "n_r": ("grids", "spatial labels (transport)"),
    "n_y": ("grids", "cell nodes of the two-scale field (transport)"),
    "out": ("run", "output directory (default $HOMOKIN_OUT or .)"),
    "seed": ("run", "accepted for older configs; seeds nothing"),
    "workers": ("run", "accepted for older configs; runs nothing in parallel"),
}
_GRID_FIELDS = tuple(key for key, (section, _) in SETTINGS.items() if section == "grids")
_INT_FIELDS = _GRID_FIELDS + ("seed", "workers")


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    preset: str = "1"
    placement: str = "inside"
    init_mode: str = "oscillatory"
    epsilons: tuple = tuple(DEFAULT_SWEEP)
    n_cell: int = 256
    n_e: int = 64
    n_omega: int = 16
    n_r: int = 32
    n_y: int = 128
    out_dir: str = "."
    seed: int = 0  # seeds nothing: kept so that configs and callers that set it load
    workers: int = 1  # runs nothing in parallel: kept so that configs and callers that set it load

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"kind: unknown experiment kind {self.kind!r}")
        # built-in numbers only: the manifest dumps the config as JSON
        if not isinstance(self.epsilons, (tuple, list)) or not all(
            isinstance(e, (int, float)) and not isinstance(e, bool) for e in self.epsilons
        ):
            raise ConfigError(
                f"eps: sweep values must be Python int or float, got {self.epsilons!r}"
            )
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(
                    f"{name}: expected a Python int (the manifest is JSON), got {value!r}"
                )
        eps = tuple(float(e) for e in self.epsilons)
        if len(eps) == 0:
            raise ConfigError("eps: the sweep list must not be empty")
        if any(not (0.0 < e <= 1.0) for e in eps):
            raise ConfigError("eps: all sweep values must lie in (0, 1]")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ConfigError("eps: sweep values must be strictly decreasing")
        if self.workers < 1:
            raise ConfigError("workers: worker count must be at least 1")
        if self.placement not in PLACEMENTS:
            raise ConfigError(
                f"placement: must be {' or '.join(PLACEMENTS)}, got {self.placement!r}"
            )
        if self.init_mode not in INIT_MODES:
            raise ConfigError(f"init_mode: must be {' or '.join(INIT_MODES)}")
        if self.seed < 0:
            raise ConfigError("seed: must be a nonnegative integer")
        for name in _GRID_FIELDS:
            if getattr(self, name) < 2:
                raise ConfigError(f"{name}: grid sizes must be at least 2")
        if self.kind == "ode" and self.n_cell > COUPLED_MAX_CELLS:
            raise ConfigError(
                f"n_cell: the ode kind takes at most {COUPLED_MAX_CELLS} cell nodes, "
                f"got {self.n_cell}"
            )
        # each kind sizes the smallest eps's grid without allocating it
        if self.kind == "boltzmann":
            try:
                EnergyGrid.for_epsilon(eps[-1])
            except MemoryError as exc:
                raise ConfigError(f"eps: {exc}") from exc
        if self.kind == "transport":
            try:
                self.transport_grids().eps_energy_count(eps[-1])
            except MemoryError as exc:
                raise ConfigError(f"eps: {exc}") from exc
        if self.kind == "ode" and _weak_x_count(eps[-1]) > WEAK_X_BUDGET:
            raise ConfigError(
                f"eps: the weak study at eps = {eps[-1]:g} needs "
                f"{_weak_x_count(eps[-1])} x-nodes, the budget is {WEAK_X_BUDGET}"
            )

    def transport_grids(self) -> TransportGrids:
        return TransportGrids(
            n_omega=self.n_omega, n_e=self.n_e, n_y=self.n_y, n_r=self.n_r
        )


# x-nodes of the ode kind's weak study, which holds (2, n_x) float arrays
# (solve_eps_exact at nt = 1): 1 MB each at the budget
WEAK_X_BUDGET = 2**16


def _weak_x_count(eps: float) -> int:
    """x-nodes of the ode kind's weak study: 100 per period."""
    return round(100 / eps)


def parse_setting(key: str, text: str, where: str) -> tuple:
    """The config field and value that the text of setting ``key`` gives.

    ``where`` names the setting in a ConfigError: the key for a flag,
    ``section.key`` for the INI file.
    """
    if key == "eps":
        eps = []
        for tok in text.split(","):
            if tok.strip():
                try:
                    eps.append(float(tok))
                except ValueError as exc:
                    raise ConfigError(f"{where}: expected a number, got {tok.strip()!r}") from exc
        return "epsilons", tuple(eps)
    if key in _INT_FIELDS:
        try:
            return key, int(text)
        except ValueError as exc:
            raise ConfigError(f"{where}: expected an integer, got {text!r}") from exc
    return ("out_dir" if key == "out" else key), text


def parse_config_file(path: str) -> dict:
    """Read the flat INI config (inline ``; comments`` allowed) into an override dict.

    A section or key outside ``SETTINGS`` is a ConfigError that names it.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config: cannot read file {path!r}")
    sections = {section for section, _ in SETTINGS.values()}
    overrides: dict = {}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"config: unknown section [{section}] in {path!r}")
        for key, text in parser.items(section):
            if SETTINGS.get(key, ("",))[0] != section:
                raise ConfigError(f"{section}.{key}: unknown configuration key")
            field, value = parse_setting(key, text, f"{section}.{key}")
            overrides[field] = value
    return overrides


def default_out_dir() -> str:
    return os.environ.get("HOMOKIN_OUT", ".")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class ExperimentResult:
    status: int
    files: dict
    message: str = ""


def _write_manifest(config: ExperimentConfig, out_dir, files: dict, wall: float):
    manifest = {
        "kind": config.kind,
        "version": __version__,
        "config": asdict(config),
        "wall_time_s": wall,
        "files": {name: _sha256(path) for name, path in files.items()},
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _cell_sigma(config: ExperimentConfig) -> CellFunction:
    grid, preset = PeriodicGrid(4096), config.preset
    if preset in ("1", "sine"):
        return CellFunction.from_function(grid, sine_profile(2.0, 0.5))
    if preset == "two-valued":
        return CellFunction.from_function(grid, two_valued_profile(1.0, 3.0))
    raise ConfigError(f"preset: unknown cell coefficient preset {preset!r}")


def _run_tartar(config: ExperimentConfig) -> dict:
    sigma = _cell_sigma(config)
    report = verify_tartar_equivalence(sigma, np.array([0.1, 0.5, 1.0, 2.0, 5.0, 10.0]))
    return {
        "tartar_equiv.csv": (
            "p,khat,mhat,numeric,numeric_tail,rel_err",
            report.ps, report.khat, report.mhat, report.numeric, report.numeric_tail,
            np.abs(report.khat - report.mhat) / np.maximum(np.abs(report.mhat), 1e-14),
        )
    }


def _single_problem(config: ExperimentConfig) -> None:
    """The ode and oscillator kinds run one problem, preset 1."""
    if config.preset != "1":
        raise ConfigError(
            f"preset: the {config.kind} kind has only preset '1', got {config.preset!r}"
        )


def _run_ode(config: ExperimentConfig) -> dict:
    _single_problem(config)
    grid = PeriodicGrid(config.n_cell)
    sigma = CellFunction.from_function(grid, sine_profile(2.0, 0.5))
    u_in = CellFunction.from_function(grid, lambda y: 1.0 + np.sin(2 * np.pi * y))
    problem = OdeProblem(sigma, None, u_in, 10.0)
    report = three_route_report(problem, TimeGrid.from_count(10.0, 10000))
    times = csv_text(report["times"][::PRINT_EVERY])  # one axis for the three routes
    tables = {
        f"ode_{route}.csv": ("t,u_hom", times, report[route][::PRINT_EVERY])
        for route in ("closed", "coupled", "volterra")
    }
    tables["ode_summary.csv"] = (
        "pair,sup_difference",
        ("closed-coupled", "closed-volterra", "coupled-volterra", "max-mean-remainder"),
        [report["sup_closed_coupled"], report["sup_closed_volterra"],
         report["sup_coupled_volterra"], report["max_mean_remainder"]],
    )
    # weak-convergence study of the oscillatory route
    target = report["closed"][-1]
    weak_rows = []
    for eps in config.epsilons:
        nx = _weak_x_count(eps)
        x = (np.arange(nx) + 0.5) / nx
        eps_problem = OdeProblem(sigma, None, u_in, 10.0, epsilon=eps)
        sol = solve_eps_exact(eps_problem, x, nt=1)  # only t_end is read
        errs = weak_test_function_errors(x, sol.values[-1] - target)
        for name, err in sorted(errs.items()):
            weak_rows.append((eps, name, err))
    tables["ode_weak.csv"] = ("epsilon,test_fn,weak_error", *zip(*weak_rows))
    return tables


def _run_boltzmann(config: ExperimentConfig) -> dict:
    if not str(config.preset).isdecimal():
        raise ConfigError(f"preset: expected an example number, got {config.preset!r}")
    example_id = int(config.preset)
    # checked on the first sweep eps, before the sweep
    example_presets(
        example_id, config.placement, config.epsilons[0], config.n_cell,
        init_mode=config.init_mode,
    )
    points = sweep(
        example_id, config.placement, config.epsilons,
        n_cell=config.n_cell, init_mode=config.init_mode,
    )
    report = ConvergenceReport.from_sweep(
        np.array([p.epsilon for p in points]),
        np.stack([p.mode_errors for p in points]),
        np.array([p.norm_diff for p in points]),
    )
    rows = [(p.epsilon, k, e) for p in points for k, e in enumerate(p.mode_errors)]
    return {
        "modes.csv": ("epsilon,k,e_k", *zip(*rows)),
        "norm_diff.csv": (
            "epsilon,norm_diff",
            [p.epsilon for p in points], [p.norm_diff for p in points],
        ),
        "rates.csv": (
            "k,slope,residual",
            *zip(*[(k, fit.slope, fit.residual) for k, fit in enumerate(report.fits)]),
        ),
    }


def _run_transport(config: ExperimentConfig) -> dict:
    # preset 1, the default of every kind, is the first transport preset
    params = transport_preset(
        "transport-subcritical-1" if config.preset == "1" else config.preset
    )
    grids = config.transport_grids()
    phi_in = hat_initial_data(0.5)
    t_end = 1.0
    hom = solve_two_scale_transport(params, phi_in, grids, t_end=t_end, n_steps=150)
    rows = []
    # on the n_e reference grid, not the eps grid: the margin aliases at small eps
    for eps in config.epsilons:
        margin = subcriticality_check(params, eps, grids)
        quotient = coercivity_test(params, eps, grids)
        rows.append((eps, margin, quotient))

    counts = [grids.eps_energy_count(eps) for eps in config.epsilons]
    # prefer window widths that hold a whole number of oscillation periods
    # for every sweep eps; otherwise the partial-period residual swamps the
    # weak-convergence signal.  Fall back to grid divisibility alone when
    # the sweep is not commensurable with any window count.
    periods = [(grids.e_max - grids.e_min) / eps for eps in config.epsilons]
    divides = lambda w: all(c % w == 0 for c in counts + [grids.n_e])
    aligned = lambda w: all(abs(q / w - round(q / w)) < 1e-9 for q in periods)
    n_windows = next(
        (w for w in (6, 5, 4, 3, 2, 1) if divides(w) and aligned(w)),
        next(w for w in (6, 5, 4, 3, 2, 1) if divides(w)),
    )
    weak_rows = []
    for eps in config.epsilons:
        sol = solve_characteristics_eps(
            params, phi_in, eps, grids, t_end=t_end, n_steps=150, n_windows=n_windows
        )
        weak_rows.append((eps, windowed_weak_error(sol, hom), sol.sup_l2))
    return {
        "transport_checks.csv": ("epsilon,margin,min_quotient", *zip(*rows)),
        "transport_weak.csv": ("epsilon,weak_error,sup_l2", *zip(*weak_rows)),
    }


def _run_oscillator(config: ExperimentConfig) -> dict:
    _single_problem(config)
    nu = YoungMeasure.two_atoms(1.0, 3.0)
    u_in = np.array([1.0, 0.0])
    grid = TimeGrid.from_count(10.0, 10000)
    u = solve_oscillator_limit(nu, u_in, grid)
    ref = cell_averaged_limit(nu, grid.times, u_in)
    table = kernel_time_table(nu, grid)
    alpha, beta = kernel_components(table)
    shown = slice(None, None, PRINT_EVERY)
    times = csv_text(grid.times[shown])  # the kernel's lags are grid.times too
    return {
        "oscillator_solution.csv": ("t,u1,u2", times, u[shown, 0], u[shown, 1]),
        "oscillator_reference.csv": ("t,u1,u2", times, ref[shown, 0], ref[shown, 1]),
        "oscillator_kernel.csv": ("t,alpha,beta", times, alpha[shown], beta[shown]),
    }


def _run_kernel_dump(config: ExperimentConfig) -> dict:
    table = KernelTable.from_cell_coefficient(_cell_sigma(config), 1e-2, 2000)
    return {"kernel.csv": ("tau,K", table.taus, table.values)}


# every kind's runner: the config in, its CSV tables {name: (header, *columns)} out
_RUNNERS = {
    "tartar": _run_tartar,
    "ode": _run_ode,
    "boltzmann": _run_boltzmann,
    "transport": _run_transport,
    "oscillator": _run_oscillator,
    "kernel-dump": _run_kernel_dump,
}


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute the configured pipeline; returns status and artifact paths.

    The output directory is made and written only once the run has
    succeeded, so a run that exits 1 or 2 leaves nothing behind.
    """
    start = time.time()
    try:
        config.validate()
        tables = _RUNNERS[config.kind](config)
    except ConfigError as exc:
        return ExperimentResult(2, {}, str(exc))
    except (ValueError, MemoryError, RuntimeError) as exc:
        return ExperimentResult(1, {}, f"numerical failure in {config.kind}: {exc}")
    out_dir = config.out_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        return ExperimentResult(2, {}, f"out: cannot make directory {out_dir!r}: {exc.strerror}")
    files = {}
    for name, (header, *columns) in tables.items():
        files[name] = os.path.join(out_dir, name)
        write_csv(files[name], header, *columns)
    files["manifest.json"] = _write_manifest(config, out_dir, files, time.time() - start)
    return ExperimentResult(0, files)


def emit_plot_script(csv_paths, out_path) -> str:
    """Write a declarative matplotlib script consuming only the CSVs.

    Rate CSVs (epsilon,k,e_k) are drawn log-log with one series per mode;
    norm differences on linear axes; both together become the two-panel
    layout; time series (first column t or tau) get one line per column.
    Other CSVs are tables and are not drawn.  The emitted script contains
    no computation beyond reading columns and plotting them.
    """
    panels = []
    for path in map(str, csv_paths):
        if not os.path.exists(path):
            raise FileNotFoundError(f"missing CSV: {path}")
        with open(path) as fh:
            head = fh.readline().strip()
        if head.startswith("epsilon,k,"):
            panels.append(("loglog_modes", path))
        elif head.startswith("epsilon,norm_diff"):
            panels.append(("linear_norm", path))
        elif head.startswith(("t,", "tau,")):
            panels.append(("timeseries", path))
    lines = [
        "#!/usr/bin/env python3",
        '"""Generated plotting script; reads the listed CSVs and draws them."""',
        "import csv",
        "import matplotlib",
        'matplotlib.use("Agg")',
        "import matplotlib.pyplot as plt",
        "",
        "def read_columns(path):",
        "    with open(path) as fh:",
        "        rows = list(csv.reader(fh))",
        "    header, data = rows[0], rows[1:]",
        "    cols = {name: [] for name in header}",
        "    for row in data:",
        "        for name, val in zip(header, row):",
        "            cols[name].append(val)",
        "    return cols",
        "",
        f"fig, axes = plt.subplots(1, {max(1, len(panels))}, "
        f"figsize=({6 * max(1, len(panels))}, 5), squeeze=False)",
        "axes = axes[0]",
    ]
    for idx, (kind, p) in enumerate(panels):
        lines.append(f"cols = read_columns({p!r})")
        lines.append(f"ax = axes[{idx}]")
        if kind == "loglog_modes":
            lines += [
                'eps = [float(v) for v in cols["epsilon"]]',
                'ks = sorted(set(cols["k"]), key=int)',
                "for k in ks:",
                '    xs = [e for e, kk in zip(eps, cols["k"]) if kk == k]',
                '    ys = [float(v) for v, kk in zip(cols["e_k"], cols["k"]) if kk == k]',
                '    ax.loglog(xs, ys, marker="o", label=f"k={k}")',
                'ax.set_xlabel("epsilon"); ax.set_ylabel("e_k"); ax.legend()',
            ]
        elif kind == "linear_norm":
            lines += [
                'ax.plot([float(v) for v in cols["epsilon"]],'
                ' [float(v) for v in cols["norm_diff"]], marker="s")',
                'ax.set_xlabel("epsilon"); ax.set_ylabel("norm difference")',
            ]
        else:
            lines += [
                "names = list(cols)",
                "for name in names[1:]:",
                "    ax.plot([float(v) for v in cols[names[0]]],"
                " [float(v) for v in cols[name]], label=name)",
                "ax.set_xlabel(names[0]); ax.legend()",
            ]
    lines.append('fig.savefig("figure.png", dpi=150)')
    text = "\n".join(lines) + "\n"
    with open(out_path, "w", newline="\n") as fh:
        fh.write(text)
    return text
