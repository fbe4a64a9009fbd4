"""Harness tests: config parsing, CSV dialect, manifests, determinism."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import homokin.boltzmann
import homokin.harness
import homokin.kernels
import homokin.multiscale
import homokin.oscillator
from homokin import csvfmt
from homokin.cell import CellFunction, PeriodicGrid, gauss_poles, sine_profile
from homokin.cli import build_parser, config_from_args, main
from homokin.harness import (
    KINDS,
    ConfigError,
    SETTINGS,
    ExperimentConfig,
    emit_plot_script,
    WEAK_X_BUDGET,
    _weak_x_count,
    csv_text,
    parse_config_file,
    run_experiment,
    write_csv,
)
from homokin.multiscale import COUPLED_MAX_CELLS, OdeProblem, solve_eps_exact
from homokin.oscillator import kernel_time_table
from homokin.volterra import SolverError, TimeGrid


class TestConfigValidation:
    def test_empty_sweep_rejected(self):
        cfg = ExperimentConfig(kind="boltzmann", epsilons=())
        with pytest.raises(ConfigError, match="eps"):
            cfg.validate()

    def test_nondecreasing_sweep_rejected(self):
        cfg = ExperimentConfig(kind="boltzmann", epsilons=(0.05, 0.1))
        with pytest.raises(ConfigError, match="eps"):
            cfg.validate()

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            ExperimentConfig(kind="frobnicate").validate()

    def test_bad_workers_rejected(self):
        with pytest.raises(ConfigError, match="workers"):
            ExperimentConfig(kind="ode", workers=0).validate()

    def test_ode_cell_grid_limited(self):
        ExperimentConfig(kind="ode", n_cell=COUPLED_MAX_CELLS).validate()
        with pytest.raises(ConfigError, match="n_cell"):
            ExperimentConfig(kind="ode", n_cell=COUPLED_MAX_CELLS + 1).validate()
        # only the ode kind runs the coupled route
        ExperimentConfig(kind="tartar", n_cell=4096).validate()

    def test_boltzmann_eps_over_node_budget(self, tmp_path):
        # eps = 1e-5 asks for 10^7 energy nodes against a budget of 2 * 10^6;
        # validation sizes the mesh without allocating it
        out = tmp_path / "out"
        config = ExperimentConfig(kind="boltzmann", epsilons=(0.1, 1e-5), out_dir=str(out))
        result = run_experiment(config)
        assert result.status == 2
        assert result.message.startswith("eps: ")
        assert "10000000 nodes" in result.message
        assert not out.exists()

    def test_transport_eps_over_table_budget(self, tmp_path):
        # eps = 1e-4 asks for 750,000 energy nodes, so n_omega^2 n_E = 1.92e8
        # against the budget of 2^23; validation sizes the grid without
        # allocating it
        ExperimentConfig(kind="transport", epsilons=(0.1, 1 / 256)).validate()
        out = tmp_path / "out"
        config = ExperimentConfig(kind="transport", epsilons=(0.1, 1e-4), out_dir=str(out))
        result = run_experiment(config)
        assert result.status == 2
        assert result.message.startswith("eps: ")
        assert "750000 energy nodes" in result.message
        assert not out.exists()
        # the budget is on table entries, so it tightens with n_omega
        with pytest.raises(ConfigError, match="^eps: "):
            ExperimentConfig(kind="transport", epsilons=(1 / 256,), n_omega=64).validate()

    def test_ode_weak_grid_over_budget(self):
        # 100 x-nodes per period: eps = 100 / 2^16 is the smallest within budget
        ExperimentConfig(kind="ode", epsilons=(0.1, 100 / 2**16)).validate()
        for eps in (0.99 * 100 / 2**16, 1e-7):
            with pytest.raises(ConfigError, match="^eps: .* x-nodes, the budget is 65536"):
                ExperimentConfig(kind="ode", epsilons=(eps,)).validate()
        # only the ode kind runs the weak study on an x grid
        ExperimentConfig(kind="oscillator", epsilons=(1e-7,)).validate()

    @pytest.mark.parametrize(
        "kind, values, field",
        [
            ("boltzmann", dict(epsilons=("0.1",)), "eps"),
            ("ode", dict(epsilons=(0.5, True)), "eps"),
            ("tartar", dict(epsilons=0.1), "eps"),
            ("ode", dict(n_cell=8.0), "n_cell"),
            ("transport", dict(n_e=8.0), "n_e"),
            ("boltzmann", dict(workers=1.5), "workers"),
            ("oscillator", dict(seed=False), "seed"),
            ("kernel-dump", dict(n_y=True), "n_y"),
            ("ode", dict(n_cell=np.int64(8)), "n_cell"),
            ("tartar", dict(epsilons=(np.float32(0.5),)), "eps"),
        ],
    )
    def test_python_api_types_rejected(self, tmp_path, kind, values, field):
        # the CLI and the INI file hand over floats and ints; the Python API
        # can hand over anything, and validation names the field
        out = tmp_path / "out"
        result = run_experiment(ExperimentConfig(kind=kind, out_dir=str(out), **values))
        assert result.status == 2
        assert result.message.startswith(f"{field}: "), result.message
        assert not out.exists()

    def test_run_experiment_reports_config_error(self):
        result = run_experiment(ExperimentConfig(kind="boltzmann", epsilons=()))
        assert result.status == 2
        assert "eps" in result.message


# config field names as the INI file and the flags spell them
FIELD_NAMES = set(SETTINGS)
# one field set to a value that some or every kind rejects; eps = 1e-9 is
# over every eps budget, which validation sizes without allocating
BAD_FIELDS = [
    ("kind", "frobnicate"),
    ("placement", "middle"),
    ("init_mode", "flat"),
    ("epsilons", ()),
    ("epsilons", (0.1, 0.5)),
    ("epsilons", (0.5, 0.5)),
    ("epsilons", (0.0,)),
    ("epsilons", (-0.1,)),
    ("epsilons", (1.5,)),
    ("epsilons", (math.nan,)),
    ("epsilons", (math.inf,)),
    ("epsilons", (0.5, 1e-9)),
    ("n_cell", 1),
    ("n_cell", COUPLED_MAX_CELLS + 1),
    ("n_e", 0),
    ("n_omega", 1),
    ("n_r", -3),
    ("n_y", 1),
    ("seed", -1),
    ("workers", 0),
    # types the CLI never hands over: numbers as text, bools, float sizes
    ("epsilons", ("0.1",)),
    ("epsilons", (True,)),
    ("epsilons", (0.5, False)),
    ("epsilons", "0.1"),
    ("n_cell", 8.0),
    ("n_e", 8.0),
    ("n_omega", True),
    ("n_r", "8"),
    ("n_y", 16.0),
    ("seed", 1.0),
    ("seed", False),
    ("workers", 1.5),
    ("workers", True),
]


@st.composite
def tiny_configs(draw):
    """Tiny grids, a few presets and eps lists, one field bad half the time."""
    epsilons = draw(
        st.lists(
            st.sampled_from((1, 0.5, 0.3, 1 / 10.1, 0.05)),
            min_size=1, max_size=3, unique=True,
        )
    )
    values = dict(
        preset=draw(
            st.sampled_from(("1", "2", "3", "7", "two-valued", "transport-kappa0", "foo"))
        ),
        placement=draw(st.sampled_from(("inside", "outside"))),
        init_mode=draw(st.sampled_from(("oscillatory", "profile"))),
        epsilons=tuple(sorted(epsilons, reverse=True)),
        seed=draw(st.integers(0, 3)),
        workers=draw(st.integers(1, 3)),
        **{name: draw(st.integers(2, 9)) for name in ("n_cell", "n_e", "n_omega", "n_r", "n_y")},
    )
    if draw(st.booleans()):
        name, value = draw(st.sampled_from(BAD_FIELDS))
        values[name] = value
    return values


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=20, deadline=None)
@given(values=tiny_configs())
def test_run_experiment_exits_0_1_or_2_and_names_the_field(kind, values):
    with tempfile.TemporaryDirectory() as out_dir:
        result = run_experiment(
            ExperimentConfig(**{"kind": kind, **values}, out_dir=out_dir)
        )
    assert result.status in (0, 1, 2)
    if result.status == 2:
        assert result.message.split(":")[0] in FIELD_NAMES, result.message


class TestConfigFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[experiment]\nkind = boltzmann\npreset = 2\nplacement = outside\n"
            "[sweep]\neps = 0.099, 0.0497\n"
            "[grids]\nn_cell = 128\n"
            "[run]\nseed = 7\nworkers = 2\n"
        )
        overrides = parse_config_file(str(path))
        assert overrides["preset"] == "2"
        assert overrides["placement"] == "outside"
        assert overrides["epsilons"] == (0.099, 0.0497)
        assert overrides["n_cell"] == 128
        assert overrides["workers"] == 2

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[grids]\nn_q = 12\n")
        with pytest.raises(ConfigError, match="n_q"):
            parse_config_file(str(path))

    def test_malformed_sweep_value_named(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[sweep]\neps = 0.1,zz\n")
        with pytest.raises(ConfigError, match="eps: .*'zz'"):
            parse_config_file(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="config"):
            parse_config_file("/nonexistent/path.ini")

    def test_readme_example_parses(self, tmp_path):
        # the README's INI block, inline "; comments" and all
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.ini"
        path.write_text(block)
        overrides = parse_config_file(str(path))
        assert overrides["preset"] == "1"
        assert overrides["n_cell"] == 256
        assert overrides["placement"] == "inside"
        assert overrides["epsilons"][0] == 0.0990099


def per_value(v):
    """The dialect's text of one value: %.17g for floats, str for the rest."""
    return f"{v:.17g}" if isinstance(v, (float, np.floating)) else str(v)


def reference_csv(header, columns):
    """The dialect's bytes, built row by row and value by value."""
    rows = zip(*columns)
    return (header + "\n" + "".join(",".join(map(per_value, r)) + "\n" for r in rows)).encode()


# nan, +-inf, -0.0, the smallest and largest subnormals, +-1e308, and
# values whose repr is shorter than their 17 digits
SPECIAL_FLOATS = (
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.225073858507201e-308,
    1e308, -1e308, 0.1, 1.0 / 3.0, 2.5e17,
)
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
INTS = st.integers(-(2**63), 2**63 - 1)
TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=6)


@st.composite
def csv_columns(draw):
    """1-4 columns of 0-50 rows, each a float array or a per-value sequence."""
    n = draw(st.integers(0, 50))
    values = lambda strategy: draw(st.lists(strategy, min_size=n, max_size=n))
    columns = []
    for kind in draw(st.lists(st.sampled_from(range(5)), min_size=1, max_size=4)):
        if kind == 0:
            columns.append(np.array(values(FLOATS), dtype=float))
        elif kind == 1:
            columns.append(values(INTS))
        elif kind == 2:
            columns.append([np.int64(v) for v in values(INTS)])
        elif kind == 3:
            columns.append(values(TEXT))
        else:
            columns.append(tuple(values(st.one_of(
                FLOATS, FLOATS.map(np.float64), INTS, INTS.map(np.int64), TEXT, st.booleans()
            ))))
    return columns


class TestCsvDialect:
    def test_seventeen_digits_and_lf(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, "a,b", np.array([1.0 / 3.0]), [2])
        raw = path.read_bytes()
        assert b"\r" not in raw
        text = raw.decode()
        assert text.splitlines()[0] == "a,b"
        assert text.splitlines()[1] == "0.33333333333333331,2"
        assert float(text.splitlines()[1].split(",")[0]) == 1.0 / 3.0

    def test_mixed_types_match_per_value_formatting(self, tmp_path):
        rows = [
            ("closed-coupled", 1.0 / 3.0, 7, np.int64(-12), np.float64(2.0 / 3.0)),
            ("t", np.float64(1e-300), np.int64(0), 5, -0.0),
            (np.float64(np.pi), "x", 2.5e17, np.int64(2**40), float("inf")),
            ("%s", 0.1, 1, np.int64(1), np.float64(1e22)),
        ]
        path = tmp_path / "mixed.csv"
        write_csv(path, "a,b,c,d,e", *zip(*rows))
        expected = "a,b,c,d,e\n" + "".join(",".join(map(per_value, r)) + "\n" for r in rows)
        assert path.read_bytes() == expected.encode()
        write_csv(path, "a", [])
        assert path.read_bytes() == b"a\n"
        write_csv(path, "a,b", np.array([]), [])
        assert path.read_bytes() == b"a,b\n"

    def test_columns_of_other_lengths_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "x.csv", "a,b", np.array([1.0, 2.0]), [1])

    # 0.1 reads "0.1" under repr and "0.10000000000000001" in the dialect
    @example(columns=[np.array([0.1]), [0.1]], shared=[False, True])
    @settings(max_examples=100, deadline=None)
    @given(columns=csv_columns(), shared=st.lists(st.booleans(), min_size=4, max_size=4))
    def test_columns_match_per_value_reference(self, columns, shared):
        header = ",".join("abcd"[: len(columns)])
        expected = reference_csv(header, columns)
        with tempfile.TemporaryDirectory() as out_dir:
            path = Path(out_dir) / "x.csv"
            write_csv(path, header, *columns)
            assert path.read_bytes() == expected
            # a csv_text column is the same text, formatted ahead of the file
            texts = [csv_text(c) if s else c for c, s in zip(columns, shared)]
            write_csv(path, header, *texts)
            assert path.read_bytes() == expected


def written(header, *columns) -> bytes:
    """The bytes ``write_csv`` writes for ``columns``."""
    with tempfile.TemporaryDirectory() as out_dir:
        path = Path(out_dir) / "x.csv"
        write_csv(path, header, *columns)
        return path.read_bytes()


def assert_per_value(x):
    """A float column, itself and through ``csv_text``, next to its negation,
    writes the per-value reference's bytes."""
    expected = reference_csv("a,b", [x, -x])
    assert written("a,b", x, -x) == expected
    assert written("a,b", csv_text(x), -x) == expected


def percent_path_csv(path, header, *columns):
    """The writer the bulk formatter replaced: one % operation over the
    file, float arrays in %.17g slots and text in %s slots."""
    slots = ["%.17g" if isinstance(c, np.ndarray) else "%s" for c in columns]
    values = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    flat = [v for row in zip(*values) for v in row]
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        fh.write((",".join(slots) + "\n") * len(values[0]) % tuple(flat))


# the nearest doubles to 10^k, k = -307..307
POW10 = np.array([float(f"1e{k}") for k in range(-307, 308)])


def neighbours(centres, count):
    """The ``count`` doubles on each side of each centre, and the centres."""
    steps = np.arange(-count, count + 1)
    return (np.asarray(centres).view(np.int64)[:, None] + steps).view(np.float64).ravel()


class TestFloatFormatter:
    """Float columns are formatted in bulk, byte for byte as '%.17g'; the
    bulk path runs for files of more than ``csvfmt._SMALL`` rows."""

    @settings(max_examples=60, deadline=None)
    @given(bits=hnp.arrays(np.uint64, st.integers(0, 3000), elements=st.integers(0, 2**64 - 1)))
    def test_raw_bit_patterns(self, bits):
        assert_per_value(bits.view(np.float64))

    def test_powers_of_ten_and_their_neighbours(self):
        assert_per_value(neighbours(POW10, 1))

    def test_near_ties(self):
        # 18-digit decimals ending in 5 lie within a few units of the last
        # place of a tie at 17 digits; 2^-25 = 2.98023223876953125e-08 is one
        rng = np.random.default_rng(35)
        mantissas = rng.integers(10**16, 10**17, 20000) * 10 + 5
        exponents = rng.integers(-30, 50, 20000)
        x = [float(f"{m}e{k}") for m, k in zip(mantissas.tolist(), exponents.tolist())]
        assert_per_value(np.array(x + [2.0**-k for k in range(1, 80)]))
        assert "%.17g" % 2.0**-25 == "2.9802322387695312e-08"

    def test_rollover_and_the_form_boundaries(self):
        # 99999999999999999.5 and up round to 1e+17, as the double nearest
        # 1e-14, below 10^-14, prints 1e-14; %g switches form at 1e-4 / 1e-5
        # and 1e16 / 1e17, and the bulk path takes magnitudes in [1e-11, 1e17)
        centres = [1e-5, 1e-4, 1e16, 1e17, 99999999999999999.5, 1e-14, 1e-11, 1e-12]
        assert "%.17g" % 99999999999999999.5 == "1e+17"
        assert Fraction(1e-14) < Fraction(1, 10**14) and "%.17g" % 1e-14 == "1e-14"
        assert_per_value(neighbours(centres, 300))

    def test_subnormals_zeros_and_non_finite(self):
        subnormals = (np.arange(1, 300) * 12345678901).view(np.float64)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, 2.2250738585072014e-308]
        assert_per_value(np.concatenate([subnormals, special, subnormals]))

    def test_a_short_long_double_takes_the_percent_route(self, monkeypatch):
        # the bulk path needs 64 mantissa bits; without them every value is
        # formatted by '%' one at a time, to the same bytes
        assert not csvfmt._wide_enough(np.float64)
        assert csvfmt._EXACT == (np.finfo(np.longdouble).nmant >= 63)
        x = np.concatenate([neighbours(POW10[290:330], 3), np.random.default_rng(1).normal(size=999)])
        expected = reference_csv("a,b", [x, -x])
        by_percent = []
        texts = csvfmt._texts
        monkeypatch.setattr(csvfmt, "_texts", lambda t, w=None: by_percent.append(len(t)) or texts(t, w))
        monkeypatch.setattr(csvfmt, "_EXACT", csvfmt._wide_enough(np.float64))
        assert written("a,b", x, -x) == expected
        assert sum(by_percent) == 2 * len(x)

    def test_text_with_nul_and_non_ascii(self):
        # kept bytes are a mask, not "every byte but NUL"
        words = ["\0", "a\0", "\0b", "ünïcödé", "€", "", "x" * 40, "1e+17"]
        for n in (7, 600):
            text = [words[j % len(words)] for j in range(n)]
            x = np.linspace(-1.0, 1.0, n)
            expected = reference_csv("s,x", [text, x])
            assert written("s,x", text, x) == expected
            assert written("s,x", csv_text(text), csv_text(x)) == expected

    def test_peak_memory_of_a_time_series_file(self, tmp_path):
        # the oscillator kind's solution file: a shared time column and two
        # float columns of 10,001 rows; the % writer peaked at 1.95 MB
        times = TimeGrid.from_count(10.0, 10000).times
        u1, u2 = np.cos(3.0 * times), np.sin(times)
        paths = tmp_path / "bulk.csv", tmp_path / "percent.csv"

        def peak(write, path, text):
            write(path, "t,u1,u2", text, u1, u2)  # numpy's first-call caches
            tracemalloc.start()
            try:
                write(path, "t,u1,u2", text, u1, u2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        bulk = peak(write_csv, paths[0], csv_text(times))
        percent = peak(percent_path_csv, paths[1], tuple("%.17g" % t for t in times.tolist()))
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert bulk <= percent + 1e6, (bulk, percent)


class TestExperiments:
    def test_kernel_dump(self, tmp_path):
        cfg = ExperimentConfig(kind="kernel-dump", preset="two-valued", out_dir=str(tmp_path))
        result = run_experiment(cfg)
        assert result.status == 0
        lines = open(result.files["kernel.csv"]).read().splitlines()
        assert lines[0] == "tau,K"
        first = float(lines[1].split(",")[1])
        assert abs(first - 1.0) < 1e-10  # variance of the two-valued profile

    def test_manifest_lists_hashes(self, tmp_path):
        cfg = ExperimentConfig(kind="kernel-dump", preset="two-valued", out_dir=str(tmp_path))
        result = run_experiment(cfg)
        manifest = json.load(open(result.files["manifest.json"]))
        assert manifest["kind"] == "kernel-dump"
        assert "kernel.csv" in manifest["files"]
        assert len(manifest["files"]["kernel.csv"]) == 64
        assert manifest["wall_time_s"] >= 0.0

    def test_ode_weak_study_reads_the_last_row_of_a_full_march(self):
        # the weak study marches one step to t_end; linspace ends exactly at
        # t_end, so its row is bitwise the last row of a 200-step march, over
        # the default sweep and the budget edge
        grid = PeriodicGrid(256)
        sigma = CellFunction.from_function(grid, sine_profile(2.0, 0.5))
        u_in = CellFunction.from_function(grid, lambda y: 1.0 + np.sin(2 * np.pi * y))
        for eps in ExperimentConfig(kind="ode").epsilons + (100 / WEAK_X_BUDGET,):
            nx = _weak_x_count(eps)
            x = (np.arange(nx) + 0.5) / nx
            problem = OdeProblem(sigma, None, u_in, 10.0, epsilon=eps)
            one = solve_eps_exact(problem, x, nt=1)
            full = solve_eps_exact(problem, x, nt=200)
            assert one.times[-1] == full.times[-1] == 10.0
            assert np.array_equal(one.values[-1], full.values[-1]), eps

    def test_sweep_determinism_across_workers(self, tmp_path):
        # workers = 8 twice: more threads than sweep points, and a rerun
        outs = {}
        for run, workers in (("w1", 1), ("w2", 2), ("w8", 8), ("w8-again", 8)):
            out = tmp_path / run
            cfg = ExperimentConfig(
                kind="boltzmann",
                preset="1",
                placement="inside",
                epsilons=(1 / 10.1, 1 / 20.1, 1 / 40.1),
                out_dir=str(out),
                workers=workers,
            )
            result = run_experiment(cfg)
            assert result.status == 0
            outs[run] = out
        for name in ("modes.csv", "norm_diff.csv", "rates.csv"):
            b1 = (outs["w1"] / name).read_bytes()
            for run in ("w2", "w8", "w8-again"):
                assert (outs[run] / name).read_bytes() == b1, (run, name)

    def test_sweep_points_run_on_the_calling_thread(self, tmp_path, monkeypatch):
        # workers is accepted and starts no thread: each point runs on the
        # main thread, in sweep order, and the CSVs are those of workers = 1
        ran = []
        point_errors = homokin.boltzmann._point_errors

        def record(problem, hom, k_max, egrid):
            ran.append((threading.current_thread(), problem.epsilon))
            return point_errors(problem, hom, k_max, egrid)

        monkeypatch.setattr(homokin.boltzmann, "_point_errors", record)
        epsilons = (1 / 10.1, 1 / 20.1, 1 / 40.1)
        outs = {}
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            cfg = ExperimentConfig(
                kind="boltzmann", epsilons=epsilons, out_dir=str(out), workers=workers
            )
            assert run_experiment(cfg).status == 0
            outs[workers] = out
        assert ran == [(threading.main_thread(), eps) for eps in 2 * epsilons]
        for name in ("modes.csv", "norm_diff.csv", "rates.csv"):
            assert (outs[2] / name).read_bytes() == (outs[1] / name).read_bytes(), name


# each kind at small grids; the ode and oscillator kinds march 10,000 steps
KIND_ARGS = {
    "tartar": [],
    "ode": ["--n-cell", "16", "--eps", "0.5"],
    "boltzmann": ["--n-cell", "16", "--eps", "0.5,0.25"],
    "transport": ["--n-r", "8", "--n-e", "12", "--n-y", "16", "--n-omega", "4", "--eps", "0.5"],
    "oscillator": [],
    "kernel-dump": ["--preset", "two-valued"],
}
# files of one kind that share its time axis, first column "t"
TIME_SERIES = {
    "ode": ("ode_closed.csv", "ode_coupled.csv", "ode_volterra.csv"),
    "oscillator": (
        "oscillator_solution.csv", "oscillator_reference.csv", "oscillator_kernel.csv"
    ),
}


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_writes_the_dialect(kind, tmp_path, monkeypatch):
    tables = []

    def recording_kernel_time_table(nu, grid):
        table = kernel_time_table(nu, grid)
        tables.append((table, grid))
        return table

    monkeypatch.setattr(homokin.harness, "kernel_time_table", recording_kernel_time_table)
    assert main([kind, *KIND_ARGS[kind], "--out", str(tmp_path)]) == 0
    csvs = sorted(tmp_path.glob("*.csv"))
    assert csvs
    for path in csvs:
        raw = path.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n"), path.name
        for line in raw.decode().splitlines()[1:]:
            for field in line.split(","):
                try:
                    value = float(field)
                except ValueError:
                    continue  # a name, such as a test function's
                assert field == "%.17g" % value, (path.name, line)
    axes = [
        [line.split(",", 1)[0] for line in (tmp_path / name).read_text().splitlines()]
        for name in TIME_SERIES.get(kind, ())
    ]
    assert all(axis == axes[0] for axis in axes)
    assert all(axis[0] == "t" for axis in axes)
    if kind == "oscillator":
        # the kernel file shares the solution's axis: on the grid the kind
        # runs, the kernel's lags are bitwise the grid's times
        (table, grid), = tables
        assert table.taus.tobytes() == grid.times.tobytes()


class TestPlotScript:
    def test_rate_csv_gets_loglog(self, tmp_path):
        rates = tmp_path / "modes.csv"
        write_csv(rates, "epsilon,k,e_k", np.array([0.1, 0.05]), [0, 0], np.array([0.5, 0.25]))
        assert rates.read_bytes() == b"epsilon,k,e_k\n0.10000000000000001,0,0.5\n0.050000000000000003,0,0.25\n"
        out = tmp_path / "plot.py"
        text = emit_plot_script([rates], out)
        assert "loglog" in text
        assert str(rates) in text
        compile(text, str(out), "exec")  # the emitted script must parse

    def test_norm_diff_linear_panel(self, tmp_path):
        nd = tmp_path / "norm_diff.csv"
        write_csv(nd, "epsilon,norm_diff", [0.1, 0.05], [0.5, 0.25])
        assert nd.read_bytes() == b"epsilon,norm_diff\n0.10000000000000001,0.5\n0.050000000000000003,0.25\n"
        text = emit_plot_script([nd], tmp_path / "plot.py")
        assert "norm difference" in text
        assert "loglog" not in text

    def test_two_panel_layout(self, tmp_path):
        rates = tmp_path / "modes.csv"
        nd = tmp_path / "norm_diff.csv"
        write_csv(rates, "epsilon,k,e_k", [0.1], [0], [0.5])
        write_csv(nd, "epsilon,norm_diff", np.array([0.1]), np.array([0.5]))
        text = emit_plot_script([rates, nd], tmp_path / "plot.py")
        assert "subplots(1, 2" in text

    def test_missing_file_error(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nope.csv"):
            emit_plot_script([tmp_path / "nope.csv"], tmp_path / "plot.py")


class TestCli:
    def test_parser_has_all_subcommands(self):
        parser = build_parser()
        for kind in ("tartar", "ode", "boltzmann", "transport", "oscillator",
                     "kernel-dump", "plot"):
            args = parser.parse_args(
                [kind, "x.csv"] if kind == "plot" else [kind]
            )
            assert args.command == kind

    def test_flag_override_of_config(self, tmp_path):
        ini = tmp_path / "c.ini"
        ini.write_text("[experiment]\nkind = boltzmann\nplacement = inside\n")
        parser = build_parser()
        args = parser.parse_args(
            ["boltzmann", "--config", str(ini), "--placement", "outside",
             "--eps", "0.099,0.0497", "--out", str(tmp_path)]
        )
        cfg = config_from_args(args)
        assert cfg.placement == "outside"
        assert cfg.epsilons == (0.099, 0.0497)

    def test_env_default_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOMOKIN_OUT", str(tmp_path))
        parser = build_parser()
        args = parser.parse_args(["kernel-dump", "--preset", "two-valued"])
        cfg = config_from_args(args)
        assert cfg.out_dir == str(tmp_path)

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        # an increasing sweep, and a value that is no number
        for eps in ("0.5,0.7", "0.1,abc"):
            code = main(["boltzmann", "--eps", eps, "--out", str(tmp_path)])
            assert code == 2
            assert "eps" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--preset", "x"], "preset"),
            (["--preset", "7"], "preset"),
            (["--preset", "2", "--n-cell", "255"], "n_cell"),
            # a superscript digit is a digit to str.isdigit, not to int()
            (["--preset", "²"], "preset"),
        ],
    )
    def test_boltzmann_config_exit_code(self, tmp_path, capsys, flags, field):
        code = main(["boltzmann", *flags, "--eps", "0.1", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: ")
        assert "numerical failure" not in err

    @pytest.mark.parametrize(
        "flags, prefix",
        [
            # a flag's text that is no value of its field is a config error
            (["--n-cell", "abc"], "config error: n_cell: "),
            (["--workers", "1.5"], "config error: workers: "),
            # a value outside a field's choices fails validation
            (["--placement", "sideways"], "error: placement: "),
            (["--init-mode", "flat"], "error: init_mode: "),
        ],
    )
    def test_bad_flag_value_names_the_field(self, tmp_path, capsys, flags, prefix):
        code = main(["boltzmann", *flags, "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith(prefix)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", [key for key in SETTINGS if key != "kind"])
    def test_flag_and_ini_set_the_same_field(self, tmp_path, monkeypatch, key):
        monkeypatch.setenv("HOMOKIN_OUT", str(tmp_path))
        text = {
            "preset": "2", "placement": "outside", "init_mode": "profile",
            "eps": "0.5, 0.25", "out": str(tmp_path / "out"),
        }.get(key, "7")
        ini = tmp_path / "c.ini"
        ini.write_text(f"[{SETTINGS[key][0]}]\n{key} = {text}\n")
        parser = build_parser()
        by_flag = config_from_args(parser.parse_args(["ode", "--" + key.replace("_", "-"), text]))
        by_ini = config_from_args(parser.parse_args(["ode", "--config", str(ini)]))
        assert by_flag == by_ini
        assert by_flag != config_from_args(parser.parse_args(["ode"]))

    @pytest.mark.parametrize("out", ["", "file"])
    def test_output_directory_that_cannot_be_made(self, tmp_path, monkeypatch, capsys, out):
        # os.makedirs raises FileNotFoundError for "" and FileExistsError
        # for an existing file
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("")
        result = run_experiment(ExperimentConfig(kind="tartar", out_dir=out))
        assert result.status == 2
        assert result.message.startswith("out: "), result.message
        assert main(["tartar", "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: out: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["transport", "--preset", "foo"],
            ["transport", "--preset", "transport-foo"],
            ["ode", "--preset", "two-valued"],
            ["oscillator", "--preset", "7"],
        ],
    )
    def test_unknown_preset_exit_code(self, tmp_path, capsys, argv):
        code = main([*argv, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: preset: ")
        assert repr(argv[-1]) in err
        assert not any(tmp_path.iterdir())

    def test_kernel_pole_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        def corrupted(values, weights, v, taus):
            poles, residues = gauss_poles(values, weights, v, taus)
            return poles, 2.0 * residues

        monkeypatch.setattr(homokin.kernels, "gauss_poles", corrupted)
        code = main(["kernel-dump", "--preset", "two-valued", "--out", str(tmp_path)])
        assert code == 1
        assert "variance identity" in capsys.readouterr().err

    def test_volterra_solver_error_exit_code(self, tmp_path, monkeypatch, capsys):
        def singular(problem, grid):
            raise SolverError("implicit factor 0.000e+00 is singular")

        monkeypatch.setattr(homokin.multiscale, "solve_volterra", singular)
        code = main(["ode", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "numerical failure in ode" in err
        assert "singular" in err

    def test_oscillator_singular_factor_exit_code(self, tmp_path, monkeypatch, capsys):
        # the real solver, on a decay coefficient a = -(2/dt)(I - dt^2/4 K(0))
        # that zeroes the implicit factor I + dt/2 a - dt^2/4 K(0)
        real = homokin.oscillator.solve_volterra

        def singular_decay(problem, grid):
            k0 = problem.kernel.values[0]
            a = -(2.0 / grid.dt) * (np.eye(2) - 0.25 * grid.dt**2 * k0)
            return real(dataclasses.replace(problem, a=a), grid)

        monkeypatch.setattr(homokin.oscillator, "solve_volterra", singular_decay)
        code = main(["oscillator", "--out", str(tmp_path)])
        assert code == 1
        assert "singular" in capsys.readouterr().err

    def test_transport_data_between_r_nodes_exit_code(self, tmp_path, capsys):
        # the hat of support 0.5 vanishes on the four r-nodes +-0.5, +-1.5
        code = main(
            ["transport", "--n-r", "4", "--n-e", "12", "--n-y", "16",
             "--n-omega", "4", "--eps", "0.5", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "n_r" in capsys.readouterr().err

    def test_source_rule_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        # the ode kind's source table: a rule whose amplitudes miss <sigma u_in>
        def corrupted(values, weights, v, taus):
            rates, amplitudes = gauss_poles(values, weights, v, taus)
            return rates, amplitudes if v is values else 2.0 * amplitudes

        monkeypatch.setattr(homokin.kernels, "gauss_poles", corrupted)
        code = main(["ode", "--out", str(tmp_path)])
        assert code == 1
        assert "lag 0" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only; the package runs on numpy alone
    code = "import sys, homokin.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
