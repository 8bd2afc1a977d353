"""Config parsing, experiment artifacts and the command line."""
from __future__ import annotations

import csv
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import riskcal
from conftest import scalar_posterior
from riskcal.cli import (
    ConfigError,
    ExperimentConfig,
    _load_dataset,
    _prepare_repetition,
    build_parser,
    config_stem,
    config_to_text,
    main,
    parse_config,
    resolved_m0,
    resolved_train_size,
    run_experiment,
    sweep,
)
from riskcal.calibration import ml, rc
from riskcal.data import DataError, infer_schema, load_csv, write_csv
from riskcal.model import uniform_init
from riskcal.network import read_edge_list
from riskcal.sim import METRICS_COLUMNS
from riskcal.synth import GENERATORS


def gen_dataset(tmp_path, m=900, kind="blobs", seed=0):
    out = tmp_path / f"{kind}.csv"
    rc = main(["gendata", "--kind", kind, "--m", str(m), "--seed", str(seed),
               "--out", str(out)])
    assert rc == 0
    return out


def assert_cells_exact(path):
    """Every numeric cell of a written CSV is an integer literal or a float at repr precision."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    for cell in (c for row in rows for c in row):
        try:
            value = float(cell)
        except ValueError:
            continue  # a text cell such as a model or axis name
        assert cell.lstrip("-").isdigit() or repr(value) == cell, (path.name, cell)


def tiny_config(tmp_path, **extra):
    ds = gen_dataset(tmp_path)
    base = dict(dataset=str(ds), n=4, m_v=30, t_max=4, repetitions=2, test_size=200)
    base.update(extra)
    return ExperimentConfig(**base)


def test_defaults_from_empty_config(tmp_path):
    empty = tmp_path / "empty.cfg"
    empty.write_text("")
    cfg = parse_config(empty, {})
    assert cfg == ExperimentConfig()
    assert cfg.n == 50 and cfg.m_v == 50 and cfg.t_max == 64
    assert cfg.iter == 1 and cfg.lr == 0.05 and cfg.m0 == "heuristic"
    assert cfg.topology == "tree" and cfg.neighborhood == "closed"
    assert cfg.partition == "iid" and cfg.delta is None
    assert cfg.test_size == 1000 and cfg.seed == 0 and cfg.repetitions == 5
    assert resolved_m0(cfg) == 1000.0
    assert resolved_train_size(cfg) == 2500


def test_parse_config_file_and_overrides(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text(
        "# comment line\n"
        "\n"
        "n = 10\n"
        "m_v = 20\n"
        "topology = tree+8\n"
        "delta = inf\n"
        "m0 = 250.5\n"
        "lr = 0.1\n"
    )
    cfg = parse_config(p, {"lr": "0.2", "delta": "4"})
    assert cfg.n == 10 and cfg.m_v == 20
    assert cfg.topology == "tree+8"
    assert cfg.lr == 0.2  # flag beats file
    assert cfg.delta == 4
    assert cfg.m0 == 250.5
    assert resolved_m0(cfg) == 250.5


def test_parse_config_unknown_key(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("friction = 9\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(p, {})
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(None, {"friction": "9"})


def test_parse_config_drops_a_byte_order_mark(tmp_path):
    p = tmp_path / "bom.cfg"
    p.write_text("\ufeffn = 4\nm_v = 25\n", encoding="utf-8")
    assert parse_config(p, {}) == ExperimentConfig(n=4, m_v=25)


def test_parse_config_bad_values(tmp_path):
    with pytest.raises(ConfigError, match="bad value"):
        parse_config(None, {"n": "many"})
    with pytest.raises(ConfigError, match=r"^lr must be > 0 and finite, got 0.0$"):
        parse_config(None, {"lr": "0"})
    for key in ("lr", "m0", "ml_smoothing"):
        for text in ("inf", "nan"):
            with pytest.raises(ConfigError, match=f"{key} must be .* finite"):
                parse_config(None, {key: text})
    with pytest.raises(ConfigError, match="topology"):
        parse_config(None, {"topology": "moebius"})
    with pytest.raises(ConfigError, match="neighborhood 'open' needs n >= 2"):
        parse_config(None, {"topology": "full", "neighborhood": "open", "n": "1"})
    parse_config(None, {"topology": "full", "neighborhood": "closed", "n": "1"})
    with pytest.raises(ConfigError, match="delta"):
        parse_config(None, {"delta": "0"})
    with pytest.raises(ConfigError, match="train_size"):
        parse_config(None, {"train_size": "100"})  # cannot cover 50*50
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        p = tmp_path / "noeq.cfg"
        p.write_text("just words\n")
        parse_config(p, {})


def test_a_config_is_checked_when_built():
    # No parse and no run: building the config, directly or by replace, is the check.
    with pytest.raises(ConfigError, match=r"^n must be >= 1, got 0$"):
        ExperimentConfig(n=0)
    with pytest.raises(ConfigError, match=r"^cannot add 5 edges, only 3 absent$"):
        replace(ExperimentConfig(n=4), topology="tree+5")
    with pytest.raises(ConfigError, match=r"^unknown partition 'weird'$"):
        ExperimentConfig(partition="weird")
    with pytest.raises(ConfigError, match=r"^topology 'chain' needs n >= 2$"):
        ExperimentConfig(n=1, topology="chain")
    with pytest.raises(ConfigError, match=r"^neighborhood must be 'open' or 'closed', got 'semi'$"):
        ExperimentConfig(neighborhood="semi")


@pytest.mark.parametrize("key, value", [
    ("m0", "abc"), ("n", "4"), ("lr", "0.1"), ("ml_smoothing", "x"), ("n", 4.5), ("iter", 2.5), ("delta", 2.5),
    ("train_size", 3000.0), ("n", True), ("lr", True), ("m0", np.bool_(True)), ("dataset", 3),
    ("label_column", 1.0), ("seed", -1), ("label_column", "3"), ("label_column", "-1"), ("label_column", " y"),
    ("label_column", "y\t"),
])
def test_a_config_refuses_a_wrong_type_or_a_negative_seed(key, value):
    # Built directly, each key's type is checked before its value, and the refusal names the key.  A label
    # name that reads as an integer or has surrounding whitespace is refused: its echo "label_column = 3"
    # would read back as position 3, and " y" as "y".
    with pytest.raises(ConfigError, match=f"^{key} must be "):
        ExperimentConfig(**{key: value})


def test_a_config_takes_numpy_numbers_and_every_parsed_word():
    ExperimentConfig(n=np.int64(4), m_v=np.int32(25), seed=np.uint8(3), lr=np.float32(0.5), m0=7, ml_smoothing=0,
                     delta=np.int64(2), label_column=0, dataset="d.csv")
    cfg = parse_config(None, {"m0": "heuristic", "delta": "inf", "train_size": "auto", "label_column": "3"})
    assert (cfg.m0, cfg.delta, cfg.train_size, cfg.label_column) == ("heuristic", None, None, 3)


def test_a_config_of_numpy_numbers_is_the_plain_config(tmp_path):
    # Numbers are kept as plain ones: the same stem, and an echo that reads back equal.
    plain = ExperimentConfig(n=4, m_v=25, lr=0.1, m0=7.0, ml_smoothing=2.0, delta=2, train_size=200, label_column=0)
    numpy = ExperimentConfig(n=np.int64(4), m_v=np.int32(25), lr=np.float64(0.1), m0=np.float32(7.0),
                             ml_smoothing=np.float64(2.0), delta=np.int64(2), train_size=np.uint16(200),
                             label_column=np.int64(0))
    assert config_stem(numpy) == config_stem(plain)
    assert config_to_text(numpy) == config_to_text(plain)
    p = tmp_path / "echo.cfg"
    p.write_text(config_to_text(numpy))
    assert parse_config(p, {}) == numpy == plain


def test_run_refuses_a_negative_seed_before_creating_its_outdir(tmp_path, capsys):
    out = tmp_path / "never"
    assert main(["run", "--dataset", "d.csv", "--seed", "-1", "--outdir", str(out)]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


def test_config_round_trip(tmp_path):
    for cfg in (
        ExperimentConfig(),
        ExperimentConfig(dataset="d.csv", n=8, m_v=10, delta=4, m0=123.0,
                         topology="tree+20", partition="drift_xy", lr=0.125,
                         train_size=200, label_column=3, workers=4),
    ):
        p = tmp_path / "round.cfg"
        p.write_text(config_to_text(cfg))
        assert parse_config(p, {}) == cfg


def test_config_stem_is_pure_and_distinct():
    a = ExperimentConfig(dataset="data/blobs.csv")
    assert config_stem(a) == config_stem(ExperimentConfig(dataset="data/blobs.csv"))
    assert config_stem(a) != config_stem(ExperimentConfig(dataset="data/blobs.csv", seed=1))
    assert "+" not in config_stem(ExperimentConfig(dataset="x.csv", topology="tree+8"))


def test_gendata_writes_loadable_csv(tmp_path):
    out = gen_dataset(tmp_path, m=120, kind="mixed", seed=3)
    schema, ds = infer_schema(load_csv(out, "y"))
    assert ds.m == 120
    assert schema.d == 4
    # Eleven codes would reload as a continuous column.
    wide = tmp_path / "wide.csv"
    assert main(["gendata", "--kind", "categorical", "--m", "120", "--cardinality", "11",
                 "--out", str(wide)]) == 1
    assert not wide.exists()
    # A label-only CSV would train a chance-level model.
    for kind in ("blobs", "categorical"):
        empty = tmp_path / f"{kind}_d0.csv"
        assert main(["gendata", "--kind", kind, "--m", "120", "--d", "0", "--out", str(empty)]) == 1
        assert not empty.exists()


def test_gendata_defaults_are_the_generators(tmp_path):
    for kind, m, seed in (("blobs", 50, 4), ("categorical", 60, 5), ("mixed", 70, 6)):
        want = tmp_path / f"{kind}_want.csv"
        write_csv(GENERATORS[kind](m, rng=np.random.default_rng(seed)), want)
        got = gen_dataset(tmp_path, m=m, kind=kind, seed=seed)
        assert got.read_bytes() == want.read_bytes()


def test_gendata_flags_are_the_generator_keywords():
    # Each keyword of any generator is a flag that parses to its default's type.
    parser = build_parser()
    for kind, generate in GENERATORS.items():
        for name, default in generate.__kwdefaults__.items():
            args = parser.parse_args(["gendata", "--kind", kind, "--m", "10", f"--{name}", str(default)])
            value = getattr(args, name)
            assert type(value) is type(default) and value == default, (kind, name)


def test_gendata_refuses_flags_of_another_kind(tmp_path, capsys):
    out = tmp_path / "blobs.csv"
    assert main(["gendata", "--kind", "blobs", "--m", "20", "--skew", "0.9", "--cardinality", "7",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: --kind blobs does not take --cardinality, --skew\n"
    assert not out.exists()
    # A flag every kind shares is still taken.
    assert main(["gendata", "--kind", "blobs", "--m", "20", "--r", "3", "--out", str(out)]) == 0


def test_gendata_deterministic(tmp_path):
    a = gen_dataset(tmp_path, m=60, kind="categorical", seed=5)
    b_path = tmp_path / "again.csv"
    assert main(["gendata", "--kind", "categorical", "--m", "60", "--seed", "5",
                 "--out", str(b_path)]) == 0
    assert a.read_bytes() == b_path.read_bytes()


def test_generators_publish_into_outdir_and_write_out_as_given(tmp_path, monkeypatch, capsys):
    # --outdir is created to hold the file; --out names the file itself, so no directory is made for it.
    monkeypatch.chdir(tmp_path)
    assert main(["gendata", "--kind", "blobs", "--m", "20", "--outdir", "data"]) == 0
    assert main(["gengraph", "--topology", "tree", "--n", "4", "--outdir", "graphs"]) == 0
    assert [line.split(" (")[0] for line in capsys.readouterr().out.splitlines()] == [
        f"wrote {Path('data', 'blobs_m20_seed0.csv')}", f"wrote {Path('graphs', 'graph_tree_n4_seed0.txt')}"]
    assert [p.name for p in Path("data").iterdir()] == ["blobs_m20_seed0.csv"]
    assert [p.name for p in Path("graphs").iterdir()] == ["graph_tree_n4_seed0.txt"]
    for argv in (["gendata", "--kind", "blobs", "--m", "20"], ["gengraph", "--topology", "tree", "--n", "4"]):
        assert main([*argv, "--out", str(Path("missing", "f")), "--outdir", "unused"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert main([*argv, "--out", "f", "--outdir", "unused"]) == 0
        assert Path("f").is_file() and not Path("missing").exists() and not Path("unused").exists()


def test_gengraph_writes_edge_list(tmp_path):
    out = tmp_path / "g.txt"
    assert main(["gengraph", "--topology", "tree+3", "--n", "12", "--seed", "2",
                 "--out", str(out)]) == 0
    g = read_edge_list(out, n=12)
    assert len(g.edges) == 14


def test_run_experiment_artifacts(tmp_path):
    cfg = tiny_config(tmp_path)
    outdir = tmp_path / "out"
    result = run_experiment(cfg, outdir)
    stem = config_stem(cfg)
    expect = {
        f"{stem}_rep0_metrics.csv",
        f"{stem}_rep0_rc_trace.csv",
        f"{stem}_rep0_plan.csv",
        f"{stem}_rep0_baselines.csv",
        f"{stem}_rep0_params.txt",
        f"{stem}_rep1_metrics.csv",
        f"{stem}_rep1_rc_trace.csv",
        f"{stem}_rep1_plan.csv",
        f"{stem}_rep1_baselines.csv",
        f"{stem}_rep1_params.txt",
        f"{stem}_aggregate.csv",
        f"{stem}_config.txt",
    }
    assert {p.name for p in result.paths} == expect
    assert all(p.exists() for p in result.paths)
    metrics = (outdir / f"{stem}_rep0_metrics.csv").read_text().strip().splitlines()
    assert metrics[0] == ",".join(METRICS_COLUMNS)
    assert len(metrics) == cfg.t_max + 1
    # aggregate equals the mean of the repetition rows
    rep_rows = []
    for rep in range(2):
        lines = (outdir / f"{stem}_rep{rep}_metrics.csv").read_text().strip().splitlines()
        rep_rows.append([float(x) for x in lines[-1].split(",")])
    agg = (outdir / f"{stem}_aggregate.csv").read_text().strip().splitlines()
    agg_last = [float(x) for x in agg[-1].split(",")]
    want = np.mean(rep_rows, axis=0)
    assert np.allclose(agg_last, want, rtol=1e-12, atol=1e-15)
    baselines = (outdir / f"{stem}_rep0_baselines.csv").read_text().splitlines()
    assert baselines[0] == "model,train_err01,test_err01"
    assert [line.split(",")[0] for line in baselines[1:]] == ["ml", "rc"]
    for p in result.paths:
        if p.suffix == ".csv":
            assert_cells_exact(p)
    # config echo parses back to the exact configuration
    assert parse_config(outdir / f"{stem}_config.txt", {}) == cfg


def test_run_experiment_needs_dataset():
    with pytest.raises(ConfigError, match="no dataset"):
        run_experiment(ExperimentConfig(), ".")


def test_cli_run_and_exit_codes(tmp_path, capsys):
    ds = gen_dataset(tmp_path)
    out = tmp_path / "res"
    rc = main([
        "run", "--dataset", str(ds), "--n", "4", "--m_v", "25", "--t_max", "3",
        "--repetitions", "1", "--test_size", "150", "--outdir", str(out),
    ])
    assert rc == 0
    assert any(p.suffix == ".csv" for p in out.iterdir())
    captured = capsys.readouterr()
    assert "final round" in captured.out
    # The printed values are the aggregate CSV's last row, read by column name.
    (agg,) = out.glob("*_aggregate.csv")
    with open(agg, newline="", encoding="utf-8") as fh:
        final = list(csv.DictReader(fh))[-1]
    names = ("test_err_mean", "rc_test_err", "test_gap")
    want = f"final round {final['t']}: " + " ".join(f"{c}={float(final[c]):.4f}" for c in names)
    assert want in captured.out.splitlines()

    rc = main(["run", "--dataset", str(tmp_path / "missing.csv"), "--outdir", str(out)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err

    # Every value is below the validation bound, but sums of x^2 overflow (1e154),
    # or only the squared sums of x that projection forms (8.6e152): the run
    # fails with its error line alone, no numpy warning first.
    huge = tmp_path / "huge.csv"
    for x in (1e154, 8.6e152):
        huge.write_text("x,y\n" + "".join(f"{x + k * 1e-4 * x!r},{k % 2 + 1}\n" for k in range(400)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([
                "run", "--dataset", str(huge), "--n", "4", "--m_v", "50", "--t_max", "2",
                "--repetitions", "1", "--test_size", "100", "--outdir", str(out),
            ])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: statistics are not all finite; feature sums overflowed or a value is nan"
        ]


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a second BLAS thread needs a second core")
@pytest.mark.xfail(os.environ.get("OPENBLAS_CORETYPE") in ("Prescott", "Nehalem"), strict=True,
                   reason="ROADMAP.md item 13 (outputs that do not depend on the BLAS kernel): one digit of the "
                          "aggregate or the rc trace differs between 1 and 2 threads under these kernels")
def test_run_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # Classes a drifted node has not seen keep bitwise equal statistics, so their log joints tie exactly;
    # a GEMM may round equal class rows differently at another thread count, which must not break the tie.
    data = tmp_path / "mixed.csv"
    assert main(["gendata", "--kind", "mixed", "--m", "3500", "--r", "3", "--seed", "7", "--out", str(data)]) == 0
    src = str(Path(riskcal.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        outs.append(tmp_path / f"threads{threads}")
        subprocess.run([sys.executable, "-m", "riskcal.cli", "run", "--dataset", str(data), "--partition", "drift_xy",
                        "--t_max", "8", "--repetitions", "2", "--outdir", str(outs[-1])],
                       env=env, check=True, capture_output=True, timeout=300)
    files = sorted(p.name for p in outs[0].iterdir())
    assert files == sorted(p.name for p in outs[1].iterdir()) and len(files) == 12
    for name in files:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_cli_outdir_env_var(tmp_path, monkeypatch):
    ds = gen_dataset(tmp_path)
    env_out = tmp_path / "fromenv"
    monkeypatch.setenv("RISKCAL_OUTDIR", str(env_out))
    rc = main([
        "run", "--dataset", str(ds), "--n", "3", "--m_v", "20", "--t_max", "2",
        "--repetitions", "1", "--test_size", "100",
    ])
    assert rc == 0
    assert env_out.is_dir() and any(env_out.iterdir())


def test_cli_baseline(tmp_path, capsys):
    # baseline is repetition 0 of run: pooled n * m_v sample out of a larger
    # train split, drift_y blocks, initial mass lr * n * m0 from an explicit m0.
    keys = dict(dataset=str(gen_dataset(tmp_path)), n="4", m_v="25", t_max="5", test_size="150",
                m0="7", train_size="300", partition="drift_y")
    flags = [arg for key, value in keys.items() for arg in (f"--{key}", value)]
    stem = config_stem(parse_config(None, keys))
    assert main(["run", *flags, "--repetitions", "1", "--outdir", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    with open(tmp_path / "run" / f"{stem}_rep0_baselines.csv", newline="") as fh:
        rows = {row[0]: row[1:] for row in list(csv.reader(fh))[1:]}
    out = tmp_path / "base"
    for kind in ("ml", "rc"):
        assert main(["baseline", "--kind", kind, *flags, "--outdir", str(out)]) == 0
        train, test = (f"{float(v):.4f}" for v in rows[kind])
        assert capsys.readouterr().out.splitlines()[0] == f"{kind}: train_err={train} test_err={test}"
        assert (out / f"{stem}_baseline_{kind}_params.txt").exists()
    trace = (out / f"{stem}_baseline_rc_trace.csv").read_bytes()
    assert trace == (tmp_path / "run" / f"{stem}_rep0_rc_trace.csv").read_bytes()
    assert not (out / f"{stem}_baseline_ml_trace.csv").exists()
    cfg = parse_config(None, keys)
    gtrain = _prepare_repetition(cfg, _load_dataset(cfg), 0)[3]
    assert (out / f"{stem}_baseline_ml_params.txt").read_text() == ml(gtrain, cfg.ml_smoothing).to_text()


def test_rc_trace_matches_scalar_posterior(tmp_path):
    # run scores rc's iterates in one call on the pooled train and test sets, across a chunk
    # boundary: the trace and the metrics' rc columns are the scalar posteriors' errors.
    data = tmp_path / "mixed.csv"
    assert main(["gendata", "--kind", "mixed", "--m", "400", "--r", "3", "--seed", "5", "--out", str(data)]) == 0
    cfg = ExperimentConfig(dataset=str(data), n=4, m_v=25, t_max=20, partition="drift_xy",
                           repetitions=1, test_size=100)
    run_experiment(cfg, tmp_path / "out")
    _, test, _, gtrain, _ = _prepare_repetition(cfg, _load_dataset(cfg), 0)
    models = rc(gtrain, cfg.lr, cfg.t_max, uniform_init(gtrain.schema, cfg.lr * cfg.n * resolved_m0(cfg)))

    def scalar_errors(params, ds):
        wrong, soft = 0, 0.0
        for x, y in zip(ds.X, ds.y):
            post = scalar_posterior(params, x)
            wrong += max(range(len(post)), key=lambda i: (post[i], -i)) + 1 != y  # ties to the lowest class
            soft += 1.0 - post[y - 1]
        return wrong / ds.m, soft / ds.m

    def rows(name):
        with open(tmp_path / "out" / f"{config_stem(cfg)}_rep0_{name}.csv", newline="") as fh:
            return list(csv.reader(fh))

    trace, metrics = rows("rc_trace"), rows("metrics")
    assert trace[0] == ["t", "soft_err", "err01"]
    assert [int(row[0]) for row in trace[1:]] == list(range(cfg.t_max + 1))
    train_col, test_col = (metrics[0].index(c) for c in ("rc_train_err", "rc_test_err"))
    for t, (_, soft, err01) in enumerate(trace[1:]):
        want01, want_soft = scalar_errors(models[t], gtrain)
        assert float(err01) == want01
        assert abs(float(soft) - want_soft) < 1e-10
        if t > 0:
            assert float(metrics[t][train_col]) == want01
            assert float(metrics[t][test_col]) == scalar_errors(models[t], test)[0]


def test_sweep_summary(tmp_path):
    cfg = tiny_config(tmp_path, repetitions=1, t_max=3)
    out = tmp_path / "sweep"
    path = sweep(cfg, "iter", ["1", "2"], out)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("axis,value,t,")
    assert len(lines) == 3
    assert lines[1].split(",")[:2] == ["iter", "1"]
    assert lines[2].split(",")[:2] == ["iter", "2"]
    for p in out.glob("*.csv"):
        assert_cells_exact(p)


def test_cli_sweep_writes_one_summary_row_per_value(tmp_path, capsys):
    ds = gen_dataset(tmp_path)
    capsys.readouterr()  # gendata's line
    out = tmp_path / "sweep"
    assert main(["sweep", "--dataset", str(ds), "--m_v", "25", "--t_max", "3", "--repetitions", "1",
                 "--test_size", "150", "--outdir", str(out), "--axis", "n", "--values", "2,4"]) == 0
    (path,) = out.glob("sweep_*.csv")
    assert capsys.readouterr().out == f"wrote {path}\n"
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [row[:2] for row in rows] == [["n", "2"], ["n", "4"]]
    for row, n in zip(rows, (2, 4)):  # each variant's final aggregate row
        (agg,) = out.glob(f"*_n{n}_mv25_*_aggregate.csv")
        with open(agg, newline="", encoding="utf-8") as fh:
            assert row[2:] == list(csv.reader(fh))[-1]


def test_sweep_fragmentation_keeps_total(tmp_path):
    cfg = tiny_config(tmp_path, n=4, m_v=30)
    out = tmp_path / "frag"
    path = sweep(cfg, "fragmentation", ["2", "6"], out)
    assert path.exists()
    # n=2 -> m_v=60 and n=6 -> m_v=20 runs both happened
    stems = {p.name for p in out.iterdir()}
    assert any("_n2_mv60_" in s for s in stems)
    assert any("_n6_mv20_" in s for s in stems)
    with pytest.raises(ConfigError, match="divide"):
        sweep(cfg, "fragmentation", ["7"], out)


def test_sweep_validates_every_value_before_running(tmp_path):
    cfg = tiny_config(tmp_path, n=4, m_v=25, repetitions=1, t_max=2)
    out = tmp_path / "sweep"
    out.mkdir()
    # A tree on 4 nodes leaves (4 - 1)(4 - 2)/2 = 3 pairs absent.
    replace(cfg, topology="tree+3")
    for values, message in (
        (["tree", "tree+5"], "cannot add 5 edges, only 3 absent"),
        (["tree", "ring"], "unknown topology 'ring'"),
    ):
        with pytest.raises(ConfigError, match=message):
            sweep(cfg, "topology", values, out)
        assert not any(out.iterdir())
    for axis, values, message in (
        ("fragmentation", ["2", "0"], "fragmentation must be >= 1 and divide 100 total instances, got 0"),
        ("n", ["4", "x"], "bad value for 'n': 'x'"),
        ("n", ["4", "4"], "sweep values '4' and '4' give one experiment"),
        ("fragmentation", ["2", "4", "02"], "sweep values '2' and '02' give one experiment"),
    ):
        with pytest.raises(ConfigError, match=message):
            sweep(cfg, axis, values, out)
        assert not any(out.iterdir())
    # A variant refused by the data (the CSV has 900 rows) publishes nothing, not even the variants run before it.
    with pytest.raises(DataError, match="train 1000 \\+ test 200 exceeds 900"):
        sweep(replace(cfg, test_size=200), "m_v", ["25", "250"], out)
    assert not any(out.iterdir())
    open_cfg = replace(cfg, topology="full", neighborhood="open")
    with pytest.raises(ConfigError, match="neighborhood 'open' needs n >= 2"):
        sweep(open_cfg, "n", ["4", "1"], out)
    assert not any(out.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["run", "--config", "absent.cfg"], "no such config file: absent.cfg"),
    (["sweep", "--dataset", "d.csv", "--axis", "n", "--values", ","], "sweep needs at least one value"),
    (["run", "--dataset", "missing.csv"], "no such file: missing.csv"),
    (["baseline", "--kind", "rc", "--dataset", "missing.csv"], "no such file: missing.csv"),
    (["sweep", "--dataset", "missing.csv", "--axis", "n", "--values", "4,4"],
     "sweep values '4' and '4' give one experiment"),
    (["sweep", "--dataset", "d.csv", "--n", "4", "--test_size", "100", "--axis", "m_v", "--values", "25,200"],
     "train 800 + test 100 exceeds 400 available instances"),
], ids=["no-config-file", "sweep-no-values", "run-no-file", "baseline-no-file", "sweep-twice", "sweep-too-few-rows"])
def test_main_refuses_with_one_error_line(tmp_path, monkeypatch, capsys, argv, message):
    # A refused command publishes nothing, so --outdir is not made; the sweep refused by its second value ran its first.
    monkeypatch.chdir(tmp_path)
    write_csv(GENERATORS["blobs"](400, rng=np.random.default_rng(1)), "d.csv")
    assert main([*argv, "--outdir", "out"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not Path("out").exists()


def test_a_splitter_refusal_names_its_repetition_and_partition(tmp_path, monkeypatch, capsys):
    # Repetitions 0 and 1 run, then repetition 2 draws two identical rows for a principal component: none is published.
    monkeypatch.chdir(tmp_path)
    assert main(["gendata", "--kind", "categorical", "--m", "60", "--seed", "97", "--cardinality", "2",
                 "--out", "d.csv"]) == 0
    capsys.readouterr()
    assert main(["run", "--dataset", "d.csv", "--n", "2", "--m_v", "1", "--test_size", "1", "--partition", "drift_x",
                 "--repetitions", "5", "--t_max", "2", "--seed", "2", "--outdir", "out"]) == 1
    assert capsys.readouterr().err == "error: repetition 2: drift_x: zero covariance: all instances identical\n"
    assert not Path("out").exists()


@pytest.mark.parametrize("content, message", [
    (b"f1,y\n0.5,1\n" + b"1" * 131073 + b",2\n", "d.csv: row 3: field larger than field limit (131072)"),
    (b"f1,y\n0.5,1\n1.5,\xff\n", "d.csv: not UTF-8 text: invalid start byte 0xff"),
], ids=["over-long-field", "not-utf8"])
def test_run_refuses_an_unreadable_csv_with_one_error_line(tmp_path, monkeypatch, capsys, content, message):
    monkeypatch.chdir(tmp_path)
    Path("d.csv").write_bytes(content)
    assert main(["run", "--dataset", "d.csv", "--outdir", "out"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not Path("out").exists()  # nothing is written


def test_a_config_file_that_is_not_utf8_is_refused_by_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("bad.cfg").write_bytes(b"n = 4\nm_v = 2\xff\n")
    message = "bad.cfg: not UTF-8 text: invalid start byte 0xff"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config("bad.cfg", {})
    assert main(["run", "--config", "bad.cfg", "--outdir", "out"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not Path("out").exists()


def test_sweep_bad_axis(tmp_path):
    cfg = tiny_config(tmp_path)
    with pytest.raises(ConfigError, match="axis"):
        sweep(cfg, "temperature", ["1"], tmp_path)
