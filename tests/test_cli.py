"""Command-line behavior: outputs, determinism, exit codes, config precedence."""

import os
import platform
import re
import xml.etree.ElementTree as ET
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from sparsesense import evaluation, kernels
from sparsesense.basis import randomized_basis, svd_basis
from sparsesense.cli import OPTIONS, main, parse_mf_csv, parse_sweep_csv
from sparsesense.dataset import Dataset, load_matrix, save_matrix
from sparsesense.evaluation import ExperimentConfig
from sparsesense.multifidelity import Composition
from sparsesense.placement import place, plan_with_modes, qr_pivots


def _run(*argv):
    return main(list(argv))


def _manifest_items(path) -> dict[str, str]:
    return dict(line.split("=", 1) for line in Path(path).read_text().splitlines())


def _make_dataset(tmp_path, name="d.bin", n=40, m=60, b=-1.1, seed=7):
    path = str(tmp_path / name)
    code = _run(
        "synth", "--a", "100", "--b", str(b), "--n", str(n), "--m", str(m),
        "--seed", str(seed), "--out", path,
    )
    assert code == 0
    return path


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def test_synth_writes_dataset_meta_and_manifest(tmp_path):
    path = _make_dataset(tmp_path)
    assert os.path.exists(path)
    # The manifest is the one record of the run: no .meta sidecar.
    assert sorted(os.listdir(tmp_path)) == ["d.bin", "d.bin.manifest"]
    items = _manifest_items(Path(path + ".manifest"))
    assert items["command"] == "synth"
    assert float(items["arg.b"]) == -1.1
    assert items["file.d.bin"].startswith("sha256:")
    ds = load_matrix(path)
    assert ds.X.shape == (40, 60)


def test_synth_prescribed_spectrum(tmp_path):
    path = str(tmp_path / "s.bin")
    assert _run(
        "synth", "--a", "50", "--b", "-1.5", "--n", "24", "--m", "36",
        "--n-sv", "12", "--seed", "3", "--out", path,
    ) == 0
    ds = load_matrix(path)
    s = np.linalg.svd(ds.X, compute_uv=False)
    expected = 50.0 * np.arange(1, 13) ** -1.5
    np.testing.assert_allclose(s[:12], expected, rtol=1e-8)


def test_synth_rerun_is_byte_identical(tmp_path):
    a = _make_dataset(tmp_path, "a.bin")
    b = _make_dataset(tmp_path, "b.bin")
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_synth_missing_flag_is_usage_error(tmp_path, capsys):
    code = _run("synth", "--a", "5", "--n", "4", "--m", "4",
                "--out", str(tmp_path / "x.bin"))
    assert code == 64
    assert "--b" in capsys.readouterr().err


def test_synth_csv_format(tmp_path):
    path = str(tmp_path / "d.csv")
    assert _run(
        "synth", "--a", "10", "--b", "-1", "--n", "5", "--m", "4",
        "--seed", "1", "--format", "csv", "--out", path,
    ) == 0
    assert Path(path).read_text().splitlines()[0] == "5,4"


def test_synth_unwritable_path_is_io_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code = _run(
        "synth", "--a", "5", "--b", "-1", "--n", "4", "--m", "4",
        "--out", str(blocker / "out.bin"),
    )
    assert code == 2


# ---------------------------------------------------------------------------
# place
# ---------------------------------------------------------------------------


def test_place_emits_ranked_locations(tmp_path):
    data = _make_dataset(tmp_path)
    out = tmp_path / "placed"
    assert _run("place", "--data", data, "--p", "8", "--out-dir", str(out)) == 0
    lines = (out / "sensors.csv").read_text().splitlines()
    assert lines[0] == "rank,location"
    assert len(lines) == 9
    locations = [int(ln.split(",")[1]) for ln in lines[1:]]
    assert len(set(locations)) == 8


@pytest.mark.parametrize("basis", ["svd", "randomized"])
def test_place_does_not_depend_on_the_blas_thread_count(tmp_path, blas_preset, basis):
    data = _make_dataset(tmp_path, n=1024, m=300)
    outputs = []
    for preset in (2, 1):
        blas_preset(preset)
        out = tmp_path / f"placed{preset}"
        args = ("--data", data, "--p", "120", "--basis", basis, "--out-dir", str(out))
        assert _run("place", *args) == 0
        outputs.append((out / "sensors.csv").read_bytes())
    assert outputs[0] == outputs[1]


def _placed(out) -> list[int]:
    lines = (out / "sensors.csv").read_text().splitlines()
    assert lines[0] == "rank,location"
    return [int(ln.split(",")[1]) for ln in lines[1:]]


@pytest.mark.parametrize("p", [5, 8, 14])
@pytest.mark.parametrize("oversample", ["random", "odeim-e"])
@pytest.mark.parametrize("basis", ["svd", "randomized"])
def test_place_with_modes_is_the_library_plan_on_that_basis(tmp_path, basis, oversample, p):
    data = _make_dataset(tmp_path)
    out = tmp_path / "placed"
    assert _run(
        "place", "--data", data, "--p", str(p), "--modes", "8", "--basis", basis,
        "--oversample", oversample, "--seed", "5", "--out-dir", str(out),
    ) == 0
    X = load_matrix(data).X
    with kernels.single_blas_thread():
        modes = svd_basis(X, 8) if basis == "svd" else randomized_basis(X, 8, 5)
        if p <= 8:
            want = qr_pivots(modes, p)
        else:
            want = plan_with_modes(modes, p, oversample, 5)
    assert _placed(out) == want.locations.tolist()
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert "modes=8" in manifest and f"method={want.method}" in manifest


def test_place_with_modes_pinned_locations(tmp_path):
    data = _make_dataset(tmp_path)
    out = tmp_path / "placed"
    assert _run(
        "place", "--data", data, "--p", "14", "--modes", "8",
        "--oversample", "odeim-e", "--seed", "5", "--out-dir", str(out),
    ) == 0
    assert _placed(out) == [26, 2, 34, 13, 22, 29, 17, 10, 28, 14, 32, 38, 39, 27]


@pytest.mark.parametrize("oversample", ["random", "odeim-e"])
@pytest.mark.parametrize("basis", ["svd", "randomized"])
def test_place_a_sensor_on_every_row(tmp_path, basis, oversample):
    data = _make_dataset(tmp_path)
    out = tmp_path / "placed"
    assert _run(
        "place", "--data", data, "--p", "40", "--basis", basis,
        "--oversample", oversample, "--out-dir", str(out),
    ) == 0
    assert sorted(_placed(out)) == list(range(40))


# Without --modes the rule is capped by the data's min(n, m) = 8: at p = 6
# the cap does not bind (r = 6), at p = 20 it does (the rule's 10 becomes 8).
@pytest.mark.parametrize("p,r", [(6, 6), (20, 8)])
@pytest.mark.parametrize("kind", ["svd", "randomized"])
def test_place_the_library_and_sweeps_agree_on_the_mode_count(tmp_path, kind, p, r):
    n, m = 30, 8
    rng = np.random.default_rng(3)
    X = rng.standard_normal((n, m))
    data = str(tmp_path / "d.bin")
    save_matrix(Dataset(X, "d"), data)
    out = tmp_path / "placed"
    assert _run(
        "place", "--data", data, "--p", str(p), "--basis", kind, "--seed", "5",
        "--out-dir", str(out),
    ) == 0
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert f"modes={r}" in manifest
    assert place(svd_basis(X, min(n, m)), p, seed=5).r_used == r
    # A sweep over 10 snapshots trains on 8 of them: the same (n, m).
    config = ExperimentConfig(dataset=Dataset(rng.standard_normal((n, 10)), "e"), basis_kind=kind)
    assert config.m_train == m
    assert evaluation._resolve_cell(config, Composition(p, 0))[0] == r


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_args(data, out, extra=()):
    return [
        "sweep", "--data", data, "--r-grid", "4,8", "--p-grid", "8,16",
        "--splits", "2", "--cv", "2", "--noise-draws", "2",
        "--seed", "17", "--out-dir", str(out), *extra,
    ]


def test_sweep_csv_shape_and_reload(tmp_path):
    data = _make_dataset(tmp_path)
    out = tmp_path / "sw"
    assert main(_sweep_args(data, out)) == 0
    text = (out / "sweep.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "r,p,basis,mean_error,std_error,trials"
    assert len(lines) == 5
    rows = parse_sweep_csv(text)
    assert [(row["r"], row["p"]) for row in rows] == [(4, 8), (4, 16), (8, 8), (8, 16)]
    # 17-digit formatting reloads to full precision
    for row in rows:
        assert row["trials"] == 8
        assert np.isfinite(row["mean_error"])


def test_sweep_rerun_is_byte_identical(tmp_path):
    data = _make_dataset(tmp_path)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(_sweep_args(data, out1)) == 0
    assert main(_sweep_args(data, out2)) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_sweep_threads_do_not_change_output(tmp_path):
    data = _make_dataset(tmp_path)
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    assert main(_sweep_args(data, out1, extra=("--threads", "1"))) == 0
    assert main(_sweep_args(data, out2, extra=("--threads", "4"))) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_threads_below_one_are_usage_errors(tmp_path, capsys, value):
    data = _make_dataset(tmp_path)
    capsys.readouterr()
    for args in (_sweep_args, _mf_args):
        assert main(args(data, tmp_path / "out", extra=("--threads", value))) == 64
        assert "--threads must be >= 1" in capsys.readouterr().err
    config = tmp_path / "run.cfg"
    config.write_text(f"threads={value}\n")
    assert main(_sweep_args(data, tmp_path / "out", extra=("--config", str(config)))) == 64
    assert not (tmp_path / "out").exists()


def test_sweep_and_mf_manifests_record_the_blas(tmp_path):
    data = _make_dataset(tmp_path)
    record = kernels.blas_record()
    for args, out in ((_sweep_args, tmp_path / "sw"), (_mf_args, tmp_path / "mf")):
        assert main(args(data, out)) == 0
        lines = (out / "manifest.txt").read_text().splitlines()
        assert f"blas={record['blas']}" in lines
        assert f"blas-threads={record['blas-threads']}" in lines
        assert record["blas-threads"] in ("1", "unmanaged")


def test_results_csv_floats_round_trip_exactly():
    from sparsesense.cli import format_sweep_csv
    from sparsesense.evaluation import CellResult

    cells = [
        CellResult(3, 7, 1.0 / 3.0, 2.0 / 7.0, 25),
        CellResult(5, 9, 1.2345678901234567e-13, 9.87654321e8, 25),
    ]
    rows = parse_sweep_csv(format_sweep_csv(cells, "svd"))
    for cell, row in zip(cells, rows):
        assert row["mean_error"] == cell.mean_error
        assert row["std_error"] == cell.std_error


_SWEEP_HEAD = "r,p,basis,mean_error,std_error,trials\n4,8,svd,0.5,0.01,8\n\n"
_MF_HEAD = "p_cheap,p_exp,mean_error,std_error,trials\n10,0,0.5,0.01,8\n\n"
_parse_runs_mf = partial(parse_mf_csv, path="runs/mf.csv")


# Each bad row is its file's fourth line, after a blank one.
@pytest.mark.parametrize("parse,text,message", [
    (parse_sweep_csv, _SWEEP_HEAD + "4,8,svd,0.5,0.01\n",
     "<sweep csv>: line 4: expected 6 fields, found 5"),
    (parse_sweep_csv, _SWEEP_HEAD + "4,8,svd,half,0.01,8\n", "<sweep csv>: line 4: malformed row"),
    (_parse_runs_mf, _MF_HEAD + "10,0,0.5,0.01\n# regime=cheap\n",
     "runs/mf.csv: line 4: expected 5 fields, found 4"),
    (_parse_runs_mf, _MF_HEAD + "10,0,half,0.01,8\n# regime=cheap\n",
     "runs/mf.csv: line 4: malformed row"),
], ids=["sweep-short", "sweep-non-numeric", "mf-short", "mf-non-numeric"])
def test_results_csv_parsers_name_the_file_and_line_of_a_bad_row(parse, text, message):
    with pytest.raises(ValueError) as info:
        parse(text)
    assert str(info.value).startswith(message)


def test_sweep_svg_well_formed_with_polyline_per_r(tmp_path):
    data = _make_dataset(tmp_path)
    out = tmp_path / "sw"
    assert main(_sweep_args(data, out, extra=("--svg",))) == 0
    tree = ET.parse(out / "sweep.svg")
    ns = "{http://www.w3.org/2000/svg}"
    polylines = tree.getroot().findall(f".//{ns}polyline")
    assert len(polylines) == 2


def test_sweep_infeasible_grid_names_cell(tmp_path, capsys):
    data = _make_dataset(tmp_path)
    code = _run(
        "sweep", "--data", data, "--r-grid", "45", "--p-grid", "8",
        "--out-dir", str(tmp_path / "bad"),
    )
    assert code == 65
    assert "(r=45, p=8)" in capsys.readouterr().err


def test_sweep_missing_data_file_is_io_error(tmp_path):
    code = _run(
        "sweep", "--data", str(tmp_path / "nope.bin"), "--r-grid", "4",
        "--p-grid", "8", "--out-dir", str(tmp_path),
    )
    assert code == 2


def test_sweep_empty_data_file_is_data_error(tmp_path):
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    code = _run(
        "sweep", "--data", str(empty), "--r-grid", "4", "--p-grid", "8",
        "--out-dir", str(tmp_path),
    )
    assert code == 65


def test_sweep_non_ascii_csv_is_data_error_naming_file_and_line(tmp_path, capsys):
    data = tmp_path / "accent.csv"
    data.write_bytes("1,2,3\n4,5,6\n7,8,\u00e99\n".encode("utf-8"))
    code = _run(
        "sweep", "--data", str(data), "--r-grid", "1", "--p-grid", "2",
        "--out-dir", str(tmp_path / "out"),
    )
    assert code == 65
    err = capsys.readouterr().err
    assert "accent.csv" in err and "line 3" in err and "codec" not in err


def _bad_data_files(tmp_path) -> dict[str, bytes]:
    """A binary one value short of its header, and CSVs holding nan and inf."""
    _make_dataset(tmp_path)
    blob = (tmp_path / "d.bin").read_bytes()
    return {
        "short.bin": blob[:-8],
        "nan.csv": b"1,2,3\n4,nan,6\n7,8,9\n",
        "inf.csv": b"1,2,3\n4,5,6\n7,8,-inf\n",
    }


@pytest.mark.parametrize("command", ["sweep", "mf", "place"])
@pytest.mark.parametrize("name", ["short.bin", "nan.csv", "inf.csv"])
def test_corrupt_data_files_are_data_errors_naming_the_file(tmp_path, capsys, command, name):
    data = tmp_path / name
    data.write_bytes(_bad_data_files(tmp_path)[name])
    out = tmp_path / "out"
    args = {
        "sweep": _sweep_args(str(data), out),
        "mf": _mf_args(str(data), out),
        "place": ["place", "--data", str(data), "--p", "2", "--out-dir", str(out)],
    }[command]
    capsys.readouterr()
    assert main(args) == 65
    assert f"error: {data}: " in capsys.readouterr().err
    assert not out.exists()


def test_sweep_on_all_zero_data_is_a_data_error(tmp_path, capsys):
    data = str(tmp_path / "zero.bin")
    save_matrix(Dataset(np.zeros((40, 60)), "zero"), data)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(_sweep_args(data, out)) == 65
    assert "zero norm" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,flag,value", [
    ("sweep", "noise-level", "nan"),
    ("sweep", "noise-level", "-1"),
    ("mf", "level-cheap", "inf"),
    ("mf", "level-exp", "-0.01"),
])
def test_bad_noise_levels_are_data_errors_before_any_split(
    tmp_path, capsys, monkeypatch, command, flag, value
):
    data = _make_dataset(tmp_path)
    out = tmp_path / "out"
    args = (_sweep_args if command == "sweep" else _mf_args)(data, out)
    splits = []
    monkeypatch.setattr(evaluation, "split", lambda *args: splits.append(args))
    capsys.readouterr()
    assert main(args + [f"--{flag}", value]) == 65
    assert "noise levels must be finite and non-negative" in capsys.readouterr().err
    assert splits == [] and not out.exists()


@pytest.mark.parametrize("oversample", ["random", "odeim-e"])
@pytest.mark.parametrize("basis", ["svd", "randomized"])
def test_place_on_all_zero_data_is_a_data_error(tmp_path, capsys, basis, oversample):
    data = str(tmp_path / "zero.bin")
    save_matrix(Dataset(np.zeros((20, 30)), "zero"), data)
    out = tmp_path / "out"
    capsys.readouterr()
    # Two modes and five sensors, so the oversampler runs too.
    args = ("--modes", "2", "--p", "5", "--basis", basis, "--oversample", oversample)
    assert _run("place", "--data", data, *args, "--out-dir", str(out)) == 65
    assert f"error: {data}: data matrix has zero norm" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# mf
# ---------------------------------------------------------------------------


def _mf_args(data, out, extra=()):
    return [
        "mf", "--data", data, "--p-cheap-max", "10", "--p-exp-max", "2",
        "--level-cheap", "0.4", "--level-exp", "0.01", "--steps", "3",
        "--splits", "2", "--cv", "2", "--noise-draws", "2",
        "--seed", "29", "--out-dir", str(out), *extra,
    ]


def test_mf_csv_rows_footer_and_svg(tmp_path):
    data = _make_dataset(tmp_path)
    out = tmp_path / "mf"
    assert main(_mf_args(data, out, extra=("--svg", "--tag-b", "-1.1"))) == 0
    text = (out / "mf.csv").read_text()
    rows, regime, tags = parse_mf_csv(text)
    assert [(row["p_cheap"], row["p_exp"]) for row in rows] == [(10, 0), (5, 1), (0, 2)]
    assert regime in ("cheap", "expensive", "inconclusive", "mixed-best")
    assert tags == {"b": "-1.1"}
    tree = ET.parse(out / "mf.svg")
    ns = "{http://www.w3.org/2000/svg}"
    texts = [el.text for el in tree.getroot().findall(f".//{ns}text")]
    assert "C" in texts and "E" in texts


def test_mf_rerun_is_byte_identical(tmp_path):
    data = _make_dataset(tmp_path)
    out1, out2 = tmp_path / "m1", tmp_path / "m2"
    assert main(_mf_args(data, out1)) == 0
    assert main(_mf_args(data, out2)) == 0
    assert (out1 / "mf.csv").read_bytes() == (out2 / "mf.csv").read_bytes()


def test_mf_steps_two_gives_two_rows(tmp_path):
    data = _make_dataset(tmp_path)
    out = tmp_path / "mf2"
    args = _mf_args(data, out)
    args[args.index("--steps") + 1] = "2"
    assert main(args) == 0
    rows, regime, _ = parse_mf_csv((out / "mf.csv").read_text())
    assert len(rows) == 2
    assert regime in ("cheap", "expensive", "inconclusive")


def test_mf_equal_levels_is_inconclusive_at_fixed_p(tmp_path):
    data = _make_dataset(tmp_path)
    out = tmp_path / "mf3"
    code = _run(
        "mf", "--data", data, "--p-cheap-max", "6", "--p-exp-max", "6",
        "--level-cheap", "0.02", "--level-exp", "0.02", "--steps", "3",
        "--splits", "2", "--cv", "2", "--noise-draws", "2",
        "--seed", "31", "--out-dir", str(out),
    )
    assert code == 0
    _, regime, _ = parse_mf_csv((out / "mf.csv").read_text())
    assert regime == "inconclusive"


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


_MF_TEXT = """p_cheap,p_exp,mean_error,std_error,trials
10,0,0.5,0.01,8
0,2,0.1,0.01,8
# regime=expensive
# tag:b={b}
# tag:counts=small
# tag:noise={noise}
"""


def test_report_single_input(tmp_path):
    src = tmp_path / "one.csv"
    src.write_text(_MF_TEXT.format(b="-1.6", noise="low-high"))
    out = tmp_path / "rep"
    assert _run("report", str(src), "--out-dir", str(out)) == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == "b,noise_regime,count_regime,regime"
    assert lines[1] == "-1.6,low-high,small,expensive"


def test_report_nine_inputs_nine_rows(tmp_path):
    paths = []
    for i, b in enumerate(("-1.6", "-1.1", "-0.6")):
        for j, noise in enumerate(("low-low", "low-high", "high-high")):
            p = tmp_path / f"mf{i}{j}.csv"
            p.write_text(_MF_TEXT.format(b=b, noise=noise))
            paths.append(str(p))
    out = tmp_path / "rep9"
    assert _run("report", *paths, "--out-dir", str(out)) == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert len(lines) == 10


def test_report_conflicting_duplicate_tags(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text(_MF_TEXT.format(b="-1.6", noise="low-low"))
    b.write_text(
        _MF_TEXT.format(b="-1.6", noise="low-low").replace(
            "regime=expensive", "regime=cheap"
        )
    )
    code = _run("report", str(a), str(b), "--out-dir", str(tmp_path / "r"))
    assert code == 65
    assert "conflicting" in capsys.readouterr().err


def test_report_malformed_input_names_file_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("p_cheap,p_exp,mean_error,std_error,trials\n1,2,3\n# regime=cheap\n")
    code = _run("report", str(bad), "--out-dir", str(tmp_path / "r"))
    assert code == 65
    err = capsys.readouterr().err
    assert "bad.csv" in err and "line 2" in err


def test_report_without_inputs_is_usage_error():
    assert _run("report") == 64


# ---------------------------------------------------------------------------
# configuration precedence
# ---------------------------------------------------------------------------


def test_config_file_supplies_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("a=100\nb=-1.1\nn=20\nm=30\nseed=5\n")
    out1 = str(tmp_path / "c1.bin")
    assert _run("synth", "--config", str(cfg), "--out", out1) == 0
    # flag overrides the config file seed; different draw
    out2 = str(tmp_path / "c2.bin")
    assert _run("synth", "--config", str(cfg), "--seed", "6", "--out", out2) == 0
    out3 = str(tmp_path / "c3.bin")
    assert _run("synth", "--config", str(cfg), "--seed", "5", "--out", out3) == 0
    b1 = Path(out1).read_bytes()
    assert b1 != Path(out2).read_bytes()
    assert b1 == Path(out3).read_bytes()


def test_config_file_drives_sweep(tmp_path):
    data = _make_dataset(tmp_path)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "r-grid=4,8\np-grid=8\nsplits=2\ncv=2\nnoise-draws=1\nseed=17\n"
    )
    out1, out2 = tmp_path / "cfg1", tmp_path / "cfg2"
    assert _run("sweep", "--data", data, "--config", str(cfg),
                "--out-dir", str(out1)) == 0
    assert _run("sweep", "--data", data, "--r-grid", "4,8", "--p-grid", "8",
                "--splits", "2", "--cv", "2", "--noise-draws", "1",
                "--seed", "17", "--out-dir", str(out2)) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_env_seed_used_when_absent(tmp_path, monkeypatch):
    monkeypatch.setenv("SPARSESENSE_SEED", "123")
    out1 = str(tmp_path / "e1.bin")
    assert _run("synth", "--a", "9", "--b", "-1", "--n", "8", "--m", "9",
                "--out", out1) == 0
    monkeypatch.delenv("SPARSESENSE_SEED")
    out2 = str(tmp_path / "e2.bin")
    assert _run("synth", "--a", "9", "--b", "-1", "--n", "8", "--m", "9",
                "--seed", "123", "--out", out2) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


def test_unknown_subcommand_is_usage_error():
    assert _run("frobnicate") == 64


# ---------------------------------------------------------------------------
# option table: config-file rules, manifests, flag sets
# ---------------------------------------------------------------------------


def _valid_args(command, data, out):
    """A valid invocation of each subcommand that sets none of the options
    the bad-value tests below set."""
    return {
        "synth": ["synth", "--a", "5", "--b", "-1", "--n", "4", "--m", "4",
                  "--out", str(out / "x.bin")],
        "place": ["place", "--data", data, "--p", "4", "--out-dir", str(out)],
        "sweep": _sweep_args(data, out),
        "mf": _mf_args(data, out),
    }[command]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command,flag,value", [
    ("synth", "format", "xml"),
    ("place", "basis", "foo"),
    ("place", "oversample", "x"),
    ("sweep", "basis", "foo"),
    ("sweep", "oversample", "x"),
    ("mf", "basis", "foo"),
    ("mf", "oversample", "x"),
    ("mf", "assignment", "middle"),
    ("mf", "band", "-1"),
    ("mf", "band", "nan"),
    ("mf", "band", "inf"),
])
def test_bad_values_are_usage_errors_from_flags_and_config_files(
    tmp_path, capsys, source, command, flag, value
):
    data = _make_dataset(tmp_path)
    out = tmp_path / "out"
    args = _valid_args(command, data, out)
    if source == "flag":
        args += [f"--{flag}", value]
    else:
        config = tmp_path / "run.cfg"
        config.write_text(f"{flag}={value}\n")
        args += ["--config", str(config)]
    capsys.readouterr()
    assert main(args) == 64
    assert f"usage error: bad value for --{flag}: '{value}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value,code,svg", [
    ("ture", 64, False), ("", 64, False), ("2", 64, False),
    ("yes", 0, True), ("On", 0, True), ("false", 0, False), ("0", 0, False),
])
def test_svg_in_a_config_file_takes_only_true_or_false_words(tmp_path, capsys, value, code, svg):
    data = _make_dataset(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text(f"svg={value}\n")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(_sweep_args(data, out, extra=("--config", str(config)))) == code
    if code:
        assert "bad value for --svg" in capsys.readouterr().err
    assert (out / "sweep.svg").exists() == svg


@pytest.mark.parametrize("line,message", [
    ("noise_level=0.9", "unknown key 'noise_level'"),
    ("noise-levels=0.9", "unknown key 'noise-levels'"),
    ("splits 2", "expected key=value"),
])
def test_config_file_rejects_undeclared_keys_and_malformed_lines(tmp_path, capsys, line, message):
    data = _make_dataset(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text(f"# sweep settings\n\nseed=17\n{line}\n")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(_sweep_args(data, out, extra=("--config", str(config)))) == 64
    assert f"usage error: {config}: line 4: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_one_config_file_drives_synth_and_sweep(tmp_path):
    config = tmp_path / "both.cfg"
    config.write_text(
        "a=100\nb=-1.1\nn=40\nm=60\nseed=7\n"
        "r-grid=4,8\np-grid=8,16\nsplits=2\ncv=2\nnoise-draws=2\n"
    )
    data = str(tmp_path / "d.bin")
    assert _run("synth", "--config", str(config), "--out", data) == 0
    assert Path(data).read_bytes() == Path(_make_dataset(tmp_path, "ref.bin")).read_bytes()
    out1, out2 = tmp_path / "cfg", tmp_path / "flags"
    assert _run("sweep", "--data", data, "--config", str(config), "--out-dir", str(out1)) == 0
    assert main(_sweep_args(data, out2, extra=("--seed", "7"))) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_one_config_file_with_threads_and_out_dir_drives_synth_and_sweep(tmp_path):
    out = tmp_path / "cfg"
    config = tmp_path / "both.cfg"
    config.write_text(
        f"a=100\nb=-1.1\nn=40\nm=60\nseed=7\nthreads=2\nout-dir={out}\n"
        "r-grid=4,8\np-grid=8,16\nsplits=2\ncv=2\nnoise-draws=2\n"
    )
    data = str(tmp_path / "d.bin")
    # synth takes neither key, and ignores both.
    assert _run("synth", "--config", str(config), "--out", data) == 0
    _make_dataset(tmp_path, "ref.bin")
    assert (tmp_path / "d.bin").read_bytes() == (tmp_path / "ref.bin").read_bytes()
    assert not out.exists()
    assert _run("sweep", "--data", data, "--config", str(config)) == 0
    flags = tmp_path / "flags"
    assert main(_sweep_args(data, flags, extra=("--seed", "7", "--threads", "1"))) == 0
    assert (out / "sweep.csv").read_bytes() == (flags / "sweep.csv").read_bytes()


@pytest.mark.parametrize("command,flag", [
    ("synth", "--out-dir"), ("synth", "--threads"), ("place", "--threads"),
    ("report", "--threads"),
])
def test_subcommands_reject_flags_they_would_ignore(tmp_path, capsys, command, flag):
    data = _make_dataset(tmp_path)
    mf_csv = tmp_path / "one.csv"
    mf_csv.write_text(_MF_TEXT.format(b="-1.6", noise="low-high"))
    out = tmp_path / "out"
    args = {
        "synth": ["synth", "--a", "5", "--b", "-1", "--n", "4", "--m", "4",
                  "--out", str(out / "x.bin")],
        "place": ["place", "--data", data, "--p", "8", "--out-dir", str(out)],
        "report": ["report", str(mf_csv), "--out-dir", str(out)],
    }[command]
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(args + [flag, str(out / "sub") if flag == "--out-dir" else "3"]) == 64
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def test_mf_manifest_records_every_protocol_option(tmp_path):
    data = _make_dataset(tmp_path)
    out = tmp_path / "mf"
    extra = ("--basis", "randomized", "--tag-b", "-1.1", "--tag-noise", "low-high")
    assert main(_mf_args(data, out, extra=extra)) == 0
    lines = (out / "manifest.txt").read_text().splitlines()
    for line in ("arg.basis=randomized", "arg.oversample=random",
                 "arg.train-fraction=0.80000000000000004", "arg.tag-b=-1.1",
                 "arg.tag-noise=low-high", "arg.splits=2", "arg.level-cheap=0.40000000000000002"):
        assert line in lines
    assert not any(line.startswith(("arg.tag-counts", "arg.svg", "arg.threads")) for line in lines)


def test_synth_place_and_report_manifests_record_the_blas(tmp_path):
    data = _make_dataset(tmp_path)
    mf_csv = tmp_path / "one.csv"
    mf_csv.write_text(_MF_TEXT.format(b="-1.6", noise="low-high"))
    assert _run("place", "--data", data, "--p", "8", "--out-dir", str(tmp_path / "pl")) == 0
    assert _run("report", str(mf_csv), "--out-dir", str(tmp_path / "rep")) == 0
    record = kernels.blas_record()
    for manifest in (data + ".manifest", tmp_path / "pl" / "manifest.txt",
                     tmp_path / "rep" / "manifest.txt"):
        lines = Path(manifest).read_text().splitlines()
        assert f"blas={record['blas']}" in lines
        assert f"blas-threads={record['blas-threads']}" in lines


# The values each command works out itself; its manifest gives each one a
# line of its own, never an ``arg.`` line.
_DERIVED = {
    "synth": set(),
    "place": {"modes", "method"},
    "sweep": {"config-digest"},
    "mf": {"config-digest", "regime"},
    "report": {"inputs"},
}
_RUN_FACTS = ("tool", "command", "master-seed", "started", "finished", "python", "numpy",
              "blas", "blas-threads")


def test_manifest_args_are_recorded_flags_and_derived_values_have_their_own_lines(tmp_path):
    data = _make_dataset(tmp_path)
    runs = {command: _valid_args(command, data, tmp_path / command)
            for command in ("synth", "place", "sweep", "mf")}
    runs["report"] = ["report", str(tmp_path / "mf" / "mf.csv"), "--out-dir",
                      str(tmp_path / "report")]
    for command, args in runs.items():
        assert main(args) == 0
        out = tmp_path / command
        items = _manifest_items(out / ("x.bin.manifest" if command == "synth" else "manifest.txt"))
        recorded = {opt.flag for opt in OPTIONS[command] if opt.record}

        def section(key):
            if key.startswith("arg."):
                assert key[4:] in recorded, (command, key)
                return 2
            if key.startswith("file."):
                assert (out / key[5:]).is_file(), (command, key)
                return 3
            assert key in _RUN_FACTS or key in _DERIVED[command], (command, key)
            return 0 if key in _RUN_FACTS else 1

        # Run facts, then derived values, then recorded flags, then digests.
        sections = [section(key) for key in items]
        assert sections == sorted(sections), command
        assert set(_RUN_FACTS) | _DERIVED[command] <= set(items), command
        assert items["python"] == platform.python_version()
        assert items["numpy"] == np.__version__
    place = _manifest_items(tmp_path / "place" / "manifest.txt")
    assert (place["modes"], place["method"]) == ("4", "qr")
    _, regime, _ = parse_mf_csv((tmp_path / "mf" / "mf.csv").read_text())
    assert _manifest_items(tmp_path / "mf" / "manifest.txt")["regime"] == regime
    assert _manifest_items(tmp_path / "report" / "manifest.txt")["inputs"] == runs["report"][1]


# A non-default value for every option, as command-line text. "{data}" and
# "{out}" are filled in per test.
_SAMPLES = {
    "shared": {"seed": "5"},
    "synth": {"a": "50", "b": "-1.5", "n": "24", "m": "36", "n-sv": "12",
              "format": "csv", "out": "{out}/s.csv"},
    "place": {"out-dir": "{out}", "data": "{data}", "p": "14", "basis": "randomized",
              "modes": "8", "oversample": "odeim-e"},
    "sweep": {"threads": "2", "out-dir": "{out}", "data": "{data}", "r-grid": "4,8",
              "p-grid": "8,12", "noise-level": "0.05",
              "basis": "randomized", "oversample": "odeim-e", "train-fraction": "0.75",
              "splits": "2", "cv": "1", "noise-draws": "1", "svg": "true"},
    "mf": {"threads": "2", "out-dir": "{out}", "data": "{data}", "p-cheap-max": "10",
           "p-exp-max": "2", "cost-cheap": "0.5",
           "level-cheap": "0.4", "level-exp": "0.01", "steps": "3", "assignment": "exp-last",
           "band": "0.05", "basis": "randomized", "oversample": "odeim-e",
           "train-fraction": "0.75", "splits": "2", "cv": "1", "noise-draws": "1",
           "svg": "true", "tag-b": "-1.1", "tag-noise": "low-high", "tag-counts": "small"},
    "report": {"out-dir": "{out}"},
}

# The --config option itself has no config-file form.
_DECLARED = [
    (command, option)
    for command, options in OPTIONS.items()
    for option in options
    if option.flag != "config"
]


@pytest.fixture(scope="module")
def table_dataset(tmp_path_factory):
    return _make_dataset(tmp_path_factory.mktemp("table"))


@pytest.mark.parametrize(
    "command,option", _DECLARED, ids=[f"{c}-{o.flag}" for c, o in _DECLARED]
)
def test_config_file_and_flag_agree_for_every_option(tmp_path, table_dataset, command, option):
    samples = {**_SAMPLES["shared"], **_SAMPLES[command]}
    assert {o.flag for o in OPTIONS[command]} - {"config"} == set(samples)
    out = tmp_path / "out"
    text = {
        flag: value.format(data=table_dataset, out=out) for flag, value in samples.items()
    }
    positional = []
    if command == "report":
        mf_csv = tmp_path / "one.csv"
        mf_csv.write_text(_MF_TEXT.format(b="-1.6", noise="low-high"))
        positional = [str(mf_csv)]

    def flags(names):
        args = []
        for flag in names:
            args += [f"--{flag}"] if flag == "svg" else [f"--{flag}", text[flag]]
        return args

    manifest = out / ("s.csv.manifest" if command == "synth" else "manifest.txt")
    runs = []
    config = tmp_path / "run.cfg"
    config.write_text(f"{option.flag}={text[option.flag]}\n")
    others = [flag for flag in text if flag != option.flag]
    for args in (flags(text), flags(others) + ["--config", str(config)]):
        assert main([command, *positional, *args]) == 0
        runs.append([
            line for line in manifest.read_text().splitlines()
            if not line.startswith(("started=", "finished="))
        ])
    assert runs[0] == runs[1]
    if option.record:
        assert any(line.startswith(f"arg.{option.flag}=") for line in runs[0])


_FLAGS = {
    "synth": "a b config format m n n-sv out seed",
    "place": "basis config data modes out-dir oversample p seed",
    "sweep": "basis config cv data noise-draws noise-level out-dir oversample p-grid "
             "r-grid seed splits svg threads train-fraction",
    "mf": "assignment band basis config cost-cheap cv data level-cheap level-exp "
          "noise-draws out-dir oversample p-cheap-max p-exp-max seed splits steps svg "
          "tag-b tag-counts tag-noise threads train-fraction",
    "report": "config out-dir seed",
}


@pytest.mark.parametrize("command", sorted(_FLAGS))
def test_each_subcommand_keeps_its_flags(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    flags = set(re.findall(r"--([a-z][a-z-]*)", capsys.readouterr().out)) - {"help"}
    assert flags == set(_FLAGS[command].split())
