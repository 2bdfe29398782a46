"""Synthetic construction, splitting, spectrum utilities, matrix file I/O."""

from pathlib import Path

import numpy as np
import pytest

from sparsesense.dataset import (
    Dataset,
    FileSource,
    MatrixFormatError,
    MatrixParseError,
    SpectrumSpec,
    energy_rank,
    fit_power_law,
    load_matrix,
    overall_variance,
    power_law_spectrum,
    save_matrix,
    split,
    synthesize,
)


# ---------------------------------------------------------------------------
# power_law_spectrum / SpectrumSpec
# ---------------------------------------------------------------------------


def test_power_law_first_value_is_amplitude():
    spec = SpectrumSpec(1.21e5, -1.14, 10)
    s = power_law_spectrum(spec)
    assert s[0] == pytest.approx(1.21e5)


def test_power_law_arithmetic():
    s = power_law_spectrum(SpectrumSpec(1.0, -1.0, 5))
    assert s[3] == pytest.approx(0.25)
    flat = power_law_spectrum(SpectrumSpec(7.0, 0.0, 4))
    np.testing.assert_allclose(flat, 7.0)


def test_spectrum_spec_validation():
    with pytest.raises(ValueError):
        SpectrumSpec(0.0, -1.0, 5)
    with pytest.raises(ValueError):
        SpectrumSpec(1.0, -1.0, 0)


# ---------------------------------------------------------------------------
# synthesize
# ---------------------------------------------------------------------------


def test_synthesize_rank_one():
    ds = synthesize(SpectrumSpec(5.0, 0.0, 1), 3, 3, seed=1)
    s = np.linalg.svd(ds.X, compute_uv=False)
    np.testing.assert_allclose(s, [5.0, 0.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("n_sv,n,m", [(128, 128, 300), (256, 256, 400)])
def test_synthesize_spectrum_round_trip(n_sv, n, m):
    spec = SpectrumSpec(1.21e5, -1.6, n_sv)
    ds = synthesize(spec, n, m, seed=3)
    s = np.linalg.svd(ds.X, compute_uv=False)
    np.testing.assert_allclose(s, power_law_spectrum(spec), rtol=1e-8)


def test_synthesize_deterministic():
    spec = SpectrumSpec(2.0, -0.5, 8)
    a = synthesize(spec, 10, 12, seed=9)
    b = synthesize(spec, 10, 12, seed=9)
    np.testing.assert_array_equal(a.X, b.X)


def test_synthesize_does_not_depend_on_the_blas_thread_count(blas_preset):
    # The benchmark's shape: large enough that OpenBLAS splits its QR and
    # GEMM work over threads when allowed to.
    spec = SpectrumSpec(1.21e5, -1.1, 512)
    runs = []
    for preset in (2, 1):
        blas_preset(preset)
        runs.append(synthesize(spec, 1024, 600, seed=0).X)
    assert np.array_equal(runs[0], runs[1])


def test_synthesize_rejects_oversized_spectrum():
    with pytest.raises(ValueError):
        synthesize(SpectrumSpec(1.0, -1.0, 11), 10, 20, seed=0)


def test_dataset_is_read_only():
    ds = synthesize(SpectrumSpec(1.0, -1.0, 3), 4, 5, seed=0)
    with pytest.raises(ValueError):
        ds.X[0, 0] = 1.0


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------


def test_split_counts():
    ds = synthesize(SpectrumSpec(1.0, -1.0, 4), 6, 10, seed=0)
    sd = split(ds, 0.8, seed=1)
    assert sd.train.shape == (6, 8)
    assert sd.test.shape == (6, 2)


def test_split_is_partition():
    ds = synthesize(SpectrumSpec(1.0, -1.0, 4), 6, 17, seed=0)
    sd = split(ds, 0.7, seed=5)
    merged = np.sort(np.concatenate([sd.train_indices, sd.test_indices]))
    np.testing.assert_array_equal(merged, np.arange(17))
    np.testing.assert_array_equal(sd.train, ds.X[:, sd.train_indices])


def test_split_deterministic_and_seed_sensitive():
    ds = synthesize(SpectrumSpec(1.0, -1.0, 4), 5, 30, seed=0)
    a = split(ds, 0.8, seed=2)
    b = split(ds, 0.8, seed=2)
    np.testing.assert_array_equal(a.train_indices, b.train_indices)
    c = split(ds, 0.8, seed=3)
    assert not np.array_equal(a.train_indices, c.train_indices)


def test_split_rejects_degenerate_fraction():
    ds = synthesize(SpectrumSpec(1.0, -1.0, 3), 4, 10, seed=0)
    with pytest.raises(ValueError):
        split(ds, 0.99, seed=0)  # rounds to all-train
    with pytest.raises(ValueError):
        split(ds, 0.01, seed=0)


# ---------------------------------------------------------------------------
# overall_variance
# ---------------------------------------------------------------------------


def test_overall_variance_constant_and_pm_one():
    assert overall_variance(np.full((3, 4), 2.5)) == 0.0
    X = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert overall_variance(X) == pytest.approx(1.0)


def test_overall_variance_matches_two_pass_oracle():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((40, 60)) * 1e3 + 5.0
    mu = float(np.sum(X)) / X.size
    oracle = float(np.sum((X - mu) ** 2)) / X.size
    assert overall_variance(X) == pytest.approx(oracle, rel=1e-12)


# ---------------------------------------------------------------------------
# energy_rank
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "exponent,expected", [(-1.6, 23), (-1.1, 355), (-0.6, 798)]
)
def test_energy_rank_published_counts(exponent, expected):
    s = power_law_spectrum(SpectrumSpec(1.21e5, exponent, 1024))
    assert energy_rank(s, 0.9) == expected


def test_energy_rank_full_fraction_hits_last_positive():
    s = np.array([3.0, 2.0, 1.0, 0.0, 0.0])
    assert energy_rank(s, 1.0) == 3


def test_energy_rank_monotone_in_fraction():
    s = power_law_spectrum(SpectrumSpec(10.0, -1.2, 50))
    ranks = [energy_rank(s, f) for f in np.linspace(0.05, 1.0, 20)]
    assert all(a <= b for a, b in zip(ranks, ranks[1:]))


def test_energy_rank_rejects_zero_spectrum():
    with pytest.raises(ValueError):
        energy_rank(np.zeros(4), 0.9)


# ---------------------------------------------------------------------------
# fit_power_law
# ---------------------------------------------------------------------------


def test_fit_power_law_exact():
    s = 2.0 * np.arange(1, 51, dtype=float) ** -1.5
    a, b = fit_power_law(s)
    assert a == pytest.approx(2.0, abs=1e-9)
    assert b == pytest.approx(-1.5, abs=1e-9)


def test_fit_power_law_constant():
    a, b = fit_power_law(np.full(20, 3.0))
    assert a == pytest.approx(3.0, abs=1e-9)
    assert b == pytest.approx(0.0, abs=1e-9)


def test_fit_power_law_recovers_under_noise():
    rng = np.random.default_rng(21)
    i = np.arange(1, 501, dtype=float)
    s = 4.0 * i**-1.2 * (1.0 + 0.01 * rng.standard_normal(500))
    _, b = fit_power_law(s)
    assert b == pytest.approx(-1.2, abs=0.05)


def test_fit_power_law_rejects_nonpositive():
    with pytest.raises(ValueError):
        fit_power_law(np.array([1.0, 0.0, 2.0]))


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------


def _tiny_dataset():
    X = np.array([[1.0, -2.5], [3.25e-7, 4.0], [1.0 / 3.0, 9.9e12]])
    return Dataset(X, "tiny")


def test_binary_byte_layout(tmp_path):
    import struct

    ds = Dataset(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]), "t")
    path = str(tmp_path / "layout.bin")
    save_matrix(ds, path, "binary")
    blob = Path(path).read_bytes()
    assert blob[:4] == b"SSNS"
    assert int.from_bytes(blob[4:12], "little") == 3
    assert int.from_bytes(blob[12:20], "little") == 2
    assert struct.unpack("<6d", blob[20:]) == (1.0, 3.0, 5.0, 2.0, 4.0, 6.0)


def test_binary_round_trip_is_exact(tmp_path):
    ds = _tiny_dataset()
    path = str(tmp_path / "m.bin")
    save_matrix(ds, path, "binary")
    back = load_matrix(path)
    np.testing.assert_array_equal(back.X, ds.X)
    assert back.provenance == FileSource(path)


def test_csv_round_trip_is_exact(tmp_path):
    ds = _tiny_dataset()
    path = str(tmp_path / "m.csv")
    save_matrix(ds, path, "csv")
    back = load_matrix(path)
    np.testing.assert_array_equal(back.X, ds.X)


def test_csv_without_header_loads(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("1.5,2.0\n3.0,4.0\n")
    ds = load_matrix(str(path))
    np.testing.assert_allclose(ds.X, [[1.5, 2.0], [3.0, 4.0]])


def test_csv_ragged_rows_name_the_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("2,3\n1.0,2.0,3.0\n4.0,5.0\n")
    with pytest.raises(MatrixParseError, match="line 3"):
        load_matrix(str(path))


def test_csv_header_mismatch_is_format_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("3,2\n1.0,2.0\n3.0,4.0\n")
    with pytest.raises(MatrixFormatError, match="declares 3x2"):
        load_matrix(str(path))


def test_csv_non_numeric_field(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(MatrixParseError, match="line 2"):
        load_matrix(str(path))


def test_csv_line_numbers_count_blank_lines(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("2,2\n\n1,2\n\n3,x\n")
    with pytest.raises(MatrixParseError, match="line 5"):
        load_matrix(str(path))
    path.write_text("\n1.5,2\n\n\n3,4,5\n")
    with pytest.raises(MatrixParseError, match="line 5: expected 2 values"):
        load_matrix(str(path))


def test_csv_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_bytes(b"\r\n2,2\r\n\r\n1,2\n  \n3,4\n\n")
    np.testing.assert_array_equal(load_matrix(str(path)).X, [[1.0, 2.0], [3.0, 4.0]])


def test_csv_non_ascii_names_file_and_line(tmp_path):
    path = tmp_path / "accent.csv"
    path.write_bytes("1,2\n\n3,4\n5,6\u00e9\n".encode("utf-8"))
    with pytest.raises(MatrixParseError) as info:
        load_matrix(str(path))
    message = str(info.value)
    assert message.startswith(f"{path}: line 4: ")
    assert "0xc3" in message


def test_empty_file_is_format_error(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    with pytest.raises(MatrixFormatError, match="empty"):
        load_matrix(str(path))


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\0" * 32)
    with pytest.raises(MatrixFormatError, match="magic"):
        load_matrix(str(path), fmt="binary")


def test_binary_truncated_payload(tmp_path):
    ds = _tiny_dataset()
    path = tmp_path / "trunc.bin"
    save_matrix(ds, str(path), "binary")
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(MatrixFormatError, match="bytes"):
        load_matrix(str(path))
