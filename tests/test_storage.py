import tracemalloc

import numpy as np
import pytest
from oracles import reference_covariance_csv, reference_csv, reference_ensemble_csv

from covloc import BlockCovariance, ContractViolationError, EnsembleState, localize
from covloc.lattice import ring_matrix
from covloc.storage import (
    _BLOCK_VALUES,
    read_array,
    read_covariance,
    read_covariance_csv,
    write_array,
    write_covariance,
    write_covariance_csv,
    write_csv,
    write_ensemble_csv,
)


def test_array_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.standard_normal((5, 7, 2))
    path = tmp_path / "x.cvl"
    write_array(path, data, 1.25)
    back, t = read_array(path)
    assert t == 1.25
    np.testing.assert_array_equal(back, data)
    assert back.flags.writeable


def test_header_layout_is_the_documented_one(tmp_path):
    path = tmp_path / "x.cvl"
    write_array(path, np.zeros((2, 3, 1)), 0.5)
    raw = path.read_bytes()
    assert raw[:4] == b"CVL1"
    assert int.from_bytes(raw[4:12], "little") == 2
    assert int.from_bytes(raw[12:20], "little") == 3
    assert int.from_bytes(raw[20:28], "little") == 1
    assert np.frombuffer(raw[28:36], dtype="<f8")[0] == 0.5
    assert len(raw) == 36 + 8 * 6


def test_ensemble_roundtrip(tmp_path):
    samples = np.arange(24, dtype=float).reshape(3, 4, 2)
    ens = EnsembleState(samples=samples, time=2.0)
    path = tmp_path / "e.cvl"
    write_array(path, ens.samples, ens.time)
    back, t = read_array(path)
    np.testing.assert_array_equal(back, samples)
    assert t == 2.0


def test_covariance_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    m = rng.standard_normal((8, 8))
    cov = BlockCovariance(m + m.T, 4, 2)
    path = tmp_path / "c.cvl"
    write_covariance(path, cov, 5.0)
    back, t = read_covariance(path, block_dim=2)
    np.testing.assert_array_equal(back.data, cov.data)
    assert (back.n_blocks, back.block_dim, t) == (4, 2, 5.0)


def test_covariance_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    m = rng.standard_normal((6, 6))
    cov = BlockCovariance(m + m.T, 6, 1)
    path = tmp_path / "c.csv"
    write_covariance_csv(path, cov)
    back = read_covariance_csv(path)
    np.testing.assert_array_equal(back.data, cov.data)


def test_ensemble_csv_columns(tmp_path):
    ens = EnsembleState(samples=np.zeros((2, 3, 1)), time=0.0)
    path = tmp_path / "e.csv"
    write_ensemble_csv(path, ens)
    lines = path.read_text().splitlines()
    assert lines[0] == "sample,block,component,value"
    assert len(lines) == 1 + 2 * 3


def test_csv_floats_roundtrip_exactly(tmp_path):
    path = tmp_path / "vals.csv"
    values = [0.1, 1.0 / 3.0, 1e-300, 123456.789012345678]
    write_csv(path, ["v"], [(v,) for v in values])
    back = [float(line) for line in path.read_text().splitlines()[1:]]
    assert back == values


def _wide_values(shape, seed):
    """Values from 1e-300 to 1e300 of both signs, with -0.0 and a subnormal."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 301, shape)
    flat = values.reshape(-1)
    flat[:4] = (-0.0, 5e-324, 1e-300, -1e300)
    return values


def test_covariance_csv_matches_the_csv_writer_reference(tmp_path):
    m = _wide_values((12, 12), 7)
    cov = BlockCovariance(np.triu(m) + np.triu(m, 1).T, 6, 2)
    write_covariance_csv(tmp_path / "new.csv", cov)
    reference_covariance_csv(tmp_path / "ref.csv", cov.data)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_ensemble_csv_matches_the_csv_writer_reference(tmp_path):
    ens = EnsembleState(samples=_wide_values((3, 5, 2), 8), time=0.5)
    write_ensemble_csv(tmp_path / "new.csv", ens)
    reference_ensemble_csv(tmp_path / "ref.csv", ens.samples)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_mixed_cells_match_the_csv_writer_reference(tmp_path):
    rows = [(1, np.int64(2), np.float64(0.1), np.float32(0.1), True, "spatial-average", -0.0)]
    write_csv(tmp_path / "new.csv", ["i", "j", "a", "b", "flag", "method", "z"], rows)
    reference_csv(tmp_path / "ref.csv", ["i", "j", "a", "b", "flag", "method", "z"], rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _rows_per_block(width):
    return max(1, _BLOCK_VALUES // width)


@pytest.mark.parametrize("bandwidth", [None, 7], ids=["circulant", "localized"])
def test_ring_covariance_csv_over_several_blocks_matches_the_reference(tmp_path, bandwidth):
    # few distinct values, over 3 full row blocks and a partial last one
    d = 300
    assert d // _rows_per_block(d) >= 3 and d % _rows_per_block(d)
    row = np.exp(-0.1 * np.arange(d)) * np.random.default_rng(9).uniform(0.5, 1.0, d)
    cov = BlockCovariance(ring_matrix(row), d, 1)
    if bandwidth is not None:
        cov = localize(cov, bandwidth)
    write_covariance_csv(tmp_path / "new.csv", cov)
    reference_covariance_csv(tmp_path / "ref.csv", cov.data)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_signed_zeros_in_one_block_keep_their_own_text(tmp_path):
    samples = np.zeros((4, 3, 2))
    samples[::2, :, 1] = -0.0
    samples[1, 1, 0] = 5e-324
    write_ensemble_csv(tmp_path / "new.csv", EnsembleState(samples, 0.0))
    reference_ensemble_csv(tmp_path / "ref.csv", samples)
    text = (tmp_path / "new.csv").read_text()
    assert text == (tmp_path / "ref.csv").read_text()
    assert text.count(",-0.0\n") == 6 and text.count(",0.0\n") == 17


def test_ensemble_csv_over_several_blocks_matches_the_reference(tmp_path):
    k = 3 * _rows_per_block(64 * 2) + 5
    samples = _wide_values((k, 64, 2), 10)
    samples[-1] = samples[0]  # values repeated across blocks
    write_ensemble_csv(tmp_path / "new.csv", EnsembleState(samples, 0.0))
    reference_ensemble_csv(tmp_path / "ref.csv", samples)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("shape", [(0, 3, 2), (2, 3, 0), (1, 1, 1)])
def test_ensemble_csv_of_an_empty_or_single_entry_array(tmp_path, shape):
    samples = np.full(shape, 0.25)
    write_ensemble_csv(tmp_path / "new.csv", EnsembleState(samples, 0.0))
    reference_ensemble_csv(tmp_path / "ref.csv", samples)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _writer_peak_bytes(path, samples):
    ens = EnsembleState(samples, 0.0)
    tracemalloc.start()
    try:
        write_ensemble_csv(path, ens)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writer_memory_is_bounded_by_one_block_not_the_file(tmp_path):
    # no value repeats, so every entry of a block holds a string of its own
    width = 256
    rows = _rows_per_block(width)
    values = np.random.default_rng(11).standard_normal((16 * rows, width // 2, 2))
    one_block = _writer_peak_bytes(tmp_path / "one.csv", values[:rows])
    sixteen = _writer_peak_bytes(tmp_path / "all.csv", values)
    assert sixteen < 1.5 * one_block
    assert sixteen < 300 * _BLOCK_VALUES  # bytes per entry of one block


@pytest.mark.parametrize("cell", ["a,b", 'say "x"', "line\nbreak", "cr\r"])
def test_csv_rejects_a_cell_that_needs_quoting(tmp_path, cell):
    with pytest.raises(ContractViolationError, match="quoting"):
        write_csv(tmp_path / "bad.csv", ["label"], [(cell,)])
    with pytest.raises(ContractViolationError, match="quoting"):
        write_csv(tmp_path / "bad.csv", [cell], [])


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.cvl"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ContractViolationError):
        read_array(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "short.cvl"
    write_array(path, np.zeros((2, 2, 1)), 0.0)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ContractViolationError):
        read_array(path)


def test_covariance_reader_checks_shape(tmp_path):
    path = tmp_path / "notcov.cvl"
    write_array(path, np.zeros((3, 4, 2)), 0.0)
    with pytest.raises(ContractViolationError):
        read_covariance(path)


def _small_covariance(d=8):
    m = np.random.default_rng(4).standard_normal((d, d))
    return BlockCovariance(m + m.T, d, 1)


def test_readers_reject_a_nonpositive_block_dim(tmp_path):
    write_covariance(tmp_path / "c.cvl", _small_covariance())
    write_covariance_csv(tmp_path / "c.csv", _small_covariance())
    for block_dim in (0, -2):
        with pytest.raises(ContractViolationError, match="block_dim"):
            read_covariance(tmp_path / "c.cvl", block_dim)
        with pytest.raises(ContractViolationError, match="block_dim"):
            read_covariance_csv(tmp_path / "c.csv", block_dim)


@pytest.mark.parametrize(
    "edit",
    [
        lambda lines: lines + ["1,1,9.0"],  # a repeated entry
        lambda lines: [line for line in lines if not line.startswith(("1,6,", "6,1,"))],
        lambda lines: lines[:-1],  # the last entry missing
        lambda lines: lines + ["0,1,0.0"],  # a zero index
    ],
    ids=["duplicate", "missing-pair", "missing-last", "zero-index"],
)
def test_covariance_csv_needs_every_entry_exactly_once(tmp_path, edit):
    path = tmp_path / "c.csv"
    write_covariance_csv(path, _small_covariance())
    header, *lines = path.read_text().splitlines()
    path.write_text("\n".join([header] + edit(lines)) + "\n")
    with pytest.raises(ContractViolationError):
        read_covariance_csv(path)


def test_covariance_csv_rejects_malformed_rows(tmp_path):
    path = tmp_path / "c.csv"
    for body in ("", "1,1\n", "1,x,0.5\n", "1,1.5,0.5\n"):
        path.write_text("row,col,value\n" + body)
        with pytest.raises(ContractViolationError):
            read_covariance_csv(path)
