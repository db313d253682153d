import numpy as np
import pytest

from protoneuro import coding
from protoneuro.coding import CodeMatrix, CodingConfig, WeightMatrix
from protoneuro.errors import ShapeError, ValidationError


def test_encode_elementwise():
    code = coding.encode([[0.1, 0.3], [0.5, 0.0]], 0.2)
    assert code.entries.tolist() == [[0, 1], [1, 0]]


def test_encode_all_below_threshold():
    code = coding.encode(np.full((3, 5), -1.0), 0.0)
    assert not code.entries.any()


def test_encode_boundary_is_strict():
    code = coding.encode([[0.2, np.nextafter(0.2, 1.0)]], 0.2)
    assert code.entries.tolist() == [[0, 1]]


def test_encode_idempotent_on_codes():
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, size=(6, 40))
    once = coding.encode(bits.astype(float), 0.5)
    again = coding.encode(once.entries.astype(float), 0.5)
    assert np.array_equal(once.entries, bits)
    assert np.array_equal(again.entries, once.entries)


def test_encode_monotone_in_threshold():
    rng = np.random.default_rng(1)
    pots = rng.standard_normal((8, 100))
    thresholds = np.sort(rng.standard_normal(6))
    previous = coding.encode(pots, thresholds[0]).entries
    for theta in thresholds[1:]:
        current = coding.encode(pots, theta).entries
        assert not np.any(current > previous)  # raising theta never turns 0 into 1
        previous = current


def test_encode_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        coding.encode([1.0, 2.0], 0.5)
    with pytest.raises(ShapeError):
        coding.encode([[1.0, 2.0]], 0.5, labels=["a", "b"])


@pytest.mark.parametrize("bad", [0.5, 2, -1, np.nan])
def test_code_matrix_rejects_entries_other_than_0_and_1(bad):
    with pytest.raises(ValidationError, match="^code entries must be 0 or 1$"):
        CodeMatrix(np.array([[0, 1], [1, bad]]))


@pytest.mark.parametrize("dtype", [bool, np.int64, np.float64])
def test_code_matrix_takes_0_and_1_of_any_dtype_as_the_same_entries(dtype):
    given = np.array([[0, 1, 1], [1, 0, 0]], dtype=dtype)
    code = CodeMatrix(given)
    assert code.entries.dtype == np.uint8
    assert code.entries.tobytes() == bytes([0, 1, 1, 1, 0, 0])
    assert not np.shares_memory(code.entries, given)


def test_init_weights_range_and_determinism():
    w1 = coding.init_weights(10, seed=123)
    w2 = coding.init_weights(10, seed=123)
    assert np.array_equal(w1.entries, w2.entries)
    assert np.all(np.abs(w1.entries) <= 1.0)
    assert coding.init_weights(1, seed=0).entries.shape == (1, 1)
    assert not np.array_equal(w1.entries, coding.init_weights(10, seed=124).entries)


def test_init_weights_pooled_mean_near_zero():
    # 1e4 seeds x 100 entries: the pooled mean settles well within 0.02 of 0.
    total = 0.0
    count = 0
    for seed in range(10_000):
        e = coding.init_weights(10, seed=seed).entries
        total += e.sum()
        count += e.size
    assert abs(total / count) < 0.02


def test_reference_matrix_cells():
    w = coding.reference_weight_matrix()
    assert w.entries.shape == (10, 10)
    assert w.entries[0, 0] == -1.0
    assert w.entries[2, 2] == -0.4
    assert w.entries[9, 0] == 0.3
    assert tuple(w.entries[0]) == (-1.0, 1.0, 1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0)
    assert np.all(np.abs(w.entries) <= 1.0)


def test_weight_matrix_validation():
    with pytest.raises(ValidationError):
        WeightMatrix(np.full((2, 2), 1.5))
    with pytest.raises(ShapeError):
        WeightMatrix(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        WeightMatrix(np.array([[np.inf, 0.0], [0.0, 0.0]]))


def test_weight_matrix_sources():
    from protoneuro.config import derive_seed
    assert np.array_equal(coding.weight_matrix("reference", 10, 3).entries,
                          coding.reference_weight_matrix().entries)
    with pytest.raises(ValidationError, match="10x10, not 5x5"):
        coding.weight_matrix("reference", 5, 3)
    assert np.array_equal(coding.weight_matrix("seeded", 4, 3).entries,
                          coding.init_weights(4, derive_seed(3, "weights")).entries)


def test_psi_ppi_zero_codes():
    w = coding.reference_weight_matrix()
    grid = coding.psi_ppi(w, CodeMatrix(np.zeros((10, 6))))
    assert not grid.grid.any()
    assert not grid.psi.any()
    assert not grid.ppi.any()


def test_psi_ppi_all_ones_recovers_weights():
    w = coding.reference_weight_matrix()
    grid = coding.psi_ppi(w, CodeMatrix(np.ones((10, 4))))
    assert np.array_equal(grid.grid, w.entries)
    assert grid.psi[0] == pytest.approx(2.0)  # row-1 sum of the fixed matrix
    np.testing.assert_allclose(grid.psi, w.entries.sum(axis=1))
    np.testing.assert_allclose(grid.ppi, w.entries.sum(axis=0))


def test_psi_ppi_scales_with_activity():
    w = coding.init_weights(4, seed=5)
    full = coding.psi_ppi(w, CodeMatrix(np.ones((4, 8))))
    half_code = np.ones((4, 8))
    half_code[:, ::2] = 0
    half = coding.psi_ppi(w, CodeMatrix(half_code))
    np.testing.assert_allclose(half.grid, 0.5 * full.grid)
    np.testing.assert_allclose(half.psi, 0.5 * full.psi)


def test_psi_ppi_row_and_column_sums():
    rng = np.random.default_rng(3)
    w = coding.init_weights(6, seed=9)
    code = CodeMatrix(rng.integers(0, 2, size=(6, 20)))
    grid = coding.psi_ppi(w, code)
    np.testing.assert_allclose(grid.psi, grid.grid.sum(axis=1))
    np.testing.assert_allclose(grid.ppi, grid.grid.sum(axis=0))
    activity = code.mean_activity()
    np.testing.assert_allclose(grid.grid, w.entries * activity[np.newaxis, :])


def test_psi_ppi_shape_mismatch():
    with pytest.raises(ShapeError):
        coding.psi_ppi(coding.init_weights(3, 0), CodeMatrix(np.zeros((4, 5))))


def test_fire_step_zero_column():
    w = coding.reference_weight_matrix()
    out = coding.fire_step(np.zeros(10), w, 0.1)
    assert not out.any()


def test_fire_step_identity_weights():
    w = WeightMatrix(np.eye(2))
    assert coding.fire_step([1, 0], w, 0.5).tolist() == [1, 0]


def test_fire_step_reference_row_sums():
    w = coding.reference_weight_matrix()
    out = coding.fire_step(np.ones(10), w, 0.0)
    expected = (w.entries.sum(axis=1) > 0).astype(int)
    assert out.tolist() == expected.tolist()
    assert out[0] == 1  # row-1 sum is 2.0


def test_fire_step_scale_invariance():
    # small base weights so every scale factor keeps entries inside [-1, 1]
    rng = np.random.default_rng(4)
    w = WeightMatrix(rng.uniform(-0.1, 0.1, (5, 5)))
    col = rng.integers(0, 2, 5)
    theta = 0.03
    base = coding.fire_step(col, w, theta)
    for c in (0.25, 0.5, 2.0, 7.5):
        scaled = coding.fire_step(col, WeightMatrix(w.entries * c), theta * c)
        assert np.array_equal(base, scaled)


def test_fire_step_shape_mismatch():
    with pytest.raises(ShapeError):
        coding.fire_step([1, 0, 1], coding.init_weights(2, 0), 0.1)


def test_coding_config_validation():
    CodingConfig()
    with pytest.raises(ValidationError):
        CodingConfig(neuron_count=0)
    with pytest.raises(ValidationError):
        CodingConfig(time_window=0.0)
    with pytest.raises(ValidationError, match="time_window must be > 0"):
        CodingConfig(time_window=np.nan)
    with pytest.raises(ValidationError):
        CodingConfig(threshold=np.nan)
    assert CodingConfig(neuron_count=np.int64(10)).neuron_count == 10
    with pytest.raises(ValidationError, match="neuron_count must be an integer >= 1"):
        CodingConfig(neuron_count=1.5)


def test_code_csv_export(tmp_path):
    code = coding.encode([[0.9, 0.1, 0.6], [0.2, 0.8, 0.0]], 0.5, labels=["a", "b"])
    path = tmp_path / "code.csv"
    coding.write_code_csv(code, path)
    lines = path.read_text().splitlines()
    assert lines == ["a,b", "1,0", "0,1", "1,0"]


def test_code_csv_bytes_equal_the_per_sample_loop(tmp_path):
    entries = np.array([[1, 0, 0, 1, 1], [0, 0, 1, 1, 0], [1, 1, 1, 0, 0]])
    code = CodeMatrix(entries, neuron_labels=["a", "b", "c"])
    path = tmp_path / "code.csv"
    coding.write_code_csv(code, path)
    loop = "a,b,c\n" + "".join(",".join(str(int(x)) for x in code.entries[:, k]) + "\n"
                                for k in range(code.sample_count))
    assert path.read_bytes() == loop.encode()


def test_heatmap_svg_deterministic(tmp_path):
    grid = coding.psi_ppi(coding.reference_weight_matrix(), CodeMatrix(np.ones((10, 3))))
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    coding.write_heatmap_svg(grid, a)
    coding.write_heatmap_svg(grid, b)
    content = a.read_text()
    assert a.read_bytes() == b.read_bytes()
    assert content.startswith("<svg")
    assert content.count("<rect") == 100
    assert "rgb(" in content
