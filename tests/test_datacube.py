import numpy as np
import pytest

from hsrec.datacube import Datacube, as_band_pixel_matrix, cube_from_matrix


def random_cube(n_v, n_h, n_s, seed=0):
    gen = np.random.default_rng(seed)
    return Datacube(np.ascontiguousarray(gen.normal(size=(n_v, n_h, n_s))))


def test_pixel_linear_index_values():
    # pixel (i, j) of an n_v-row frame sits at column i + j * n_v
    data = np.arange(16, dtype=np.float64).reshape(4, 4, 1)
    x = as_band_pixel_matrix(Datacube(data))
    assert x[0, 0] == data[0, 0, 0]
    assert x[0, 14] == data[2, 3, 0]
    assert x[0, 3] == data[3, 0, 0]


def test_cube_validation():
    with pytest.raises(ValueError):
        Datacube(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Datacube(np.full((2, 2, 2), np.nan))
    cube = random_cube(3, 4, 2)
    assert (cube.n_v, cube.n_h, cube.n_s, cube.n_p) == (3, 4, 2, 12)


def test_single_sample_matrix():
    cube = Datacube(np.full((1, 1, 1), 7.5))
    assert as_band_pixel_matrix(cube).tolist() == [[7.5]]


def test_two_pixel_matrix_layout():
    # 2x1 frames [a;b] and [c;d] stack as rows [a,b] and [c,d]
    data = np.empty((2, 1, 2))
    data[:, 0, 0] = [1.0, 2.0]
    data[:, 0, 1] = [3.0, 4.0]
    x = as_band_pixel_matrix(Datacube(data))
    assert x.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_matrix_row_is_column_major_frame():
    cube = random_cube(3, 4, 2, seed=1)
    x = as_band_pixel_matrix(cube)
    for k in range(2):
        assert np.array_equal(x[k], cube.data[:, :, k].flatten(order="F"))
    for i in range(3):
        for j in range(4):
            for k in range(2):
                assert x[k, i + j * 3] == cube.data[i, j, k]


def test_matrix_round_trip():
    cube = random_cube(3, 4, 2, seed=2)
    back = cube_from_matrix(as_band_pixel_matrix(cube), 3, 4)
    assert np.array_equal(back.data, cube.data)


def test_cube_from_matrix_validates_shape():
    for x in (np.zeros((2, 11)), np.zeros(12), np.zeros((1, 2, 12))):
        with pytest.raises(ValueError, match="does not match a 3x4 grid"):
            cube_from_matrix(x, 3, 4)

