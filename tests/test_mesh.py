"""Mesh generators and affine reference maps."""

import math

import numpy as np
import pytest

from ctrldisc.mesh import (
    SimplexMesh,
    cell_affine_map,
    cell_geometry,
    unit_interval_mesh,
    unit_square_mesh,
)


def test_unit_interval_examples():
    mesh = unit_interval_mesh(1)
    assert mesh.num_cells == 1
    assert mesh.h == 1.0
    np.testing.assert_allclose(mesh.vertices[mesh.cells[0]].ravel(), [0.0, 1.0])

    mesh = unit_interval_mesh(4)
    assert mesh.num_cells == 4
    assert abs((cell_geometry(mesh)[1] / math.factorial(1)).sum() - 1.0) < 1e-14

    assert unit_interval_mesh(16).h == 1.0 / 16


def test_unit_square_examples():
    mesh = unit_square_mesh(1)
    assert mesh.num_cells == 2
    np.testing.assert_allclose(cell_geometry(mesh)[1] / math.factorial(2), [0.5, 0.5])

    mesh = unit_square_mesh(2)
    assert mesh.num_cells == 8
    assert mesh.num_vertices == 9
    assert abs((cell_geometry(mesh)[1] / math.factorial(2)).sum() - 1.0) < 1e-14

    assert unit_square_mesh(4).h == math.sqrt(2.0) / 4


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_volume_partition(n):
    for mesh in (unit_interval_mesh(n), unit_square_mesh(n)):
        volumes = cell_geometry(mesh)[1] / math.factorial(mesh.dim)
        assert abs(volumes.sum() - 1.0) < 1e-14
        assert (volumes > 0).all()


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_refinement_halves_h_exactly(n):
    assert unit_square_mesh(2 * n).h == unit_square_mesh(n).h / 2
    assert unit_interval_mesh(2 * n).h == unit_interval_mesh(n).h / 2


def test_cell_diameters_bounded_by_h():
    mesh = unit_square_mesh(3)
    for ci in range(mesh.num_cells):
        verts = mesh.vertices[mesh.cells[ci]]
        diam = max(
            np.linalg.norm(verts[a] - verts[b])
            for a in range(3)
            for b in range(a + 1, 3)
        )
        assert diam <= mesh.h + 1e-14


def test_affine_map_interval():
    mesh = unit_interval_mesh(4)
    amap = cell_affine_map(mesh, 1)  # cell [0.25, 0.5]
    assert amap.matrix[0, 0] == pytest.approx(0.25)
    assert amap.offset[0] == pytest.approx(0.25)
    assert amap.abs_det == pytest.approx(0.25)


def test_affine_map_reference_shaped_cell_is_identity():
    from ctrldisc.mesh import SimplexMesh

    mesh = SimplexMesh(
        dim=2,
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        cells=np.array([[0, 1, 2]]),
        h=math.sqrt(2.0),
    )
    amap = cell_affine_map(mesh, 0)
    np.testing.assert_array_equal(amap.matrix, np.eye(2))
    np.testing.assert_array_equal(amap.offset, np.zeros(2))
    assert amap.abs_det == 1.0


def test_affine_map_square_mesh_cells():
    mesh = unit_square_mesh(1)
    ref_vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for ci in range(mesh.num_cells):
        amap = cell_affine_map(mesh, ci)
        assert amap.abs_det == pytest.approx(1.0)
        mapped = amap.apply(ref_vertices)
        np.testing.assert_allclose(mapped, mesh.vertices[mesh.cells[ci]], atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_affine_map_det_structured_square(n):
    mesh = unit_square_mesh(n)
    for ci in range(mesh.num_cells):
        assert cell_affine_map(mesh, ci).abs_det == pytest.approx(1.0 / n**2, rel=1e-14, abs=0)


def test_affine_map_hits_stored_vertices():
    for mesh in (unit_interval_mesh(3), unit_square_mesh(3)):
        ref_vertices = np.vstack([np.zeros((1, mesh.dim)), np.eye(mesh.dim)])
        for ci in range(mesh.num_cells):
            mapped = cell_affine_map(mesh, ci).apply(ref_vertices)
            np.testing.assert_allclose(mapped, mesh.vertices[mesh.cells[ci]], atol=1e-14)


def test_degenerate_cell_rejected():
    from ctrldisc.mesh import SimplexMesh

    mesh = SimplexMesh(
        dim=2,
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
        cells=np.array([[0, 1, 2]]),
        h=2.0,
    )
    with pytest.raises(ValueError):
        cell_affine_map(mesh, 0)


def test_mesh_inputs_validated():
    with pytest.raises(ValueError):
        unit_interval_mesh(0)
    with pytest.raises(ValueError):
        unit_square_mesh(0)


@pytest.mark.parametrize("maker", [unit_interval_mesh, unit_square_mesh])
def test_mesh_sizes_must_be_integers(maker):
    # a float size passes n >= 1, and then np.arange(n + 1) / n reaches past 1
    for n in (3.7, 2.5, 4.0):
        with pytest.raises(ValueError, match="must be an integer"):
            maker(n)
    mesh = maker(np.int64(3))
    assert np.array_equal(mesh.vertices, maker(3).vertices) and mesh.h == maker(3).h


def test_mesh_arrays_immutable():
    mesh = unit_square_mesh(2)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 5.0
    with pytest.raises(ValueError):
        mesh.cells[0, 0] = 7


def test_unit_square_cell_order():
    # square (i, j) gives cells 2(jn + i) and 2(jn + i) + 1, lower right first
    n = 3
    expected = []
    for j in range(n):
        for i in range(n):
            a = j * (n + 1) + i
            expected += [(a, a + 1, a + n + 2), (a, a + n + 2, a + n + 1)]
    np.testing.assert_array_equal(unit_square_mesh(n).cells, expected)


def test_cell_geometry_matches_affine_maps():
    for mesh in (unit_interval_mesh(4), unit_square_mesh(3)):
        matrices, abs_det = cell_geometry(mesh)
        assert matrices.shape == (mesh.num_cells, mesh.dim, mesh.dim)
        for ci in range(mesh.num_cells):
            amap = cell_affine_map(mesh, ci)
            np.testing.assert_array_equal(matrices[ci], amap.matrix)
            assert abs_det[ci] == amap.abs_det


def test_cell_geometry_general_dimension():
    # two tetrahedra of the Kuhn split of the unit cube: |det B| = 1 each
    cube = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=float)
    mesh = SimplexMesh(dim=3, vertices=cube, cells=np.array([[0, 1, 2, 3], [0, 2, 4, 3]]), h=1.0)
    matrices, abs_det = cell_geometry(mesh)
    np.testing.assert_allclose(abs_det, [1.0, 1.0], rtol=1e-15)
    np.testing.assert_allclose(abs_det / math.factorial(3), [1 / 6, 1 / 6], rtol=1e-15)
    np.testing.assert_array_equal(matrices[0], [[1, 1, 1], [0, 1, 1], [0, 0, 1]])
