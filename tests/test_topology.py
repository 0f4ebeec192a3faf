import numpy as np
import pytest

from gridtrade import MicrogridTopology, incidence_matrix, laplacian
from gridtrade.topology import AgentLayout


def ring4():
    return MicrogridTopology(4, [(1, 2), (2, 3), (3, 4), (4, 1)], [1, 2, 3, 1])


def random_connected(rng, n):
    # random spanning tree plus a few extra edges
    edges = []
    for v in range(2, n + 1):
        u = int(rng.integers(1, v))
        edges.append((u, v))
    for _ in range(rng.integers(0, n)):
        a, b = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        edges.append((int(a), int(b)))
    managers = [e[rng.integers(0, 2)] for e in edges]
    return MicrogridTopology(n, edges, managers)


class TestIncidence:
    def test_single_edge(self):
        topo = MicrogridTopology(2, [(1, 2)], [1])
        assert np.array_equal(incidence_matrix(topo), [[1.0], [-1.0]])

    def test_ring_columns(self):
        B = incidence_matrix(ring4())
        assert B.shape == (4, 4)
        assert np.array_equal(B[:, 0], [1, -1, 0, 0])
        assert np.array_equal(B[:, 1], [0, 1, -1, 0])
        assert np.array_equal(B[:, 2], [0, 0, 1, -1])
        assert np.array_equal(B[:, 3], [-1, 0, 0, 1])

    def test_column_sums_zero(self):
        rng = np.random.default_rng(7)
        for n in (2, 4, 6, 9):
            topo = random_connected(rng, n)
            assert np.array_equal(incidence_matrix(topo).sum(axis=0),
                                  np.zeros(topo.m))


class TestLaplacian:
    def test_ring_spectrum(self):
        eig = np.sort(np.linalg.eigvalsh(laplacian(ring4())))
        assert np.allclose(eig, [0, 2, 2, 4], atol=1e-12)

    def test_two_node_path(self):
        topo = MicrogridTopology(2, [(1, 2)], [2])
        assert np.array_equal(laplacian(topo), [[1, -1], [-1, 1]])

    def test_algebraic_connectivity_positive(self):
        rng = np.random.default_rng(11)
        for n in (3, 5, 8):
            topo = random_connected(rng, n)
            eig = np.sort(np.linalg.eigvalsh(laplacian(topo)))
            assert eig[1] > 1e-9

    def test_equals_bbt_exactly(self):
        rng = np.random.default_rng(13)
        for n in (2, 5, 7):
            topo = random_connected(rng, n)
            B = incidence_matrix(topo)
            assert np.array_equal(laplacian(topo), B @ B.T)

    def test_ones_in_kernel(self):
        topo = ring4()
        L = laplacian(topo)
        assert np.array_equal(L @ np.ones(4), np.zeros(4))
        assert np.array_equal(np.ones(4) @ L, np.zeros(4))


class TestValidation:
    def test_manager_must_be_endpoint(self):
        with pytest.raises(ValueError, match="not an endpoint"):
            MicrogridTopology(3, [(1, 2), (2, 3)], [3, 2])

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="not connected"):
            MicrogridTopology(4, [(1, 2), (3, 4)], [1, 3])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            MicrogridTopology(2, [(1, 1)], [1])

    def test_manager_count(self):
        with pytest.raises(ValueError):
            MicrogridTopology(2, [(1, 2)], [])

    def test_partition(self):
        topo = ring4()
        managed = topo.managed_lines
        all_edges = sorted(k for v in managed.values() for k in v)
        assert all_edges == [1, 2, 3, 4]
        assert sum(len(v) for v in managed.values()) == topo.m
        assert managed[4] == ()  # an agent may manage no line

    def test_empty_manager_layout(self):
        lay = AgentLayout(ring4())
        assert list(lay.dims) == [4, 3, 3, 2]
        assert lay.size == 12


class TestAgentLayout:
    def test_stack_split_roundtrip(self):
        lay = AgentLayout(ring4())
        rng = np.random.default_rng(5)
        I, V, Il = rng.normal(size=4), rng.normal(size=4), rng.normal(size=4)
        x = lay.stack(I, V, Il)
        I2, V2, Il2 = lay.split(x)
        assert np.array_equal(I, I2)
        assert np.array_equal(V, V2)
        assert np.array_equal(Il, Il2)

    def test_line_positions_follow_managers(self):
        lay = AgentLayout(ring4())
        # agent 1 manages lines 1 and 4: block = (I, V, Il_1, Il_4)
        assert lay.ix_line[0] == 2 and lay.ix_line[3] == 3
        assert lay.ix_line[1] == 6   # agent 2's third slot
        assert lay.ix_line[2] == 9   # agent 3's third slot
