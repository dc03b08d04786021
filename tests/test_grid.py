import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import chwall as cw
import chwall.grid as grid_module
from chwall.grid import (
    FIELD_HEADER,
    GridMode,
    dot,
    h_inner,
    h_norm,
    load_field,
    save_field,
)


def test_unit_strip_measures():
    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=8, ny=8)
    assert abs(np.sum(g.bulk_weights) - 1.0) <= 1e-12
    assert abs(np.sum(g.bdry_weights) - 2.0) <= 1e-12


def test_interval_measures():
    g = cw.build_grid("interval1d", Ly=1.0, ny=16)
    assert abs(np.sum(g.bulk_weights) - 1.0) <= 1e-12
    # two endpoints of unit weight each
    assert g.bdry_weights.tolist() == [1.0, 1.0]
    assert abs(np.sum(g.bdry_weights) - 2.0) == 0.0


def test_wide_strip_area_exact():
    g = cw.build_grid("strip2d", Lx=2 * np.pi, Ly=1.0, nx=32, ny=16)
    assert abs(np.sum(g.bulk_weights) - 2 * np.pi) <= 1e-12 * 2 * np.pi


def test_boundary_rows_are_walls():
    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=8, ny=10)
    assert np.all(g.y[g.bdry_idx[: g.nx]] == 0.0)
    assert np.all(g.y[g.bdry_idx[g.nx:]] == g.Ly)
    # each wall node has an interior neighbor in the same column
    for k in g.bdry_idx[: g.nx]:
        assert not g.on_gamma[k + g.nx]
    for k in g.bdry_idx[g.nx:]:
        assert not g.on_gamma[k - g.nx]


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(mode="strip2d", Lx=-1.0, Ly=1.0, nx=8, ny=8),
        dict(mode="strip2d", Lx=1.0, Ly=0.0, nx=8, ny=8),
        dict(mode="strip2d", Lx=1.0, Ly=1.0, nx=3, ny=8),
        dict(mode="strip2d", Lx=1.0, Ly=1.0, nx=8, ny=3),
        dict(mode="interval1d", Ly=1.0, ny=3),
    ],
)
def test_build_grid_rejects_bad_dimensions(kwargs):
    with pytest.raises(ValueError):
        cw.build_grid(**kwargs)


def test_h_inner_zero_and_constants(unit_grid):
    z = np.zeros(unit_grid.n_nodes)
    one = np.full(unit_grid.n_nodes, 1.0)
    assert h_inner(unit_grid, z, z) == 0.0
    assert abs(h_inner(unit_grid, one, one) - 3.0) <= 1e-12


def test_h_inner_matches_fsum_oracle():
    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=16, ny=12)
    u = np.sin(2 * np.pi * g.x)
    # independent summation of the same grid function
    terms = [g.bulk_weights[k] * u[k] * u[k] for k in range(g.n_nodes)]
    terms += [
        g.bdry_weights[i] * u[k] * u[k] for i, k in enumerate(g.bdry_idx)
    ]
    oracle = math.fsum(terms)
    assert abs(h_inner(g, u, u) - oracle) <= 1e-12 * (1 + abs(oracle))
    # midpoint rule is exact for sin^2 over full periods
    assert abs(h_inner(g, u, u) - 1.5) <= 1e-12


def test_h_inner_bilinear_symmetric_positive(rng, unit_grid):
    g = unit_grid
    for _ in range(10):
        u = rng.standard_normal(g.n_nodes)
        v = rng.standard_normal(g.n_nodes)
        w = rng.standard_normal(g.n_nodes)
        a, b = rng.standard_normal(2)
        lin = h_inner(g, a * u + b * v, w)
        assert abs(lin - (a * h_inner(g, u, w) + b * h_inner(g, v, w))) <= 1e-10
        assert abs(h_inner(g, u, v) - h_inner(g, v, u)) <= 1e-14
        assert h_inner(g, u, u) > 0


def test_h_inner_periodic_shift_invariant(rng):
    g = cw.build_grid("strip2d", Lx=2.0, Ly=1.0, nx=16, ny=8)
    u = rng.standard_normal((g.ny, g.nx))
    v = rng.standard_normal((g.ny, g.nx))
    base = h_inner(g, u.reshape(-1), v.reshape(-1))
    for shift in (1, 3, 7):
        s = h_inner(
            g,
            np.roll(u, shift, axis=1).reshape(-1),
            np.roll(v, shift, axis=1).reshape(-1),
        )
        assert abs(s - base) <= 1e-12 * (1 + abs(base))


def test_field_snapshot_roundtrip(tmp_path, rng):
    g = cw.build_grid("strip2d", Lx=2.0, Ly=1.5, nx=8, ny=6)
    f = rng.standard_normal(g.n_nodes)
    path = tmp_path / "field.csv"
    save_field(g, f, path)
    loaded = load_field(path)
    assert loaded.grid == g
    assert np.array_equal(loaded.values, f)
    with open(path) as fh:
        assert fh.readline().startswith("# mode,Lx,Ly,nx,ny")
        fh.readline()
        cols = fh.readline().strip().split(",")
    assert cols == ["i", "j", "x", "y", "u", "on_gamma"]
    other = cw.build_grid("strip2d", Lx=2.0, Ly=1.5, nx=8, ny=8)
    with pytest.raises(ValueError, match="does not match"):
        load_field(path, grid=other)


def test_load_field_on_a_given_grid_builds_no_grid(tmp_path, rng, monkeypatch):
    # the header is compared with the given grid's parameters; no grid is
    # built per file, and an interval's header (Lx = 0, nx = 1) matches too
    for g in (cw.build_grid("strip2d", Lx=2.0, Ly=1.5, nx=8, ny=6),
              cw.build_grid("interval1d", Ly=1.5, ny=6)):
        f = rng.standard_normal(g.n_nodes)
        path = tmp_path / "field.csv"
        save_field(g, f, path)
        built = []
        monkeypatch.setattr(grid_module, "build_grid", lambda *a, **k: built.append(a))
        assert np.array_equal(load_field(path, grid=g).values, f)
        assert built == []
        monkeypatch.undo()


STRIP_SNAPSHOT = """\
# mode,Lx,Ly,nx,ny
# strip2d,1,1,4,4
i,j,x,y,u,on_gamma
0,0,0,0,-0.5,1
1,0,0.25,0,-0.40000000000000002,1
2,0,0.5,0,-0.29999999999999999,1
3,0,0.75,0,-0.19999999999999996,1
0,1,0,0.25,-0.099999999999999978,0
1,1,0.25,0.25,0,0
2,1,0.5,0.25,0.10000000000000009,0
3,1,0.75,0.25,0.20000000000000007,0
0,2,0,0.75,0.30000000000000004,0
1,2,0.25,0.75,0.40000000000000002,0
2,2,0.5,0.75,0.5,0
3,2,0.75,0.75,0.60000000000000009,0
0,3,0,1,0.70000000000000018,1
1,3,0.25,1,0.80000000000000004,1
2,3,0.5,1,0.90000000000000013,1
3,3,0.75,1,1,1
"""


def test_strip_snapshot_text_is_pinned(tmp_path):
    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=4, ny=4)
    path = tmp_path / "strip.csv"
    save_field(g, 0.1 * np.arange(g.n_nodes) - 0.5, path)
    assert path.read_text() == STRIP_SNAPSHOT


def snapshot_oracle(g, field):
    """The snapshot text formatted node by node, every column (test oracle)."""
    rows = [f"{FIELD_HEADER}\n# {g.mode.value},{g.Lx:.17g},{g.Ly:.17g},{g.nx},{g.ny}\n"
            "i,j,x,y,u,on_gamma\n"]
    for k, (x, y, u, w) in enumerate(zip(g.x.tolist(), g.y.tolist(),
                                         field.tolist(), g.on_gamma.tolist())):
        rows.append(f"{k % g.nx},{k // g.nx},{x:.17g},{y:.17g},{u:.17g},{int(w)}\n")
    return "".join(rows)


_LENGTHS = st.sampled_from([1.0, 0.3, 2.5, 1e-3, 7.0 / 3.0, 1e5])
_GRIDS = st.one_of(
    st.builds(lambda Lx, Ly, nx, ny: cw.build_grid("strip2d", Lx=Lx, Ly=Ly, nx=nx, ny=ny),
              _LENGTHS, _LENGTHS, st.integers(4, 9), st.integers(4, 9)),
    st.builds(lambda Ly, ny: cw.build_grid("interval1d", Ly=Ly, ny=ny),
              _LENGTHS, st.integers(4, 12)),
)
_VALUES = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.5e-310, 1e308, 0.1])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), g=_GRIDS)
def test_snapshot_bytes_match_per_node_formatting(tmp_path, data, g):
    values = data.draw(st.lists(_VALUES, min_size=g.n_nodes, max_size=g.n_nodes))
    field = np.array(values)
    path = tmp_path / "f.csv"
    save_field(g, field, path)
    assert path.read_bytes() == snapshot_oracle(g, field).encode()


def test_snapshot_template_is_built_once_per_grid(tmp_path, monkeypatch):
    built = []
    make = grid_module._snapshot_template
    monkeypatch.setattr(grid_module, "_snapshot_template",
                        lambda g: built.append(g) or make(g))
    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=6, ny=5)
    for k in range(2):
        save_field(g, np.full(g.n_nodes, float(k)), tmp_path / f"{k}.csv")
    assert built == [g]
    assert np.array_equal(load_field(tmp_path / "1.csv").values, np.ones(g.n_nodes))


@pytest.mark.parametrize("nx,ny,blocks", [(16, 12, 1), (96, 96, 2), (8200, 4, 4)])
def test_snapshot_blocks_write_the_one_string_text(tmp_path, rng, nx, ny, blocks):
    # one block up to SNAP_BLOCK slots, blocks of whole levels above, one
    # level per block when a level alone is larger
    g = cw.build_grid("strip2d", Lx=1.7, Ly=0.9, nx=nx, ny=ny)
    assert len(g.snapshot_template) == blocks
    f = rng.standard_normal(g.n_nodes)
    path = tmp_path / "f.csv"
    save_field(g, f, path)
    text = path.read_text()
    assert text == "".join(g.snapshot_template) % tuple(f.tolist())
    assert text == snapshot_oracle(g, f)
    assert np.array_equal(load_field(path, grid=g).values, f)


def test_save_field_holds_one_block_at_a_time(tmp_path):
    # the whole 256^2 text is 3.9 MB, its values as a list and tuple 2 MB more
    import tracemalloc

    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=256, ny=256)
    f = np.random.default_rng(3).standard_normal(g.n_nodes)
    save_field(g, f, tmp_path / "warm.csv")  # builds the cached template
    tracemalloc.start()
    try:
        save_field(g, f, tmp_path / "f.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


@pytest.mark.parametrize("n", [0, 1, 8191, 8192, 8193, 3 * 8192 + 5])
def test_dot_is_one_ddot_or_ordered_chunks(rng, n):
    a, b = rng.standard_normal(n), rng.standard_normal(n)
    if n <= grid_module.DOT_CHUNK:
        assert dot(a, b) == float(np.dot(a, b))
    else:
        chunks = [float(np.dot(a[k:k + 8192], b[k:k + 8192])) for k in range(0, n, 8192)]
        assert dot(a, b) == sum(chunks)
    assert dot(a, b) == pytest.approx(math.fsum(a * b), abs=1e-10 * (1 + n))


def test_interval_snapshot_roundtrip(tmp_path, rng):
    g = cw.build_grid("interval1d", Ly=3.0, ny=9)
    f = rng.standard_normal(g.n_nodes)
    save_field(g, f, tmp_path / "f.csv")
    loaded = load_field(tmp_path / "f.csv")
    assert loaded.grid.mode is GridMode.INTERVAL1D
    assert np.array_equal(loaded.values, f)


@pytest.fixture()
def snapshot_file(tmp_path, rng):
    """An 8x8 strip snapshot on disk: (path, its lines)."""
    g = cw.build_grid("strip2d", Lx=1.0, Ly=1.0, nx=8, ny=8)
    path = tmp_path / "snap.csv"
    save_field(g, rng.standard_normal(g.n_nodes), path)
    return path, path.read_text().splitlines(keepends=True)


def test_load_field_refuses_truncated_snapshot(snapshot_file):
    path, lines = snapshot_file
    path.write_text("".join(lines[:-20]))
    with pytest.raises(ValueError, match=r"snap\.csv: 20 of 64 nodes missing"):
        load_field(path)
    path.write_text("".join(lines[:3]))  # header only
    with pytest.warns(UserWarning, match="input contained no data"):
        with pytest.raises(ValueError, match="64 of 64 nodes missing"):
            load_field(path)
    path.write_text("".join(lines[:-1]) + lines[-1][:5])  # cut inside a row
    with pytest.raises(ValueError, match=r"snap\.csv"):
        load_field(path)
    path.write_text(lines[0] + lines[1][:6])  # cut inside the grid line
    with pytest.raises(ValueError, match=r"snap\.csv: unreadable grid line"):
        load_field(path)


def test_load_field_refuses_repeated_or_foreign_rows(snapshot_file):
    path, lines = snapshot_file
    head, body = lines[:3], lines[3:]
    path.write_text("".join(head + body[:-1] + body[:1]))  # first row in place of last
    with pytest.raises(ValueError, match="1 of 64 nodes missing, 1 repeated"):
        load_field(path)
    path.write_text("".join(lines + body[5:6]))  # one row twice, none missing
    with pytest.raises(ValueError, match="0 of 64 nodes missing, 1 repeated"):
        load_field(path)
    path.write_text("".join(head + body[:-1]) + "8" + body[-1][1:])  # i = nx
    with pytest.raises(ValueError, match="1 rows off the grid"):
        load_field(path)


def test_h_norm_positive(rng, unit_grid):
    u = rng.standard_normal(unit_grid.n_nodes)
    assert h_norm(unit_grid, u) > 0
    assert h_norm(unit_grid, np.zeros_like(u)) == 0.0
