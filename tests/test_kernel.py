import json
import math
import os
import re
import stat
import tempfile
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from tomolab import kernel
from tomolab.classical import DensityGrid, read_density_csv, write_density_csv
from tomolab.kernel import (
    DeltaAtom,
    GridFunction2D,
    Tomogram,
    TomographyFrame,
    TomogramError,
    frame_from_scaling,
    normalization_residual,
    read_tomogram,
    spread_atoms,
    tomogram_distance_l1,
    write_tomogram,
)
from tomolab.quantum import coherent_tomogram, hermite_tomogram, state_tomogram
from tomolab.states import DescriptorError, parse_state

from conftest import gaussian_tomogram_values


def test_frame_from_scaling_position():
    fr = frame_from_scaling(1.0, 0.0)
    assert fr.mu == 1.0 and fr.nu == 0.0


def test_frame_from_scaling_momentum():
    fr = frame_from_scaling(1.0, math.pi / 2)
    assert abs(fr.mu) < 1e-12
    assert abs(fr.nu - 1.0) < 1e-12


def test_frame_from_scaling_generic():
    fr = frame_from_scaling(2.0, math.pi / 4)
    assert abs(fr.mu - 1.414214) < 1e-6
    assert abs(fr.nu - 0.353553) < 1e-6


def test_frame_from_scaling_rejects_nonpositive():
    with pytest.raises(TomogramError):
        frame_from_scaling(0.0, 0.3)
    with pytest.raises(TomogramError):
        frame_from_scaling(-1.0, 0.3)


def test_frame_forward_identities(rng):
    # mu/s = cos(theta) and nu*s = sin(theta) hold to 1e-12
    for _ in range(200):
        s = rng.uniform(0.2, 5.0)
        th = rng.uniform(-7.0, 7.0)
        fr = frame_from_scaling(s, th)
        assert abs(fr.mu / s - math.cos(th)) < 1e-12
        assert abs(fr.nu * s - math.sin(th)) < 1e-12


def test_normalization_single_atom():
    t = Tomogram(TomographyFrame(1, 0), np.zeros(0), np.zeros(0), (DeltaAtom(1.0, 0.3),))
    assert normalization_residual(t) == 0.0


def test_normalization_gaussian():
    x = np.linspace(-8, 8, 2001)
    t = Tomogram(TomographyFrame(1, 0), x, gaussian_tomogram_values(x))
    assert normalization_residual(t) < 1e-8


def test_normalization_zero_grid():
    x = np.linspace(-1, 1, 11)
    t = Tomogram(TomographyFrame(1, 0), x, np.zeros_like(x))
    assert normalization_residual(t) == 1.0


def test_normalization_empty_rejected():
    t = Tomogram(TomographyFrame(1, 0), np.zeros(0), np.zeros(0))
    with pytest.raises(TomogramError):
        normalization_residual(t)


def test_tomogram_validation():
    fr = TomographyFrame(1, 0)
    with pytest.raises(TomogramError):
        Tomogram(fr, np.array([0.0, 1.0, 1.5]), np.zeros(3))  # non-uniform
    with pytest.raises(TomogramError):
        Tomogram(fr, np.array([0.0, 1.0]), np.array([1.0, -1.0]))  # negative
    with pytest.raises(TomogramError):
        DeltaAtom(-0.1, 0.0)
    # tiny quadrature noise is clipped to zero
    t = Tomogram(fr, np.array([0.0, 1.0]), np.array([1.0, -1e-9]))
    assert t.values[1] == 0.0


@pytest.mark.parametrize("bad", [[-np.inf, 0.0, np.inf], [0.0, 1.0, np.inf],
                                 [0.0, 1.0, np.nan], [np.nan, 1.0, 2.0], [0.0, np.nan, 2.0]])
def test_grids_must_be_finite(bad):
    # [-inf, 0, inf] passed as a "uniform" grid with mass inf before
    with pytest.raises(TomogramError):
        Tomogram(TomographyFrame(1, 0), np.array(bad), np.ones(3))
    with pytest.raises(TomogramError):
        kernel.GridFunction2D(np.array(bad), np.arange(3.0), np.ones((3, 3)))
    with pytest.raises(TomogramError):
        kernel.GridFunction2D(np.arange(3.0), np.array(bad), np.ones((3, 3)))


@pytest.mark.parametrize("h", [0.01, 1.0, 100.0])
def test_grid_spacing_tolerance(h):
    # |dx - h| <= 1e-12 max(|h|, 1) + 1e-9 |h|: a drift of 1e-10 h passes, 1e-8 h does not
    for drift, accepted in ((1e-10, True), (1e-8, False)):
        x = h * np.arange(11.0)
        x[5] += drift * h
        for make in (lambda: Tomogram(TomographyFrame(1, 0), x, np.ones(11)),
                     lambda: kernel.GridFunction2D(x, x, np.ones((11, 11)))):
            if accepted:
                make()
            else:
                with pytest.raises(TomogramError):
                    make()


def test_distance_identical():
    x = np.linspace(-5, 5, 501)
    fr = TomographyFrame(1, 0)
    a = Tomogram(fr, x, gaussian_tomogram_values(x))
    assert tomogram_distance_l1(a, a) == 0.0


def test_distance_disjoint_unit_masses():
    # total variation bound: two disjoint unit densities are 2 apart
    x = np.linspace(-1, 4, 2501)
    dx = x[1] - x[0]

    def box(lo, hi):
        cdf = np.clip((np.concatenate(([x[0] - dx / 2], x + dx / 2)) - lo) / (hi - lo), 0, 1)
        return np.diff(cdf) / dx

    fr = TomographyFrame(1, 0)
    a = Tomogram(fr, x, box(0.0, 1.0))
    b = Tomogram(fr, x, box(2.0, 3.0))
    assert abs(tomogram_distance_l1(a, b) - 2.0) < 1e-12


def test_distance_gaussians_vs_dense_quadrature():
    # brute-force oracle at 10x the resolution
    fr = TomographyFrame(1, 0)
    x = np.linspace(-8, 8, 801)
    a = Tomogram(fr, x, gaussian_tomogram_values(x, 0.0, 1.0))
    b = Tomogram(fr, x, gaussian_tomogram_values(x, 0.1, 1.0))
    xd = np.linspace(-8, 8, 8001)
    oracle = np.trapezoid(
        np.abs(gaussian_tomogram_values(xd, 0.0, 1.0) - gaussian_tomogram_values(xd, 0.1, 1.0)), xd
    )
    assert abs(tomogram_distance_l1(a, b) - oracle) < 1e-4


def test_distance_triangle_inequality(rng):
    x = np.linspace(-12, 12, 1201)
    fr = TomographyFrame(0.6, 0.8)
    catalog = [
        Tomogram(fr, x, hermite_tomogram(n, fr, x, h))
        for n, h in [(0, 1.0), (2, 0.7), (5, 1.3), (1, 0.4)]
    ] + [
        Tomogram(fr, x, coherent_tomogram(a, fr, x, 1.0))
        for a in (0.5 + 0.5j, 1.2 + 0j)
    ]
    for _ in range(40):
        i, j, k = rng.integers(0, len(catalog), size=3)
        a, b, c = catalog[i], catalog[j], catalog[k]
        dab = tomogram_distance_l1(a, b)
        dbc = tomogram_distance_l1(b, c)
        dac = tomogram_distance_l1(a, c)
        assert dac <= dab + dbc + 1e-12


def test_distance_symmetry_on_common_grid():
    x = np.linspace(-8, 8, 801)
    fr = TomographyFrame(1, 0)
    a = Tomogram(fr, x, gaussian_tomogram_values(x, 0.0, 1.0))
    b = Tomogram(fr, x, gaussian_tomogram_values(x, 0.4, 0.7))
    assert abs(tomogram_distance_l1(a, b) - tomogram_distance_l1(b, a)) < 1e-14


def test_distance_rejects_frame_mismatch():
    x = np.linspace(-5, 5, 101)
    a = Tomogram(TomographyFrame(1, 0), x, gaussian_tomogram_values(x))
    b = Tomogram(TomographyFrame(0, 1), x, gaussian_tomogram_values(x))
    with pytest.raises(TomogramError):
        tomogram_distance_l1(a, b)


def test_distance_atom_matching():
    # atoms are compared only once spread_atoms has folded them into their cells
    x = np.linspace(-5, 5, 101)
    fr = TomographyFrame(1, 0)
    a = Tomogram(fr, x, np.zeros_like(x), (DeltaAtom(0.6, 1.0),))
    b = Tomogram(fr, x, np.zeros_like(x), (DeltaAtom(0.5, 1.02),))
    for pair in ((a, b), (a, spread_atoms(b)), (spread_atoms(a), b)):
        with pytest.raises(TomogramError, match="spread_atoms"):
            tomogram_distance_l1(*pair)
    # both atoms land in the cell at 1.0: 0.1 / dx over one cell of weight dx
    assert abs(tomogram_distance_l1(spread_atoms(a), spread_atoms(b)) - 0.1) < 1e-12
    c = Tomogram(fr, x, np.zeros_like(x), (DeltaAtom(0.5, 3.0),))
    assert abs(tomogram_distance_l1(spread_atoms(a), spread_atoms(c)) - 1.1) < 1e-12


def test_spread_atoms_conserves_mass():
    x = np.linspace(-2, 2, 401)
    fr = TomographyFrame(1, 0)
    t = Tomogram(fr, x, np.zeros_like(x), (DeltaAtom(0.5, 0.3), DeltaAtom(0.5, -1.2)))
    s = spread_atoms(t)
    assert not s.atoms
    assert abs(s.total_mass() - 1.0) < 1e-12


def test_serialization_roundtrip(tmp_path):
    x = np.linspace(-4, 4, 321)
    fr = TomographyFrame(0.123456789012345, -1.9876543210987654)
    t = Tomogram(fr, x, gaussian_tomogram_values(x), (DeltaAtom(0.25, 1.0 / 3.0),))
    path = os.path.join(tmp_path, "t.csv")
    side = write_tomogram(t, path, hbar=0.7071067811865476, state="coherent:re=1,im=0")
    back, meta = read_tomogram(path)
    # JSON fields are bit-exact
    assert meta["frame"]["mu"] == fr.mu
    assert meta["frame"]["nu"] == fr.nu
    assert meta["hbar"] == 0.7071067811865476
    assert meta["state"] == "coherent:re=1,im=0"
    assert back.atoms[0].weight == 0.25
    assert back.atoms[0].location == 1.0 / 3.0
    # CSV values round-trip exactly through the 17-digit format
    assert np.array_equal(back.x_grid, t.x_grid)
    assert np.array_equal(back.values, t.values)
    with open(side) as fh:
        assert json.load(fh)["atoms"][0]["location"] == 1.0 / 3.0


def _read_custom(path):
    return parse_state(f"custom:{path}")


@pytest.mark.parametrize("read, header, kind, message", [
    (read_tomogram, "X,value", "header", (TomogramError, "unexpected CSV header 'x,im\\n'")),
    (read_tomogram, "X,value", "ragged", (ValueError, "the number of columns changed from 2 to 4 at row 3")),
    (read_density_csv, "q,p,f", "header", (TomogramError, "density CSV header must be q,p,f, got 'x,im'")),
    (read_density_csv, "q,p,f", "ragged", (ValueError, "the number of columns changed from 3 to 4 at row 3")),
    (_read_custom, "x,re", "header", (DescriptorError, "custom CSV needs header x,re[,im]\n  custom:{path}\n")),
    (_read_custom, "x,re", "ragged", (ValueError, "the number of columns changed from 2 to 4 at row 3")),
], ids=lambda v: getattr(v, "__name__", None))
def test_readers_keep_their_errors(tmp_path, read, header, kind, message):
    # the three readers share kernel's one table reader, and a user still
    # sees each one's own error for a header it refuses and numpy's for a
    # ragged row
    path = str(tmp_path / "f.csv")
    g = np.linspace(-1.0, 1.0, 3)  # the sidecar read_density_csv reads first
    write_density_csv(DensityGrid(GridFunction2D(g, g, np.full((3, 3), 0.25))), path)
    width = header.count(",") + 1
    rows = ["0" + ",0" * (width - 1), "1" + ",1" * (width - 1), "3,4,5,6"]
    with open(path, "w") as fh:
        fh.write("\n".join(["x,im" if kind == "header" else header] + rows) + "\n")
    with pytest.raises(ValueError) as caught:
        read(path)
    kind, text = message
    assert type(caught.value) is kind
    assert str(caught.value).startswith(text.format(path=path))
    if kind is ValueError:
        assert str(caught.value).endswith("; use `usecols` to select a subset and avoid this error")


# ---------------------------------------------------------------------------
# the CSV writer: every value is the bytes of '%.17g' % value
# ---------------------------------------------------------------------------

def _oracle_rows(table: np.ndarray) -> bytes:
    """CSV lines formatted one value at a time by CPython's dtoa."""
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return ((row * table.shape[0]) % tuple(table.ravel().tolist())).encode()


def _written(table: np.ndarray) -> bytes:
    """The CSV lines kernel._write_csv writes for the columns of table."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        kernel._write_csv(path, "h", table.T)
        with open(path, "rb") as fh:
            return fh.read()[len(b"h\n"):]


def _assert_oracle(table: np.ndarray) -> None:
    got, want = _written(table), _oracle_rows(table)
    if got != want:
        pairs = zip(got.split(b"\n"), want.split(b"\n"))
        bad = next((g, w) for g, w in pairs if g != w)
        pytest.fail(f"writer printed {bad[0]!r}, '%.17g' prints {bad[1]!r}")


@settings(max_examples=300, deadline=None)
@given(hs.lists(hs.floats(), min_size=1, max_size=40), hs.integers(1, 4))
def test_writer_matches_percent_g17_on_any_float(values, ncols):
    # hs.floats() draws nan, +-inf, +-0 and subnormals
    v = np.array(values + [0.0] * (-len(values) % ncols))
    _assert_oracle(v.reshape(-1, ncols))


def test_writer_matches_percent_g17_on_random_bit_patterns():
    bits = np.random.default_rng(20261018).integers(0, 2 ** 64, size=1 << 20, dtype=np.uint64)
    table = bits.view(np.float64).reshape(-1, 4)
    for start in range(0, table.shape[0], 1 << 14):
        _assert_oracle(table[start:start + (1 << 14)])


def test_writer_matches_percent_g17_next_to_powers_of_ten():
    tens = np.array([float(f"1e{k}") for k in range(-320, 309)])
    table = np.stack([np.nextafter(tens, 0.0), tens, np.nextafter(tens, np.inf)], axis=1)
    _assert_oracle(table)
    _assert_oracle(-table)
    # exact ties (5**25 has 18 digits), rounded to even both ways, and the
    # double 1e-14, below 10**-14, whose 17 digits carry to a new leading 1
    _assert_oracle(np.array([[2.0 ** -25, 3 * 2.0 ** -25, 1e-14, 0.5]]))


def test_writer_file_spans_several_blocks(tmp_path):
    rows = kernel._BLOCK_VALUES + 1234  # three blocks and a part
    rng = np.random.default_rng(7)
    table = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-30, 30, (rows, 3))
    table[::17, 1] = 0.0
    path = tmp_path / "wide.csv"
    kernel._write_csv(str(path), "a,b,c", table.T)
    assert path.read_bytes() == b"a,b,c\n" + _oracle_rows(table)


def test_writer_blocks_of_each_kind_match_percent_g17(tmp_path):
    # one block each: finite nonzero values above 1e-200, only zeros and
    # non-finite values, normal values with one value below 1e-200 last,
    # only values below 1e-200, values whose 17 digits carry to the next
    # power of ten (the double nearest 10**k lies below it), and fixed-point
    # values with 2 to 17 integer digits (the point moves right)
    size = kernel._BLOCK_VALUES
    rng = np.random.default_rng(40)
    signs = rng.choice([-1.0, 1.0], size)
    normal = signs * rng.random(size) * 10.0 ** rng.integers(-199, 12, size)  # no exact ties
    special = rng.choice([0.0, -0.0, np.nan, np.inf, -np.inf], size)
    one_tiny = normal.copy()
    one_tiny[-1] = 3e-250
    tiny = signs * rng.random(size) * 10.0 ** rng.integers(-323, -200, size)
    carries = [t for k in range(-300, 309) if Decimal(t := float(f"1e{k}")) < Decimal(10) ** k
               and b"%.17g" % t == b"1e%+03d" % k]
    assert len(carries) == 13  # 1e-243 and 1e-14 among them
    carried = signs * np.resize(carries, size)
    whole = np.resize(np.arange(2, 18), size)
    moved = signs * (1.0 + 9.0 * rng.random(size)) * 10.0 ** (whole - 1)
    assert {len(b"%d" % abs(v)) for v in moved} == set(range(2, 18))
    column = np.concatenate([normal, special, one_tiny, tiny, carried, moved])
    kernel._write_csv(str(tmp_path / "kinds.csv"), "v", (column,))
    assert (tmp_path / "kinds.csv").read_bytes() == b"v\n" + _oracle_rows(column[:, None])
    # the finite blocks take no per-value path, which would hide a wrong vector result
    for block in (normal, one_tiny, tiny, carried):
        assert kernel._decimal17(block)[2].all()
    # but exact decimal ties do, a few with 13 to 16 integer digits: every count keeps vector values
    assert set(whole[kernel._decimal17(moved)[2]]) == set(range(2, 18))


_SPECIALS = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308 / 3])


@pytest.mark.parametrize("nx, ny, nvalues", [
    (1, 1, 1), (1, 9, 2), (9, 1, 2), (3, 4, 1),
    (70, 50, 3),  # 3500 rows of 5 values: blocks that end inside an x row
    (2, 9000, 1),  # one x row spans three blocks
])
def test_grid_writer_matches_the_repeat_tile_columns(tmp_path, nx, ny, nvalues):
    rng = np.random.default_rng(nx * 1000 + ny)
    x = rng.standard_normal(nx) * 10.0 ** rng.integers(-20, 20, nx)
    y = rng.standard_normal(ny) * 10.0 ** rng.integers(-300, 300, ny)
    values = [rng.standard_normal((nx, ny)) * 10.0 ** rng.integers(-320, 300, (nx, ny))
              for _ in range(nvalues)]
    # -0.0, nan, +-inf and subnormals on both axes and in every value column
    x[:min(nx, _SPECIALS.size)] = _SPECIALS[:nx]
    y[-min(ny, _SPECIALS.size):] = _SPECIALS[-ny:]
    for v in values:
        v.ravel()[::7][:_SPECIALS.size] = _SPECIALS[:v.ravel()[::7].size]
    columns = (np.repeat(x, ny), np.tile(y, nx), *values)
    ix, iy = np.divmod(np.arange(nx * ny), ny)
    kernel._write_csv(str(tmp_path / "grid.csv"), "h", ((x, ix), (y, iy), *values))
    kernel._write_csv(str(tmp_path / "plain.csv"), "h", columns)
    got = (tmp_path / "grid.csv").read_bytes()
    assert got == b"h\n" + _oracle_rows(np.column_stack([c.ravel() for c in columns]))
    assert got == (tmp_path / "plain.csv").read_bytes()


def test_indexed_columns_write_their_gathered_values(tmp_path):
    # indexes in any order and repeating, not a grid's, over blocks of
    # whole rows
    rng = np.random.default_rng(11)
    rows = kernel._BLOCK_VALUES + 777
    labels = np.r_[rng.standard_normal(5) * 1e-200, _SPECIALS]
    index = rng.integers(0, labels.size, (2, rows))
    a, b = rng.standard_normal((2, rows)) * 10.0 ** rng.integers(-40, 40, (2, rows))
    kernel._write_csv(str(tmp_path / "keyed.csv"), "l,m,a,b",
                      ((labels, index[0]), (labels[::-1], index[1]), a, b))
    want = _oracle_rows(np.column_stack([labels[index[0]], labels[::-1][index[1]], a, b]))
    assert (tmp_path / "keyed.csv").read_bytes() == b"l,m,a,b\n" + want


def test_writer_takes_no_fallback_on_a_tomogram_with_tails_and_zeros():
    x = np.linspace(-40.0, 40.0, 4501)
    tom = state_tomogram(parse_state("coherent:re=1,im=0.5"), TomographyFrame(1.0, 0.3), x, 0.5)
    v = np.concatenate([x, tom.values])
    assert np.count_nonzero(v == 0) > 100 and np.min(v[v > 0]) < 1e-300
    _, _, exact = kernel._decimal17(v)
    assert np.count_nonzero(~exact) == 0
    # doubles just below a power of ten, where log10 rounds up, stay on the
    # vector path; a value within the tie gap takes the per-value one
    below = np.nextafter(10.0 ** np.arange(-300, 300, 10), 0.0)
    assert kernel._decimal17(np.concatenate([below, [1e-248, 1e-14]]))[2].all()
    assert not kernel._decimal17(np.array([2.0 ** -25]))[2][0]


def _reference_g17_tables():
    """The writer tables built the slow, evidently right way: exact
    fractions for the powers of ten, string formatting and per-entry loops
    for the byte tables."""
    from fractions import Fraction

    rows = []
    for e in range(kernel._E_LO, kernel._E_HI + 1):
        s = 600 if e < kernel._TINY_E else 0
        T = Fraction(10) ** (16 - e) / 2 ** s
        t = float(T)
        c = 134217729.0 * t
        th = c - (c - t)
        rows.append((t, th, t - th, float(T - Fraction(t)), 2.0 ** s))
    quads = np.frombuffer("".join(f"{k:04d}" for k in range(10000)).encode(), np.uint32)
    digits4 = np.array([len(f"{k:04d}".rstrip("0")) for k in range(10000)])
    last = np.concatenate([np.where(digits4 > 0, digits4 + 4 * j + 1, 1) for j in range(4)])
    suffix = np.frombuffer("".join(f"e{e:+04d},\0\0" for e in range(kernel._E_LO, kernel._E_HI + 1))
                           .encode(), np.uint64)
    point = np.array([[0, *range(2, w + 1), 1, *range(w + 1, 18)] for w in range(1, 18)])
    keep = np.zeros((23, 17, 2, kernel._WIDTH), np.uint8)
    keep[..., 29] = 255
    keep[:, :, 1, 0] = 255
    for kept in range(1, 18):
        for cls in range(23):
            e = cls - 4 if cls < 21 else 0
            if e < 0:
                keep[cls, kept - 1, :, 1:2 - e] = 255
                keep[cls, kept - 1, :, [6, *range(8, 7 + kept)]] = 255
            else:
                keep[cls, kept - 1, :, 6:6 + kept + (kept > e + 1)] = 255
    keep[21:, :, :, [24, 25, 27, 28]] = 255
    keep[22, :, :, 26] = 255
    return (np.array(rows).T, quads, last.astype(np.uint8), suffix, point,
            keep.reshape(-1, kernel._WIDTH).view(np.uint64))


def test_writer_tables_equal_the_fraction_built_reference_bit_for_bit():
    for got, want in zip(kernel._g17_tables(), _reference_g17_tables(), strict=True):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_a_frame_whose_squared_norm_underflows_is_refused():
    # 1/(mu^2 + nu^2) must be finite wherever a frame is not the zero frame
    for mu, nu in ((1e-200, 0.0), (1e-200, 1e-200), (0.0, -1e-160)):
        with pytest.raises(TomogramError, match="too small: mu\\^2 \\+ nu\\^2 underflows"):
            TomographyFrame(mu, nu)
    assert TomographyFrame(0.0, 0.0).is_zero
    assert TomographyFrame(1e-150, 0.0).mu == 1e-150
    assert TomographyFrame(1e300, 1e300).nu == 1e300


def test_a_frame_whose_length_overflows_is_refused():
    # mu^2 + nu^2 may overflow; the length |zeta| may not (it once passed
    # (1.7e308, 1.7e308), whose grids then came out non-finite)
    for mu, nu in ((1.7e308, 1.7e308), (-1.7e308, 1e308), (math.inf, 0.0), (0.0, math.nan)):
        with pytest.raises(TomogramError, match=re.escape(f"frame ({mu!r}, {nu!r}) must have a finite length")):
            TomographyFrame(mu, nu)
    for mu, nu in ((1e154, 1e154), (0.0, 2.6e154), (1e300, -1e300)):
        assert TomographyFrame(mu, nu).norm == math.hypot(mu, nu) < math.inf
    assert TomographyFrame(0.6, 0.8).norm == 1.0 and TomographyFrame(0.0, 0.0).norm == 0.0


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=["022", "077", "002"])
def test_written_files_take_the_mode_open_gives_them(tmp_path, umask):
    # the renamed temporary file once kept mkstemp's 0o600 whatever the umask
    old = os.umask(umask)
    try:
        kernel._write_json(str(tmp_path / "a.json"), {"k": 1})
        with open(tmp_path / "plain", "w"):
            pass
    finally:
        os.umask(old)
    modes = {stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in ("a.json", "plain")}
    assert modes == {0o666 & ~umask}
    assert sorted(os.listdir(tmp_path)) == ["a.json", "plain"]


def test_distinct_is_np_unique_and_searchsorted_its_inverse():
    rng = np.random.default_rng(7)
    x = np.round(rng.normal(size=(40, 40)), 1)
    cases = [x, x - x.T, rng.integers(0, 9, size=(30, 4)), np.array([0.0, -0.0, 1.0, 0.0]), np.zeros(0)]
    for a in cases:
        values, inverse = np.unique(a, return_inverse=True)
        assert np.array_equal(kernel._distinct(a), values)
        assert np.array_equal(np.searchsorted(kernel._distinct(a), a), inverse.reshape(a.shape))
