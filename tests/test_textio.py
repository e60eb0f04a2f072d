"""textio.write_csv gives the bytes of the per-cell writer it replaced."""

import math

import numpy as np
import pytest

from kmslab.textio import fmt17, write_csv


def _per_cell(path, header, columns):
    """The former writer, one fmt17 call per cell: the oracle."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i in range(len(columns[0])):
            fh.write(",".join(fmt17(c[i]) for c in columns) + "\n")


def _wide_magnitudes(n):
    rng = np.random.default_rng(0)
    signs = rng.choice([-1.0, 1.0], size=n)
    return signs * 10.0 ** rng.uniform(-300.0, 300.0, size=n)


TABLES = {
    "specials": ("x,y,n", [
        np.array([math.inf, -math.inf, math.nan, -0.0, 0.0, 1.0 / 3.0]),
        np.array([5e-324, 2.2250738585072014e-308 / 3.0, 1e300, -1e300,
                  1e-300, -1e-300]),
        np.arange(-2, 4)]),
    "list-and-ints": ("a,b", [[0.1, 2.0 / 3.0, -2.5], np.array([1, 2, 3])]),
    "ints-only": ("k", [np.arange(-3, 4)]),
    "zero-rows": ("t,v", [np.array([]), []]),
    "wide": ("a,b,c,d", [_wide_magnitudes(2048), _wide_magnitudes(2048)[::-1],
                         np.arange(2048), np.linspace(-1.0, 1.0, 2048)]),
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_write_csv_matches_the_per_cell_writer(tmp_path, name):
    header, columns = TABLES[name]
    write_csv(tmp_path / "new.csv", header, columns)
    _per_cell(tmp_path / "old.csv", header, columns)
    assert ((tmp_path / "new.csv").read_bytes()
            == (tmp_path / "old.csv").read_bytes())


@pytest.mark.parametrize("header, columns, match", [
    ("a", [np.zeros((3, 2))], "1-d"),
    ("a,b", [np.zeros((3, 2)), np.zeros(3)], "1-d"),
    ("a,b", [np.zeros(3), np.zeros(4)], "length mismatch"),
    ("a,b,c", [np.zeros(3), np.zeros(3)], "3 fields but 2 columns"),
], ids=["2-d", "2-d-beside-1-d", "lengths", "header"])
def test_write_csv_refuses_a_malformed_table(tmp_path, header, columns,
                                             match):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match=match):
        write_csv(path, header, columns)
    assert not path.exists()
