import math

import pytest

from streampcq.errors import InvalidInput
from streampcq.table import finite_float, rating, read_table, write_table


def test_rows_keep_their_cells_and_parse_their_kinds(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes('name,n,x,extra\r\nfé,1,2.5,a\r\n\r\n"b,c",2\r\n'.encode())
    rows = read_table(path, {"x": rating, "n": int, "name": str})
    assert rows[0].values == [2.5, 1, "fé"]
    x, *rest = rows[1].values  # a short row's missing cells are blank
    assert math.isnan(x) and rest == [2, "b,c"]
    assert [r.header for r in rows] == [["name", "n", "x", "extra"]] * 2
    assert [r.texts for r in rows] == [["fé", "1", "2.5", "a"], ["b,c", "2", "", ""]]


def test_kinds_may_come_from_the_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("id,a,b\nr,1,2\n")
    rows = read_table(path, lambda header: dict.fromkeys(header[1:], finite_float))
    assert [r.values for r in rows] == [[1.0, 2.0]]


def test_a_refused_cell_fails_only_its_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n1e999,3\n4,5\n")
    good, bad, last = read_table(path, {"a": finite_float, "b": int})
    assert good.values == [1.0, 2] and last.values == [4.0, 5]
    with pytest.raises(InvalidInput) as ei:
        bad.values
    assert str(ei.value) == f"{path}: line 3: column 'a': '1e999' is not a finite float"


@pytest.mark.parametrize("data, says", [
    (b"a,b\n1,2\n", "line 1: no column 'c'"),
    (b"", "line 1: no column 'c'"),
    (b"c,b,c\n1,2,3\n", "line 1: column 'c' repeats"),
    (b"a,\xffc\n1,2\n", "line 1: column 2: byte 0xff is not UTF-8"),
    (b'a,c\n1,"x\ny"\n2,\xe9\n', "line 4: column 'c': byte 0xe9 is not UTF-8"),
    (b"a,c\n1,2\n\xff\n", "line 3: column 'a': byte 0xff is not UTF-8"),
    (b"a,c\n1,2,3,\xff\n", "line 2: column 4: byte 0xff is not UTF-8"),
    (b"c\n" + b"x" * 200_000 + b"\n", "line 2: field larger than field limit (131072)"),
])
def test_bad_table_is_invalid_input(tmp_path, data, says):
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    with pytest.raises(InvalidInput) as ei:
        read_table(path, {"c": str})
    assert str(ei.value) == f"{path}: {says}"


def test_write_table_writes_utf8(tmp_path):
    out = tmp_path / "o.csv"
    # a surrogate escape stands for the byte of a path that was not text
    write_table(out, ["stream", "n"], [["fé", 1], ["b\udcff", 2]])
    assert out.read_bytes() == "stream,n\r\nfé,1\r\n".encode() + b"b\xff,2\r\n"
