import random

import pytest

from cubefill import (
    Chain,
    ChainFormatError,
    Face,
    format_chain_text,
    minimizer_cycle,
    parse_chain_text,
    read_chain,
    write_chain,
)


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 16, 17, 32, 33, 64])
def test_round_trip(tmp_path, n):
    # a seeded random chain and the empty chain of each degree, the empty chain's nominal
    # labels -1 and n+1, and Q_0's vertex, whose word is empty
    rng = random.Random(n)
    chains = [Chain(n, -1), Chain(n, n + 1)]
    for k in range(n + 1):
        masks = [sum(1 << i for i in rng.sample(range(n), k)) for _ in range(5)]
        chains += [Chain(n, k), Chain(n, k, {Face(n, m, rng.getrandbits(n) & ~m) for m in masks})]
    path = tmp_path / "z.chain"
    for z in chains:
        path.write_bytes(b"kept")
        if z.k < 0 or n == 0 and z.norm:  # refused before a byte is written
            with pytest.raises(ValueError):
                write_chain(z, path)
            assert path.read_bytes() == b"kept"
        else:  # the nominal label n+1 is written as n
            assert parse_chain_text(format_chain_text(z)) == (z if z.k <= n else Chain(n, n))


def test_round_trip_empty():
    z = Chain(5, 2)
    text = format_chain_text(z)
    assert text == "cube 5 2\n"
    assert parse_chain_text(text) == z


def test_comments_and_blank_lines():
    text = "# a comment\n\ncube 2 1\n# another\n*0\n\n0*\n"
    assert parse_chain_text(text) == Chain.from_words("*0", "0*")


def test_duplicate_face_reports_line():
    with pytest.raises(ChainFormatError) as info:
        parse_chain_text("cube 2 1\n*0\n*0\n")
    assert info.value.line == 3
    assert "duplicate" in str(info.value)


def test_missing_header():
    with pytest.raises(ChainFormatError):
        parse_chain_text("*0\n")
    with pytest.raises(ChainFormatError):
        parse_chain_text("# only a comment\n")


def test_bad_header_values():
    with pytest.raises(ChainFormatError):
        parse_chain_text("cube x 1\n")
    with pytest.raises(ChainFormatError):
        parse_chain_text("cube 2 3\n")


def test_wrong_word_length_reports_line():
    with pytest.raises(ChainFormatError) as info:
        parse_chain_text("cube 3 1\n*00\n*0\n")
    assert info.value.line == 3


def test_wrong_degree_reports_line():
    with pytest.raises(ChainFormatError) as info:
        parse_chain_text("cube 3 1\n**0\n")
    assert info.value.line == 2


def test_bad_character_reports_line():
    with pytest.raises(ChainFormatError) as info:
        parse_chain_text("cube 2 1\n\n#c\nx0\n")
    assert info.value.line == 4


def test_file_round_trip(tmp_path):
    z = minimizer_cycle(3, 1)
    path = tmp_path / "hexagon.chain"
    write_chain(z, path)
    assert read_chain(path) == z


def test_negative_degree_not_serializable(tmp_path):
    with pytest.raises(ValueError):
        format_chain_text(Chain(3, -1))
    path = tmp_path / "hexagon.chain"
    write_chain(minimizer_cycle(3, 1), path)
    saved = path.read_bytes()
    with pytest.raises(ValueError, match="below 0"):
        write_chain(Chain(3, -1), path)
    assert path.read_bytes() == saved


def test_empty_above_top_degree_clamps_its_nominal_label():
    # the filling of an empty top-degree cycle carries the label n+1
    text = format_chain_text(Chain(2, 3))
    assert text == "cube 2 2\n"
    assert parse_chain_text(text).norm == 0


def test_header_above_max_coordinates_reports_line():
    with pytest.raises(ChainFormatError) as info:
        parse_chain_text("# too big\ncube 100 1\n")
    assert info.value.line == 2
    assert "100" in str(info.value)


@pytest.mark.parametrize("n", [-1, 100])
def test_header_dimension_outside_the_cube_reports_line(n):
    with pytest.raises(ChainFormatError, match=rf"^line 2: dimension {n} outside \[0, 64\]$") as info:
        parse_chain_text(f"# out of range\ncube {n} 0\n")
    assert info.value.line == 2


def test_undecodable_file_reports_line(tmp_path):
    path = tmp_path / "binary.chain"
    path.write_bytes(b"cube 2 1\n*0\n\xff\xfe\n")
    with pytest.raises(ChainFormatError) as info:
        read_chain(path)
    assert info.value.line == 3
    assert "UTF-8" in str(info.value)


def test_a_leading_byte_order_mark_is_not_text(tmp_path):
    path = tmp_path / "bom.chain"
    path.write_bytes(b"\xef\xbb\xbf" + format_chain_text(minimizer_cycle(3, 1)).encode())
    assert read_chain(path) == minimizer_cycle(3, 1)


def test_a_file_with_a_byte_order_mark_reports_its_undecodable_line(tmp_path):
    # decoding as utf-8-sig would count the bad byte's offset past the mark
    path = tmp_path / "bom.chain"
    path.write_bytes(b"\xef\xbb\xbfcube 2 1\n*0\n\xff0\n")
    with pytest.raises(ChainFormatError) as info:
        read_chain(path)
    assert str(info.value) == "line 3: not UTF-8 text"


# each file holds two errors; the earlier line is reported, whichever kind it is
@pytest.mark.parametrize(
    "text, line, message",
    [
        ("cube 2 1\n*0\n*0\n# c\n\nx0\n", 3, "duplicate face '*0' (first seen on line 2)"),
        ("cube 2 1\n*0\n\nx0\n#c\n*0\n", 4, "invalid character 'x' at position 1"),
        ("cube 2 1\n#c\n\n*0\n1*\n*00\n0*\n*x\n", 6, "face word has length 3, header says 2"),
        ("cube 2 1\n0*\n**\n*0\n0*\n", 3, "face has dimension 2, header says 1"),
        ("# c\ncube 3 1\n\n*00\n#c\n\n0*0\n" + "1" * 65 + "\n*0\n", 8,
         "face word longer than 64 coordinates"),
    ],
)
def test_the_first_bad_line_is_reported(text, line, message):
    with pytest.raises(ChainFormatError) as info:
        parse_chain_text(text)
    assert info.value.line == line
    assert str(info.value) == f"line {line}: {message}"


def test_a_long_file_reports_its_one_bad_line():
    z = minimizer_cycle(9, 2)
    lines = format_chain_text(z).splitlines()
    assert parse_chain_text("\n".join(lines)) == z
    lines[-5] = lines[-5].replace("*", "0", 1)
    with pytest.raises(ChainFormatError) as info:
        parse_chain_text("\n".join(lines))
    assert info.value.line == len(lines) - 4
    assert str(info.value).endswith("face has dimension 1, header says 2")


def test_a_refusal_no_line_explains_is_still_a_format_error(monkeypatch):
    # every line checks out on its own, so the bulk refusal is raised as it is, with no line
    def refuse(cls, *words, n=None, k=None):
        raise ValueError("refused in bulk")

    monkeypatch.setattr(Chain, "from_words", classmethod(refuse))
    with pytest.raises(ChainFormatError) as info:
        parse_chain_text(format_chain_text(minimizer_cycle(3, 1)))
    assert info.value.line is None
    assert str(info.value) == "refused in bulk"
