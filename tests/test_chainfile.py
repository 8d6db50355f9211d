import pytest

from cubefill import (
    Chain,
    ChainFormatError,
    format_chain_text,
    minimizer_cycle,
    parse_chain_text,
    read_chain,
    write_chain,
)


def test_round_trip():
    z = minimizer_cycle(4, 2)
    assert parse_chain_text(format_chain_text(z)) == z


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


def test_negative_degree_not_serializable():
    with pytest.raises(ValueError):
        format_chain_text(Chain(3, -1))


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


def test_undecodable_file_reports_line(tmp_path):
    path = tmp_path / "binary.chain"
    path.write_bytes(b"cube 2 1\n*0\n\xff\xfe\n")
    with pytest.raises(ChainFormatError) as info:
        read_chain(path)
    assert info.value.line == 3
    assert "UTF-8" in str(info.value)
