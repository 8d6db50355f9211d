import copy
import gc
import pickle
import random
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from cubefill import (
    Chain,
    Face,
    enumerate_faces,
    face_count,
    parse_face,
    render_face,
)
from cubefill import chains as chains_module
from cubefill import faces as faces_module
from cubefill.faces import _RUN, _parse_word, _parse_words, _words


@st.composite
def faces(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    free = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    fixed = draw(st.integers(min_value=0, max_value=(1 << n) - 1)) & ~free
    return Face(n, free, fixed)


class TestParseRender:
    def test_eleven_coordinate_face(self):
        f = parse_face("001*01**11*")
        assert f.n == 11
        assert f.dim == 4
        assert [i for i in range(1, 12) if f.free_mask >> (i - 1) & 1] == [4, 7, 8, 11]

    def test_vertex(self):
        f = parse_face("0")
        assert (f.n, f.dim) == (1, 0)
        assert f.fixed_bits == 0

    def test_full_square(self):
        f = parse_face("**")
        assert (f.n, f.dim) == (2, 2)

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            parse_face("")

    @pytest.mark.parametrize("word", ["01x", "2", "0 1", "0-1"])
    def test_bad_characters_rejected(self, word):
        with pytest.raises(ValueError):
            parse_face(word)

    def test_render_explicit(self):
        assert render_face(Face(2, 0b11, 0)) == "**"
        assert render_face(Face(3, 0b001, 0)) == "*00"
        assert str(parse_face("0*1")) == "0*1"
        assert (str(Face(0, 0, 0)), repr(Face(0, 0, 0))) == ("", "Face('')")
        assert (str(Face(1, 1, 0)), repr(Face(1, 0, 1))) == ("*", "Face('1')")
        # free and pinned bits at both ends of the 8-, 16-, 32- and 64-bit fields
        for n in (8, 9, 32, 33, 64):
            top = 1 << (n - 1)
            assert str(Face(n, top | 1, 0b10)) == "*1" + "0" * (n - 3) + "*"
            assert repr(Face(n, 0b10, top | 1)) == "Face('1*" + "0" * (n - 3) + "1')"

    @given(faces())
    def test_round_trip(self, face):
        assert parse_face(render_face(face)) == face

    def test_mask_overlap_rejected(self):
        with pytest.raises(ValueError):
            Face(2, 0b01, 0b01)

    @pytest.mark.parametrize(
        "n, free_mask, fixed_bits, message",
        [
            (65, 0, 0, r"^dimension 65 outside \[0, 64\]$"),
            (2, 0b100, 0, "^free mask has bits outside the coordinate range$"),
            (2, 0, 0b100, "^fixed bits have bits outside the coordinate range$"),
        ],
    )
    def test_fields_outside_the_cube_rejected(self, n, free_mask, fixed_bits, message):
        with pytest.raises(ValueError, match=message):
            Face(n, free_mask, fixed_bits)


class TestIncidence:
    def test_square_boundary(self):
        got = {str(g) for g in parse_face("**").boundary()}
        assert got == {"0*", "1*", "*0", "*1"}

    def test_edge_boundary(self):
        got = {str(g) for g in parse_face("0*1").boundary()}
        assert got == {"001", "011"}

    def test_vertex_boundary_empty(self):
        assert parse_face("010").boundary() == frozenset()

    def test_vertex_coboundary(self):
        got = {str(g) for g in parse_face("00").coboundary()}
        assert got == {"*0", "0*"}

    def test_edge_coboundary_matches_enumeration(self):
        # independent oracle: scan all 2-cells of Q_3 for boundary membership
        edge = parse_face("0*1")
        containers = {f for f in enumerate_faces(3, 2) if edge in f.boundary()}
        assert containers == edge.coboundary()
        assert {str(f) for f in containers} == {"**1", "0**"}

    def test_top_cell_coboundary_empty(self):
        assert parse_face("***").coboundary() == frozenset()

    @pytest.mark.parametrize("n", range(1, 6))
    def test_counts_and_double_boundary(self, n):
        for k in range(n + 1):
            for f in enumerate_faces(n, k):
                assert len(f.boundary()) == 2 * k
                assert len(f.coboundary()) == n - k
                if k >= 2:
                    counts = Counter()
                    for g in f.boundary():
                        counts.update(g.boundary())
                    assert all(c % 2 == 0 for c in counts.values())

    def test_incidence_duality(self):
        for k in range(1, 5):
            for f in enumerate_faces(4, k):
                for g in f.boundary():
                    assert f in g.coboundary()
                for h in f.coboundary():
                    assert f in h.boundary()


class TestEnumerationAndRank:
    def test_counts(self):
        assert len(enumerate_faces(3, 1)) == 12
        assert [str(f) for f in enumerate_faces(2, 2)] == ["**"]
        assert len(enumerate_faces(11, 4)) == 42240
        assert face_count(11, 4) == 42240

    def test_bad_degrees_rejected(self):
        with pytest.raises(ValueError):
            enumerate_faces(2, 3)
        with pytest.raises(ValueError):
            enumerate_faces(3, -1)
        with pytest.raises(ValueError):
            face_count(2, 3)

    def test_no_duplicates(self):
        faces = enumerate_faces(5, 2)
        assert len(set(faces)) == len(faces)

    def test_count_formula_desk_check(self):
        # stratum counts sum to the 3^n words over {0,1,*}
        for n in range(13):
            assert sum(face_count(n, k) for k in range(n + 1)) == 3**n
        for n in range(8):
            for k in range(n + 1):
                assert len(enumerate_faces(n, k)) == face_count(n, k)

    def test_enumeration_keeps_nothing_once_dropped(self):
        # (10, 5), 8,064 faces, is a shape no other test enumerates
        gc.collect()
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            faces = enumerate_faces(10, 5)
            assert len(faces) == face_count(10, 5)
            del faces
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - baseline
        finally:
            tracemalloc.stop()
        assert retained < 64 * 1024

    def test_enumeration_is_in_face_order(self):
        for n in range(1, 6):
            for k in range(n + 1):
                faces = list(enumerate_faces(n, k))
                shuffled = sorted(faces, key=lambda f: (f.fixed_bits, f.free_mask))
                assert sorted(shuffled) == faces


class TestValueSemantics:
    def test_equality_and_hash_go_by_value(self):
        f, g = Face(3, 1, 0), parse_face("*00")
        assert f == g and f is not g
        assert hash(f) == hash(g)
        assert len({f, g, Face(3, 1, 2)}) == 2
        assert f != Face(4, 1, 0)

    def test_never_equals_a_tuple(self):
        assert Face(3, 1, 0) != (3, 1, 0)
        assert (3, 1, 0) != Face(3, 1, 0)

    def test_orders_only_faces_and_reprs_its_word(self):
        with pytest.raises(TypeError):
            Face(3, 1, 0) < 3
        assert repr(parse_face("1*0*")) == "Face('1*0*')"

    def test_fields_cannot_be_assigned_or_deleted(self):
        f = Face(3, 1, 0)
        with pytest.raises(AttributeError):
            f.n = 4
        with pytest.raises(AttributeError):
            f.extra = 1
        with pytest.raises(AttributeError):
            del f.fixed_bits
        assert (f.n, f.free_mask, f.fixed_bits) == (3, 1, 0)

    def test_copies_and_pickles_are_equal(self):
        f = parse_face("1*0*")
        assert copy.copy(f) == copy.deepcopy(f) == pickle.loads(pickle.dumps(f)) == f


class TestBulkParse:
    """``_parse_words`` reads a list of words of one length as two binary
    numerals; it must give what ``_parse_word`` gives word by word."""

    @staticmethod
    def words(n, size, seed):
        rng = random.Random(f"{n}:{size}:{seed}")
        return ["".join(rng.choice("01*") for _ in range(n)) for _ in range(size)]

    # both sides of each field boundary: 8, 16, 32 and 64 digits
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 32, 33, 63, 64])
    @pytest.mark.parametrize("size", [1, 2, 1000])
    def test_matches_the_word_by_word_parse(self, n, size):
        for seed in range(3):
            words = self.words(n, size, seed)
            assert _parse_words(words) == [_parse_word(w) for w in words]

    def test_a_list_of_several_runs(self):
        # then a bad symbol in its last run: the first error, word by word
        words = self.words(17, 2 * _RUN + 5, 0)
        assert _parse_words(words) == [_parse_word(w) for w in words]
        words[-3] = words[-3][:4] + "x" + words[-3][5:]
        with pytest.raises(ValueError, match="^invalid character 'x' at position 5$"):
            _parse_words(words)

    def test_a_long_list_peaks_near_the_word_by_word_parse(self, monkeypatch):
        # runs of words, not the whole list, as digit strings and unpacked
        # fields: 200,000 words peaked 1.6 times as high in one run
        rng = random.Random(0)
        words = set()
        while len(words) < 50_000:
            word = list(format(rng.getrandbits(40), "040b"))
            for i in rng.sample(range(40), 2):
                word[i] = "*"
            words.add("".join(word))
        words = sorted(words)

        def peak():
            tracemalloc.start()
            try:
                Chain.from_words(*words)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        bulk = peak()
        monkeypatch.setattr(chains_module, "_parse_words", lambda ws: list(map(_parse_word, ws)))
        assert bulk <= 1.1 * peak()

    def test_a_valid_list_is_not_read_word_by_word(self, monkeypatch):
        words = self.words(33, 50, 0)
        expected = [_parse_word(w) for w in words]

        def refuse(word):
            raise AssertionError("read word by word")

        monkeypatch.setattr(faces_module, "_parse_word", refuse)
        assert _parse_words(words) == expected

    @pytest.mark.parametrize(
        "words",
        [[], ["0", "10", "*"], ["10", "1*", "0" * 70], ["10", "", "1x"], ["*1", "1é", "2"]],
    )
    def test_other_lists_are_read_word_by_word(self, words):
        try:
            expected = [_parse_word(w) for w in words]
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                _parse_words(words)
        else:
            assert _parse_words(words) == expected


class TestBulkWrite:
    """``_words`` writes a list of codes as two binary numerals merged digit
    by digit; ``_parse_word``, the per-word reader, must read each word back."""

    @staticmethod
    def codes(n, size, seed):
        rng = random.Random(f"write {n}:{size}:{seed}")
        codes = []
        for _ in range(size):
            free = rng.getrandbits(n)
            codes.append(free << n | rng.getrandbits(n) & ~free)
        return codes

    def test_literal_words(self):
        assert _words([0], 0) == [""]
        assert _words([0b010 << 3 | 0b001], 3) == ["1*0"]
        assert _words([0b1001 << 4 | 0b0110, 0b0110 << 4 | 0b1000, 0], 4) == ["*11*", "0**1", "0000"]

    # both sides of each field boundary: 8, 16, 32 and 64 digits
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 31, 32, 33, 63, 64])
    def test_matches_the_code_by_code_write(self, n):
        full = (1 << n) - 1
        # free bits at the field's edges and at the top coordinate, and their fixed mirrors
        edges = [full << n, full, 1 << n, 1 << (2 * n - 1), 1 << (n - 1), 0,
                 (1 << (n - 1) | 1) << n | full >> 1 & ~1]
        for size in (0, 1, 2, 1000, 2 * _RUN + 5):
            codes = edges + self.codes(n, size, 0)
            words = _words(codes, n)
            # code by code: each word has n digits and reads back to its code
            assert set(map(len, words)) == {n}
            assert list(map(_parse_word, words)) == codes
            assert _parse_words(words) == codes
