import copy
import hashlib
import pickle
import random
import re
import tracemalloc
from collections import Counter
from functools import cache, partial
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import cubefill.chains as chains_module
from cubefill import (
    Chain,
    SliceDecomposition,
    enumerate_faces,
    format_chain_text,
    linear_fill,
    minimizer_cycle,
    parse_chain_text,
    parse_face,
    random_cycle,
    read_chain,
    write_chain,
)
from cubefill.faces import _degree_codes, _dense_boundary

HEXAGON = Chain.from_words("*00", "*11", "0*1", "1*0", "00*", "11*")


@st.composite
def chains(draw, max_n=7, max_k=3, max_support=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    k = draw(st.integers(min_value=0, max_value=min(max_k, n)))
    pool = enumerate_faces(n, k)
    support = draw(
        st.frozensets(st.sampled_from(pool), max_size=min(max_support, len(pool)))
    )
    return Chain(n, k, support)


@st.composite
def cycles(draw, max_n=7, max_k=3):
    n = draw(st.integers(min_value=2, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=min(max_k, n - 1)))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    density = draw(st.sampled_from([0.05, 0.1, 0.2, 0.4]))
    return random_cycle(n, k, density, seed)


class TestAddition:
    def test_self_cancellation(self):
        e = Chain.from_words("0*")
        assert (e + e).support == frozenset()

    def test_disjoint_union(self):
        got = Chain.from_words("0*") + Chain.from_words("1*")
        assert got == Chain.from_words("0*", "1*")

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Chain.from_words("0*") + Chain.from_words("00")
        with pytest.raises(ValueError):
            Chain.from_words("0*") + Chain.from_words("0*1")

    @given(chains(), st.integers(min_value=0, max_value=5000))
    def test_adding_a_boundary_twice_is_identity(self, z, seed):
        if z.k + 1 > z.n:
            return
        w = random_cycle(z.n, z.k, 0.3, seed)  # a boundary in degree k
        assert (z + w) + w == z

    def test_from_words_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Chain.from_words("0*", "0*")

    def test_empty_needs_dimensions(self):
        with pytest.raises(ValueError):
            Chain.from_words()
        assert Chain.from_words(n=4, k=2).norm == 0

    @pytest.mark.parametrize(
        "n, k, message",
        [
            (100, 0, "dimension 100 outside"),
            (-1, 0, "dimension -1 outside"),
            (3, -5, "degree -5 below -1"),
        ],
    )
    def test_empty_checks_its_dimensions(self, n, k, message):
        with pytest.raises(ValueError, match=message):
            Chain.from_words(n=n, k=k)
        with pytest.raises(ValueError, match=message):
            Chain(n, k)

    @pytest.mark.parametrize(
        "n, k, word, message",
        [
            (2, 1, "00", "^face 00 does not live in degree 1 of Q_2$"),
            (3, 1, "0*", r"^face 0\* does not live in degree 1 of Q_3$"),
            (2, 3, "0*", r"^degree 3 outside \[0, 2\]$"),
        ],
    )
    def test_nonempty_checks_its_faces(self, n, k, word, message):
        with pytest.raises(ValueError, match=message):
            Chain(n, k, {parse_face(word)})


def reference_boundary(z):
    """The boundary summed face by face with a Counter, each face's boundary
    made by word surgery: a check on the code-level boundary that shares no
    code with it."""
    counts = Counter()
    for face in z.support:
        word = str(face)
        for i in (i for i, ch in enumerate(word) if ch == "*"):
            counts.update(parse_face(word[:i] + bit + word[i + 1 :]) for bit in "01")
    return Chain(z.n, max(z.k - 1, -1), frozenset(g for g, c in counts.items() if c % 2))


# Chain.boundary's rule forced to one kernel: 0 sends every chain to the sets of
# codes, 2^80 every chain of degree >= 1 to the numerals
KERNELS = pytest.mark.parametrize("dense", [0, 1 << 80], ids=["sets", "numerals"])


def boundary_and_kernel(z):
    """z's boundary under the module's own rule, and whether the numerals summed it."""
    with mock.patch.object(chains_module, "_dense_boundary", wraps=_dense_boundary) as spy:
        return z.boundary(), spy.called


@cache
def seeded_random_chains():
    """2,000 seeded random chains of degree >= 1 in Q_1..Q_9, and their boundaries as sets."""
    rng = random.Random(23)
    pools = {
        (n, k): [face.code for face in enumerate_faces(n, k)]
        for n in range(1, 10) for k in range(1, n + 1)
    }
    zs = []
    for _ in range(2000):
        n = rng.randint(1, 9)
        k = rng.randint(1, n)
        pool = pools[n, k]
        codes = rng.sample(pool, rng.randint(0, min(400, len(pool))))
        zs.append(Chain._of(n, k, frozenset(codes)))
    with mock.patch.object(chains_module, "_DENSE", 0):
        return zs, [z.boundary() for z in zs]


class TestBoundary:
    @given(chains())
    @settings(max_examples=200)
    def test_matches_the_face_by_face_reference(self, z):
        assert z.boundary() == reference_boundary(z)

    @given(cycles())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_reference_on_cycles_and_broken_cycles(self, z):
        assert reference_boundary(z).norm == 0 and z.boundary().norm == 0
        broken = z + Chain(z.n, z.k, frozenset(sorted(z.support)[::3]))
        assert broken.boundary() == reference_boundary(broken)

    def test_matches_the_reference_in_wide_cubes(self):
        # free coordinates in every byte of the packed free masks, the top one included
        rng = random.Random(4)
        for n in (9, 33, 64):
            for k in (1, 3):
                words = set()
                for i in range(30):
                    if i % 3:
                        stars = rng.sample(range(n), k)
                    else:  # the top coordinate free
                        stars = [n - 1, *rng.sample(range(n - 1), k - 1)]
                    words.add("".join("*" if j in stars else rng.choice("01") for j in range(n)))
                z = Chain.from_words(*words)
                assert z.boundary() == reference_boundary(z), (n, k)

    @KERNELS
    @given(z=chains())
    @settings(max_examples=150)
    def test_each_kernel_matches_the_reference(self, dense, z):
        with mock.patch.object(chains_module, "_DENSE", dense):
            assert z.boundary() == reference_boundary(z)

    @KERNELS
    @given(z=cycles())
    @settings(max_examples=30, deadline=None)
    def test_each_kernel_on_cycles_and_broken_cycles(self, dense, z):
        broken = z + Chain(z.n, z.k, frozenset(sorted(z.support)[::3]))
        with mock.patch.object(chains_module, "_DENSE", dense):
            assert z.boundary() == Chain(z.n, z.k - 1)
            assert broken.boundary() == reference_boundary(broken)

    @pytest.mark.parametrize(
        "make, numerals",
        [
            (lambda: random_cycle(12, 1, 0.01, 3), True),
            (lambda: random_cycle(10, 3, 0.01, 6), True),
            (lambda: random_cycle(9, 3, 0.05, 2), True),
            (lambda: random_cycle(12, 1, 0.001, 3), False),
            (lambda: random_cycle(9, 2, 0.003, 5), False),
            (lambda: minimizer_cycle(12, 3), False),
        ],
        ids=["Q12k1", "Q10k3", "Q9k3", "Q12k1-sparse", "Q9k2-sparse", "minimizer-12-3"],
    )
    def test_matches_the_reference_on_each_side_of_the_rule(self, make, numerals):
        z = make()
        # one face dropped: the boundary left is that face's 2k facets
        lone = Chain(z.n, z.k, {min(z.support)})
        for chain, want in ((z, Chain(z.n, z.k - 1)), (z + lone, lone.boundary())):
            got, kernel = boundary_and_kernel(chain)
            assert kernel == numerals
            assert got == want == reference_boundary(chain)

    @pytest.mark.parametrize(
        "words, numerals",
        [
            (["*000"], True),  # comb(4, 1) * 2^4 = 64 * 1 * 1: at the rule
            (["*0000", "0*000"], False),  # 160 > 64 * 1 * 2
            (["*0000", "0*000", "00*00"], True),  # 160 <= 64 * 1 * 3
        ],
        ids=["at", "above", "below"],
    )
    def test_the_rule_at_its_edge(self, words, numerals):
        z = Chain.from_words(*words)
        got, kernel = boundary_and_kernel(z)
        assert kernel == numerals
        assert got == reference_boundary(z)

    @KERNELS
    def test_a_facet_mask_whose_contributions_all_cancel(self, dense):
        # the 3-cube's boundary less its square 1**: the squares free at coordinate 1
        # meet in pairs on the four edges *00, *01, *10, *11, which all cancel
        z = Chain.from_words("**0", "**1", "*0*", "*1*", "0**")
        with mock.patch.object(chains_module, "_DENSE", dense):
            got = z.boundary()
        assert got == Chain.from_words("1*0", "1*1", "10*", "11*") == reference_boundary(z)

    @KERNELS
    @pytest.mark.parametrize("word", ["*", "***", "*****"])
    def test_a_top_degree_chain(self, dense, word):
        z = Chain.from_words(word)
        with mock.patch.object(chains_module, "_DENSE", dense):
            got = z.boundary()
        assert got == reference_boundary(z) and got.norm == 2 * len(word)

    @KERNELS
    def test_a_single_free_mask_group(self, dense):
        z = Chain.from_words("0*01", "1*01", "1*11", "0*10")
        with mock.patch.object(chains_module, "_DENSE", dense):
            got = z.boundary()
        assert got == reference_boundary(z)
        assert got == Chain.from_words(
            "0001", "0101", "1001", "1101", "1011", "1111", "0010", "0110"
        )

    def test_numerals_match_sets_on_seeded_random_chains(self):
        zs, sets = seeded_random_chains()
        assert [frozenset(_dense_boundary(z.codes, z.n)) for z in zs] == [b.codes for b in sets]
        # under the module's own rule both kernels run, and agree with the sets
        with mock.patch.object(chains_module, "_dense_boundary", wraps=_dense_boundary) as spy:
            assert [z.boundary() for z in zs] == sets
        assert 500 <= spy.call_count <= 1500

    def test_the_kernel_holds_one_row_at_a_time(self):
        # at the rule's edge: comb(12, 4) * 2^12 = 64 * 4 * 7,920; the 4-KiB rows of all
        # 495 free masks held at once would add about 2 MiB to the output's 2.3 MiB
        z = Chain._of(12, 4, frozenset(random.Random(1).sample(list(_degree_codes(12, 4)), 7920)))
        assert boundary_and_kernel(z)[1]
        tracemalloc.start()
        try:
            boundary = _dense_boundary(z.codes, z.n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        with mock.patch.object(chains_module, "_DENSE", 0):
            assert frozenset(boundary) == z.boundary().codes
        assert peak < 3.4 * 2**20

    @pytest.mark.parametrize("order", [
        sorted,
        partial(sorted, reverse=True),
        lambda codes: random.Random(5).sample(sorted(codes), len(codes)),
        lambda codes: (code for code in sorted(codes)),  # read once
    ], ids=["sorted", "reversed", "shuffled", "generator"])
    def test_numerals_do_not_depend_on_the_input_order(self, order):
        zs, sets = seeded_random_chains()
        got = [frozenset(_dense_boundary(order(z.codes), z.n)) for z in zs]
        assert got == [b.codes for b in sets]

    def test_vertex_chain_reference_is_the_empty_degree_minus_one_chain(self):
        z = Chain.from_words("010", "111")
        assert z.boundary() == reference_boundary(z) == Chain(3, -1)

    def test_square(self):
        got = Chain.from_words("**").boundary()
        assert got == Chain.from_words("0*", "1*", "*0", "*1")

    def test_hexagon_is_cycle_by_vertex_degrees(self):
        # independent check: every incident vertex must have even degree
        degrees = Counter()
        for edge in HEXAGON.support:
            degrees.update(edge.boundary())
        assert all(d % 2 == 0 for d in degrees.values())
        assert HEXAGON.is_cycle()

    def test_empty(self):
        assert Chain(3, 2).boundary() == Chain(3, 1)

    def test_vertex_chain_boundary_is_degree_minus_one(self):
        got = Chain.from_words("010").boundary()
        assert got.k == -1 and got.norm == 0

    def test_single_edge_not_a_cycle(self):
        assert not Chain.from_words("*00").is_cycle()

    @given(chains())
    @settings(max_examples=150)
    def test_double_boundary_vanishes(self, z):
        assert z.boundary().boundary().norm == 0


class TestSlice:
    def test_hexagon_slice(self):
        cut = HEXAGON.slice(1, 1)
        assert cut.z_zero == Chain.from_words("00", "11")
        assert cut.z_plus == Chain.from_words("*0", "1*")
        assert cut.z_minus == Chain.from_words("*1", "0*")
        assert cut.z_plus.boundary() == cut.z_zero
        assert cut.z_minus.boundary() == cut.z_zero

    def test_empty_chain(self):
        cut = Chain(4, 2).slice(2, 0)
        assert cut.z_plus.norm == cut.z_minus.norm == cut.z_zero.norm == 0

    def test_coordinate_out_of_range(self):
        with pytest.raises(ValueError):
            HEXAGON.slice(4, 1)
        with pytest.raises(ValueError):
            HEXAGON.slice(1, 2)

    @given(chains(), st.data())
    @settings(max_examples=150)
    def test_reassembly(self, z, data):
        coordinate = data.draw(st.integers(min_value=1, max_value=z.n))
        plus_value = data.draw(st.sampled_from([0, 1]))
        assert z.slice(coordinate, plus_value).reassemble() == z

    @given(cycles(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_cycle_slices_share_their_boundary(self, z, data):
        coordinate = data.draw(st.integers(min_value=1, max_value=z.n))
        cut = z.slice(coordinate, 1)
        assert cut.z_plus.boundary() == cut.z_zero
        assert cut.z_minus.boundary() == cut.z_zero

    @given(chains())
    @settings(max_examples=100)
    def test_counting_identities(self, z):
        crossings = 0
        sides = 0
        for coordinate in range(1, z.n + 1):
            cut = z.slice(coordinate, 1)
            crossings += cut.z_zero.norm
            sides += 2 * (cut.z_plus.norm + cut.z_minus.norm)
        assert crossings == max(z.k, 0) * z.norm
        assert sides == 2 * (z.n - max(z.k, 0)) * z.norm


class TestInjectAndPrism:
    def test_free_injection(self):
        assert Chain.from_words("0*").inject(1, "free") == Chain.from_words("*0*")

    def test_inject_slice_round_trip(self):
        z = Chain.from_words("0*", "1*")
        for mode, part in (("fixed-0", "z_minus"), ("fixed-1", "z_plus"), ("free", "z_zero")):
            lifted = z.inject(2, mode)
            cut = lifted.slice(2, 1)
            assert getattr(cut, part) == z
            others = {"z_plus", "z_minus", "z_zero"} - {part}
            assert all(getattr(cut, o).norm == 0 for o in others)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            Chain.from_words("0*").inject(1, "pinned-0")

    @pytest.mark.parametrize(
        "z, coordinate, message",
        [
            (HEXAGON, 0, r"^coordinate 0 outside \[1, 4\]$"),
            (HEXAGON, 5, r"^coordinate 5 outside \[1, 4\]$"),
            (Chain(64, 0), 1, r"^dimension 65 outside \[0, 64\]$"),
        ],
    )
    def test_coordinate_and_dimension_out_of_range(self, z, coordinate, message):
        with pytest.raises(ValueError, match=message):
            z.inject(coordinate, "fixed-0")

    def test_prism_of_vertex(self):
        edge = Chain.from_words("0").prism(1)
        assert edge == Chain.from_words("*0")
        assert edge.boundary() == Chain.from_words("00", "10")

    def test_prism_of_edge_is_square(self):
        square = Chain.from_words("*0").prism(3)
        assert square == Chain.from_words("*0*")
        # 4 = 2*1 + 1 + 1 edges
        assert square.boundary().norm == 4

    @given(chains(max_n=6), st.data())
    @settings(max_examples=200)
    def test_prism_boundary_identity(self, w, data):
        coordinate = data.draw(st.integers(min_value=1, max_value=w.n + 1))
        lhs = w.prism(coordinate).boundary()
        rhs = (
            w.boundary().prism(coordinate)
            + w.inject(coordinate, "fixed-0")
            + w.inject(coordinate, "fixed-1")
        )
        assert lhs == rhs

    @given(chains(), st.data())
    def test_prism_preserves_norm(self, w, data):
        coordinate = data.draw(st.integers(min_value=1, max_value=w.n + 1))
        assert w.prism(coordinate).norm == w.norm


class TestRandomCycle:
    def test_zero_density(self):
        assert random_cycle(5, 2, 0.0, 1).norm == 0

    def test_outputs_are_cycles(self):
        for seed in range(10):
            assert random_cycle(6, 2, 0.15, seed).is_cycle()

    def test_pinned_value(self):
        # frozen at first build; guards the generator's determinism
        z = random_cycle(6, 1, 0.1, 7)
        assert z.norm == 72
        assert [str(f) for f in sorted(z.support)[:4]] == [
            "*01100",
            "*11100",
            "*10010",
            "*11010",
        ]
        digest = hashlib.sha256(format_chain_text(z).encode()).hexdigest()
        assert digest == "04d2cf7ad969dc69f986b7535ed549e41d40591119fc849d041c1347e837a64f"

    def test_invalid_density(self):
        with pytest.raises(ValueError):
            random_cycle(5, 1, 1.5, 0)
        with pytest.raises(ValueError):
            random_cycle(5, 1, -0.1, 0)

    def test_degree_range(self):
        with pytest.raises(ValueError):
            random_cycle(3, 3, 0.5, 0)

    def test_dimension_above_max_coordinates(self):
        # Chain(65, 64) refuses this shape, so a file of it would not read back
        with pytest.raises(ValueError, match="dimension 65 outside"):
            random_cycle(65, 64, 1.0, seed=0)


class TestOneRepresentation:
    def test_faces_files_and_engines_give_equal_chains(self, tmp_path):
        z = random_cycle(6, 2, 0.2, 3)
        for chain in (z, linear_fill(z).filling):
            text = format_chain_text(chain)
            words = text.splitlines()[1:]
            built = Chain(chain.n, chain.k, frozenset(parse_face(w) for w in words))
            path = tmp_path / "z.chain"
            write_chain(chain, path)
            same = [built, Chain.from_words(*words), parse_chain_text(text), read_chain(path)]
            assert all(other == chain for other in same)
            assert {hash(other) for other in same} == {hash(chain)}
            assert len({chain, *same}) == 1


def lifted(z, n):
    """z moved into Q_n by putting in pinned coordinates, alternately 1 and 0."""
    while z.n < n:
        z = z.inject(z.n + 1, f"fixed-{z.n % 2}")
    return z


class TestFromWords:
    @pytest.mark.parametrize(
        "n, k, density, seed, into",
        [(7, 1, 0.1, 1, 7), (8, 2, 0.05, 2, 8), (9, 1, 0.05, 3, 9), (8, 1, 0.05, 4, 17),
         (6, 2, 0.2, 5, 33), (6, 1, 0.2, 6, 64)],
    )
    def test_agrees_with_parse_face(self, n, k, density, seed, into):
        z = lifted(random_cycle(n, k, density, seed), into)
        words = [str(face) for face in z.support]
        assert Chain.from_words(*words) == Chain(z.n, z.k, frozenset(map(parse_face, words))) == z

    # each message is the one the word-by-word checks raise, for the first offence
    @pytest.mark.parametrize(
        "words, kwargs, message",
        [
            (("10", ""), {}, "empty face word"),
            (("1", "", "x"), {}, "empty face word"),
            (("10", "1x0", "2"), {}, "invalid character 'x' at position 2"),
            (("10", "1" * 65), {}, "face word longer than 64 coordinates"),
            (("10", "1", "10"), {}, "duplicate face in support listing"),
            (("*0", "**", "0*"), {}, "face ** does not live in degree 1 of Q_2"),
            (("*0", "1*", "0*1"), {}, "face 0*1 does not live in degree 1 of Q_2"),
            (("*0",), {"n": 3}, "expected words of length 3, got 2"),
            (("*0", "*1"), {"k": 0}, "expected degree 0, got 1"),
            ((), {}, "an empty chain needs explicit n and k"),
        ],
    )
    def test_reports_the_first_error(self, words, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Chain.from_words(*words, **kwargs)

    def test_words_of_different_lengths_are_not_duplicates(self):
        # "0" and "00" share the code 0; the length check reports them
        with pytest.raises(ValueError, match="^face 00 does not live in degree 0 of Q_1$"):
            Chain.from_words("0", "00")


class TestValueSemantics:
    def test_equality_and_hash_go_by_value(self):
        again = Chain.from_words("11*", "00*", "1*0", "0*1", "*11", "*00")
        assert again == HEXAGON and again is not HEXAGON
        assert hash(again) == hash(HEXAGON)
        assert len({again, HEXAGON, Chain(3, 1)}) == 2
        # the same (empty) support in another degree or cube is another chain
        assert Chain(3, 1) != Chain(3, 2) != Chain(4, 2)

    def test_fields_cannot_be_assigned_or_deleted(self):
        z = Chain.from_words("*0", "*1", "0*", "1*")
        with pytest.raises(AttributeError):
            z.k = 2
        with pytest.raises(AttributeError):
            z.codes = frozenset()
        with pytest.raises(AttributeError):
            del z.n
        assert (z.n, z.k, z.norm) == (2, 1, 4)

    def test_other_types_do_not_add_or_compare(self):
        with pytest.raises(TypeError):
            HEXAGON + 3
        assert (HEXAGON == 3) is False
        assert repr(HEXAGON) == "Chain(n=3, k=1, norm=6)"

    def test_copies_and_pickles_are_equal(self):
        copies = [copy.copy(HEXAGON), copy.deepcopy(HEXAGON), pickle.loads(pickle.dumps(HEXAGON))]
        assert all(other == HEXAGON for other in copies)

    def test_slice_decomposition_field_order(self):
        fields = ("coordinate", "plus_value", "z_plus", "z_minus", "z_zero")
        assert SliceDecomposition._fields == fields
        cut = HEXAGON.slice(2, 0)
        assert tuple(cut) == (2, 0, cut.z_plus, cut.z_minus, cut.z_zero)
