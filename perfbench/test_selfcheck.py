"""Self-checks for the benchmark's generator, checker, percentile rule and
tracer.  Run from the repository root with either of

    python3 -m pytest perfbench
    python3 perfbench/test_selfcheck.py
"""

import os
import random
import sys
import tempfile
import unittest
from math import comb

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import cells  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class GeneratorTest(unittest.TestCase):
    def test_random_cycles_are_cycles_and_seeded(self):
        for n, k, generators in ((6, 1, 12), (7, 2, 20), (8, 3, 9)):
            z = cells.random_cycle(random.Random(5), n, k, generators)
            self.assertTrue(z)
            self.assertEqual(cells.boundary(z), set())
            self.assertTrue(all(len(w) == n and w.count("*") == k for w in z))
            self.assertEqual(z, cells.random_cycle(random.Random(5), n, k, generators))
        self.assertNotEqual(cells.random_cycle(random.Random(1), 7, 2, 20),
                            cells.random_cycle(random.Random(2), 7, 2, 20))

    def test_too_many_generators_is_refused(self):
        with self.assertRaises(ValueError):
            cells.random_cycle(random.Random(0), 3, 1, 7)

    def test_minimizer_is_a_cycle_of_the_stated_norm(self):
        for n, k in ((3, 1), (5, 2), (6, 3)):
            z = cells.minimizer(n, k)
            self.assertEqual(len(z), 2 * comb(n, k))
            self.assertEqual(cells.boundary(z), set())

    def test_embedding_keeps_cycles_and_norms(self):
        z = cells.minimizer(5, 2)
        big = cells.embed(random.Random(3), z, 40)
        self.assertEqual(len(big), len(z))
        self.assertEqual(cells.boundary(big), set())
        self.assertTrue(all(len(w) == 40 for w in big))

    def test_workload_inputs_repeat_per_seed(self):
        import cubefill

        digests = []
        for seed in (7, 7, 8):
            with tempfile.TemporaryDirectory() as workdir:
                ops = workloads.build("cli-files", seed, cubefill, workdir)
                digests.append(workloads.input_digest(ops, workdir))
        self.assertEqual(digests[0], digests[1])
        self.assertNotEqual(digests[0], digests[2])

    def test_chain_text_round_trips(self):
        z = cells.minimizer(4, 1)
        self.assertEqual(cells.parse_chain_text(cells.chain_text(4, 1, z)), (4, 1, z))


class CheckerTest(unittest.TestCase):
    n, k = 6, 1

    def setUp(self):
        self.z = cells.minimizer(self.n, self.k)
        self.y = self._linear_filling()

    def _linear_filling(self):
        import cubefill

        chain = cubefill.Chain.from_words(*sorted(self.z))
        return frozenset(str(f) for f in cubefill.linear_fill(chain).filling.support)

    def check(self, y, strategy="linear", **kw):
        return cells.check_filling(self.n, self.k, self.z, y, strategy, rel_tol=1e-9, **kw)

    def test_accepts_a_true_filling(self):
        self.assertEqual(self.check(self.y, known_min=comb(6, 2)), [])

    def test_flags_a_corrupted_filling(self):
        problems = self.check(self.y - {min(self.y)})
        self.assertIn("boundary of the filling is not the cycle", problems)

    def test_flags_a_filling_over_its_certificate(self):
        # adding the boundary of a 3-cell keeps the boundary of the filling;
        # the linear filling of this cycle sits exactly on its certificate
        heavier = next(
            y for y in (set(self.y) ^ cells.boundary({"***" + format(i, "03b")}) for i in range(8))
            if len(y) > len(self.y)
        )
        self.assertEqual(cells.boundary(heavier), set(self.z))
        self.assertIn("linear certificate exceeded", self.check(frozenset(heavier)))

    def test_flags_fillings_off_a_known_minimum(self):
        self.assertTrue(any("undercuts" in p for p in self.check(self.y, known_min=16)))
        problems = self.check(self.y, "exact", known_min=14, optimal=True)
        self.assertTrue(any("not 14" in p for p in problems))

    def test_flags_an_exact_search_heavier_than_linear(self):
        problems = self.check(self.y, "exact", linear_norm=len(self.y) - 1)
        self.assertIn("exact filling heavier than the linear filling", problems)


class PercentileTest(unittest.TestCase):
    def test_ten_samples_lie_beyond_the_tail(self):
        value, rank = run.tail_percentile(list(range(1, 101)))
        self.assertEqual((value, rank), (90, 90.0))
        self.assertEqual(sum(1 for s in range(1, 101) if s > value), 10)

    def test_short_lists_give_the_largest_sample(self):
        self.assertEqual(run.tail_percentile([3, 1, 2]), (3, 100.0))
        self.assertEqual(run.tail_percentile(list(range(11)))[0], 0)


class TracerTest(unittest.TestCase):
    def test_self_time_excludes_traced_children(self):
        tracer = tracing.Tracer()

        def child():
            sum(range(20_000))

        traced_child = tracer.wrap("chains.child", child)

        def parent():
            for _ in range(5):
                traced_child()

        tracer.wrap("filling.parent", parent)()
        calls, self_s, incl_s = tracer.stats["filling.parent"][:3]
        child_calls, child_self = tracer.stats["chains.child"][:2]
        self.assertEqual((calls, child_calls), (1, 5))
        self.assertLess(self_s, child_self)
        self.assertAlmostEqual(incl_s, self_s + child_self, delta=1e-3)
        spans = [s for s in tracer.spans if s]
        self.assertEqual(len(spans), 6)
        root = next(s for s in spans if s[2] == "filling.parent")
        self.assertTrue(all(s[1] == root[0] for s in spans if s is not root))

    def test_install_reaches_every_namespace_and_uninstall_restores(self):
        import cubefill
        import cubefill.cli

        original = cubefill.cli.linear_fill
        tracer = tracing.Tracer()
        tracer.install(cubefill)
        try:
            self.assertIsNot(cubefill.cli.linear_fill, original)
            self.assertIs(cubefill.cli.linear_fill, cubefill.linear_fill)
            cubefill.linear_fill(cubefill.minimizer_cycle(4, 1))
        finally:
            tracer.uninstall()
        self.assertIs(cubefill.cli.linear_fill, original)
        self.assertEqual(tracer.stats["filling.linear_fill"][0], 1)
        self.assertGreater(tracer.stats["faces.Face"][0], 0)


if __name__ == "__main__":
    unittest.main()
