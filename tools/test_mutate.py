"""Unit test of ``tools/mutate.py`` on a toy module with known survivors.

Run from the repository root with ``python3 -m unittest discover -s tools``.
"""

import sys
import tempfile
import unittest
from pathlib import Path

import mutate

TOY = '''\
"""A toy module."""


def clamp(x):
    """Never below zero."""
    if x < 0:
        x = 0
    unused = x * 3
    return x


def twice(x):
    return x + x
'''

TOY_TEST = '''\
import unittest

from toy import clamp, twice


class ToyTest(unittest.TestCase):
    def test_toy(self):
        self.assertEqual(clamp(-1), 0)
        self.assertEqual(clamp(2), 2)
        self.assertEqual(twice(3), 6)
'''

STAGES = [[sys.executable, "-m", "unittest", "-q", "test_toy"]]


class MutateTest(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.root = Path(tmp.name)
        (self.root / "toy.py").write_text(TOY)
        (self.root / "test_toy.py").write_text(TOY_TEST)

    def survivors(self, kind):
        with open(self.root / "log.txt", "w") as log:
            mutants, alive = mutate.run(self.root, [str(self.root / "toy.py")], kind,
                                        STAGES, log=log)
        self.assertEqual((self.root / "toy.py").read_text(), TOY)   # tree untouched
        return len(mutants), [str(m) for m in alive]

    def test_statements(self):
        # the docstrings are not mutants; deleting the dead assignment survives
        self.assertEqual(self.survivors("statements"), (
            5, ["toy.py:8 statements pass (col 4)"]))

    def test_operators(self):
        # the test never calls clamp between 0 and 1, so x <= 0 and x < 1
        # survive, and so do the flip and the constant of the dead assignment
        self.assertEqual(self.survivors("operators"), (
            6, ["toy.py:6 operators < -> <= (col 7)",
                "toy.py:6 operators 0 -> 1 (col 11)",
                "toy.py:8 operators * -> / (col 13)",
                "toy.py:8 operators 3 -> 4 (col 17)"]))

    def test_a_failing_baseline_stops_the_pass(self):
        (self.root / "test_toy.py").write_text(TOY_TEST.replace("6)", "7)"))
        with self.assertRaises(SystemExit):
            self.survivors("statements")


if __name__ == "__main__":
    unittest.main()
