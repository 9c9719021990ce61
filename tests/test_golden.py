"""Golden outputs: the criterion-11 commands plus the lemma1, ode, kernels,
order-1 and order-2 verify reports and the kernels CSV rows, compared
against the committed files in tests/golden/.

Non-numeric text must match exactly; every number must agree within 1e-15
relative, so a refactor that moves a last bit is caught as well as one that
changes a field.  To regenerate after an intended, documented change:

    PYTHONPATH=src python tests/test_golden.py
"""

import math
import re
import sys
from pathlib import Path

import pytest

from lame3trf.cli import main as cli_main

GOLDEN_DIR = Path(__file__).parent / "golden"
REL_TOL = 1e-15

# (file name, argv, expected exit code)
GOLDEN_COMMANDS = (
    ("eval-series.csv",
     ["eval-series", "--rho", "0.5", "--h", "1", "--alpha", "3",
      "--lambda", "0", "--xi", "0.1", "--N", "40", "--format", "csv"], 0),
    ("verify-residue.json", ["verify", "residue", "--format", "json"], 0),
    ("verify-gf0.json", ["verify", "gf-order0", "--format", "json"], 0),
    ("sweep.csv",
     ["sweep", "gf-order0", "--grid", "s0=0.1,0.3", "--format", "csv"], 0),
    ("verify-gf1.json", ["verify", "gf-order1", "--format", "json"], 1),
    ("verify-gf2.json", ["verify", "gf-order2", "--format", "json"], 1),
    ("verify-lemma1.json", ["verify", "lemma1", "--format", "json"], 0),
    ("verify-ode.json", ["verify", "ode", "--format", "json"], 0),
    ("verify-kernels.json", ["verify", "kernels", "--format", "json"], 0),
    ("verify-kernels.csv", ["verify", "kernels", "--format", "csv"], 0),
)

_NUMBER = re.compile(
    r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|(?<![A-Za-z_])[-+]?(?:inf|nan)(?![A-Za-z_])"
)


def _split(text):
    """Non-numeric pieces and the numbers between them."""
    return _NUMBER.split(text), [float(m) for m in _NUMBER.findall(text)]


def _close(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _run(argv, out):
    return cli_main(argv + ["--out", str(out)])


@pytest.mark.parametrize("name,argv,code", GOLDEN_COMMANDS,
                         ids=[c[0] for c in GOLDEN_COMMANDS])
def test_cli_output_matches_golden(name, argv, code, tmp_path, capsys):
    out = tmp_path / name
    assert _run(argv, out) == code
    got_text, got_nums = _split(out.read_text())
    want_text, want_nums = _split((GOLDEN_DIR / name).read_text())
    assert got_text == want_text
    assert len(got_nums) == len(want_nums)
    bad = [(i, g, w) for i, (g, w) in enumerate(zip(got_nums, want_nums))
           if not _close(g, w)]
    assert not bad, f"{name}: numbers off by more than {REL_TOL:g} rel: {bad[:5]}"


def test_number_split_separates_text_and_values():
    text, nums = _split('{"gap": 1.5e-16, "n": -3, "k": nan}\n')
    assert text == ['{"gap": ', ', "n": ', ', "k": ', '}\n']
    assert nums[:2] == [1.5e-16, -3.0] and math.isnan(nums[2])
    assert _close(1.0, 1.0 + 2.2e-16) and not _close(1.0, 1.0 + 1e-14)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv, code in GOLDEN_COMMANDS:
        got = _run(argv, GOLDEN_DIR / name)
        if got != code:
            sys.exit(f"{name}: exit {got}, expected {code}")
