"""The seeded output sweep, pinned: every text report, JSON report, bundle,
generated instance and exit code of ``tests/output_sweep.py`` at seeds 1-2
and sizes 0-3 (1,272 commands) matches ``tests/golden_sweep.txt``.

The file was generated before the change it guards and is the same under
every ``PYTHONHASHSEED``.  A change that alters an output on purpose
regenerates it::

    python3 tests/output_sweep.py --seeds 1,2 --sizes 0,1,2,3 > tests/golden_sweep.txt

and names the labels that changed.
"""

from pathlib import Path

from mfcert.cli import main
from output_sweep import sweep

GOLDEN = Path(__file__).with_name("golden_sweep.txt")
SEEDS, SIZES = [1, 2], [0, 1, 2, 3]


def test_seeded_sweep_matches_the_golden_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = []
    commands = sweep(main, SEEDS, SIZES, lambda label, sha: got.append(f"{sha}  {label}"))
    got.append(f"commands {commands}")
    expected = GOLDEN.read_text().splitlines()
    for line, want in zip(got, expected):
        assert line == want, f"first differing label: {want.split('  ', 1)[-1]}"
    assert len(got) == len(expected)
