"""``RESULTS.md``: the paper-scale ``summary.csv`` of each headline experiment.

The file shows each summary as a Markdown table next to the exact bytes of
the CSV in a fenced block.  The test runs no command: it checks that each
block hashes to its ``<command>/summary.csv`` entry in ``golden.json``,
which ``test_golden.py`` holds to a fresh run, and that the whole file is
the rendering of its blocks, tables and prose included.

Rewrite the file (after regenerating ``golden.json``, when a change is meant
to move results) with ``PYTHONPATH=src python tests/test_results.py``.
"""

import csv
import hashlib
import json
import os
import re
import tempfile
from pathlib import Path

from readout_rebalance.harness import EXIT_OK, main
from test_golden import COMMANDS, GOLDEN, ROOT

RESULTS = ROOT / "RESULTS.md"
# inverted W, Grover and the Gaussian sweep, each under both unfolders, at the
# default 1000 repetitions
SUMMARIES = (
    "inverted_w_matrix_inversion", "inverted_w_ibu",
    "grover_matrix_inversion", "grover_ibu",
    "gaussian_sweep_paper_matrix_inversion", "gaussian_sweep_paper_ibu",
)

PREAMBLE = """\
# Results at paper scale

Each section is the `summary.csv` of one command at 100k shots and 1000
repetitions, as a table rounded to four significant figures and then as the
exact bytes the command writes. `tests/test_results.py` holds each block to
the file's hash in `tests/golden.json`, and each table to its block.

- `std` is the standard deviation of the corrected observable over the
  repetitions, and `std_nominal` that of the nominal strategy on the same
  state and unfolder.
- `shots_equivalent_fraction` is `(std / std_nominal) ** 2`: the share of
  nominal's shots that nominal would need to reach the strategy's std.
  Below 1, the strategy buys precision.
- Each std is itself an estimate from 1000 repetitions. Its square has a
  relative error of about `sqrt(2 / 999)`, so a fraction, a ratio of two
  such squares, is good to about 6 %.
- Only the spread is shown. IBU is biased at a finite number of
  iterations, and its bias is not reported yet (ROADMAP items 2 and 15).
"""


def table(text):
    """The Markdown table of one CSV text, numbers to four significant figures."""
    header, *rows = csv.reader(text.splitlines())

    def cell(value):
        return value if re.fullmatch(r"[A-Za-z_]*", value) else f"{float(value):.4g}"

    lines = [header, ["---"] * len(header), *([cell(v) for v in row] for row in rows)]
    return "\n".join("| " + " | ".join(line) + " |" for line in lines)


def render(blocks):
    """The whole of ``RESULTS.md`` from each command's ``summary.csv`` text."""
    sections = [
        f"## {name}\n\n`readout-rebalance {' '.join(COMMANDS[name])}`\n\n"
        f"{table(blocks[name])}\n\n```csv\n{blocks[name]}```\n"
        for name in SUMMARIES
    ]
    return "\n".join([PREAMBLE, *sections])


def blocks_of(text):
    """Each section's CSV block, by command name."""
    return dict(re.findall(r"^## (\w+)\n.*?^```csv\n(.*?)^```$", text, re.M | re.S))


def test_each_block_is_its_commands_golden_summary():
    golden = json.loads(GOLDEN.read_text())["sha256"]
    blocks = blocks_of(RESULTS.read_text())
    assert list(blocks) == list(SUMMARIES)
    for name, block in blocks.items():
        got = hashlib.sha256(block.encode()).hexdigest()
        assert got == golden[f"{name}/summary.csv"], f"{name}: the CSV block is not the golden one"


def test_the_file_is_the_rendering_of_its_blocks():
    text = RESULTS.read_text()
    assert text == render(blocks_of(text))


if __name__ == "__main__":
    blocks = {}
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        for name in SUMMARIES:
            assert main([*COMMANDS[name], "--output-dir", name]) == EXIT_OK
            blocks[name] = Path(name, "summary.csv").read_text()
    RESULTS.write_text(render(blocks))
