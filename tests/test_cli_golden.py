"""Golden corpus: the exact stdout and exit code of `count` on fixed inputs.

data/count_golden.json holds one entry per run: genus 2 in both classes
of b, genus 3 under both trace methods, two genus-3 curves that once
exited 3 (one with t6 = 0), genus 4 through the degree-16 eliminant
(splitting degrees 1, 2 and 4), genus 5, a genus-6 tie that exits 3,
and the genus-7 refusal that exits 2 before counting.  Any
change to an answer, a transcript line or the JSON layout shows up
here as a byte difference.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from hypercount import cli
from hypercount.config import BUDGET_ENV

CORPUS = json.loads(
    (Path(__file__).parent / "data" / "count_golden.json").read_text())


@pytest.mark.parametrize("case", CORPUS,
                         ids=[" ".join(c["argv"][1:]) for c in CORPUS])
def test_count_matches_golden_output(case, monkeypatch):
    monkeypatch.delenv(BUDGET_ENV, raising=False)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(case["argv"])
    assert code == case["exit"]
    assert buf.getvalue() == case["stdout"]
