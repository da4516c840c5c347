"""The table of pinned CLI runs (tests/cli_runs.py): a refusal row for every
limit at its real value, and row checks that fail a run wrong in any one way.
The table's own rows run in CI, not here."""
from __future__ import annotations

import hashlib

from cli_runs import RUNS, Run, execute, problems
from test_cli import limit_modules

TAME = Run("classify --ell 2 --weight 3,0,0 --beta 1,1,1", "Tame\n")
REFUSED = Run("gdim --ell 1 --weight 1001,0 --beta 1,0", "", code=1, tail="exceeds the limit MAX_LEVEL = 1000")
REFUSAL = "error: level 1001 exceeds the limit MAX_LEVEL = 1000\n"
TAME_SHA, WILD_SHA, EMPTY_SHA = (hashlib.sha256(text).hexdigest() for text in (b"Tame\n", b"Wild\n", b""))


def test_every_limit_has_a_refusal_row_at_its_real_value():
    limits = {name: getattr(module, name) for name, module in limit_modules().items()}
    assert len(limits) == 9
    assert {run.tail for run in RUNS if run.code} == {f"exceeds the limit {n} = {v}" for n, v in limits.items()}
    # a refusal prints nothing, and an answer has no stderr to end in a tail
    assert all(run.out == "" for run in RUNS if run.code)
    assert all(run.tail == "" for run in RUNS if not run.code)


def test_the_row_check_fails_each_kind_of_wrong_run():
    assert problems(TAME, 0, TAME_SHA, "") == []
    assert problems(REFUSED, 1, EMPTY_SHA, REFUSAL) == []
    # a wrong stdout, against an exact text and against a sha256
    assert problems(TAME, 0, WILD_SHA, "") == [f"stdout sha256 {WILD_SHA}, not {TAME_SHA}"]
    assert problems(TAME._replace(out=WILD_SHA), 0, TAME_SHA, "") == [f"stdout sha256 {TAME_SHA}, not {WILD_SHA}"]
    assert problems(TAME, 1, TAME_SHA, "") == ["exit code 1, not 0"]
    assert problems(TAME, 0, TAME_SHA, "warning\n") == ["stderr is not empty"]
    tail = ["stderr is not one line ending in 'exceeds the limit MAX_LEVEL = 1000'"]
    assert problems(REFUSED, 1, EMPTY_SHA, "Traceback\n" + REFUSAL) == tail
    assert problems(REFUSED, 1, EMPTY_SHA, REFUSAL.replace("1000\n", "100\n")) == tail
    assert problems(REFUSED, 0, EMPTY_SHA, REFUSAL) == ["exit code 0, not 1"]
    assert problems(TAME, None, EMPTY_SHA, "") == ["no exit within 10 s"]


def test_the_runner_checks_real_runs():
    # a correct row passes; the node-limit search needs about a second, so a
    # 0.2 s timeout stops it; no Python starts in 10 MB of address space
    assert problems(TAME, *execute(TAME)) == []
    slow = Run("decomp --gamma 20,1,1", "", 0.2, code=1, tail="exceeds the limit MAX_SEARCH_NODES = 1000000")
    assert problems(slow, *execute(slow)) == ["no exit within 0.2 s"]
    capped = TAME._replace(cap_kb=10_000)
    assert problems(capped, *execute(capped))
