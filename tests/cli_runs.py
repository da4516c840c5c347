"""Pinned runs of the klrblocks CLI, one row each, on the standard library alone.

    python tests/cli_runs.py

runs each row's argv as a child process, with src/ on its path, under the
row's timeout and, where given, its address-space cap (the KB of `ulimit -v`),
and checks its exit code, its stderr (empty for an answer, one line ending in
the row's tail for a refusal) and its stdout (the sha256 of its bytes, or their
exact text).  It prints each row's result and seconds and exits 1 if any row
failed.  Most rows sit at or near a limit, so a slower or larger search fails
on the timeout or the cap; timings below are whole commands on a 2-vCPU VM.
"""
from __future__ import annotations

import hashlib
import os
import re
import resource
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class Run(NamedTuple):
    argv: str  # split on spaces; no argument holds one
    out: str  # the sha256 of stdout in hex, or its exact text
    timeout: float = 10
    cap_kb: int | None = None
    code: int = 0
    tail: str = ""  # how a refusal's one stderr line ends; an answer's stderr is empty


RUNS = [
    # One run of each subcommand.  The JSON of classify, maxweights and decomp
    # is the bytes printed before it was written from tuples and the records'
    # stored fields alone; that of gdim, what json.dumps gave before hand framing
    Run("maxweights --ell 1 --weight 2,0", "d0afac1bf81e96d7676b8e234ae895343aee3facdb740439f1ac13a6e6de13a7"),
    Run("quiver --ell 2 --weight 2,1,0", "cbfee58a5d3eb5189504daa2b221cff0408dfa73f437b87a4ff9ebd6b9e8a47e"),
    Run("tquiver --ell 2 --weight 2,1,0", "2646f0b384b774905f63233162e480073cc9164c7b9ddc5f15544027ea00293a"),
    Run("classify --ell 2 --weight 3,0,0 --beta 1,1,1", "Tame\n"),
    Run("classify --ell 2 --weight 3,0,0 --beta 1,1,1 --format json",
        '{"ell": 2, "base": [3, 0, 0], "beta": [1, 1, 1], "char": 0, "t": "other", "type": "Tame"}\n'),
    Run("classify --ell 2 --weight 3,0,0 --beta 1,1,1 --mdelta 1 --t sign --format json",
        '{"ell": 2, "base": [3, 0, 0], "beta": [2, 2, 2], "char": 0, "t": "sign", "type": "Wild"}\n'),
    Run("maxweights --ell 1 --weight 2,0 --format json",
        '{"ell": 1, "base": [2, 0], "entries": [{"weight": [0, 2], "x": [1, 0], "beta": [1, 0], '
        '"max_weight": {"lam": [0, 2], "delta": -1}}, {"weight": [2, 0], "x": [0, 0], "beta": [0, 0], '
        '"max_weight": {"lam": [2, 0], "delta": 0}}]}\n'),
    Run("gdim --ell 1 --weight 2,0 --beta 1,1", "1 + 2q^2 + q^4\n"),
    Run("gdim --ell 1 --weight 2,0 --beta 1,1 --format json", '{"ell": 1, "base": [2, 0], "beta": [1, 1], '
        '"which": "total", "terms": {"0": 1, "2": 2, "4": 1}, "at_one": 4}\n'),
    Run("gdim --ell 1 --weight 2,1 --beta 1,1 --nu 0,1 --nup 1,0 --format json", '{"ell": 1, "base": [2, 1], '
        '"beta": [1, 1], "which": "e(0,1) .. e(1,0)", "terms": {"2": 1, "4": 1}, "at_one": 2}\n'),
    Run("brauer --gamma 2,1,2", "150cd91fdd94a2db6cdab8051bb2c920a12dcb007f5227989d12d764accb7e07"),
    Run("decomp --gamma 2,1,2", "41a92bb2f318825438006e360d1f59d4e2e27f47c3a61e143885acbddb59a595"),
    Run("decomp --gamma 1,1,2 --format json",
        '{"cartan": [[3, 2], [2, 4]], "unique": true, "solutions": [[[1, 1], [1, 1], [1, 0], [0, 1], [0, 1]]]}\n'),
    # MAX_LEVEL = 1,000 sections per shape: each of the lattice's 1,000 moves
    # does a few bit operations on one 4,000-bit shape (0.09 s)
    Run("gdim --ell 1 --weight 1000,0 --beta 1,0", "b194ae4cbcf7dbd4ec82ea2516aec653d5be261c2072b214f66a2913e7c85319"),
    # beta = delta at e = 64, level 1: its 64 shapes, the hooks of 64 nodes,
    # outgrow sections of height 31 and 62, so all three heights are walked (0.2 s)
    Run(f"gdim --ell 63 --weight 1{',0' * 63} --beta 1{',1' * 63}",
        "066788fc638074d58cc7724a6fc6065ad5e4f0387936fb1ed9baa6c935b2083f"),
    # 4Λ0 at ell = 3, beta = (3, 3, 3, 4): 18,587 shapes of content <= beta,
    # some dead ends, so the backward prune runs: 0.2-0.35 s, 30 MB peak RSS,
    # 33 MB of address space; the pair query walks 13 steps twice (0.19 s,
    # 29 MB).  A much larger lattice dies under the cap; beta = (4, 3, 3, 3)
    # passes MAX_LATTICE_SHAPES
    Run("gdim --ell 3 --weight 4,0,0,0 --beta 3,3,3,4 --format json",
        "3e028bb510ab70b62266c678a8605d5ce69980f5dcdfc05957b0731178ec229a", cap_kb=60000),
    Run("gdim --ell 3 --weight 4,0,0,0 --beta 3,3,3,4 --nu 0,1,3,0,2,1,3,2,1,3,0,2,3 "
        "--nup 0,1,3,2,0,0,1,1,3,3,2,2,3 --format json",
        "02bb56821d36283922ce43bfbe34ec2b9b64b63c871743e24c3c35c59e320c38", cap_kb=60000),
    Run("gdim --ell 3 --weight 4,0,0,0 --beta 4,3,3,3", "", code=1,
        tail="exceeds the limit MAX_LATTICE_SHAPES = 20000"),
    # 10Λ0 at ell = 10: 16,796 members and 218,790 arrows, so 235,586 lines of
    # text, a count its sha256 fixes; about 71 MB and 0.7 s in each format
    *(Run(f"quiver --ell 10 --weight 10{',0' * 10} --format {fmt}", digest, 15) for fmt, digest in [
        ("text", "9046125ab39f6bae428385045fe8f262cd00a565e7063f4f487f8f7c4246c78b"),
        ("json", "d7f620d7108876bff78f5f5bedd4cb07fbdaca08a2e62d19ee4c037eb385bb64"),
        ("dot", "57eb3af9cb94dcf4928cf33a174a1f399df5e5e5e4e30dcf88028164abd0faab")]),
    # the all-ones weight at ell = 17: 289 vertices, 288 arrows and 288 tagged
    # vertices each cross the writer's 256-item chunk boundary
    *(Run(f"tquiver --ell 17 --weight 1{',1' * 17} --format {fmt}", digest) for fmt, digest in [
        ("text", "651da7f7a37d2514f282dd40d3c9cd5a9faa77ed8f5e554f648aebf40d480c5d"),
        ("json", "883d33625948acf23434b635b78a3bb155c68f1da1d72155bac10969557e2ef9"),
        ("dot", "bb8d82de001e7c691076107dbdfa1f7f25eb0cc71d7a61c05aa88694eccde322")]),
    # 3Λ0 at ell = 63 (715 members, 2,016 arrows) and 64 (737, 2,080), where
    # the zeros bitmask of X first outgrows 64 bits (0.1 s and 16 MB each)
    *(Run(f"{cmd} --ell {ell} --weight 3{',0' * ell} --format json", digest) for cmd, ell, digest in [
        ("maxweights", 63, "b37496ba0225f4252b409780c45e4dc3a8a4dc35b500a5ee540521debf2d8572"),
        ("quiver", 63, "00bcb700b62486ed993e0f1e095184e9137b39698739dd7f63f8fcb31079ac82"),
        ("maxweights", 64, "757873483aad16556577ee588e48ad267661a5d776f80faf78cc9bd668e80291"),
        ("quiver", 64, "530bf318e001ca881ef87f5c1e080b1ad228132801a6914e84e961ea138cbd3d")]),
    # 2Λ0 at e = MAX_E = 512: 257 members of 512 entries, 0.07 s and 21 MB
    # each; a walk that kept e^2 labels (51 MB) died under the cap
    *(Run(f"{cmd} --ell 511 --weight 2{',0' * 511} --format json", digest, cap_kb=60000) for cmd, digest in [
        ("maxweights", "11a0006fe5d366ac58a6ed79b353ecfe37a80bee347d1716c72baa67bf9bb06f"),
        ("quiver", "15a9ecac70a4196650137c62b9fe2a7f862d0289461faf191774cba80a1e3650")]),
    # 3Λ0 at ell = 339: 19,437 members.  Written 256 at a time, the 91 MB and
    # 73 MB answers take 2-3 s and 123 and 137 MB; whole, 323 and 405 MB
    *(Run(f"{cmd} --ell 339 --weight 3{',0' * 339} --format json", digest, 30, 250000) for cmd, digest in [
        ("maxweights", "bfe55b0dc2c7da1e29ea482cdb99f3ee3ea4c4849c86c8c5c5e52dcf487a14ed"),
        ("quiver", "5edcf90f0932c443bdf84d1cabc45e9fc32833c786dc51289f1151626ee3e389")]),
    # the tagged subquiver of the all-ones weight has (e - 1)^2 vertices: at
    # e = 512 it is refused before the walk (0.14 s, 14 MB); a walk to vertex
    # 20,001 took 1.6 s and 232 MB, and with no limit 76 s and 2.5 GB
    Run(f"tquiver --ell 511 --weight 1{',1' * 511}", "", cap_kb=100000, code=1,
        tail="exceeds the limit MAX_CLASS_MEMBERS = 20000"),
    # no answer within MAX_SEARCH_NODES: all visited in 0.9 s, so a node many
    # times dearer fails the timeout
    Run("decomp --gamma 20,1,1", "", code=1, tail="exceeds the limit MAX_SEARCH_NODES = 1000000"),
    # J + I of order 13 (2 on the diagonal, 1 elsewhere): each node scans its
    # candidate rows, so the same limit takes 3.9-4.3 s, at a peak of 62 MB
    # RSS and 65 MB of address space
    Run("decomp --cartan " + ";".join(",".join("2" if i == j else "1" for j in range(13)) for i in range(13)),
        "", 20, 100000, code=1, tail="exceeds the limit MAX_SEARCH_NODES = 1000000"),
    # trace 2,000, refused before the search (0.3 s, mostly the 1,000 x 1,000
    # Cartan matrix); its row walk once hit Python's recursion limit
    Run("decomp --gamma 999,1,1", "", code=1, tail="exceeds the limit MAX_SEARCH_DEPTH = 500"),
    # classify is O(e log e) integer work, the sort of the partial sums: 0.5 ms
    # in process at e = 512 with a beta entry of 10^9, 0.06 s as a process and
    # 14 MB, so a loop that grows with |beta| fails the timeout
    Run(f"classify --ell 511 --weight 3{',0' * 511} --beta 1000000000{',7' * 511}", "Zero\n"),
    # its JSON at e = 512, framed by hand, with --t in mixed case written as
    # given: the bytes json.dumps wrote (0.06-0.09 s, 14 MB)
    Run(f"classify --ell 511 --weight 3{',0' * 511} --beta 1{',1' * 511} --t SignEll --format json",
        "774fee0519443a10b8db39ef063ac10f9e7268ed46493bb60276e6bd859980c1"),
    # -- limits run at their real value nowhere else --
    # MAX_EDGES: the 1,000 x 1,000 Cartan matrix and 7,002 quiver lines, 4.28 MB
    # in 0.38 s; one edge more is refused before the line is built
    Run("brauer --gamma 999,1,1 --what all", "4d6f81133da5f60a60a76fcb05ed7ef897f1ea97cc6a7eda520b1d1481fff9d6"),
    Run("brauer --gamma 1000,1,1", "", code=1, tail="exceeds the limit MAX_EDGES = 1000"),
    # MAX_CANDIDATE_ROWS: J + I of order 14 (2 on the diagonal, 1 elsewhere)
    Run("decomp --cartan " + ";".join(",".join("2" if i == j else "1" for j in range(14)) for i in range(14)),
        "", code=1, tail="exceeds the limit MAX_CANDIDATE_ROWS = 10000"),
    # MAX_CHAR = 10^12: the largest prime below it answers (0.13 s), the next
    # prime is refused
    Run("classify --ell 2 --weight 3,0,0 --beta 1,1,1 --char 999999999989", "Tame\n"),
    Run("classify --ell 2 --weight 3,0,0 --beta 1,1,1 --char 1000000000039", "", code=1,
        tail="exceeds the limit MAX_CHAR = 1000000000000"),
    Run("gdim --ell 1 --weight 1001,0 --beta 1,0", "", code=1, tail="exceeds the limit MAX_LEVEL = 1000"),
    Run(f"classify --ell 512 --weight 3{',0' * 512} --beta 0{',0' * 512}", "", code=1,
        tail="exceeds the limit MAX_E = 512"),
]


def execute(run: Run) -> tuple[int | None, str, str]:
    """Run one row: its exit code (None past its timeout), the sha256 of its
    stdout, hashed from a file in chunks, and its stderr."""
    def cap() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (run.cap_kb * 1024, run.cap_kb * 1024))

    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        try:
            code = subprocess.run(
                [sys.executable, "-m", "klrblocks.cli", *run.argv.split(" ")],
                stdout=out, stderr=err, timeout=run.timeout,
                env={**os.environ, "PYTHONPATH": SRC}, preexec_fn=cap if run.cap_kb else None,
            ).returncode
        except subprocess.TimeoutExpired:
            code = None
        out.seek(0)
        err.seek(0)
        digest = hashlib.sha256()
        for chunk in iter(lambda: out.read(1 << 20), b""):
            digest.update(chunk)
        return code, digest.hexdigest(), err.read().decode(errors="replace")


def problems(run: Run, code: int | None, digest: str, err: str) -> list[str]:
    """What is wrong with one run of a row; empty when it passes."""
    if code is None:
        return [f"no exit within {run.timeout} s"]
    pinned = run.out if re.fullmatch("[0-9a-f]{64}", run.out) else hashlib.sha256(run.out.encode()).hexdigest()
    found = [] if code == run.code else [f"exit code {code}, not {run.code}"]
    if digest != pinned:
        found.append(f"stdout sha256 {digest}, not {pinned}")
    if run.tail and not (err.count("\n") == 1 and err.endswith(f"{run.tail}\n")):
        found.append(f"stderr is not one line ending in {run.tail!r}")
    if not run.tail and err:
        found.append("stderr is not empty")
    return found


def main() -> int:
    failed = 0
    for run in RUNS:
        started = time.perf_counter()
        code, digest, err = execute(run)
        found = problems(run, code, digest, err)
        print(f"{'FAIL' if found else 'ok':4} {time.perf_counter() - started:6.2f} s  {run.argv[:100]}", flush=True)
        for line in found + ([f"stderr: {err[:200]!r}"] if found else []):
            print(f"     {line}")
        failed += bool(found)
    print(f"{len(RUNS) - failed} of {len(RUNS)} rows pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
