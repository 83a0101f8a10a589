"""Replay every subcommand against recorded stdout, stderr and exit code.

``cli_golden.json`` holds one record per case in ``CASES``.  A change that
means to alter the output regenerates it with::

    PYTHONPATH=src python tests/test_cli_golden.py

and the diff of the fixture shows what changed.  Cases run in-process from
``tests/`` (so file arguments are the relative paths under ``data/``), with a
terminal 80 columns wide and without ``THD_BUDGET``.
"""

import contextlib
import functools
import io
import json
import os
from pathlib import Path
from unittest import mock

import pytest

import thd.cli

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "cli_golden.json"


def _in_every_format(*commands):
    return [command + fmt for command in commands for fmt in ("", " --format json", " --format csv")]


# runs with a ledger whose kernels disagree with the closed form
LEDGER_DISAGREES = "kernel --n 4 --d 6 --p -9 --verify-les"

CASES = _in_every_format(
    "diamond --n 3 --d 4 --twist 1",
    "hh --n 5 --d 7 --p -8",
    "hh --n 5 --d 7 --p -8 --m 8",
    "hh --n 5 --d 7 --p -8 --target pushforward",
    "hh --n 4 --d 6 --p -9 --target kernel --m 4",
    "pushforward --n 5 --d 7 --p -8",
    "pushforward --n 5 --d 7 --p -8 --m 11",
    "kernel --n 5 --d 7 --p -8",
    "kernel --n 9 --d 5 --p -30 --m 12",
    "kernel --n 5 --d 7 --p -8 --m 40",
    "kernel --n 5 --d 7 --p -8 --verify-les",
    "kernel --n 5 --d 7 --p -8 --verify-les --m 6",
    "search --n 3..4 --d 2..3 --p -6..-4",
    "search --n 5 --d 7 --p -7..0",
    "search --n 5..3 --d 7 --p -8",
    "quadric --k 3 --d 2",
    "ainfty verify --example a2-deformed",
    "ainfty verify --example dual-perturbed",
    "ainfty verify --example random-cocycle --seed 5 --k-max 5",
    "ainfty hhdim --example dual-numbers --up-to 3",
    "ainfty deform --example a2-deformed",
    "ainfty verify --category data/dual_numbers.cat",
    "ainfty verify --category data/dual_numbers.cat --cochain data/square_zero.cochain",
    "ainfty hhdim --category data/dual_numbers.cat --up-to 2",
    "ainfty deform --category data/dual_numbers.cat --cochain data/square_zero.cochain",
) + [
    # a curve and a degenerate twist t - p = d
    "pushforward --n 1 --d 3 --p -5",
    "pushforward --n 2 --d 3 --p -4",
    "--help",
    "diamond --help",
    "hh --help",
    "pushforward --help",
    "kernel --help",
    "search --help",
    "quadric --help",
    "ainfty --help",
    "ainfty verify --help",
    "ainfty hhdim --help",
    "ainfty deform --help",
    # exit 2
    "",
    "bogus",
    "ainfty",
    "ainfty bogus",
    "diamond --n 3 --d 4 --twist 1 --bogus",
    "ainfty hhdim --example dual-numbers --bogus",
    "diamond --n 5",
    "diamond --n 0 --d 7 --twist 8",
    "hh --n 5 --d 7 --p -8 --target bogus",
    "quadric --k 1 --d 2",
    "ainfty verify",
    "ainfty verify --example dual-deformed --category data/dual_numbers.cat",
    "ainfty verify --example dual-deformed --budget -1",
    "ainfty hhdim --example k --up-to -1",
    "ainfty hhdim --example a2-deformed",
    "ainfty hhdim --category data/missing.cat",
    "ainfty deform --category data/dual_numbers.cat",
    # exit 3
    "kernel --n 5 --d 7 --p 0",
    "ainfty verify --example nope",
    "ainfty deform --category data/dual_numbers.cat --cochain data/not_closed.cochain",
    # exit 4
    LEDGER_DISAGREES,
    # exit 5
    "ainfty verify --example dual-deformed --budget 10",
]


class _DisagreeingLedger:
    kernel_of_fstar = {m: 1 for m in range(0, 11)}


def run_case(case):
    """The exit code, stdout and stderr of ``thd`` on the words of ``case``."""
    env = {key: value for key, value in os.environ.items() if key != "THD_BUDGET"}
    env["COLUMNS"] = "80"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.dict(os.environ, env, clear=True))
        stack.enter_context(contextlib.chdir(HERE))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        if case == LEDGER_DISAGREES:
            stack.enter_context(
                mock.patch.object(thd.cli, "les_ledger", lambda X, p: _DisagreeingLedger())
            )
        try:
            code = thd.cli.main(case.split())
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@functools.lru_cache(maxsize=None)
def recorded():
    return json.loads(FIXTURE.read_text())


def test_the_fixture_records_every_case():
    assert sorted(recorded()) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_cli_output_matches_the_recording(case):
    assert run_case(case) == recorded()[case]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({case: run_case(case) for case in CASES}, indent=1) + "\n")
