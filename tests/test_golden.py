"""Byte-stability of the CLI's outputs: stdout and every JSON file it writes.

Each case pins the SHA-256 of one output.  Lines that carry wall-clock
values (`elapsed`, `timestamp`) are removed first; every other byte,
including indentation, key order and trailing newlines, is pinned.  A
change to any of these digests changes what users and scripts read, so
it must come with a schema decision, not as a side effect of a refactor.
The budget-limited cases pin non-empty witness lists.
"""

import hashlib
import re

import pytest

from collatz_lab.cli import main

_CLOCK_LINE = re.compile(r'^\s*"(elapsed|timestamp)": .*\n', re.MULTILINE)


def _digest(text: str) -> str:
    return hashlib.sha256(_CLOCK_LINE.sub("", text).encode()).hexdigest()


def _stdout(capsys, argv: list[str]) -> str:
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return out


@pytest.mark.parametrize(
    "command, digest",
    [
        ("trajectory 27 --json",
         "3fe4c79f6423533420313215f9753ab016317a6ebfc95dee294e23a620246611"),
        ("trajectory 26 --reduced",
         "3368c158ca27270e58bfa8110bcdfc035f40f8d2a8c61904ab35b96ba6867897"),
        # Cut off by the budget at step 100 of 221; the peak 10966508 is one of the stored values.
        ("trajectory 77031 --budget 100 --json",
         "bc70d7afe05ae40112b925ada43d54aae188365e200a9057c803ef94d63fbf11"),
        ("facts all 1 500 --json",
         "e5b6b79959bcc730ed5156240a62b1ffabd2eb0049a5e097377672691937cd5f"),
        ("facts reduction 1 60 --budget 5 --json",
         "6850bc0de457a5ac2c87796bba7eabe3304e17e10c492837f2330ed43e7c9dda"),
        # 620 of the 1,000 C2 starts inconclusive: chases that the budget cuts off.
        ("facts reduction 1000000000000 1000000003000 --budget 150 --json",
         "7990aca52f899c254377ed13713e206e6a907549bb811ba7a8914d20531a3685"),
        ("cycles --max-len 8 --json",
         "e774d160b06d673d8313590f70706d530b1141f75e4f087b779a732b3888e79d"),
        # Depth first to length 8, then the last 12 levels a level at a time.
        ("cycles --max-len 20 --json",
         "b01f8cc5516f7bc661dceff5870e713ba7fa1b3fc5ade58658300f69a2f154fd"),
        ("tree --reduced --max-value 64 --json",
         "0ea3fb4ffaafb73b4e51ae55208b182d9bc39c64e3b187d09cf49125491980a4"),
        ("tree --reduced --max-value 64 --dot",
         "5f3569cc458cdba6f8568e9ed5385bb80609cfabc295f93946e19e48500d0d48"),
    ],
)
def test_stdout_is_byte_stable(capsys, command, digest):
    assert _digest(_stdout(capsys, command.split())) == digest


@pytest.mark.parametrize(
    "command, digest",
    [
        # 62,500 inconclusive starts: the sieve at depth 10, the budget, and every chunk
        # takes the second pass over the residues the ancestor sieve skips.
        ("verify-range 1 1000000 --budget 10 --json",
         "1041620d0da8994f3765d0724788672ca9f4c72351633ceb2903d448c9db1e34"),
        # 5,647 inconclusive starts; every full chunk takes the sieve at depth 16.
        ("verify-range 1 1000000 --budget 40 --json",
         "16bb569b235edd2608550a4ba50c03d6f21debb4edb27f32027d83fffd9feef0"),
        # Every start drops below 10^12 and is chased to 1: max_steps 422 at
        # 1000000003049, max_peak 6073974153689930 at 1000000016529.
        ("verify-range 1000000000000 1000000020000 --json",
         "5969cf8f9424709984f18eae23115f19d69ba7dac57dff9280edf7fb9dfe43b9"),
        # 3,650 inconclusive starts, whose chases the budget cuts, in 313 small chunks.
        ("verify-range 1000000000000 1000000020000 --budget 200 --chunk-size 64 --json",
         "cd4e988fc65017235f3c4c102f4fd76ed976289c334df556f81e19eeea00a639"),
        # 25,000 inconclusive starts: the sieve at depth 3, the budget, walks 3 and 7 mod 8.
        ("verify-range 1 100000 --budget 3 --json",
         "c9e51561586e1ea9819564ea9c0104cc3d73e32cfd8301993b893db23a89db59"),
        # The first three chunks start too close above lo for the sieve and walk all their
        # starts, past the ancestor cut at 150,001 only the kept five residues mod 9; the
        # last one, 3,393 starts, takes the sieve at depth 11.
        ("verify-range 100000 300000 --json",
         "9c78ed2435d5501d24c469504b36965c8bb428567736bb0bf1eae45219822396"),
        # 11,036 inconclusive starts: chunks of 5,000 take the sieve at depth 12.
        ("verify-range 1 200000 --budget 12 --chunk-size 5000 --json",
         "1c555337ad579a23a52ed96e379125efb8e777619a1da2636e78f6d522611352"),
        # 9,675 inconclusive starts: at budget 16, the sieve's depth, each survivor of a
        # full chunk starts at step 16 from its lead row, exactly on the budget.
        ("verify-range 1 300000 --budget 16 --json",
         "3eadf185c2562609ae1864334499f97519ca8f582b126ba99c5af250af992d20"),
    ],
)
def test_mid_scale_sweep_report_is_byte_stable(capsys, command, digest):
    assert _digest(_stdout(capsys, command.split())) == digest


@pytest.mark.parametrize(
    "command, report_digest, checkpoint_digest",
    [
        ("verify-range 1 2000 --chunk-size 100",
         "bde64c106042dfa49f62aa665a764924473fb6301ae0a61d06cbfa237a32774b",
         "bf5ae9327ce146d1662b4d7b85efd72228809220b6e3fe3be43fe86e7e528c81"),
        ("verify-range 1 50 --budget 5 --chunk-size 10",
         "01f7c331a05bffed7d4520b7ef94e6e6cde2ffba3653b427bf69f6f18ea00846",
         "20651d47cc19795fca90c51150e91e99c62691a190d570a99ec55ac3fd4517cd"),
    ],
)
def test_sweep_report_and_checkpoint_are_byte_stable(
    capsys, tmp_path, command, report_digest, checkpoint_digest
):
    path = tmp_path / "cp.json"
    out = _stdout(capsys, command.split() + ["--checkpoint", str(path), "--json"])
    assert _digest(out) == report_digest
    assert _digest(path.read_text()) == checkpoint_digest
