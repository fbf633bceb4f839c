"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_defaults():
    args = build_parser().parse_args(["overhead"])
    assert args.mode == "snap"
    assert args.rate == 1_000_000
    args = build_parser().parse_args(["snapshot", "--keys", "1000"])
    assert args.keys == 1000
    assert args.queries is False


def test_parser_rejects_bad_mode():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["overhead", "--mode", "warp"])


def test_overhead_command_runs(capsys):
    code = main(["overhead", "--mode", "jet", "--rate", "100000",
                 "--measure-ms", "300"])
    assert code == 0
    out = capsys.readouterr().out
    assert "source-sink latency" in out
    assert "p99.99=" in out


def test_snapshot_command_runs(capsys):
    code = main(["snapshot", "--keys", "1000", "--checkpoints", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "phase 1+2" in out


def test_delta_command_runs(capsys):
    code = main(["delta", "--keys", "7000", "--fraction", "0.05",
                 "--snapshot-backend", "chain", "--checkpoints", "5"])
    assert code == 0
    assert "incr" in capsys.readouterr().out


def test_direct_command_runs(capsys):
    code = main(["direct", "--system", "tspoon", "--select", "10",
                 "--measure-ms", "200"])
    assert code == 0
    assert "q/s" in capsys.readouterr().out
