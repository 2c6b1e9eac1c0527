"""The scriptable shell and the ``repro session`` CLI subcommand."""

from __future__ import annotations

import io

import pytest

from repro.cli import main
from repro.session import Session, SessionShell


def _shell():
    session = Session.from_config("cholesky", 4, scale=0.05)
    out = io.StringIO()
    return SessionShell(session, out=out), out


def test_scripted_step_stack_inject_run():
    shell, out = _shell()
    code = shell.run_script(
        "step 2000; stack; inject llc_flush; step 1000; run; stack"
    )
    assert code == 0
    text = out.getvalue()
    assert "partial stack at cycle" in text
    assert "injected llc_flush" in text
    assert "done" in text
    assert shell.session.done
    assert shell.session.perturbations


def test_script_error_exits_nonzero(capsys):
    shell, _ = _shell()
    assert shell.run_script("step 100; inject warp_core") == 1
    assert "unknown perturbation" in capsys.readouterr().err


def test_unknown_command_names_choices(capsys):
    shell, _ = _shell()
    assert shell.run_script("sudo make me a sandwich") == 1
    assert "unknown session command" in capsys.readouterr().err


def test_interact_reads_stream():
    shell, out = _shell()
    code = shell.interact(io.StringIO("status\nstep 1000\nquit\n"))
    assert code == 0
    assert "benchmark=cholesky" in out.getvalue()


def test_save_and_counters_commands(tmp_path):
    shell, out = _shell()
    path = tmp_path / "mid.ckpt"
    code = shell.run_script(f"step 2000; counters; save {path}")
    assert code == 0
    assert path.exists()
    assert "saved checkpoint" in out.getvalue()


def test_cli_session_scripted(capsys):
    code = main([
        "session", "cholesky", "-n", "4", "--scale", "0.05",
        "--run", "step 2000; stack; run; stack",
    ])
    assert code == 0
    captured = capsys.readouterr().out
    assert "partial stack at cycle" in captured
    assert "cholesky" in captured


def test_cli_session_from_checkpoint(tmp_path, capsys):
    path = tmp_path / "mid.ckpt"
    Session.from_config("cholesky", 4, scale=0.05).step(2_000).save(path)
    code = main([
        "session", "--from-checkpoint", str(path), "--run", "run; stack",
    ])
    assert code == 0
    assert "cholesky" in capsys.readouterr().out


def test_cli_session_requires_benchmark(capsys):
    assert main(["session", "--run", "status"]) == 2
    assert "benchmark" in capsys.readouterr().err


def test_cli_session_unknown_benchmark(capsys):
    assert main(["session", "klingon", "--run", "status"]) == 2
