"""The CLI as a whole process: what ``python -m diamondnet.cli`` leaves.

A finished command flushes stdout and stderr and ends with ``os._exit``,
skipping the interpreter's teardown. These cases run fresh interpreters
and check that nothing a user sees changes: piped stdout and written
files are whole, exit codes and messages are those of ``main``, and a
profiler still prints its report. A stdout that cannot be written (closed
at start, a full disk, a pipe with no reader) ends in one ``error:`` line
and exit 2. ``PYTHONUNBUFFERED`` is unset in the children, so their stdout
is block-buffered: a missing flush would lose output, and a write error
could surface only when the stream is flushed.
"""

import contextlib
import io
import os
import subprocess
import sys

import pytest

import diamondnet
from diamondnet.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(diamondnet.__file__)))


def child_env():
    env = {
        k: v for k, v in os.environ.items()
        if k not in ("PYTHONUNBUFFERED", "PYTHONINSPECT")
    }
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run(*args, cwd=None, stdin=b"", env=(), stdout=subprocess.PIPE):
    """Exit code, stdout and stderr of a fresh interpreter run with ``args``,
    ``stdin`` as its input, ``env`` added to its environment and fd 1 on
    ``stdout`` (its output is then None unless that is a pipe)."""
    proc = subprocess.run(
        [sys.executable, *args], input=stdin,
        env={**child_env(), **dict(env)}, cwd=cwd, stdout=stdout,
        stderr=subprocess.PIPE, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def cli(*argv, cwd=None):
    return run("-m", "diamondnet.cli", *argv, cwd=cwd)


def in_process(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


# one output that stays in the stream buffer, one far past its size
@pytest.mark.parametrize("k", ["3", "200000"])
def test_piped_stdout_is_byte_identical_to_in_process_main(k):
    code, out, err = cli("tight", k)
    assert (code, err) == (0, b"")
    assert out.decode() == in_process("tight", k)[1]


def test_written_file_is_whole(tmp_path):
    code, out, err = cli("gen", "5000", "-o", "f.txt", cwd=tmp_path)
    assert (code, out, err) == (0, b"", b"")
    assert in_process("gen", "5000", "-o", str(tmp_path / "g.txt"))[0] == 0
    assert (tmp_path / "f.txt").read_bytes() == (tmp_path / "g.txt").read_bytes()


def test_exit_codes_and_messages():
    assert cli("tight", "-3") == (
        2, b"", b"error: k must be a positive integer, got -3\n"
    )
    code, out, err = cli("tight")
    assert (code, out) == (2, b"")
    assert err.startswith(b"usage: diamondnet tight")
    code, out, err = cli("--help")
    assert (code, err) == (0, b"")
    assert out.startswith(b"usage: diamondnet")


def test_profiler_report_is_printed():
    code, out, _ = run("-m", "cProfile", "-m", "diamondnet.cli", "tight", "1")
    assert code == 0
    assert out.startswith(in_process("tight", "1")[1].encode())
    assert b"function calls" in out


ATEXIT = (
    "import atexit, sys\n"
    "atexit.register(print, 'atexit ran')\n"
    "{setup}\n"
    "from diamondnet.cli import entrypoint\n"
    "sys.argv = ['diamondnet', 'tight', '1']\n"
    "entrypoint()\n"
)


def test_finished_command_skips_teardown():
    code, out, _ = run("-c", ATEXIT.format(setup=""))
    assert code == 0
    assert out == in_process("tight", "1")[1].encode()
    assert b"atexit ran" not in out


# each runs something after the program: a profiler's report, the prompt
# of ``-i`` (set by flag, at start-up or by the program), a debugger
@pytest.mark.parametrize(
    "flags, setup, env",
    [
        ((), "sys.setprofile(lambda *a: None)", ()),
        (("-i",), "", ()),
        ((), "", {"PYTHONINSPECT": "1"}),
        ((), "import os; os.environ['PYTHONINSPECT'] = '1'", ()),
        ((), "import pdb", ()),
    ],
    ids=["profiler", "flag-i", "env-at-start", "env-set-by-program", "pdb"],
)
def test_watched_command_exits_normally(flags, setup, env):
    _, out, _ = run(*flags, "-c", ATEXIT.format(setup=setup), env=env)
    assert out == in_process("tight", "1")[1].encode() + b"atexit ran\n"


def test_debugger_sees_the_program_finish():
    code, out, _ = run(
        "-m", "pdb", "-m", "diamondnet.cli", "tight", "1", stdin=b"c\nq\n"
    )
    assert code == 0
    assert b"The program exited via sys.exit(). Exit status: 0" in out


# runs the command in a process started with fd 1 closed
CLOSED_STDOUT = (
    "import os, sys\n"
    "os.close(1)\n"
    "os.execv(sys.executable, [sys.executable, '-m', 'diamondnet.cli', *sys.argv[1:]])\n"
)


# argparse writes --help to stderr when sys.stdout is None, so "--help"
# needs cli._Parser to end in the error
@pytest.mark.parametrize(
    "argv", [("tight", "3"), ("omega", "s.txt", "--format", "machine"), ("--help",)]
)
def test_closed_stdout_is_an_error(tmp_path, argv):
    assert in_process("tight", "2", "-o", str(tmp_path / "s.txt"))[0] == 0
    assert run("-c", CLOSED_STDOUT, *argv, cwd=tmp_path) == (
        2, b"", b"error: [Errno 9] Bad file descriptor\n"
    )


def test_output_file_is_written_with_stdout_closed(tmp_path):
    assert run("-c", CLOSED_STDOUT, "tight", "3", "-o", "s.txt", cwd=tmp_path) == (
        0, b"", b""
    )
    assert (tmp_path / "s.txt").read_text() == in_process("tight", "3")[1]


@pytest.fixture
def broken_pipe():
    """The write end of a pipe whose read end is already closed."""
    read, write = os.pipe()
    os.close(read)
    yield write
    os.close(write)


# "3" stays in the stream buffer until the flush, "200000" fails mid-write;
# under a profiler the process takes the interpreter's own exit
@pytest.mark.parametrize(
    "args",
    [
        ("-m", "diamondnet.cli", "tight", "3"),
        ("-m", "diamondnet.cli", "tight", "200000"),
        ("-c", ATEXIT.format(setup="sys.setprofile(lambda *a: None)")),
    ],
    ids=["buffered", "mid-write", "profiler"],
)
def test_broken_pipe_is_one_error(broken_pipe, args):
    assert run(*args, stdout=broken_pipe) == (
        2, None, b"error: [Errno 32] Broken pipe\n"
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_disk_is_one_error(tmp_path):
    assert in_process("tight", "2", "-o", str(tmp_path / "s.txt"))[0] == 0
    with open("/dev/full", "wb") as full:
        got = run("-m", "diamondnet.cli", "omega", "s.txt", cwd=tmp_path, stdout=full)
    assert got == (2, None, b"error: [Errno 28] No space left on device\n")


# argparse writes the help and raises SystemExit(0) itself, before any
# command runs; its write error is the same one error: line
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [("--help",), ("omega", "--help")])
def test_help_to_a_full_disk_is_one_error(argv):
    with open("/dev/full", "wb") as full:
        got = run("-m", "diamondnet.cli", *argv, stdout=full)
    assert got == (2, None, b"error: [Errno 28] No space left on device\n")
