"""Streamed, all-or-nothing report output.

The writers put the report on their output stream as they format it, so a
render holds a bounded batch of it, never the whole. ``emit_report`` streams
into a temporary file and moves it onto ``--out``, or copies it to stdout,
only once the writer has returned: stdout and ``--out`` carry the same bytes,
and a refused report changes neither."""

import math
import os
import stat
import subprocess
import sys
import threading
import tracemalloc

import pytest

from photonlink import cli
from photonlink.data import reference_scenario_path
from photonlink.report import render_json
from photonlink.scenario import parse_scenario

from conftest import workload_document

WRITERS = {"json": "render_json", "csv": "render_csv", "text": "render_text"}


class CharCount:
    """A sink that keeps only the number of characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)


def test_json_render_peak_is_a_fraction_of_the_report():
    report = cli.run("tradeoff", parse_scenario(
        workload_document("tradeoff-n32-json", 1)))
    sink = CharCount()
    tracemalloc.start()
    try:
        render_json(report, sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.chars > 4_000_000
    assert peak < sink.chars / 20


@pytest.mark.parametrize("fmt", sorted(WRITERS))
@pytest.mark.parametrize("command", ["analyze", "tradeoff"])
def test_stdout_and_out_carry_the_same_bytes(tmp_path, capsysbinary, command,
                                             fmt):
    args = [command, "--scenario", str(reference_scenario_path()),
            "--format", fmt]
    out = tmp_path / f"report.{fmt}"
    assert cli.main([*args, "--out", str(out)]) == cli.EXIT_OK
    assert cli.main(args) == cli.EXIT_OK
    assert capsysbinary.readouterr().out == out.read_bytes()
    assert cli.main([*args, "--out", "-"]) == cli.EXIT_OK
    assert capsysbinary.readouterr().out == out.read_bytes()


def reference_text(capsysbinary):
    """The reference ``analyze`` text report, as written to stdout."""
    assert cli.main(["analyze", "--scenario",
                     str(reference_scenario_path())]) == cli.EXIT_OK
    return capsysbinary.readouterr().out


def analyze_into(out):
    return cli.main(["analyze", "--scenario", str(reference_scenario_path()),
                     "--out", str(out)])


def test_out_through_a_symlink_replaces_the_file_it_names(tmp_path,
                                                         capsysbinary):
    expected = reference_text(capsysbinary)
    real = tmp_path / "real.txt"
    real.write_bytes(b"an earlier report\n")
    real.chmod(0o600)
    link = tmp_path / "link.txt"
    link.symlink_to(real)
    assert analyze_into(link) == cli.EXIT_OK
    assert link.is_symlink() and link.resolve() == real.resolve()
    assert real.read_bytes() == expected
    # The replaced file keeps its mode.
    assert stat.S_IMODE(real.stat().st_mode) == 0o600
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "real.txt"]


def test_a_new_out_gets_the_mode_open_gives(tmp_path, capsysbinary):
    expected = reference_text(capsysbinary)
    out = tmp_path / "report.txt"
    umask = os.umask(0o027)
    try:
        assert analyze_into(out) == cli.EXIT_OK
    finally:
        os.umask(umask)
    assert out.read_bytes() == expected
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]


def test_a_hard_linked_out_is_written_in_place(tmp_path, capsysbinary):
    """Every name of a file with other links sees the report."""
    expected = reference_text(capsysbinary)
    out = tmp_path / "report.txt"
    out.write_bytes(b"an earlier report\n")
    other = tmp_path / "other.txt"
    os.link(out, other)
    inode = out.stat().st_ino
    assert analyze_into(out) == cli.EXIT_OK
    assert out.read_bytes() == expected and other.read_bytes() == expected
    assert out.stat().st_ino == inode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["other.txt",
                                                          "report.txt"]


def test_an_out_with_no_room_for_a_file_beside_it_is_written_in_place(
        tmp_path, capsysbinary):
    """A name as long as the file system allows leaves none for the
    temporary file's longer name; the report is written to it directly."""
    expected = reference_text(capsysbinary)
    out = tmp_path / ("r" * os.pathconf(tmp_path, "PC_NAME_MAX"))
    out.write_bytes(b"an earlier report\n")
    inode = out.stat().st_ino
    assert analyze_into(out) == cli.EXIT_OK
    assert out.read_bytes() == expected
    assert out.stat().st_ino == inode
    assert [p.name for p in tmp_path.iterdir()] == [out.name]


@pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() != 0,
                    reason="giving a file to another user needs root")
def test_an_out_owned_by_another_user_keeps_its_owner(tmp_path,
                                                     capsysbinary):
    expected = reference_text(capsysbinary)
    out = tmp_path / "report.txt"
    out.write_bytes(b"an earlier report\n")
    os.chown(out, 65534, 65534)
    assert analyze_into(out) == cli.EXIT_OK
    assert out.read_bytes() == expected
    assert (out.stat().st_uid, out.stat().st_gid) == (65534, 65534)
    assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]


def test_a_read_only_out_is_refused(tmp_path, capsys):
    out = tmp_path / "report.txt"
    out.write_bytes(b"an earlier report\n")
    out.chmod(0o444)
    if os.access(out, os.W_OK):
        pytest.skip("this process may write any file")
    assert analyze_into(out) == cli.EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: [Errno 13] Permission denied: {str(out)!r}\n")
    assert out.read_bytes() == b"an earlier report\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"),
                    reason="no /dev/stdout on this platform")
@pytest.mark.parametrize("fmt", sorted(WRITERS))
def test_out_dev_stdout_writes_to_a_piped_stdout(capsysbinary, fmt):
    """``--out /dev/stdout`` names the process's own stdout, here a pipe."""
    args = ["tradeoff", "--scenario", str(reference_scenario_path()),
            "--format", fmt]
    assert cli.main(args) == cli.EXIT_OK
    expected = capsysbinary.readouterr().out
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__)),
         os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "photonlink.cli", *args, "--out", "/dev/stdout"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, timeout=300)
    assert (done.returncode, done.stderr) == (cli.EXIT_OK, b"")
    assert done.stdout == expected


def test_a_pipe_gets_the_finished_report(tmp_path, capsysbinary):
    """A pipe named by ``--out`` is written to, not replaced."""
    expected = reference_text(capsysbinary)
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()),
                              daemon=True)
    reader.start()
    assert analyze_into(pipe) == cli.EXIT_OK
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert got == [expected]
    assert stat.S_ISFIFO(pipe.lstat().st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


def test_an_unwritable_out_is_named_in_the_error(tmp_path, capsys):
    out = str(tmp_path / "no" / "such" / "report.txt")
    code = cli.main(["validate", "--scenario", str(reference_scenario_path()),
                     "--out", out])
    assert code == cli.EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: [Errno 2] No such file or directory: {out!r}\n")


@pytest.mark.parametrize("fmt", sorted(WRITERS))
def test_the_writer_call_writes_the_whole_report(tmp_path, monkeypatch, fmt):
    """``cli.main`` calls the chosen writer once, and every byte of the
    report is in its sink when that call returns: a wrapper around the
    writer's name spans all of the formatting and writing."""
    calls = {name: [] for name in WRITERS.values()}
    for name in WRITERS.values():
        def spy(report, sink, *, real=getattr(cli, name), name=name, **kwargs):
            real(report, sink, **kwargs)
            sink.flush()
            calls[name].append(os.fstat(sink.fileno()).st_size)
        monkeypatch.setattr(cli, name, spy)
    out = tmp_path / f"report.{fmt}"
    code = cli.main(["tradeoff", "--scenario", str(reference_scenario_path()),
                     "--format", fmt, "--out", str(out)])
    assert code == cli.EXIT_OK
    size = out.stat().st_size
    assert size > 0
    assert calls == {name: [size] if name == WRITERS[fmt] else []
                     for name in WRITERS.values()}


def test_refused_report_leaves_out_as_it_was(reference_scenario, tmp_path,
                                             monkeypatch, capsys):
    report = cli.run("tradeoff", reference_scenario)
    first = report.variants[0]
    dead = first._replace(
        worst=first.worst._replace(noise_figure_db=math.inf))
    report = report._replace(variants=(dead, *report.variants[1:]))
    monkeypatch.setattr(cli, "run", lambda *_: report)
    # What the writer had written to the temporary file when it refused.
    written = []

    def spy(report, sink, *, real=cli.render_json):
        try:
            real(report, sink)
        finally:
            sink.flush()
            written.append(os.fstat(sink.fileno()).st_size)
    monkeypatch.setattr(cli, "render_json", spy)

    out = tmp_path / "report.json"
    out.write_bytes(b"an earlier report\n")
    code = cli.main(["tradeoff", "--scenario", str(reference_scenario_path()),
                     "--format", "json", "--out", str(out)])
    assert code == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")
    assert len(written) == 1 and written[0] > 0
    assert out.read_bytes() == b"an earlier report\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
