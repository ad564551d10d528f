"""Frame and report files take a path, never a file descriptor.

open() takes an int, or a bool, as a file descriptor: save_frame(frame, True)
would write the frame to stdout and close fd 1, and save_report(report, False)
would open fd 0 and close it. save_frame, load_frame and save_report accept a
str, bytes or os.PathLike and raise InvalidArgument for anything else, before
anything is opened.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import framemult
from framemult import (
    ExperimentConfig,
    InvalidArgument,
    harmonic_tight,
    load_frame,
    run_suite,
    save_frame,
    save_report,
)

SRC = Path(framemult.__file__).resolve().parents[1]


# Only values open() cannot take as a file descriptor run in this process;
# ints and bools run in a child process (see below).
@pytest.mark.parametrize("path", [None, 1.5, ["r.json"]], ids=repr)
def test_a_non_path_is_an_invalid_argument(path):
    frame = harmonic_tight(2, 3)
    report = run_suite(ExperimentConfig(suite="per1", dims=((2, 5),), trials=1))
    for call in (
        lambda: save_frame(frame, path),
        lambda: load_frame(path),
        lambda: save_report(report, path),
        lambda: save_report(report, path, "csv"),
    ):
        with pytest.raises(InvalidArgument, match="path must be a str, bytes or os.PathLike"):
            call()


@pytest.mark.parametrize("kind", [str, os.fsencode, Path])
def test_str_bytes_and_pathlike_paths_round_trip(tmp_path, kind):
    frame = harmonic_tight(2, 3)
    path = tmp_path / "frame.json"
    save_frame(frame, kind(str(path)))
    assert load_frame(kind(str(path))).synth.tobytes() == frame.synth.tobytes()
    report = run_suite(ExperimentConfig(suite="per1", dims=((2, 5),), trials=1))
    save_report(report, kind(str(tmp_path / "r.json")))
    assert (tmp_path / "r.json").stat().st_size > 0


def test_stdin_and_stdout_stay_open():
    # In a child process, so a regression closes the child's descriptors, not pytest's.
    script = textwrap.dedent(
        """
        import os
        import numpy as np
        from framemult import ExperimentConfig, InvalidArgument, harmonic_tight, load_frame, run_suite
        from framemult import save_frame, save_report

        frame = harmonic_tight(2, 3)
        report = run_suite(ExperimentConfig(suite="per1", dims=((2, 5),), trials=1))
        for fd in (True, False, 0, 1, np.int64(1)):
            for call in (
                lambda: save_frame(frame, fd),
                lambda: load_frame(fd),
                lambda: save_report(report, fd),
                lambda: save_report(report, fd, "csv"),
            ):
                try:
                    call()
                except InvalidArgument:
                    continue
                raise SystemExit(f"file descriptor {fd!r} was taken as a path")
        for fd in (0, 1):
            os.fstat(fd)
        print("fds 0 and 1 open")
        """
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        input="",
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "fds 0 and 1 open\n"
