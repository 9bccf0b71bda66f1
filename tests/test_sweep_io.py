"""Output files are rewritten in place: `sweep.write_csv` and the CLI's
`--out` JSON keep the file's inode, follow symlinks, cut a regular file to
the new length and never truncate it to zero first."""

import csv
import json
import os

import pytest

from repstab import cli
from repstab.errors import ValidationError
from repstab.sweep import CSV_HEADER, SweepRow, _fmt, write_csv


def _rows(n):
    rows = [SweepRow(preset="Z2_free_Z3", seed=k, p=2.0, dim=6, epsilon_in=1e-2,
                     delta=0.0123456789012345 * (k + 1), epsilon_out=3e-3, cone_gap=0.0,
                     runtime_ms=1.5 + k)
            for k in range(n)]
    rows.append(SweepRow(preset="hnn_Z4_over_Z2", seed=n, p=1.0, dim=6, epsilon_in=0.1,
                         delta=None, epsilon_out=None, cone_gap=None, runtime_ms=None,
                         error='GuardExceededError: defect 0.3 > guard, "quoted"'))
    return rows


def _reference_csv(rows, path):
    """The CSV as a fresh `open(path, "w")` and `csv.writer` write it."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow([row.preset, row.seed, _fmt(row.p), row.dim,
                             _fmt(row.epsilon_in), _fmt(row.delta),
                             _fmt(row.epsilon_out), _fmt(row.cone_gap),
                             _fmt(row.runtime_ms), row.error])
    return path.read_bytes()


def test_write_csv_matches_a_fresh_csv_writer(tmp_path):
    rows = _rows(5)
    write_csv(rows, tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_bytes() == _reference_csv(rows, tmp_path / "ref.csv")


def test_shorter_rewrite_leaves_no_stale_tail(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(_rows(40), path)
    inode = path.stat().st_ino
    short = _rows(2)
    write_csv(short, path)
    assert path.read_bytes() == _reference_csv(short, tmp_path / "ref.csv")
    assert path.stat().st_ino == inode


def test_rewrite_through_a_symlink_keeps_the_link(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    write_csv(_rows(10), target)
    link.symlink_to(target)
    write_csv(_rows(1), link)
    assert link.is_symlink()
    assert target.read_bytes() == _reference_csv(_rows(1), tmp_path / "ref.csv")


def test_write_csv_to_devnull():
    write_csv(_rows(3), os.devnull)


@pytest.mark.skipif(not os.path.exists("/dev/full") or not os.path.isdir("/proc/self/fd"),
                    reason="needs /dev/full and /proc/self/fd")
def test_write_failure_raises_and_closes_its_fd():
    before = len(os.listdir("/proc/self/fd"))
    with pytest.raises(ValidationError, match="could not write /dev/full"):
        write_csv(_rows(3), "/dev/full")
    with pytest.raises(ValidationError, match="could not write /dev/full"):
        cli._write_json({"a": 1}, "/dev/full")
    assert len(os.listdir("/proc/self/fd")) == before


def test_writers_never_truncate_to_zero(tmp_path, monkeypatch):
    opens, truncations = [], []
    real_open, real_ftruncate = os.open, os.ftruncate

    def spy_open(path, flags, *args, **kwargs):
        opens.append(flags)
        return real_open(path, flags, *args, **kwargs)

    def spy_ftruncate(fd, length):
        truncations.append(length)
        return real_ftruncate(fd, length)

    csv_path, json_path = tmp_path / "out.csv", tmp_path / "out.json"
    csv_path.write_text("x" * 10000)
    json_path.write_text("y" * 10000)
    monkeypatch.setattr(os, "open", spy_open)
    monkeypatch.setattr(os, "ftruncate", spy_ftruncate)
    write_csv(_rows(3), csv_path)
    cli._write_json({"a": [1, 2]}, json_path)
    monkeypatch.undo()

    assert len(opens) == 2 and len(truncations) == 2
    assert not any(flags & os.O_TRUNC for flags in opens)
    assert 0 not in truncations
    assert csv_path.read_bytes() == _reference_csv(_rows(3), tmp_path / "ref.csv")
    assert json_path.read_text() == json.dumps({"a": [1, 2]}, indent=2) + "\n"
