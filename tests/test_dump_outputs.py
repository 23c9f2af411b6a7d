import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tools.dump_outputs import compare  # noqa: E402


def record(family, label, k, width):
    return {"family": family, "label": label, "k": k, "accepted": width is not None, "width": width}


BASE = [record("grid", "grid(10)", 3, 4), record("grid", "grid(20)", 3, 5), record("wall", "wall(10)", 3, None)]


def compare_dumps(tmp_path, a, b):
    paths = []
    for name, records in (("a.json", a), ("b.json", b)):
        (tmp_path / name).write_text(json.dumps(records))
        paths.append(str(tmp_path / name))
    return compare(*paths)


def test_compare_equal_dumps(tmp_path, capsys):
    assert compare_dumps(tmp_path, BASE, BASE) == 0
    assert "3 records shared, 0 verdict changes, 0 records changed, 0 added in B" in capsys.readouterr().out


def test_compare_reports_a_width_change(tmp_path, capsys):
    b = BASE[:1] + [record("grid", "grid(20)", 3, 6)] + BASE[2:]
    assert compare_dumps(tmp_path, BASE, b) == 1
    out = capsys.readouterr().out
    assert "width grid(20) k=3: 5 -> 6" in out
    assert "1 records changed" in out


def test_compare_lists_appended_records_per_family(tmp_path, capsys):
    grown = BASE + [record("wall", "wall(20)", 3, 4), record("outerplanar k=2", "outerplanar(250,0)", 2, None)]
    assert compare_dumps(tmp_path, BASE, grown) == 0
    out = capsys.readouterr().out
    assert "added in B, outerplanar k=2: 1 records: outerplanar(250,0) k=2" in out
    assert "added in B, wall: 1 records: wall(20) k=3" in out
    assert "3 records shared, 0 verdict changes, 0 records changed, 2 added in B, 0 only in A" in out


def test_compare_refuses_unrelated_corpora(tmp_path, capsys):
    other = [record("grid", "grid(10)", 3, 4), record("fan", "fan(8)", 2, 2)]
    assert compare_dumps(tmp_path, BASE, other) == 2
    assert "cover different corpora" in capsys.readouterr().out
