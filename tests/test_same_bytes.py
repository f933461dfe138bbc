"""tools/same_bytes.py compares two trees' artifacts byte for byte. Its
comparison must name every path that differs or exists on one side only,
and nothing else, and its matrix must reach past one ROW_CHUNK block."""
import importlib.util
from pathlib import Path

from gridcast.config import from_flat_dict
from gridcast.pipeline import alignment
from gridcast.synth import generate
from gridcast.types import ROW_CHUNK

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "same_bytes", ROOT / "tools" / "same_bytes.py")
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)


def _tree(root: Path, files: dict[str, bytes]) -> Path:
    for name, data in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)
    return root


def test_differing_paths_names_each_difference_and_skips_run_json(tmp_path):
    base = _tree(tmp_path / "base", {
        "same.csv": b"a,b\n1,2\n", "runs/x/report.csv": b"0.1\n",
        "runs/x/run.json": b'{"created": "a"}\n', "only_base.txt": b"",
        "runs/x/models/lstm.npz": b"\x00\x01"})
    head = _tree(tmp_path / "head", {
        "same.csv": b"a,b\n1,2\n", "runs/x/report.csv": b"0.1\r\n",
        "runs/x/run.json": b'{"created": "b"}\n', "only_head.txt": b"",
        "runs/x/models/lstm.npz": b"\x00\x02"})
    assert same_bytes.differing_paths(base, head) == [
        "only_base.txt", "only_head.txt", "runs/x/models/lstm.npz",
        "runs/x/report.csv"]
    assert same_bytes.differing_paths(base, base) == []
    assert "runs/x/run.json" not in same_bytes.files_under(base)


def test_a_compare_of_the_matrix_trains_on_three_row_blocks():
    # Block-wise work can slip only at a ROW_CHUNK block edge, and a
    # train slice of one block has none.
    train_rows = {}
    for name, argv in same_bytes.COMMANDS:
        flat = same_bytes.CONFIGS[argv[argv.index("--config") + 1]]
        if argv[0] == "compare" and flat.get("source", "synth") == "synth":
            config = from_flat_dict(flat)
            frame, _ = generate(config.synth)
            train_rows[name] = alignment(config, len(frame)).boundary
    assert train_rows == {"compare-synth": 2304, "compare-long": 9216}
    assert train_rows["compare-long"] > 2 * ROW_CHUNK
