"""scripts/parity.py --against: which (workload, seed, artifact) it reports."""
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "parity.py"
spec = importlib.util.spec_from_file_location("parity", SCRIPT)
parity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(parity)


def test_differences_name_each_changed_missing_or_extra_artifact():
    old = {"w": {"0": {"exit": 0, "files": {"a.csv": "1", "b.csv": "2", "gone.csv": "3"}},
                 "1": {"exit": 0, "files": {"a.csv": "1"}}}}
    new = {"w": {"0": {"exit": 0, "files": {"a.csv": "1", "b.csv": "9", "new.csv": "4"}},
                 "1": {"exit": 2, "files": {"a.csv": "1"}},
                 "2": {"exit": 0, "files": {"a.csv": "1"}}}}
    assert parity.differences(new, old) == [
        ("w", "0", "b.csv"), ("w", "0", "gone.csv"), ("w", "0", "new.csv"),
        ("w", "1", "exit"), ("w", "2", "exit"), ("w", "2", "a.csv")]
    assert parity.differences(old, old) == []
