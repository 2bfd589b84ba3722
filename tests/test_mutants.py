"""The mutation catalog (`tests/mutants.py`) stays applicable: every
mutant's snippet occurs exactly once in its file, and every killer id
collects.  Running the mutants is `python tests/mutants.py`, outside this
suite."""

import subprocess
import sys

from mutants import MUTANTS, ROOT


def test_each_mutant_snippet_occurs_once_in_src():
    """Each snippet occurs exactly once in all of src/, and that once in
    its record's file."""
    sources = {p: p.read_text() for p in (ROOT / "src").rglob("*.py")}
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert m.killers and m.found and m.snippet != m.replacement, m.name
        assert sum(text.count(m.snippet) for text in sources.values()) == 1, m.name
        assert sources[ROOT / m.file].count(m.snippet) == 1, m.name


def test_each_killer_id_collects():
    killers = sorted({k for m in MUTANTS for k in m.killers})
    done = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                           "-p", "no:cacheprovider", *killers],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:]
    collected = set(done.stdout.split())
    for k in killers:
        assert k in collected or any(c.startswith(k + "[") for c in collected), k
