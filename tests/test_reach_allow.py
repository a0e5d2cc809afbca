"""``tools/reach_allow.txt``, checked without running the census.

Every line is ``path:qualname reason``: it names a def the census sees,
gives one of the fixed reasons, and the file is sorted.  A
``ledger-traced`` entry must name a row of the ledger trace's
``TABLE``: that is the reason it may stay.
"""

from benchmarks.ledger.trace import TABLE
from tools.reach import ALLOW, REASONS, defs, read_allow

ALLOWED = read_allow()


def test_every_entry_names_a_def_in_scope():
    names = {name for name, _lines in defs().values()}
    assert sorted(set(ALLOWED) - names) == []


def test_every_reason_is_a_fixed_one():
    assert {name: why for name, why in ALLOWED.items()
            if why not in REASONS} == {}


def test_lines_are_sorted_and_unique():
    lines = ALLOW.read_text().splitlines()
    assert lines == sorted(set(lines))
    assert len(ALLOWED) == len(lines)


def test_ledger_traced_entries_match_a_table_row():
    rows = {f"src/{module.replace('.', '/')}.py:{qualname}"
            for module, qualname, *_rest in TABLE}
    traced = [name for name, why in ALLOWED.items() if why == "ledger-traced"]
    assert traced and sorted(set(traced) - rows) == []
