"""The ``test-only`` rule, one case per tree.

Each case writes a small project under ``tmp_path``: ``src/repro/mod.py``
defines ``target``, and the other files hold (or fail to hold) its one
use.  The committed fixtures in ``fixtures/test_only`` pin the rule on a
realistic tree; these pin each kind of use and exemption on its own.
"""

import textwrap

import pytest

from tools.reprolint import run_lint

TARGET = """
def target():
    return 1
"""

#: a definition of ``target`` and nothing else in src/repro/mod.py
ALONE = {"src/repro/mod.py": TARGET}


def lint(tmp_path, files):
    for rel, text in {**ALONE, **files}.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return run_lint(tmp_path, rules=("test-only",))


def flagged(tmp_path, files):
    """``"def name"`` / ``"class name"`` of each violation, in order."""
    return [v.message.split(" is named")[0] for v in lint(tmp_path, files)]


# -- what counts as a use --------------------------------------------------

USES = {
    "call-in-own-module": {"src/repro/mod.py": TARGET + "VALUE = target()\n"},
    "attribute-in-tools": {
        "tools/report.py": "import repro.mod\n\nrepro.mod.target()\n"},
    "import-in-benchmarks": {
        "benchmarks/bench.py": "from repro.mod import target\n"},
    "renamed-import-in-examples": {
        "examples/demo.py": "from repro.mod import target as t\n\nt()\n"},
    "relative-import-in-a-module": {
        "src/repro/run.py": "from .mod import target\n"},
    "keyword": {"src/repro/run.py": "VALUE = dict(target=1)\n"},
    "getattr-string": {
        "src/repro/run.py": "import repro.mod\n\n"
                            "getattr(repro.mod, 'target')()\n"},
    "dotted-trace-string": {
        "benchmarks/trace.py": "ROWS = ['repro.mod.target']\n"},
    "spaced-trace-string": {
        "benchmarks/trace.py": "ROWS = ['ingest target']\n"},
}


@pytest.mark.parametrize("files", USES.values(), ids=USES.keys())
def test_a_use_outside_tests_keeps_the_definition(tmp_path, files):
    assert flagged(tmp_path, files) == []


# -- what does not ---------------------------------------------------------

NON_USES = {
    "no-mention": {},
    "tests-only": {
        "tests/test_mod.py": "from repro.mod import target\n\ntarget()\n"},
    "module-docstring": {"src/repro/run.py": '"""repro.mod.target"""\n'},
    "function-docstring": {
        "src/repro/run.py": 'def helper():\n    """target"""\n\n\nhelper()\n'},
    "comment": {"src/repro/run.py": "# target()\nVALUE = 1\n"},
    "package-reexport": {
        "src/repro/__init__.py": "from .mod import target\n\n"
                                 "__all__ = ['target']\n"},
    "all-list": {"src/repro/run.py": "__all__ = ['target']\n"},
    "own-body": {"src/repro/mod.py": "def target(n):\n"
                                     "    return target(n - 1) if n else 0\n"},
    "prose-string": {"src/repro/run.py": "MSG = 'call target() first'\n"},
    "outside-the-searched-dirs": {
        "scripts/tool.py": "from repro.mod import target\n\ntarget()\n"},
}


@pytest.mark.parametrize("files", NON_USES.values(), ids=NON_USES.keys())
def test_a_definition_only_tests_reach_is_flagged(tmp_path, files):
    assert flagged(tmp_path, files) == ["def target"]


# -- exemptions ------------------------------------------------------------

EXEMPT = {
    "dunder": """
        class Box:
            def __len__(self):
                return 0


        BOX = Box()
    """,
    "registered-by-name": """
        def register(fn):
            return fn


        @register
        def _factory():
            return 1
    """,
    "registered-by-call": """
        @REGISTRY.register_backend("exact")
        def _factory():
            return 1
    """,
    "pragma-on-def": """
        def target():  # reprolint: allow[test-only]
            return 1
    """,
    "pragma-on-decorator": """
        import functools


        @functools.lru_cache(maxsize=8)  # reprolint: allow[test-only]
        def target():
            return 1
    """,
    "pragma-on-a-signature-line": """
        def target(
            a: int = 1,  # reprolint: allow[test-only]
        ):
            return a
    """,
    "pragma-on-class-covers-methods": """
        class Planned:  # reprolint: allow[test-only]
            def later(self):
                return 1

            def much_later(self):
                return 2
    """,
}


@pytest.mark.parametrize("source", EXEMPT.values(), ids=EXEMPT.keys())
def test_exempt_definitions_are_not_flagged(tmp_path, source):
    assert flagged(tmp_path, {"src/repro/mod.py": source}) == []


# -- reporting and scope ---------------------------------------------------


def test_violation_names_the_kind_the_file_and_the_line(tmp_path):
    (violation,) = lint(tmp_path, {
        "src/repro/mod.py": TARGET + "VALUE = target()\n",
        "src/repro/pkg/store.py": """
            VALUE = 1


            class Spill:
                pass
        """})
    assert (violation.rule, violation.rel, violation.line) == (
        "test-only", "src/repro/pkg/store.py", 5)
    assert violation.message.startswith("class Spill is named nowhere")


def test_unused_method_of_a_used_class(tmp_path):
    assert flagged(tmp_path, {"src/repro/mod.py": """
        class Store:
            def read(self):
                return 1

            def flush_to_disk(self):
                return 2


        Store().read()
    """}) == ["def flush_to_disk"]


def test_unused_nested_function(tmp_path):
    assert flagged(tmp_path, {"src/repro/mod.py": """
        def outer():
            def inner():
                return 1
            return 2


        outer()
    """}) == ["def inner"]


def test_pragma_on_a_method_does_not_cover_its_class(tmp_path):
    assert flagged(tmp_path, {"src/repro/mod.py": """
        class Orphan:
            def later(self):  # reprolint: allow[test-only]
                return 1
    """}) == ["class Orphan"]


def test_another_rules_pragma_does_not_exempt(tmp_path):
    assert flagged(tmp_path, {"src/repro/mod.py": """
        def target():  # reprolint: allow[wall-clock]
            return 1
    """}) == ["def target"]


def test_definitions_outside_src_repro_are_not_checked(tmp_path):
    assert flagged(tmp_path, {
        "tools/helper.py": "def unused_tool():\n    return 1\n",
        "benchmarks/bench.py": "def unused_bench():\n    return 1\n",
        "src/repro/mod.py": TARGET + "VALUE = target()\n",
    }) == []


def test_every_unused_definition_is_reported_in_file_order(tmp_path):
    assert flagged(tmp_path, {
        "src/repro/a.py": "def first():\n    return 1\n",
        "src/repro/b.py": "class Second:\n    pass\n\n\n"
                          "def third():\n    return 1\n",
    }) == ["def first", "class Second", "def third", "def target"]


# -- dataclass fields and __slots__ entries --------------------------------

FIELDS = """
    from dataclasses import dataclass, field
    from typing import ClassVar


    @dataclass
    class Packet:
        size: int
        pkt_id: int = field(default=0)
        MTU: ClassVar[int] = 1500


    PACKET = Packet(size=1)
"""


def test_a_dataclass_field_only_tests_read_is_flagged(tmp_path):
    assert flagged(tmp_path, {
        "src/repro/mod.py": FIELDS,
        "tests/test_mod.py": "from repro.mod import PACKET\n\n"
                             "assert PACKET.pkt_id == 0\n",
    }) == ["field Packet.pkt_id"]


def test_a_dataclass_field_src_reads_is_kept(tmp_path):
    assert flagged(tmp_path, {
        "src/repro/mod.py": FIELDS,
        "src/repro/run.py": "from .mod import PACKET\n\nID = PACKET.pkt_id\n",
    }) == []


def test_a_pragma_on_the_field_line_exempts_it(tmp_path):
    source = FIELDS.replace("field(default=0)",
                            "field(default=0)  # reprolint: allow[test-only]")
    assert flagged(tmp_path, {"src/repro/mod.py": source}) == []


def test_a_slot_named_nowhere_else_is_flagged(tmp_path):
    assert flagged(tmp_path, {"src/repro/mod.py": """
        class Port:
            __slots__ = ("depth", "spare", "__weakref__")

            def __init__(self):
                self.depth = 0


        PORT = Port()
    """}) == ["slot Port.spare"]


def test_annotations_outside_a_dataclass_are_not_fields(tmp_path):
    assert flagged(tmp_path, {"src/repro/mod.py": """
        class Plain:
            unused: int = 0


        PLAIN = Plain()
    """}) == []
