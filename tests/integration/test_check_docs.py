"""The docs checker's stale-API rule: `Class.attr` references must resolve."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[2] / "tools" / "check_docs.py"
_SPEC = importlib.util.spec_from_file_location("check_docs", _PATH)
check_docs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_docs)

SOURCE = '''
from typing import Protocol


class Base:
    def kept(self):
        self.cursor = 0


class Child(Base):
    limit = 3
    a, b = 1, 2
    note: str = ""

    def __init__(self):
        self.size = 1


class Failure(ValueError):
    pass


class Shape(Protocol):
    pass
'''


@pytest.fixture
def classes(tmp_path):
    (tmp_path / "mod.py").write_text(SOURCE)
    return check_docs.index_classes(tmp_path)


@pytest.mark.parametrize(
    "name,attr",
    [
        ("Child", "kept"),  # inherited method
        ("Child", "cursor"),  # inherited instance attribute
        ("Child", "limit"),  # class attribute
        ("Child", "b"),  # tuple-unpacked class attribute
        ("Child", "note"),  # annotated class attribute
        ("Child", "size"),  # instance attribute
        ("Failure", "args"),  # builtin base
        ("Shape", "anything"),  # non-builtin external base: not checkable
    ],
)
def test_defined_attributes_resolve(classes, name, attr):
    assert check_docs.has_attr(classes, name, attr)


@pytest.mark.parametrize("name,attr", [("Child", "gone"), ("Base", "size"), ("Failure", "nope")])
def test_missing_attributes_are_stale(classes, name, attr):
    assert not check_docs.has_attr(classes, name, attr)


def test_references_are_found_inside_code_spans():
    spans = check_docs.CODE_SPAN_RE.findall(
        "`Child.gone()` and `repro.mod.Child.size`, not Child.kept or `np.ndarray`"
    )
    refs = [ref for span in spans for ref in check_docs.CLASS_ATTR_RE.findall(span)]
    assert refs == [("Child", "gone"), ("Child", "size")]
