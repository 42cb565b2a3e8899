"""Value classes: ``record`` against stdlib ``dataclasses`` as an oracle, and
the start-up cost it exists to remove."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fixtures import F2
from xprod import SearchSpec, flip
from xprod.record import record, replace

SRC = Path(__file__).resolve().parents[1] / "src"


def test_importing_the_cli_loads_no_code_generation_modules():
    # -S: a site-packages .pth hook may import typing before any user code runs
    code = ("import sys, xprod.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing', 'ast'} & set(sys.modules)))")
    child = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    assert child.stdout.strip() == "[]"


def _normalise(self):
    object.__setattr__(self, "a", tuple(self.a))
    if not self.a:
        raise ValueError("a must be nonempty")


# (class body, a valid call, a call changing one field)
LAYOUTS = {
    "no-defaults": ({"__annotations__": {"a": "int", "b": "int"}}, ((1, 2), {}), {"b": 5}),
    "trailing-defaults": ({"__annotations__": {"a": "int", "b": "int", "c": "str"},
                           "b": 0, "c": "x"}, ((1,), {"c": "y"}), {"a": 7}),
    "post-init": ({"__annotations__": {"a": "tuple", "b": "object"}, "b": None,
                   "__post_init__": _normalise}, (([1, 2],), {}), {"a": [3]}),
}

BAD_CALLS = [((), {}), ((1, 2, 3, 4), {}), ((1, 2), {"z": 0}), ((1, 2), {"a": 3}),
             ((), {"b": 1})]


def twins(body):
    """The same class body as a frozen stdlib dataclass and as a record."""
    return (dataclasses.dataclass(frozen=True)(type("Rec", (), dict(body))),
            record(type("Rec", (), dict(body))))


def outcome(make, args, kwargs):
    try:
        return "ok", repr(make(*args, **kwargs))
    except (TypeError, ValueError) as exc:
        return type(exc).__name__, None


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_record_behaves_like_a_dataclass(layout):
    body, (args, kwargs), change = LAYOUTS[layout]
    oracle, rec = twins(body)
    want, got = oracle(*args, **kwargs), rec(*args, **kwargs)
    assert repr(got) == repr(want)
    assert got == rec(*args, **kwargs) and want == oracle(*args, **kwargs)
    assert (got == want) is (want == got) is False  # different classes never compare equal
    assert repr(replace(got, **change)) == repr(dataclasses.replace(want, **change))
    assert (replace(got, **change) == got) is (dataclasses.replace(want, **change) == want)
    for bad in BAD_CALLS:
        assert outcome(rec, *bad) == outcome(oracle, *bad), bad
    with pytest.raises(TypeError):
        replace(got, nonexistent=1)
    assert hash(got) == hash(want)
    for obj in (got, want):
        with pytest.raises(AttributeError):
            obj.a = 9
        with pytest.raises(AttributeError):
            del obj.a


def test_post_init_runs_again_on_replace():
    body, _, _ = LAYOUTS["post-init"]
    oracle, rec = twins(body)
    for make, swap in ((oracle, dataclasses.replace), (rec, replace)):
        assert swap(make([1]), a=[4, 5]).a == (4, 5)
        with pytest.raises(ValueError):
            swap(make([1]), a=[])


def test_search_specs_share_no_mutable_default():
    first, second = SearchSpec(F2, (2, 2, 2)), SearchSpec(F2, (2, 2, 2))
    try:
        first.frozen["R1"] = flip(F2, 2, 2)
    except TypeError:  # a read-only default cannot leak from one spec to another
        pass
    assert dict(second.frozen) == {} and dict(SearchSpec(F2, (2, 2, 2)).frozen) == {}
