"""A shorter path through the hardware counts what the longer one did.

``counter_golden.json`` was written by ``counter_golden.py`` on the
commit before the MSC+ / DMA / MMU / MC hops were folded into their
callers; the same five runs must still leave every part of every cell,
and the T-net, in exactly that state.  A mismatch is reported by run,
cell and the path of the counter inside ``state()``.
"""

import json

import pytest

from .counter_golden import GOLDEN, RUNS, collect


def differences(want, got, path=""):
    """Paths at which two JSON values differ, with both values."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(set(want) | set(got)):
            yield from differences(want.get(key), got.get(key),
                                   f"{path}.{key}" if path else key)
    elif want != got:
        yield f"{path}: golden {want!r}, now {got!r}"


@pytest.fixture(scope="module")
def now():
    return collect()


@pytest.mark.parametrize("run", RUNS)
def test_every_hardware_counter_is_what_the_parent_commit_counted(run, now):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[run]
    got = now[run]
    assert len(want["cells"]) == len(got["cells"])
    wrong = [f"cell {pe} {line}"
             for pe, (golden, cell) in enumerate(zip(want["cells"],
                                                     got["cells"]))
             for line in differences(golden, cell)]
    wrong += [f"tnet {line}"
              for line in differences(want["tnet"], got["tnet"])]
    assert not wrong, "\n".join(wrong[:20])
