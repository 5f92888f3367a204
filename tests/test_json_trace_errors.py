"""Malformed JSON traces: one typed error, one-line CLI diagnosis, exit 2.

Any JSON trace that fails to decode — bad UTF-8, bad JSON, a payload
that is not an object, a missing or ill-typed key, an unknown
``access_type`` — raises :class:`~repro.mapper.persist.MalformedJsonTrace`
naming its source, and ``dayu-analyze`` / ``dayu-lint`` / ``dayu-compact``
report it like every other trace-read error instead of dying with a
traceback.
"""

import copy
import json
import pickle
import random

import numpy as np
import pytest

from repro.cli import analyze_main
from repro.lint.cli import lint_main
from repro.mapper.compact import compact_main
from repro.mapper import (
    TRACE_READ_ERRORS,
    DaYuConfig,
    DataSemanticMapper,
    MalformedJsonTrace,
    load_profile,
)
from repro.mapper.mapper import TaskProfile
from repro.posix import SimFS
from repro.simclock import SimClock
from repro.storage import Mount, make_device


def _payload() -> dict:
    """A small real trace: one task writing a chunked dataset."""
    clock = SimClock()
    fs = SimFS(clock, mounts=[Mount("/", make_device("nvme"))])
    mapper = DataSemanticMapper(clock, DaYuConfig())
    with mapper.task("producer") as ctx:
        f = ctx.open(fs, "/d.h5", "w")
        f.create_dataset("x", shape=(32,), dtype="f8", layout="chunked",
                         chunks=(16,), data=np.arange(32.0))
        f.close()
    return mapper.profiles["producer"].to_json_dict()


@pytest.fixture(scope="module")
def payload():
    return _payload()


def _without_end(p):
    del p["end"]
    return json.dumps(p).encode()


def _ill_typed_nbytes(p):
    p["io_records"][0]["nbytes"] = "many"
    return json.dumps(p).encode()


def _unknown_access_type(p):
    p["io_records"][0]["access_type"] = "bogus"
    return json.dumps(p).encode()


CASES = {
    "missing-key": (_without_end, "missing key 'end'"),
    "utf16-bom": (lambda p: json.dumps(p).encode("utf-16"), "not UTF-8"),
    "bad-json": (lambda p: json.dumps(p).encode()[:-7], "invalid JSON"),
    "non-object": (lambda p: b"[1, 2, 3]", "top level is list"),
    "ill-typed-key": (_ill_typed_nbytes, "key 'nbytes' holds str"),
    "unknown-access-type": (_unknown_access_type,
                            "unknown access_type 'bogus'"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_loader_raises_typed_error(payload, case):
    make, detail = CASES[case]
    data = make(copy.deepcopy(payload))
    with pytest.raises(MalformedJsonTrace) as info:
        load_profile(data, source="t.json")
    assert info.value.source == "t.json"
    assert str(info.value).startswith("t.json: malformed JSON trace (")
    assert detail in str(info.value)
    assert isinstance(info.value, TRACE_READ_ERRORS)
    # Crosses process boundaries intact (parallel loaders pickle it).
    clone = pickle.loads(pickle.dumps(info.value))
    assert (clone.source, str(clone)) == (info.value.source, str(info.value))


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("prog", ["dayu-analyze", "dayu-lint", "dayu-compact"])
def test_cli_exits_2_naming_the_file(payload, tmp_path, capsys, case, prog):
    make, detail = CASES[case]
    traces = tmp_path / "traces"
    traces.mkdir()
    bad = traces / "producer.json"
    bad.write_bytes(make(copy.deepcopy(payload)))
    if prog == "dayu-analyze":
        code = analyze_main([str(traces), "--out", str(tmp_path / "g")])
    elif prog == "dayu-lint":
        code = lint_main([str(traces)])
    else:
        code = compact_main([str(traces), "--out", str(tmp_path / "r.dayuc")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{prog}: {bad}: malformed JSON trace (")
    assert detail in err
    assert err.count("\n") == 1


# ----------------------------------------------------------------------
# Fixed-seed fuzz: every mutant decodes or raises the typed error
# ----------------------------------------------------------------------
_JUNK = (None, True, -1, 2.5, "x", [], {}, [1], {"k": 1})


def _paths(node):
    """Every (container, key) position in a decoded JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield node, key
        yield from _paths(child)


def _mutants(payload, rng, n):
    blob = json.dumps(payload).encode()
    for i in range(n):
        if i % 2:
            data = bytearray(blob)
            for _ in range(rng.randint(1, 4)):
                pos = rng.randrange(len(data))
                edit = rng.randrange(3)
                if edit == 0:
                    data[pos] = rng.randrange(256)
                elif edit == 1:
                    del data[pos]
                else:
                    data.insert(pos, rng.randrange(256))
            yield bytes(data)
            continue
        doc = copy.deepcopy(payload)
        positions = list(_paths(doc))
        for _ in range(rng.randint(1, 3)):
            container, key = rng.choice(positions)
            if isinstance(container, dict) and rng.random() < 0.4:
                container.pop(key, None)
            else:
                container[key] = rng.choice(_JUNK)
        yield json.dumps(doc).encode()


def test_seeded_mutations_decode_or_raise_typed_error(payload):
    rng = random.Random(2024)
    outcomes = {"decoded": 0, "rejected": 0}
    for data in _mutants(payload, rng, 1500):
        try:
            profile = load_profile(data, source="fuzz.json")
        except MalformedJsonTrace as exc:
            assert exc.source == "fuzz.json"
            assert str(exc).startswith("fuzz.json: malformed JSON trace (")
            outcomes["rejected"] += 1
        else:
            assert isinstance(profile, TaskProfile)
            outcomes["decoded"] += 1
    assert outcomes["rejected"] > 0 and outcomes["decoded"] > 0
