"""Property round-trips of the files the package writes and reads back: the
multiset CSV, `Circuit` JSON (text and file), `Configuration` JSON and the
LPN-sample CSV."""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisysimon.circuits import Circuit
from noisysimon.gf2 import BitVec
from noisysimon.multiset import EmptyMultisetError, MeasurementMultiset
from noisysimon.reductions import LpnSample, lpn_samples_from_csv, lpn_samples_to_csv
from noisysimon.transpile import Configuration
from test_hot_path_oracles import circuits

one_line = st.text().filter(lambda t: f"#{t}".splitlines() == [f"#{t}"])


@st.composite
def multisets(draw):
    n = draw(st.integers(0, 12))
    counts = draw(st.dictionaries(st.integers(0, (1 << n) - 1), st.integers(0, 10**9),
                                  min_size=1, max_size=40))
    return MeasurementMultiset(n, counts)


@settings(max_examples=200, deadline=None)
@given(multisets(), st.dictionaries(one_line, st.one_of(st.integers(), one_line), max_size=3))
@example(m=MeasurementMultiset(0, {0: 3}), header={})  # written as ",3", so read back with n=0
def test_multiset_csv_round_trip(tmp_path_factory, m, header):
    path = tmp_path_factory.getbasetemp() / "multiset.csv"
    m.to_csv(path, header=header)
    assert MeasurementMultiset.from_csv(path) == m


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10).flatmap(lambda n: st.tuples(
    st.just(n),
    st.dictionaries(st.integers(0, (1 << n) - 1), st.integers(0, 10**9), max_size=40),
    st.integers(0, (1 << n) - 1))))
def test_shifted_is_the_translate_and_its_own_inverse(case):
    n, counts, v = case
    m = MeasurementMultiset(n, counts)
    out = m.shifted(v)
    assert out.n == n
    assert list(out.counts.items()) == [(q ^ v, c) for q, c in counts.items()]
    assert m.shifted(0).counts == counts
    back = out.shifted(v)
    assert back == m and list(back.counts) == list(counts)


@pytest.mark.parametrize("read, columns", [
    (MeasurementMultiset.from_csv, "outcome,count"),
    (lpn_samples_from_csv, "a,b"),
])
@pytest.mark.parametrize("body, message", [
    ("1_01,1", "'1_01' in .* is not a bitstring"),
    ("+101,1", r"'\+101' in .* is not a bitstring"),
    ("0101", "row '0101' of .* has 1 fields, not 2"),
    ("0101,1,1", "has 3 fields, not 2"),
    ("01,1", "inconsistent sample length in .*: '01' after 4 bits"),
])
def test_csv_readers_reject_malformed_rows(tmp_path, read, columns, body, message):
    """Both tables share one reader: bitstrings of 0/1 only and of one
    length, and as many fields per row as columns."""
    path = tmp_path / "bad.csv"
    path.write_text(f"# seed=1\n{columns}\n0101,1\n{body}\n")
    with pytest.raises(ValueError, match=message) as info:
        read(path)
    assert str(path) in str(info.value) and "\n" not in str(info.value)


@pytest.mark.parametrize("count", ["1_0", "+3", "x", "-1", "", " 3", "\uff13"])
def test_multiset_reader_takes_counts_of_ascii_digits_only(tmp_path, count):
    """int() alone read `1_0` as 10, `+3` as 3 and the full-width digit as
    3, and failed on `x` and `-1` without naming the file."""
    path = tmp_path / "bad.csv"
    path.write_text(f"# seed=1\noutcome,count\n00,1\n01,{count}\n")
    message = f"row '01,{re.escape(count)}' of .*: the count is not 0-9 digits"
    with pytest.raises(ValueError, match=message) as info:
        MeasurementMultiset.from_csv(path)
    assert str(path) in str(info.value) and "\n" not in str(info.value)


def test_csv_readers_check_the_column_line(tmp_path):
    path = tmp_path / "samples.csv"
    lpn_samples_to_csv([LpnSample(BitVec(3, 5), 1)], path)
    with pytest.raises(ValueError, match="has the column line 'a,b', not 'outcome,count'"):
        MeasurementMultiset.from_csv(path)


def test_multiset_csv_single_outcome_and_header_with_line_break(tmp_path):
    path = tmp_path / "m.csv"
    for m in (MeasurementMultiset(1, {1: 1}), MeasurementMultiset(1, {0: 5})):
        m.to_csv(path)
        assert MeasurementMultiset.from_csv(path) == m
    for header in ({"note": "two\nlines"}, {"a\rb": 1}, {"v": "x\x0by"}):
        with pytest.raises(ValueError, match="line break"):
            m.to_csv(path, header=header)
    with pytest.raises(ValueError, match="empty multiset"):  # its CSV would carry no n
        MeasurementMultiset(3, {}).to_csv(path)
    path.write_text("# seed=1\noutcome,count\n")  # the column line and no rows
    with pytest.raises(EmptyMultisetError, match=f"no outcomes in {re.escape(str(path))}$"):
        MeasurementMultiset.from_csv(path)


label = st.one_of(st.text(max_size=6), st.integers(-5, 40))


@settings(max_examples=200, deadline=None)
@given(circuit=circuits(), data=st.data())
def test_circuit_json_round_trip(tmp_path_factory, circuit, data):
    if data.draw(st.booleans()):
        labels = data.draw(st.lists(label, min_size=circuit.width, max_size=circuit.width))
        circuit = Circuit(circuit.width, circuit.gates, circuit.measured, tuple(labels))
    path = tmp_path_factory.getbasetemp() / "circuit.json"
    text = circuit.to_json(path)
    assert Circuit.from_json(text) == circuit
    assert Circuit.from_json(path.read_text()) == circuit


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(max_size=6), st.integers(0, 100), max_size=16)
       .filter(lambda d: len(set(d.values())) == len(d)))
@example({"x\u00b2": 0, "y1": 1})  # "\u00b2".isdigit(), but int() rejects it
@example({"x01": 0, "x1": 1})  # one index, two labels: ordered by their text
def test_configuration_dict_round_trip(assign):
    config = Configuration.from_dict(assign)
    back = Configuration.from_dict(config.as_dict())
    assert back == config and back.as_dict() == assign
    assert Configuration.from_dict(dict(reversed(assign.items()))) == config


@st.composite
def lpn_samples(draw):
    n = draw(st.integers(0, 20))
    rows = st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, 1))
    return [LpnSample(BitVec(n, a), b) for a, b in draw(st.lists(rows, max_size=30))]


@settings(max_examples=200, deadline=None)
@given(lpn_samples())
def test_lpn_csv_round_trip(tmp_path_factory, samples):
    path = tmp_path_factory.getbasetemp() / "lpn.csv"
    lpn_samples_to_csv(samples, path)
    assert lpn_samples_from_csv(path) == samples
