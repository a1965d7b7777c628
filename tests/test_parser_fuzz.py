"""Hypothesis fuzzing of the three text parsers: `parse_table`,
`parse_cyclotomic` and `corpus.load_group_file`.

Each may raise only its documented exceptions (`TableSyntaxError`,
`CharacterTableError`, `ValueError`; the first two are `ValueError`s).
Each target runs in a child process with its address space and CPU time
capped, so an input that would exhaust memory fails the test as a
`MemoryError` instead of taking the machine, and one that never returns
gets the child killed. The example budget is fixed and the search is
derandomized, so a run is repeatable.

Run one target by hand with `python tests/test_parser_fuzz.py parse_table`.
"""

import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

ADDRESS_SPACE = 1 << 30
EXAMPLES = 300
CPU_SECONDS = 60
DOCUMENTED = ValueError

FUZZ = settings(
    max_examples=EXAMPLES,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=list(HealthCheck),
)

NUMBERS = st.one_of(
    st.sampled_from([0, 1, 2, 3, 5, 7, 11, 23, 60, 100000, 10**9 + 7, 10**12, -1]),
    st.integers(-3, 40),
    st.integers(-(10**12), 10**12),
).map(str)
# Tokens the grammar must reject or bound: exponents, signs, digit
# separators and non-ASCII digits (U+0663) inside E(...), huge conductors,
# division by zero.
NASTY = [
    "1e999999999", "2e9*E(5)", "E(100000)", "E(+100000)", "E(1_00000)", "E(10000000000)",
    "E(0_3)", "E(\u0663)", "E(5)^1_0",
    "E(0)", "E(-3)", "E(5)^-1", "1/0", "E(4)^1e9", "nan", "inf", "1_000", "E(", "E()",
    "E(5)^", "*E(5)", "2**E(5)", "+", "-", "()", "#", "",
]
PLAIN = ["E(4)", "E(3)^2", "-E(5)-E(5)^4", "2*E(7)+E(7)^3", "3/2", "-1/2", "0.5"]
TOKENS = st.one_of(
    st.sampled_from(NASTY),
    st.sampled_from(PLAIN),
    NUMBERS,
    st.text(alphabet="E()^*/+-_0123456789\u0663e. ", max_size=12),
)
DIRECTIVES = st.sampled_from(["name", "order", "classes", "sizes", "orders", "power", "chi"])
HEADER_NUMBERS = {"order", "classes", "sizes", "orders", "power"}


def _table_text(name: str) -> str:
    from permchar.corpus import data_dir

    return (data_dir() / "tables" / f"{name}.ctbl").read_text()


@st.composite
def table_texts(draw):
    """A bundled table with a few edits: a chi entry or a header number
    replaced, a line dropped, duplicated or added."""
    lines = _table_text(draw(st.sampled_from(["s3", "q8", "d10", "a5", "sl23"]))).splitlines()
    chi = [i for i, line in enumerate(lines) if line.startswith("chi ")]
    header = [i for i, line in enumerate(lines) if line.split()[0] in HEADER_NUMBERS]
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["value", "value", "value", "header", "header", "line"]))
        if edit == "line":
            i = draw(st.integers(0, len(lines) - 1))
            how = draw(st.sampled_from(["drop", "duplicate", "add"]))
            if how == "drop" and len(lines) > 1:
                del lines[i]
            elif how == "duplicate":
                lines.insert(i, lines[i])
            else:
                extra = draw(st.lists(TOKENS, max_size=6))
                lines.insert(i, " ".join([draw(DIRECTIVES), *extra]))
            # indices below refer to the original layout; stop editing
            break
        i = draw(st.sampled_from(chi if edit == "value" else header))
        fields = lines[i].split()
        j = draw(st.integers(1, len(fields) - 1))
        fields[j] = draw(TOKENS if edit == "value" else NUMBERS)
        lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


@st.composite
def cyclotomic_texts(draw):
    terms = draw(st.lists(TOKENS, min_size=1, max_size=4))
    signs = [draw(st.sampled_from(["+", "-", ""])) for _ in terms]
    return "".join(s + t for s, t in zip(signs, terms))


CYCLES = st.lists(
    st.lists(st.one_of(st.integers(1, 12), st.integers(-1, 10**6)), min_size=1, max_size=5).map(
        lambda pts: "(" + ",".join(map(str, pts)) + ")"),
    max_size=3,
).map("".join)


@st.composite
def group_files(draw):
    lines = []
    if draw(st.booleans()):
        lines.append(f"# order: {draw(NUMBERS)}")
    if draw(st.integers(0, 9)):
        lines.append(f"degree {draw(NUMBERS)}")
    lines += draw(st.lists(st.one_of(CYCLES, st.just("()")), max_size=3))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(TOKENS))
    return "\n".join(lines) + "\n"


def _documented_only(fn, arg) -> None:
    try:
        fn(arg)
    except DOCUMENTED:
        pass


@FUZZ
@given(table_texts())
@example("name x\norder 0\nclasses 0\nsizes\norders\n")
def fuzz_parse_table(text):
    from permchar.tableio import parse_table

    _documented_only(parse_table, text)


@FUZZ
@given(cyclotomic_texts())
def fuzz_parse_cyclotomic(text):
    from permchar.cyclo import parse_cyclotomic

    _documented_only(parse_cyclotomic, text)


@FUZZ
@given(group_files())
def fuzz_load_group_file(text):
    import tempfile

    from permchar.corpus import load_group_file

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.grp"
        path.write_text(text)
        _documented_only(load_group_file, path)


TARGETS = {
    "parse_table": fuzz_parse_table,
    "parse_cyclotomic": fuzz_parse_cyclotomic,
    "load_group_file": fuzz_load_group_file,
}


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_parser_raises_only_documented_errors(target):
    import permchar

    src = str(Path(permchar.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, __file__, target],
        capture_output=True, text=True, timeout=4 * CPU_SECONDS,
        env={"PYTHONPATH": src, "PATH": "", "HOME": "/nonexistent",
             "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


if __name__ == "__main__":
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    # a parse that never returns (a billion-digit exponent) is killed
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS))
    TARGETS[sys.argv[1]]()
