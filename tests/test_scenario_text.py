"""The scenario-file reader, ``ptfollow.scenario_text``, against PyYAML.

PyYAML, a dev dependency only, is the oracle: a text the reader accepts must
read to the value ``oracles.pyyaml_load`` (the loader scenario files had
before) gives it, and a form outside the subset must exit 2 naming its line
and column.  ``conftest.scenario_files_read_as_pyyaml_reads_them`` checks the
first for every scenario file any test loads; this module adds the subset's
forms one by one, the shipped texts, dumped mappings and the rejections.
"""

import dataclasses
import math
import re
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from oracles import pyyaml_load, same_value
from ptfollow.cli import main
from ptfollow.config import (
    MAX_BLOCK_DEPTH,
    MAX_FLOW_DEPTH,
    TRAJECTORIES,
    ConfigError,
    ScenarioConfig,
    load_config,
)
from ptfollow.geometry import PanTiltAngles
from ptfollow.scenario_text import read  # the reader itself, not conftest's checked form

REPO = Path(__file__).resolve().parent.parent
NOISY_WALK = REPO / "perfbench" / "scenarios" / "noisy-walk.yaml"
README_EXAMPLE = re.findall(r"```yaml\n(.*?)```", (REPO / "README.md").read_text(), re.DOTALL)[0]

# One text per form of the subset, each read as PyYAML reads it.
SUBSET = {
    "block": "name: walk\nnoise:\n  sigma_px: 1.0\n  occlusion_windows:\n"
             "  - - 20.0\n    - 22.0\n  - [60.0, 61.0]\n",
    "indented-sequence": "points:\n    - [1, 2]\n    -   - 3\n        - 4\n",
    "compact-mapping": "- kind: line\n  start: [1, 2]\n-   kind: circle\n    radius: 2\n",
    "flow-over-lines": "{a: [1,\n  2], # a comment\n b: {c: d},\n}\n",
    "json": '{"noise": {"sigma_px": 1e-3, "dropout_prob": 0.5}, "seed": 7, "name": "a b"}',
    "plain-scalars": "a: [~, null, Null, NULL, yes, No, ON, off, True, FALSE, yEs, nil]\n"
                     "b: [0x1F, 0b11, 017, 08, 1_000, 1:30, -0, +7, 0o7]\n"
                     "c: [1.5e3, 1E5, 1e-3, .5, 1., 1.5:1, 1:30.5, -.5, 1_0e3, 1e400]\n"
                     "d: [.inf, -.Inf, +.INF, .NaN, -.nan, 1.0e+3, -0.0]\n",
    "strings": "a: b#c # a comment\nb: http://x.org/a?b=c:d\nc: a b  \nd: -x\ne: :x\nf: ?x\n"
               "g: [-, a:b, a b]\n",
    "quoted": "a: 'it''s # not a comment'\nb: \"\\x41\\t\\N\\u00e9\\\\ \\\" \\/\\_\\e\\0\"\n"
              "c: ''\nd: \"\"\ne: ['1', \"null\", 'a: b']\n",
    "quoted-keys": "'a': 1\n\"b c\" : 2\nd e: 3\n1: 4\nnull: 5\n",
    "empty-values": "a:\nb: {c: , d: 1}\nc:\n-\n- \n-   # a comment\nd: &e\n",
    "anchors": "base: &b {sigma_px: 1.0, dropout_prob: 0.1}\nlist: &l [1, *b]\nagain: *l\n"
               "block: &k\n  x: 1\nsame: *k\nscalar: &s 2.5\ncopy: *s\n",
    "merge": "base: &b {sigma_px: 1.0, dropout_prob: 0.1}\nnoise:\n  <<: *b\n  sigma_px: 2.0\n",
    "merge-list": "a: &a {x: 1}\nb: &b {x: 2, y: 3}\nc: {z: 4, <<: [*a, *b]}\n",
    "recursive": "a: &r [1, *r]\nb: &m {self: *m}\nc: &n\n  - *n\n",
    "document-start": "# a header\n---  # the one document\n\nname: x   \n# trailing\n",
    "empty": "",
    "comment-only": "# nothing\n\n",
    "crlf": "a: 1\r\nb: [2,\r\n 3]\r\n",
    "indented-root": "  a: 1\n  b:\n    c: 2\n",
    "sequence-root": "- 1\n- - 2\n  - 3\n",
    "scalar-root": "walk\n",
}


@pytest.mark.parametrize(
    "text",
    [*SUBSET.values(), README_EXAMPLE, NOISY_WALK.read_text()],
    ids=[*SUBSET, "readme-example", "noisy-walk.yaml"],
)
def test_text_of_the_subset_reads_as_pyyaml_reads_it(text):
    raw = text.encode()
    assert same_value(read(raw, "s.yaml"), pyyaml_load(raw))


@pytest.mark.parametrize(
    "encode",
    [
        lambda t: t.encode("utf-8-sig"),
        lambda t: b"\xff\xfe" + t.encode("utf-16-le"),
        lambda t: b"\xfe\xff" + t.encode("utf-16-be"),
    ],
    ids=["utf-8-bom", "utf-16-le-bom", "utf-16-be-bom"],
)
def test_byte_order_mark_gives_the_utf_8_config(tmp_path, encode):
    path = tmp_path / "walk.yaml"
    path.write_bytes(encode(README_EXAMPLE))
    plain = tmp_path / "plain" / "walk.yaml"
    plain.parent.mkdir()
    plain.write_text(README_EXAMPLE)
    assert load_config(path) == load_config(plain)


# One per form outside the subset: (text, problem, line, column).
REJECTED = {
    "tag": (b"dt: !!float 1\n", "a tag is not supported", 1, 5),
    "literal-block": (b"name: |\n  walk\n", "a block scalar is not supported", 1, 7),
    "folded-block": (b"name: >\n  walk\n", "a block scalar is not supported", 1, 7),
    "two-documents": (b"dt: 0.1\n---\ndt: 0.2\n", "found a second document or a document end marker", 2, 1),
    "complex-key": (b"? dt\n: 0.1\n", "a complex key ('? ') is not supported", 1, 1),
    "tab-indent": (b"noise:\n\tsigma_px: 1.0\n", "found a tab in the indentation", 2, 1),
    "tab-after-colon": (b"dt:\t0.1\n", "found '\\t'", 1, 4),
    # PyYAML folds these into one scalar; the reader does not guess
    "multi-line-plain": (b"name: my\n  walk\n", "found a line indented deeper than its collection", 2, 3),
    "multi-line-quoted": (b"name: 'my\n  walk'\n", "found a quoted scalar that does not end on its line", 1, 7),
    "merge-into-itself": (b"noise: &n {<<: *n}\n", "'<<' takes a mapping or a list of them, none enclosing it", 1, 12),
    "undefined-alias": (b"noise: *n\n", "found an alias to no anchor before it", 1, 8),
    "undecodable": (b"duration: 1.0 # \xff\n", "'utf-8' codec can't decode byte #xff: invalid start byte", 1, 17),
    "control-character": (b"name: a\x07b\n", "found character #x0007, which the subset does not allow", 1, 8),
}


@pytest.mark.parametrize("raw, problem, line, column", REJECTED.values(), ids=REJECTED)
def test_form_outside_the_subset_exits_2_naming_its_place(tmp_path, capsys, raw, problem, line, column):
    path = tmp_path / "bad.yaml"
    path.write_bytes(raw)
    assert main(["--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    message = f'{path}: invalid YAML: {problem}\n  in "{path}", line {line}, column {column}'
    assert capsys.readouterr().err == f"ptfollow: configuration error: {message}\n"


@pytest.mark.parametrize(
    "depth, form",
    [(depth, form) for depth in (MAX_BLOCK_DEPTH, MAX_BLOCK_DEPTH + 1) for form in ("compact", "indented")],
)
def test_block_nesting_is_read_up_to_its_bound(tmp_path, depth, form):
    path = tmp_path / "deep.yaml"
    if form == "compact":
        path.write_text("- " * depth + "1\n")
    else:
        path.write_text("".join(" " * k + "a:\n" for k in range(depth)) + " " * depth + "1\n")
    message = f"{path}: invalid YAML: nested too deeply"
    if depth <= MAX_BLOCK_DEPTH:  # read, then rejected by the schema
        message = "<root>: expected a mapping" if form == "compact" else "unknown key 'a'"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        load_config(path)


def test_both_bounds_at_once_stay_inside_the_recursion_limit():
    text = "- " * MAX_BLOCK_DEPTH + "[" * MAX_FLOW_DEPTH + "]" * MAX_FLOW_DEPTH + "\n"
    value, depth = read(text.encode(), "deep.yaml"), 0
    while value:
        value, depth = value[0], depth + 1
    assert (value, depth) == ([], MAX_BLOCK_DEPTH + MAX_FLOW_DEPTH - 1)


def _field_names() -> list[str]:
    names = {"kind", "x", "y", "theta", *PanTiltAngles._fields}
    default = ScenarioConfig()
    for cls in [*TRAJECTORIES.values(), *(type(getattr(default, f.name)) for f in dataclasses.fields(default))]:
        if dataclasses.is_dataclass(cls):
            names |= {f.name for f in dataclasses.fields(cls)}
    return sorted(names)


# Schema-shaped mappings: the config's keys, and leaves that are typical, or
# with probability about 0.12 one of the float edges, null or a string.
EDGES = [0, 5e-324, -5e-324, 1e-300, 1e-9, 1e300, 1.8e308, math.inf, -math.inf, math.nan, None, "x"]
STRINGS = st.sampled_from(
    ["walk", "yes", "Off", "1.0", "1e3", "0x10", "1:30", "2001-12-14", "", "null", "~", "=", "<<",
     "-", "-1", ":x", "x:y", "a#b", "#c", "it's", '"q"', "[1]", "{a}", "*a", "&a", "!t", "%d",
     "\\", "tab\t", "\xe9", "\x85", "\xa0", "---", "..."]
)
TYPICAL = st.one_of(st.floats(-1e4, 1e4), st.integers(-10**6, 10**6), st.booleans(), STRINGS)
LEAF = st.floats(0, 1).flatmap(lambda p: st.sampled_from(EDGES) if p < 0.12 else TYPICAL)
VALUE = st.one_of(LEAF, st.lists(LEAF, max_size=3), st.lists(st.lists(LEAF, max_size=2), max_size=3))
SECTION = st.dictionaries(st.sampled_from(_field_names()), VALUE, max_size=5)
MAPPING = st.dictionaries(
    st.sampled_from([f.name for f in dataclasses.fields(ScenarioConfig)]),
    st.one_of(VALUE, SECTION),
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(data=MAPPING)
def test_dumped_mapping_reads_as_pyyaml_reads_it(data):
    for flow in (False, True):
        raw = yaml.safe_dump(data, default_flow_style=flow).encode()
        assert same_value(read(raw, "drawn.yaml"), pyyaml_load(raw)), raw
