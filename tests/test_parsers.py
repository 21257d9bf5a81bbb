"""Property tests for the parsers of user input other than PPM (whose test
is in test_colorspace.py): config JSON, CFPA weight files, score CSVs and
ablation grids.

Each parser gets arbitrary input and single-span mutations of a valid
input. Every input must either load or raise the parser's
`ChromapadError`; through the CLI it exits 0, 2 or 3, never with a
traceback.
"""

import hashlib
import json
import math
import os
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chromapad import metrics
from chromapad.cli import EXIT_DATA, EXIT_IO, EXIT_OK, main
from chromapad.errors import ChromapadError, ScoreCsvError, WeightFileError
from chromapad.metrics import ScoreSet, read_scores_csv
from chromapad.model import (ModelConfig, iter_tensor_file, read_tensor_file,
                             read_text, write_tensor_file)
from chromapad.quant import (QUANT_TRAILER, QuantizedTensor, QuantParams,
                             quantize_tensor)
from chromapad.tensor_ops import MAX_RANK

CONFIG = ModelConfig(
    input_size=16, embed_dim=8, num_heads=2, window=2, pool_factor=2,
    backbone=[{"out_channels": 4, "stride": 2},
              {"out_channels": 8, "stride": 2}], seed=5,
).to_json_dict()

SCORES_CSV = "label,score\nbonafide,0.9\nattack,0.1\nbonafide,0.7\n"

# integers around every bound a field has: small ones, the int64 edge, and
# ones too large for a float
integers = st.one_of(st.integers(-2, 300), st.integers(),
                     st.sampled_from([2**63 - 1, 2**63, 10**400]))

# strings, with paths a grid entry may name among them
texts = st.one_of(st.sampled_from(["", ".", "/", "scores.csv", "a\x00b"]),
                  st.text(max_size=8))

json_values = st.recursive(
    st.none() | st.booleans() | integers | st.floats() | texts,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=8), inner,
                                     max_size=3)),
    max_leaves=8)


@st.composite
def span_mutations(draw, valid, patch):
    """``valid`` (bytes or str) with one span replaced by a draw of
    ``patch``."""
    start = draw(st.integers(0, len(valid)))
    end = draw(st.integers(start, len(valid)))
    return valid[:start] + draw(patch) + valid[end:]


@st.composite
def object_mutations(draw, valid, keys=()):
    """A copy of the JSON object ``valid`` with one key, of its own or of
    ``keys``, deleted or set to an arbitrary JSON value."""
    data = json.loads(json.dumps(valid))
    key = draw(st.sampled_from(sorted(data) + list(keys))
               | st.text(max_size=8))
    if draw(st.booleans()):
        data.pop(key, None)
    else:  # most fields are integers
        data[key] = draw(integers | json_values)
    return data


@st.composite
def config_mutations(draw):
    """`CONFIG` with one top-level field or one backbone entry field
    mutated."""
    if draw(st.booleans()):
        return draw(object_mutations(CONFIG))
    data = json.loads(json.dumps(CONFIG))
    i = draw(st.integers(0, len(data["backbone"]) - 1))
    data["backbone"][i] = draw(object_mutations(data["backbone"][i]))
    return data


json_text_patches = st.one_of(
    st.text(max_size=8),
    st.text('0123456789-+.eE ,:[]{}"truefalsn', max_size=8))


def json_documents(valid, value_mutations):
    """Bytes of a JSON file: an arbitrary value, a value mutation of
    ``valid``, or a text span mutation of its JSON text."""
    return st.one_of(
        st.one_of(json_values, value_mutations).map(json.dumps),
        span_mutations(json.dumps(valid), json_text_patches),
    ).map(str.encode)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    # module-scoped: hypothesis runs every example of a test under one
    # instance of a function-scoped fixture
    return tmp_path_factory.mktemp("parsers")


# --- config JSON -------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.one_of(json_values, config_mutations()))
def test_config_loads_or_raises_chromapad_error(data):
    try:
        cfg = ModelConfig.from_json_dict(data)
    except ChromapadError:
        return
    assert ModelConfig.from_json_dict(cfg.to_json_dict()) == cfg


@settings(max_examples=200, deadline=None)
@given(json_documents(CONFIG, config_mutations()))
def test_gmacs_exits_0_or_2_on_any_config_file(work, data):
    path = work / "config.json"
    path.write_bytes(data)
    rc = main(["gmacs", "--config", str(path),
               "--out", str(work / "gmacs.json")])
    assert rc in (EXIT_OK, EXIT_DATA)


# --- CFPA weight files -------------------------------------------------------

@pytest.fixture(scope="module")
def cfpa(work):
    """A CFPA file with a float and a quantized tensor, as bytes."""
    rng = np.random.default_rng(0)
    q, _ = quantize_tensor("b.q", rng.standard_normal((2, 3)), policy=["b."])
    path = work / "valid.cfpa"
    write_tensor_file({"a.w": rng.standard_normal((3, 2, 1)), "b.q": q},
                      path)
    return path.read_bytes()


# header fields: counts, lengths, dtype and rank codes, extents
cfpa_patches = st.one_of(
    st.binary(max_size=8),
    st.sampled_from([0, 1, 4, 2**31, 2**32 - 1]).map(
        lambda v: struct.pack("<I", v)),
    st.sampled_from([0, 1, 2**32, 2**62, 2**63, 2**64 - 1]).map(
        lambda v: struct.pack("<Q", v)),
    st.integers(0, 5).map(lambda v: bytes([v])),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cfpa_loads_or_raises_weight_file_error(work, cfpa, data):
    blob = data.draw(st.one_of(st.binary(max_size=96),
                               span_mutations(cfpa, cfpa_patches)))
    path = work / "input.cfpa"
    path.write_bytes(blob)
    for read in (read_tensor_file, lambda p: dict(iter_tensor_file(p))):
        try:
            tensors = read(path)
        except WeightFileError:
            continue
        for value in tensors.values():
            arr = getattr(value, "qdata", value)
            assert arr.dtype in (np.float32, np.int8)
            assert 1 <= arr.ndim <= 4


# the layouts a tensor may arrive in; input-major as `tensor_ops.input_major`
LAYOUTS = (
    np.ascontiguousarray,
    lambda a: np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, -1)), -1, 0),
    np.asfortranarray,
)
# `QuantParams` refuses a non-finite range end or scale
float32s = st.floats(width=32, allow_nan=False, allow_infinity=False)


@st.composite
def quant_params(draw):
    f_min, f_max = sorted((draw(float32s), draw(float32s)))
    scale = draw(st.floats(min_value=0.0, exclude_min=True,
                           allow_infinity=False, width=32))
    # int32 values, and the first one past each end
    zero = draw(st.one_of(st.integers(-2**31, 2**31 - 1),
                          st.sampled_from([-2**31 - 1, 2**31])))
    return QuantParams(f_min, f_max, scale, zero)


@st.composite
def tensor_sets(draw):
    """Float32 and quantized tensors under non-ASCII names, of rank 0 to
    MAX_RANK + 1 with extents from 0, each in one of `LAYOUTS`."""
    tensors = {}
    for name in draw(st.lists(st.text(max_size=6), max_size=4, unique=True)):
        shape = draw(hnp.array_shapes(min_dims=0, max_dims=MAX_RANK + 1,
                                      min_side=0, max_side=3))
        layout = draw(st.sampled_from(LAYOUTS)) if shape else np.asarray
        if draw(st.booleans()):
            codes = layout(draw(hnp.arrays(np.int8, shape)))
            tensors[name] = QuantizedTensor(codes, draw(quant_params()))
        else:
            tensors[name] = layout(draw(hnp.arrays(
                np.float32, shape, elements=st.floats(width=32))))
    return tensors


def entry_bytes(value):
    """What the file holds of one tensor: dtype, shape, row-major payload
    and, for a quantized tensor, its parameter trailer."""
    if isinstance(value, QuantizedTensor):
        p = value.params
        return (value.qdata.dtype, value.shape, value.qdata.tobytes(),
                QUANT_TRAILER.pack(p.f_min, p.f_max, p.scale, p.zero_point))
    return value.dtype, value.shape, value.tobytes()


@settings(max_examples=200, deadline=None)
@given(tensor_sets())
def test_cfpa_round_trips_every_set_the_writer_accepts(work, tensors):
    out = work / "round_trip"
    out.mkdir(exist_ok=True)
    path = out / "set.cfpa"
    path.write_bytes(b"old")
    # the writer refuses what the reader would: a rank outside 1..MAX_RANK
    # or a zero point past int32
    ranks = [np.ndim(getattr(v, "qdata", v)) for v in tensors.values()]
    zeros = [v.params.zero_point for v in tensors.values()
             if isinstance(v, QuantizedTensor)]
    if not (all(1 <= r <= MAX_RANK for r in ranks)
            and all(-2**31 <= z < 2**31 for z in zeros)):
        with pytest.raises(WeightFileError):
            write_tensor_file(tensors, path)
        assert path.read_bytes() == b"old"
        assert os.listdir(out) == ["set.cfpa"]
        return
    write_tensor_file(tensors, path)
    want = {name: entry_bytes(tensors[name]) for name in sorted(tensors)}
    for read in (read_tensor_file, lambda p: dict(iter_tensor_file(p))):
        got = read(path)
        assert list(got) == list(want)
        assert {name: entry_bytes(v) for name, v in got.items()} == want


# --- score CSVs --------------------------------------------------------------

csv_patches = st.one_of(
    st.text(max_size=8),
    st.text('abcdefilnorst,"\n\r .-+e0123456789', max_size=8),
    st.sampled_from(["bonafide", "attack", "label", "score", "nan", "inf",
                     "1e999", "\x00", "-1.7e308", "8.98846567431158e307",
                     "8.988465674311579e307"]),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=64),
                 span_mutations(SCORES_CSV, csv_patches)))
def test_score_csv_loads_or_raises_error_with_line(text):
    try:
        scores = read_scores_csv(text)
    except ScoreCsvError as exc:
        assert exc.line >= 1
    else:
        assert isinstance(scores, ScoreSet)


score_csvs = st.one_of(
    span_mutations(SCORES_CSV, csv_patches),
    st.lists(st.tuples(st.sampled_from(["bonafide", "attack"]), st.floats()),
             min_size=2, max_size=6).map(
        lambda rows: "label,score\n" + "".join(f"{label},{value!r}\n"
                                               for label, value in rows)),
)


def no_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=300, deadline=None)
@given(score_csvs)
def test_accepted_score_csv_evaluates_to_json_and_finite_det(work, text):
    # every score read_scores_csv accepts keeps the report strict JSON and
    # every DET threshold finite, extreme scores included
    path = work / "scores.csv"
    path.write_bytes(text.encode("utf-8"))
    try:
        read_scores_csv(read_text(path, "score CSV"))
    except ScoreCsvError:
        return
    rc = main(["eval", "--scores", str(path), "--det", str(work / "det.csv"),
               "--out", str(work / "report.json")])
    assert rc == EXIT_OK
    json.loads((work / "report.json").read_text("utf-8"),
               parse_constant=no_constant)
    rows = (work / "det.csv").read_text("utf-8").splitlines()[1:]
    assert rows and all(math.isfinite(float(row.split(",")[0]))
                        for row in rows)


# a plain score file takes the vectorized reader; every other text the csv
# loop. The ways a score file may render its floats: short decimals stay
# plain, 16 digits, exponents and specials do not
score_renderings = (
    st.floats().map(repr),
    st.floats(-1e6, 1e6).map("%.6f".__mod__),
    st.floats(-1.0, 1.0).map("%.6f".__mod__),
    st.floats().map("%.15g".__mod__),
    st.floats().map("%.17g".__mod__),
    st.floats().map("%e".__mod__),
    st.from_regex(r"[0-9]{0,8}(\.[0-9]{0,8})?", fullmatch=True),
    # 16 digits: the last two would misround as m / 10.0**k, m > 2**53
    st.sampled_from([".5", "5.", "-0", "+0", "-0.0", "+.5", "-5.", "007.50",
                     "999999999999999", "9999999999999999", ".000000000000001",
                     "99999999.9999999", "-1234567.89012345", ".",
                     "9.960696027142787", "99.38778408016097"]),
)


@st.composite
def plain_score_texts(draw):
    """A score file of ``label,<s>`` rows holding both labels, its scores
    rendered one way, then at most one character put in or swapped for one
    a plain file must not hold."""
    # a sign put before a value that has none
    score = st.tuples(st.sampled_from(["", "", "+", "-"]),
                      draw(st.sampled_from(score_renderings))).map(
        lambda pair: pair[1] if pair[1][:1] in "+-" else "".join(pair))
    # and labels one letter off
    labels = draw(st.permutations(["bonafide", "attack"] + draw(st.lists(
        st.sampled_from(["bonafide", "attack"] * 3 + ["bonafida", "attach"]),
        max_size=6))))
    text = "label,score\n" + "\n".join(
        f"{label},{draw(score)}" for label in labels)
    text += draw(st.sampled_from(["\n", ""]))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        char = draw(st.sampled_from(['"', "\r", "\n", ",", "\0", " ", "\t",
                                     "e", "_", "\u0663", ".", "+", "-"]))
        text = text[:at] + char + text[at + draw(st.integers(0, 1)):]
    return text


def read_outcome(text):
    """The float64 bytes `read_scores_csv` returns, or its error."""
    try:
        scores = read_scores_csv(text)
    except ScoreCsvError as exc:
        return str(exc), exc.line
    return scores.bonafide.tobytes(), scores.attack.tobytes()


@settings(max_examples=1000, deadline=None)
@given(plain_score_texts())
@example("label,score\nbonafide,-0\nattack,+.5\nattack,5.\nattack,-007.50")
@example("label,score\nbonafide,9.960696027142787\nattack,99.38778408016097\n")
@example("label,score\nbonafide,1.2.3\nattack,1\n")
@example("label,score\nbonafidee0.5\nattack,1\n")
@example("label,score\nbonafide,0.5\nattach,1\n")
def test_score_csv_reads_as_the_csv_loop_alone(text):
    with mock.patch.object(metrics, "_read_plain_scores", return_value=None):
        want = read_outcome(text)
    assert read_outcome(text) == want


def eval_bulk_text(seed, n=20000):
    """A plain score file shaped like the eval_bulk benchmark's: six
    decimals of two beta samples, labels shuffled."""
    rng = np.random.default_rng(seed)
    bonafide, attack = rng.beta(5.0, 2.0, n), rng.beta(2.0, 5.0, n)
    rows = ([f"bonafide,{v:.6f}" for v in bonafide]
            + [f"attack,{v:.6f}" for v in attack])
    return "label,score\n" + "\n".join(
        rows[j] for j in rng.permutation(2 * n)) + "\n"


def test_plain_score_csv_skips_the_csv_module(work):
    path = work / "bulk.csv"
    path.write_text(eval_bulk_text(29), encoding="utf-8")
    argv = ["eval", "--scores", str(path), "--out", str(work / "bulk.json")]
    with mock.patch.object(metrics.csv, "reader",
                           wraps=metrics.csv.reader) as reader:
        assert main(argv) == EXIT_OK
    assert not reader.called
    report = (work / "bulk.json").read_bytes()
    with mock.patch.object(metrics, "_read_plain_scores", return_value=None):
        assert main(argv) == EXIT_OK
    assert (work / "bulk.json").read_bytes() == report


def test_eval_bulk_shaped_scores_pinned():
    # digest of the csv loop's float() values, before the vectorized reader
    scores = read_scores_csv(eval_bulk_text(29))
    digest = hashlib.sha256(scores.bonafide.tobytes()
                            + scores.attack.tobytes()).hexdigest()
    assert digest == ("9381f64b9fd75302eda9487a594e1522"
                      "a786d3951ffab68dc50aabfea22a15e5")


# --- ablation grids ----------------------------------------------------------

ENTRY = {"config": CONFIG, "scores": "scores.csv"}
PATH_KEYS = ("scores", "bonafide_images", "attack_images")


@st.composite
def grid_mutations(draw):
    """A one- or two-entry grid with one entry's config, path or key
    mutated. The scores directory holds no PPM files, so no image entry
    builds a model."""
    entry = json.loads(json.dumps(ENTRY))
    kind = draw(st.sampled_from(["path", "config", "key"]))
    if kind == "path":
        entry[draw(st.sampled_from(PATH_KEYS))] = draw(texts)
    elif kind == "config":
        entry["config"] = draw(config_mutations())
    else:
        entry = draw(object_mutations(entry, keys=PATH_KEYS))
    grid = draw(st.permutations([entry, ENTRY]))
    return grid[:draw(st.integers(1, 2))]


@settings(max_examples=200, deadline=None)
@given(json_documents([ENTRY], grid_mutations()))
def test_ablate_exits_0_2_or_3_on_any_grid_file(work, data):
    (work / "scores.csv").write_text(SCORES_CSV, encoding="utf-8")
    path = work / "grid.json"
    path.write_bytes(data)
    rc = main(["ablate", "--grid", str(path), "--scores-dir", str(work),
               "--out", str(work / "table.csv")])
    assert rc in (EXIT_OK, EXIT_DATA, EXIT_IO)
