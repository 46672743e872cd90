"""End-to-end checks of the command line driver: exit codes, report
artifacts, and determinism."""

import itertools
import json
import re
import subprocess
import sys
import time
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import genkahler.clifford as cl
import genkahler.fields as gf
import genkahler.hodge as gh
import genkahler.solver as sol
import genkahler.structures as gs
from genkahler import cli
from oracles import (
    DEFORM_WORKLOADS,
    affine_twist_residuals,
    block_operator_gap,
    build_parser,
    dense_splitting_residuals,
    solve_config,
    workload_config,
)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("shape", [(6,), (2, 3)])
def test_canonical_json_complex_arrays_match_nested_lists(shape):
    """Complex arrays are written as the nested [re, im] lists they stand for."""
    parts = [-0.0, 1e-300, 5e-324, 2.0, -3.0, 0.1, 1.5, -0.0, 7.0, 1e-310, 4.0, 123456789.0]
    arr = np.array(parts).view(complex).reshape(shape)

    def nested(a):
        if a.ndim == 1:
            return [[float(c.real), float(c.imag)] for c in a]
        return [nested(row) for row in a]

    text = cli.canonical_json({"a": arr})
    assert text == cli.canonical_json({"a": nested(arr)})
    assert "[-0, 1e-300]" in text and "[4.9406564584124654e-324, 2]" in text
    for bad in (np.nan, np.inf, -np.inf):
        for part in (0, 1):
            broken = arr.copy()
            broken.reshape(-1).view(float)[2 + part] = bad
            with pytest.raises(ValueError, match="finite"):
                cli.canonical_json(broken)


def _per_float_complex_array(arr):
    """The per-float writer ``canonical_json`` used before its one-pass
    template: every float formatted alone, then joined level by level."""
    text = [format(x, ".17g") for x in np.ascontiguousarray(arr).view(float).ravel().tolist()]
    items = [f"[{re}, {im}]" for re, im in zip(text[0::2], text[1::2])]
    for size in reversed(arr.shape[1:]):
        items = ["[" + ", ".join(items[i : i + size]) + "]" for i in range(0, len(items), size)]
    return "[" + ", ".join(items) + "]"


@pytest.mark.parametrize("shape", [(1,), (3, 4), (2, 3, 4)])
def test_canonical_json_complex_arrays_match_per_float_writer(shape):
    """Byte for byte the old per-float output, on random entries mixed with
    -0.0, subnormals and +-1e308."""
    rng = np.random.default_rng(len(shape))
    parts = rng.normal(size=2 * int(np.prod(shape))) * 10.0 ** rng.integers(-20, 20, size=2 * int(np.prod(shape)))
    specials = [-0.0, 5e-324, -2.5e-310, 1e308, -1e308, 0.1]
    parts[: len(specials)] = specials[: len(parts)]
    rng.shuffle(parts)
    arr = parts.view(complex).reshape(shape)
    assert cli.canonical_json(arr) == _per_float_complex_array(arr) + "\n"


def _per_float_json(v):
    """``canonical_json``'s recursive walk as it was before batching, with
    every float formatted alone (``_per_float_complex_array`` for arrays)."""
    if isinstance(v, dict):
        items = sorted(v.items(), key=lambda kv: str(kv[0]))
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_per_float_json(x)}" for k, x in items) + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(map(_per_float_json, v)) + "]"
    if isinstance(v, np.ndarray) and v.dtype == complex and v.ndim and v.size:
        return _per_float_complex_array(v)
    if isinstance(v, np.ndarray):
        return _per_float_json(v.tolist())
    if isinstance(v, complex):
        return f"[{format(v.real, '.17g')}, {format(v.imag, '.17g')}]"
    return format(v, ".17g") if isinstance(v, float) else json.dumps(v)


@pytest.mark.parametrize("name", DEFORM_WORKLOADS)
def test_series_records_match_per_float_writer(name, monkeypatch):
    """The series record of each benchmark deform config, at its own order
    cap (several batches of floats each), is written byte for byte as the
    per-float writer writes it."""
    doc = workload_config(name, monkeypatch)
    m, order = doc["dimension"], doc["order"]
    pair = cli.build_background(doc, m)
    seed, _ = cli.build_seed(doc, pair)
    record = cli._series_record(sol.run_deformation(cli.build_deformation(doc, pair, order), pair, order_cap=order, psi=seed))
    assert cli.canonical_json(record) == _per_float_json(record) + "\n"


def test_series_json_is_written_batch_by_batch(monkeypatch, tmp_path):
    """``series.json`` of deform-m4-k8's config is streamed: the file is
    ``canonical_json`` of its record byte for byte, and writing it peaks
    under 1 MB traced and below the size of its 0.88 MB text (writing the
    whole text at once took about 2.5 MB).  A NaN coefficient in the last
    batch raises the writer's message and leaves no file, neither the
    partial one nor the one written before."""
    doc = workload_config("deform-m4-k8", monkeypatch)
    record = cli._series_record(solve_config(doc, doc["order"]))
    path = tmp_path / "series.json"
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        cli._write_json(path, record)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    text = path.read_text(encoding="utf-8")
    assert text == cli.canonical_json(record)
    assert peak < min(1e6, len(text)), f"writing {len(text)} characters peaked {peak / 1e6:.2f} MB"
    last = record["psi"][-1]["modes"][-1]
    last["vector"] = np.full_like(last["vector"], np.nan)
    with pytest.raises(ValueError, match="^reports must contain finite numbers$"):
        cli._write_json(path, record)
    assert not path.exists()


def test_canonical_json_batches_match_per_float_writer():
    """Across batches: +-0.0 and +-x in one batch, subnormals, +-1e308,
    integral floats, an array straddling the end of a batch and one longer
    than a batch, scalars between arrays, and keys and strings holding
    ``%``.  A non-finite float in a later batch or alone keeps the message."""
    rng = np.random.default_rng(11)
    specials = [0.0, -0.0, 0.1, -0.1, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 1e308, -1e308, 2.0, -3.0, 1e16, 123456789.0]

    def floats(count):
        parts = rng.normal(size=count) * 10.0 ** rng.integers(-20, 20, size=count)
        parts[: len(specials)] = specials
        rng.shuffle(parts)
        return parts

    batch = cli._FLOAT_BATCH
    doc = {
        "100% %s": "50% of %d, %%",
        "arrays": [
            floats(batch - 100).view(complex),  # ends 100 floats before the batch is full
            floats(2 * 120).view(complex).reshape(3, 2, 20),  # straddles the end of the batch
            floats(2 * batch + 6).view(complex).reshape(-1, 1),  # longer than a batch
            [2.0, -0.0, complex(1.0, -0.0), "%", None, True, 7],
            floats(len(specials)).view(complex),
        ],
    }
    text = cli.canonical_json(doc)
    assert text == _per_float_json(doc) + "\n"
    assert '"100% %s": "50% of %d, %%"' in text and "[2, -0, [1, -0], " in text
    message = "^reports must contain finite numbers$"
    for bad in (np.nan, np.inf, -np.inf):
        broken = {"a": doc["arrays"][:3]}
        broken["a"][2] = broken["a"][2].copy()
        broken["a"][2].reshape(-1).view(float)[batch + 1] = bad
        with pytest.raises(ValueError, match=message):
            cli.canonical_json(broken)
        with pytest.raises(ValueError, match=message):
            cli.canonical_json({"x": [1.0, bad]})


def test_canonical_json_int_lists_and_repeated_keys_match_per_float_writer():
    """Lists of plain ints go in one piece and each key's text is made once
    per call: the same bytes as the per-float writer, with bools, floats and
    None beside ints in a list, empty lists and tuples, nested int lists,
    and keys that repeat across dicts, hold ``%`` or print alike."""
    doc = {
        "frequencies": [[1, -2, 0], [0, 0, 0], (3, 4), [], ()],
        "mixed": [[1, True, 2], [1, 2.0], [False], [1, None], [[1, 2], 3]],
        "rows": [{"frequency": [1, 0], "%k": 1, 2: [5]}, {"frequency": [0, 1], "%k": 2, "2": [-7]}],
        3: {"3": [0], "%%": [10**20, -(10**20)]},
    }
    text = cli.canonical_json(doc)
    assert text == _per_float_json(doc) + "\n"
    assert '"frequencies": [[1, -2, 0], [0, 0, 0], [3, 4], [], []]' in text and "[1, true, 2]" in text


def bfield_doc(order=2):
    return {
        "schema": 1,
        "dimension": 4,
        "order": order,
        "verify_t": 0.02,
        "verify_points": 4,
        "deformation": [
            {
                "kind": "exact-b-field",
                "one_form": [
                    {"frequency": [1, 0, 0, 0], "cos": [0.0, 0.3, -0.2, 0.1]},
                    {"frequency": [0, 1, 1, 0], "cos": [0.2, 0.0, 0.0, -0.1], "sin": [0.1, 0.0, 0.0, 0.0]},
                ],
            }
        ],
    }


def test_verify_algebra_passes(tmp_path, capsys):
    out = tmp_path / "report"
    code = cli.main(["verify-algebra", "--trials", "40", "--n-max", "3", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "result: ok" in text
    report = json.loads((out / "report.json").read_text())
    assert report["ok"] is True
    assert report["trials"] == 40
    names = {c["name"] for c in report["checks"]}
    assert {"clifford_square", "spin_equivariance", "star_matches_volume_product"} <= names
    assert all(c["pass"] for c in report["checks"])
    assert "PASS clifford_square" in (out / "report.txt").read_text()


@pytest.mark.parametrize("command", ["verify-algebra", "verify-hodge", "deform"])
def test_json_output_is_the_written_report(tmp_path, capsys, monkeypatch, command):
    """With both ``--out`` and ``--json`` the report is serialized once, and
    stdout is the written ``report.json`` byte for byte."""
    argv = {
        "verify-algebra": ["verify-algebra", "--trials", "8", "--n-max", "4"],
        "verify-hodge": ["verify-hodge", "--config", write_config(tmp_path, {"schema": 1, "dimension": 4})],
        "deform": ["deform", "--config", write_config(tmp_path, bfield_doc())],
    }[command]
    written = []
    writer = cli.canonical_json
    monkeypatch.setattr(cli, "canonical_json", lambda obj: written.append(obj) or writer(obj))
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out), "--json"]) == 0
    assert capsys.readouterr().out == (out / "report.json").read_text(encoding="utf-8")
    reports = [obj for obj in written if isinstance(obj, dict) and obj.get("suite") == command]
    assert len(reports) == 1


def test_verify_algebra_zero_trials_is_empty_pass(capsys):
    code = cli.main(["verify-algebra", "--trials", "0", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checks"] == [] and report["ok"] is True


def test_verify_algebra_negative_control_fails(capsys, monkeypatch):
    """A negated star fails the star check and no other.  The command's view
    of the structures module is replaced, not the module, and the star is
    negated after the pair is built: the constructor's own star check would
    raise on a negated star."""

    def flipped_pair(*args, **kwargs):
        pair = gs.random_hermitian_pair(*args, **kwargs)
        pair.star = -pair.star
        return pair

    monkeypatch.setattr(cli, "gs", types.SimpleNamespace(**{**vars(gs), "random_hermitian_pair": flipped_pair}))
    code = cli.main(["verify-algebra", "--trials", "20", "--json"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    bad = [c["name"] for c in report["checks"] if not c["pass"]]
    assert bad == ["star_matches_volume_product"]


def test_usage_errors_exit_64(tmp_path):
    with pytest.raises(SystemExit) as info:
        cli.main(["no-such-command"])
    assert info.value.code == 64
    with pytest.raises(SystemExit) as info:
        cli.main(["deform"])  # --config is required
    assert info.value.code == 64
    with pytest.raises(SystemExit) as info:
        cli.main(["verify-algebra", "--trials", "not-a-number"])
    assert info.value.code == 64
    with pytest.raises(SystemExit) as info:
        cli.main(["verify-algebra", "--debug-flip-star-sign"])
    assert info.value.code == 64


# values each option reads the same way under the reader and the reference
# parser; negative numbers are values, not options
OPTION_VALUES = {
    "--seed": ["3", "+7"],
    "--n-max": ["2", "-1"],
    "--trials": ["5", "-4"],
    "--tol": ["1e-3", "-1", "-.5"],
    "--order": ["2", "-3"],
    "--config": ["c.json", "x=y.json", ""],
    "--out": ["out-dir", "a/b"],
}

# command lines that both parsers reject: an unknown, ambiguous or extra
# argument, a missing value, a missing --config, a bad number, no command or
# an unknown one
MALFORMED = [
    [],
    ["nope"],
    ["--bogus"],
    ["--json", "verify-algebra"],
    ["--bogus", "deform", "--config", "c.json"],
    ["verify-algebra", "verify-algebra"],
    ["verify-algebra", "extra"],
    ["verify-algebra", "--bogus"],
    ["verify-algebra", "--bogus=1"],
    ["verify-algebra", "--t", "1"],
    ["verify-algebra", "--t=1"],
    ["verify-algebra", "--t", "1", "-h"],
    ["deform", "--config", "c.json", "--o", "d"],
    ["deform"],
    ["deform", "--order", "2"],
    ["verify-hodge", "--json"],
    ["deform", "--config"],
    ["deform", "--config", "--json"],
    ["deform", "--config", "c.json", "--order"],
    ["deform", "--config", "c.json", "-x"],
    ["deform", "-c", "c.json"],
    ["verify-algebra", "--json=1"],
    ["verify-algebra", "--json="],
    ["verify-algebra", "--help=1"],
    ["verify-algebra", "--trials", "x"],
    ["verify-algebra", "--trials", "x", "-h"],
    ["verify-algebra", "--trials", "1.5"],
    ["verify-algebra", "--trials", "-x"],
    ["verify-algebra", "--n-max", "-1.5"],
    ["verify-algebra", "--tol", "abc"],
    ["verify-algebra", "--tol="],
    ["verify-algebra", "--seed", "-1"],
    ["verify-algebra", "--seed", "x"],
    ["verify-algebra", "--seed=-3"],
    ["verify-hodge", "--config", "c.json", "--seed", "1"],
    ["verify-hodge", "--config", "c.json", "--order", "1"],
]


def option_forms(name, names):
    """``name`` as ``--name value``, ``--name=value`` and its shortest unique
    prefix in both forms, for each of its values; a flag without one."""
    prefix = next(name[:k] for k in range(3, len(name) + 1) if sum(n.startswith(name[:k]) for n in names) == 1)
    if name == "--json":
        return [[name], [prefix]]
    return [form for v in OPTION_VALUES[name] for form in ([name, v], [f"{name}={v}"], [prefix, v], [f"{prefix}={v}"])]


def command_line_corpus():
    """Command lines over every option of every command: each option in
    every form, options repeated, every option at once in two orders, and
    defaults only; then each of those with ``-h`` at every position."""
    lines = []
    for command, (_, _, options) in cli.COMMANDS.items():
        names = ["--help", *(option[0] for option in options)]
        base = [] if command == "verify-algebra" else ["--config", "c.json"]
        lines.append([command, *base])
        for name in names[1:]:
            forms = option_forms(name, names)
            rest = [] if name == "--config" else base
            lines += [[command, *rest, *form] for form in forms]
            lines += [[command, *form, *rest] for form in forms]
            lines.append([command, *rest, *forms[-1], *forms[0]])
        every = [option_forms(name, names)[0] for name in names[1:]]
        lines.append([command, *(token for form in every for token in form)])
        lines.append([command, *(token for form in reversed(every) for token in form)])
    helped = [line[:i] + [flag] + line[i:] for line in lines[::4] for flag in ("-h", "--he") for i in range(len(line) + 1)]
    return lines + helped + [["-h"], ["--help"], ["--bogus", "-h"], ["verify-algebra", "extra", "-h"]]


def parse_outcome(parse, argv):
    """The namespace's attributes, or the exit code."""
    try:
        return vars(parse(argv))
    except SystemExit as exc:
        return exc.code


def test_reader_matches_the_reference_parser(tmp_path, capsys, monkeypatch):
    """``cli.parse_args`` reads every command line of the corpus as the
    argparse parser it replaced does (``oracles.build_parser``): the same
    attributes, help (exit 0) or a usage error (exit 64)."""
    monkeypatch.chdir(tmp_path)
    reference = build_parser()
    corpus = command_line_corpus()
    assert len(corpus) > 300
    outcomes = {}
    for argv in corpus:
        want = parse_outcome(reference.parse_args, argv)
        assert parse_outcome(cli.parse_args, argv) == want, argv
        outcomes[type(want)] = outcomes.get(type(want), 0) + 1
    assert set(outcomes) == {dict, int}, outcomes
    for argv in MALFORMED:
        assert parse_outcome(reference.parse_args, argv) == 64, argv
        assert parse_outcome(cli.parse_args, argv) == 64, argv
    assert not any(tmp_path.iterdir())
    capsys.readouterr()


@pytest.mark.parametrize("command", [None, *cli.COMMANDS])
def test_help_names_every_option_and_its_help(capsys, command):
    """``-h`` prints, from the option table, every command or every option
    with its help line, and names the options the reference parser has."""
    argv = ["-h"] if command is None else [command, "-h"]
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 0
    text = capsys.readouterr().out
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    reference = capsys.readouterr().out
    if command is None:
        rows = [(name, entry[1]) for name, entry in cli.COMMANDS.items()]
    else:
        rows = [(option[0], option[4]) for option in cli.COMMANDS[command][2]]
        assert set(re.findall(r"--[\w-]+", text)) == set(re.findall(r"--[\w-]+", reference))
    for name, help_line in rows:
        assert re.search(rf"^  {re.escape(name)}\b.*  {re.escape(help_line)}$", text, re.M), name


@pytest.mark.parametrize("case", ["existing-file", "under-a-file", "empty"])
@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_out_that_cannot_be_a_directory_is_a_usage_error(tmp_path, capsys, monkeypatch, command, case):
    """An ``--out`` that names a file, lies under one or is empty exits 64
    with a message naming it, before the command reads its config or draws
    a trial, and nothing is written."""

    def refuse(*args):
        raise AssertionError("the command ran")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "load_config", refuse)
    monkeypatch.setattr(cli, "_random_vector", refuse)
    (tmp_path / "file").write_text("", encoding="utf-8")
    out = {"existing-file": "file", "under-a-file": str(Path("file", "sub", "out")), "empty": ""}[case]
    argv = [command, "--trials", "1"] if command == "verify-algebra" else [command, "--config", "config.json"]
    with pytest.raises(SystemExit) as info:
        cli.main([*argv, f"--out={out}"])
    assert info.value.code == 64
    captured = capsys.readouterr()
    assert f"genkahler {command}: error: argument --out: {out!r}" in captured.err and captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


def test_cli_runs_without_argparse_gettext_or_locale(tmp_path):
    """The command line is read from the option table: a deform and a
    verify-hodge run import neither argparse nor gettext, nor the locale
    module that gettext's first lookup loads."""
    deform = write_config(tmp_path, bfield_doc(), "deform.json")
    hodge = write_config(tmp_path, {"schema": 1, "dimension": 4, "frequency_box": 2}, "hodge.json")
    code = (
        "import sys\n"
        "from genkahler import cli\n"
        f"assert cli.main(['deform', '--config', {deform!r}, '--out', {str(tmp_path / 'deform-out')!r}]) == 0\n"
        f"assert cli.main(['verify-hodge', '--config', {hodge!r}, '--json']) == 0\n"
        "sys.exit(' '.join(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules))) or None)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "doc",
    [
        {"schema": 1, "dimension": 4, "mystery": 1},
        {"schema": 99, "dimension": 4},
        {"schema": 1, "dimension": 0},
        {"schema": 1, "dimension": 4, "twist": [[0, 1, 1, 0.5]]},
        {"schema": 1, "dimension": 4, "deformation": []},
        {"schema": 1, "dimension": 4, "deformation": [{"kind": "wormhole"}]},
        {"schema": 1, "dimension": 4, "background": {"kind": "explicit"}},
        {"schema": 1, "dimension": 3},  # odd dimension cannot carry a pair
    ],
)
def test_config_errors_exit_64(tmp_path, doc, capsys):
    code = cli.main(["deform", "--config", write_config(tmp_path, doc)])
    assert code == 64
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("verify_t", "abc"),
        ("verify_t", float("nan")),
        ("verify_t", 1e6),
        ("verify_t", -0.01),
        ("tol", "x"),
        ("tol_order", float("inf")),
        ("tol_checks", True),
        ("order", True),
        ("schema", True),
        ("dimension", True),
        ("verify_points", True),
    ],
)
def test_deform_rejects_bad_scalar(tmp_path, capsys, key, value):
    doc = bfield_doc()
    doc[key] = value
    code = cli.main(["deform", "--config", write_config(tmp_path, doc)])
    assert code == 64
    assert f"{key} must" in capsys.readouterr().err


def _with(doc, path, value):
    """Copy of ``doc`` with the entry at ``path`` (keys and indices) replaced."""
    doc = json.loads(json.dumps(doc))
    *head, last = path
    holder = doc
    for key in head:
        holder = holder[key]
    holder[last] = value
    return doc


def bivector_doc():
    return {**bfield_doc(), "deformation": [{"kind": "constant-bivector", "vectors": [0, 1]}]}


@pytest.mark.parametrize(
    "doc",
    [
        _with(bfield_doc(), ["seed_spinor"], {"scale": ["a", 1]}),
        _with(bfield_doc(), ["deformation", 0, "one_form", 0, "cos"], ["a", 0.3, -0.2, 0.1]),
        _with(bivector_doc(), ["deformation", 0, "scale"], "a"),
        _with(bfield_doc(), ["background"], {"kind": "kaehler", "metric": [["a", 0, 0, 0]] + np.eye(4)[1:].tolist()}),
        _with(bfield_doc(), ["twist"], [[0, 1, 2, "a"]]),
        _with(bfield_doc(), ["seed_spinor"], {"scale": float("nan")}),
        _with(bfield_doc(), ["seed_spinor"], {"scale": True}),
        _with(bfield_doc(), ["deformation", 0, "one_form", 0, "cos"], [float("nan"), 0, 0, 0]),
    ],
    ids=["scale-string", "cos-string", "bivector-scale-string", "metric-string", "twist-string",
         "scale-nan", "scale-bool", "cos-nan"],
)
def test_deform_rejects_hostile_values(tmp_path, capsys, doc):
    code = cli.main(["deform", "--config", write_config(tmp_path, doc)])
    assert code == 64
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify-hodge", "deform"])
@pytest.mark.parametrize(
    "key, value",
    [
        ("symplectic_form", np.zeros((4, 4)).tolist()),
        ("symplectic_form", np.kron(np.eye(2), [[0, 1], [1, 0]]).tolist()),
        ("base_complex", np.eye(4).tolist()),
    ],
    ids=["zero-symplectic", "symmetric-symplectic", "identity-complex"],
)
def test_explicit_background_that_is_not_a_structure_exits_64(tmp_path, capsys, command, key, value):
    base = bfield_doc() if command == "deform" else {"schema": 1, "dimension": 4}
    doc = {**base, "background": {"kind": "explicit", "metric": np.eye(4).tolist(), key: value}}
    assert cli.main([command, "--config", write_config(tmp_path, doc)]) == 64
    captured = capsys.readouterr()
    assert "config error: background is not a valid pair" in captured.err and captured.out == ""


def _hostile_background(kind, value):
    """A T^4 background whose entries overflow or underflow inside the pair
    construction."""
    if kind == "kaehler":
        return {"kind": "kaehler", "metric": (value * np.eye(4)).tolist()}
    if kind == "b_field":
        b_field = np.zeros((4, 4))
        b_field[0, 1], b_field[1, 0] = value, -value
        return {
            "kind": "explicit",
            "metric": np.eye(4).tolist(),
            "b_field": b_field.tolist(),
            "base_complex": gs.standard_complex_structure(4).tolist(),
        }
    symplectic_form = value * gs.standard_symplectic_form(4)
    return {"kind": "explicit", "metric": np.eye(4).tolist(), "symplectic_form": symplectic_form.tolist()}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["verify-hodge", "deform"])
@pytest.mark.parametrize(
    "kind, value",
    [("kaehler", 1e200), ("kaehler", 1e-200), ("b_field", 1e150), ("b_field", 1e200), ("symplectic_form", 1e-300)],
)
def test_background_of_hostile_scale_exits_64_without_warnings(tmp_path, capsys, command, kind, value):
    """Such a background fails the pair's own checks, an overflowed (NaN)
    residual included, with a config error and no numpy warning, which would
    otherwise be raised here as an error."""
    base = bfield_doc() if command == "deform" else {"schema": 1, "dimension": 4}
    doc = {**base, "background": _hostile_background(kind, value)}
    assert cli.main([command, "--config", write_config(tmp_path, doc)]) == 64
    captured = capsys.readouterr()
    assert "config error: background is not a valid pair" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_verify_hodge_rejects_twist_rows_that_overflow(tmp_path, capsys):
    doc = {"schema": 1, "dimension": 4, "twist": [[0, 1, 2, 1e308], [0, 1, 2, 1e308]]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["verify-hodge", "--config", write_config(tmp_path, doc)]) == 64
    assert "twist rows add up to a three-form that is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("m", [4, 8])
def test_verify_hodge_rejects_a_twist_whose_norm_overflows(tmp_path, capsys, m):
    """One finite row of 1e308: the three-form's norm overflows, which used
    to give NaN torsion levels read as integrable and eleven NaN checks."""
    doc = {"schema": 1, "dimension": m, "twist": [[0, 1, 2, 1e308]]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["verify-hodge", "--config", write_config(tmp_path, doc)]) == 64
    captured = capsys.readouterr()
    assert "config error: twist is too large" in captured.err and captured.out == ""


def test_deform_rejects_a_one_form_whose_norm_overflows(tmp_path, capsys):
    # dx1^dx2 is (1,1) for the standard complex structure, so this family is
    # the identity at any size; at 1e200 its norm is not representable
    doc = {
        "schema": 1,
        "dimension": 4,
        "order": 2,
        "deformation": [{"kind": "exact-b-field", "one_form": [{"frequency": [1, 0, 0, 0], "cos": [0, 1e200, 0, 0]}]}],
    }
    assert cli.main(["deform", "--config", write_config(tmp_path, doc)]) == 64
    captured = capsys.readouterr()
    assert "too large" in captured.err and "result: ok" not in captured.out


HUGE_ROTATION = np.kron(np.eye(2), 1e300 * gs.standard_complex_structure(4)).tolist()


@pytest.mark.parametrize(
    "item",
    [
        {"kind": "constant-bivector", "vectors": [0, 1], "scale": 1e300},
        {"kind": "exact-b-field", "one_form": [{"frequency": [1, 0, 0, 0], "cos": [0, 1e300, 0, 0]}]},
        {"kind": "explicit-series", "terms": [[{"frequency": [0, 0, 0, 0], "real": HUGE_ROTATION}]]},
    ],
    ids=lambda item: item["kind"],
)
def test_deform_rejects_a_family_whose_norm_overflows(tmp_path, item):
    """A family whose coefficient norm overflows is a config error naming its
    kind, raised before the family's so(m,m) checks would warn: exit 64 with
    no traceback and no numpy warning."""
    doc = {"schema": 1, "dimension": 4, "order": 1, "deformation": [item]}
    argv = ["deform", "--config", write_config(tmp_path, doc)]
    proc = subprocess.run([sys.executable, "-m", "genkahler.cli", *argv], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 64 and proc.stdout == ""
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
    assert f"config error: {item['kind']} is too large" in proc.stderr


def frequency_doc(kind, k):
    """m=4, order 2, one mode of ``kind`` at the frequency ``k e_0``."""
    if kind == "exact-b-field":
        item = {"kind": kind, "one_form": [{"frequency": [k, 0, 0, 0], "cos": [0.0, 0.3, -0.2, 0.1]}]}
    else:
        item = {"kind": kind, "terms": [[{"frequency": [k, 0, 0, 0], "real": np.zeros((8, 8)).tolist()}]]}
    return {"schema": 1, "dimension": 4, "order": 2, "deformation": [item]}


@pytest.mark.parametrize("k", [10**400, 2**53 + 1, -(2**53) - 1], ids=["1e400", "2^53+1", "-2^53-1"])
@pytest.mark.parametrize("kind", ["exact-b-field", "explicit-series"])
def test_deform_rejects_a_frequency_that_is_not_exact_as_a_float(tmp_path, capsys, kind, k):
    """The solver holds frequencies as floats: an entry beyond 2**53 is a
    config error, not an OverflowError traceback or a rounded frequency."""
    assert cli.main(["deform", "--config", write_config(tmp_path, frequency_doc(kind, k))]) == 64
    captured = capsys.readouterr()
    assert "config error" in captured.err and f"at most {cli.MAX_FREQUENCY}" in captured.err
    assert "result: ok" not in captured.out


def test_deform_accepts_a_frequency_at_the_bound(tmp_path, capsys):
    assert cli.main(["deform", "--config", write_config(tmp_path, frequency_doc("explicit-series", cli.MAX_FREQUENCY))]) == 0
    assert "result: ok" in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["exact-b-field", "explicit-series"])
def test_deform_frequency_bound_has_two_sides(tmp_path, capsys, monkeypatch, kind):
    """At the bound an exact-b-field mode still solves (this shape solves up
    to |k| = 114 at order 2); one above it, and at 2**40, where the solver
    would fail late with an order-1 identity failure, both kinds are config
    errors raised before the solver runs."""
    assert cli.main(["deform", "--config", write_config(tmp_path, frequency_doc(kind, cli.MAX_FREQUENCY))]) == 0
    assert "result: ok" in capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError("solver ran on a config with an unresolvable frequency")

    monkeypatch.setattr(sol, "run_deformation", refuse)
    for k in (cli.MAX_FREQUENCY + 1, -cli.MAX_FREQUENCY - 1, 2**40):
        assert cli.main(["deform", "--config", write_config(tmp_path, frequency_doc(kind, k))]) == 64
        assert f"at most {cli.MAX_FREQUENCY} in absolute value" in capsys.readouterr().err


def test_deform_rejects_a_support_above_the_cap_in_under_a_second(tmp_path, capsys, monkeypatch):
    """Six exact-b-field modes at e_0 ... e_5 on T^8 at order 8 close to
    40,081 frequencies: a config error naming the size the closure reached
    above ``cli.MAX_SUPPORT``, in under a second and before any structure
    series or solve, without a traceback."""
    rng = np.random.default_rng(12)
    modes = [{"frequency": np.eye(8, dtype=int)[j].tolist(), "cos": rng.uniform(-0.3, 0.3, 8).tolist()} for j in range(6)]
    doc = {"schema": 1, "dimension": 8, "order": 8, "deformation": [{"kind": "exact-b-field", "one_form": modes}]}
    path = write_config(tmp_path, doc)

    def refuse(*args, **kwargs):
        raise AssertionError("series work ran on a config above the support cap")

    monkeypatch.setattr(sol, "structure_series_of_family", refuse)
    monkeypatch.setattr(sol, "run_deformation", refuse)
    start = time.perf_counter()
    assert cli.main(["deform", "--config", path]) == 64
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    size = int(re.search(r"reaches (\d+) frequencies", err).group(1))
    assert size > cli.MAX_SUPPORT and "MAX_SUPPORT" in err and "Traceback" not in err
    assert elapsed < 1.0, f"rejecting the config took {elapsed:.2f} s"


def test_deform_sizes_the_support_once_per_family_set(tmp_path, capsys, monkeypatch):
    """One closure pass sizes the primitives' support and serves the
    structure series and the transverse extraction; the solver forms one
    for the family it solves and shares it with the precondition check."""
    calls = []
    closure = sol.support_closure

    def counted(*args, **kwargs):
        calls.append(kwargs.get("limit"))
        return closure(*args, **kwargs)

    monkeypatch.setattr(sol, "support_closure", counted)
    assert cli.main(["deform", "--config", write_config(tmp_path, bfield_doc())]) == 0
    assert calls == [cli.MAX_SUPPORT, None]


@pytest.mark.parametrize("command", ["deform", "verify-algebra"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, monkeypatch, command):
    """``uniform_points`` and verify-algebra's numpy generator take only
    non-negative seeds: a negative ``--seed`` exits 64 with a message before
    any work."""

    def refuse(args):
        raise AssertionError("a command ran with a negative seed")

    monkeypatch.setattr(cli, "cmd_deform", refuse)
    monkeypatch.setattr(cli, "cmd_verify_algebra", refuse)
    argv = [command, "--seed", "-1"]
    if command == "deform":
        argv += ["--config", write_config(tmp_path, bfield_doc())]
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 64
    assert "seed must be a non-negative integer" in capsys.readouterr().err


def test_deform_on_a_symplectic_type_first_structure(tmp_path, capsys):
    """An explicit background whose first structure is of symplectic type
    (identity metric, standard form) under a two-mode exact b-field: every
    order is corrected, and halving t divides the defect by about 2^5,
    inside the band of acceptance test 7."""
    doc = {
        **bfield_doc(order=4),
        "verify_t": 0.05,
        "verify_points": 16,
        "background": {
            "kind": "explicit",
            "metric": np.eye(4).tolist(),
            "symplectic_form": gs.standard_symplectic_form(4).tolist(),
        },
    }
    doc["deformation"][0]["one_form"] = [
        {"frequency": [1, 0, 0, 0], "cos": [0.0, 0.3, -0.2, 0.1]},
        {"frequency": [0, 1, 1, 0], "sin": [0.15, 0.0, 0.1, -0.25]},
    ]
    assert cli.main(["deform", "--config", write_config(tmp_path, doc), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert all(rec["beta_norm"] > 1e-5 for rec in report["orders"])
    assert report["verification"]["expected_ratio"] == 32
    assert 24.0 <= report["verification"]["halving_ratio"] <= 40.0


@pytest.mark.parametrize("mode", [[], ["--json"], ["--out", "OUT"]], ids=["text", "json", "out"])
def test_deform_rejects_an_overflowing_seed_scale(tmp_path, capsys, mode):
    doc = {**bfield_doc(), "seed_spinor": {"scale": 1e300}}
    argv = [str(tmp_path / "out") if a == "OUT" else a for a in mode]
    assert cli.main(["deform", "--config", write_config(tmp_path, doc), *argv]) == 64
    captured = capsys.readouterr()
    assert "seed_spinor.scale" in captured.err and "overflow" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_deform_rejects_a_nonzero_twist(tmp_path, capsys):
    doc = {**bfield_doc(), "twist": [[0, 1, 2, 0.4]]}
    assert cli.main(["deform", "--config", write_config(tmp_path, doc)]) == 64
    err = capsys.readouterr().err
    assert "config error" in err and "zero twist" in err and "H = 0" in err


def test_deform_runs_a_twist_that_cancels(tmp_path, capsys):
    doc = {**bfield_doc(), "twist": [[0, 1, 2, 0.4], [0, 1, 2, -0.4]]}
    assert cli.main(["deform", "--config", write_config(tmp_path, doc), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True and "twist" not in report


def test_deform_rejects_bad_tol_override(tmp_path, capsys):
    code = cli.main(["deform", "--config", write_config(tmp_path, bfield_doc()), "--tol", "nan"])
    assert code == 64
    assert "--tol must" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_verify_algebra_rejects_bad_tol(capsys, tol):
    """``--tol`` goes through the check that deform and verify-hodge use:
    exit 64 with a message, not exit 1 with every check marked FAIL."""
    assert cli.main(["verify-algebra", "--trials", "1", "--tol", tol]) == 64
    captured = capsys.readouterr()
    assert "--tol must" in captured.err and captured.out == ""


class _Accepted(Exception):
    pass


@pytest.mark.parametrize(
    "count, accepted", [(cli.MAX_VERIFY_POINTS, True), (cli.MAX_VERIFY_POINTS + 1, False), (10**9, False)]
)
def test_deform_bounds_verify_points(tmp_path, capsys, monkeypatch, count, accepted):
    """``verify_points`` up to ``MAX_VERIFY_POINTS`` passes validation, and a
    larger value exits 64 before any work: the background is never built."""

    def reached(doc, m):
        raise _Accepted

    monkeypatch.setattr(cli, "build_background", reached)
    cfg = write_config(tmp_path, {**bfield_doc(), "verify_points": count})
    if accepted:
        with pytest.raises(_Accepted):
            cli.main(["deform", "--config", cfg])
    else:
        assert cli.main(["deform", "--config", cfg]) == 64
        assert f"verify_points must be an integer in 1..{cli.MAX_VERIFY_POINTS}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "trials, accepted", [(cli.MAX_TRIALS, True), (cli.MAX_TRIALS + 1, False), (10**9, False), (-1, False)]
)
def test_verify_algebra_bounds_trials(capsys, monkeypatch, trials, accepted):
    """``--trials`` up to ``MAX_TRIALS`` reaches the trial loop, and a count
    outside 0..MAX_TRIALS exits 64 before the first trial; the loop is
    stubbed, so no trial runs."""

    def reached(rng, m):
        raise _Accepted

    monkeypatch.setattr(cli, "_random_vector", reached)
    argv = ["verify-algebra", "--trials", str(trials)]
    if accepted:
        with pytest.raises(_Accepted):
            cli.main(argv)
    else:
        assert cli.main(argv) == 64
        captured = capsys.readouterr()
        assert f"--trials must be in 0..{cli.MAX_TRIALS}" in captured.err and captured.out == ""


def test_verify_hodge_rejects_boolean_frequency_box(tmp_path, capsys):
    doc = {"schema": 1, "dimension": 2, "frequency_box": True}
    code = cli.main(["verify-hodge", "--config", write_config(tmp_path, doc)])
    assert code == 64
    assert "frequency_box must" in capsys.readouterr().err


def test_unparseable_config_exits_64(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli.main(["deform", "--config", str(path)]) == 64
    assert cli.main(["verify-hodge", "--config", str(tmp_path / "missing.json")]) == 64
    capsys.readouterr()


def test_verify_hodge_flat_kahler_two_torus(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema": 1, "dimension": 2, "frequency_box": 2})
    code = cli.main(["verify-hodge", "--config", cfg, "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    names = {c["name"] for c in report["checks"]}
    assert "full_laplacian_is_four_times_each" in names
    assert "plus_adjoint_is_minus_conjugate" in names
    assert report["info"]["background_integrable"] is True
    assert max(c["max_residual"] for c in report["checks"]) < 1e-9


def test_verify_hodge_twisted_background_reports_torsion(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema": 1, "dimension": 4, "twist": [[0, 1, 2, 0.4]]})
    code = cli.main(["verify-hodge", "--config", cfg, "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    info = report["info"]
    assert info["background_integrable"] is False
    assert info["first_structure_torsion"] < 1e-12
    assert info["second_structure_torsion"] > 1e-3
    names = {c["name"] for c in report["checks"]}
    assert names == {"component_sum_reproduces_derivative"}


def test_verify_hodge_twist_that_cancels_is_no_twist(tmp_path, capsys):
    """Rows that cancel (a permuted triple with the same value) give no
    twist: the report says null and runs every untwisted check."""
    reports = {}
    for label, twist in (("none", []), ("cancelling", [[0, 1, 2, 0.5], [1, 0, 2, 0.5]])):
        cfg = write_config(tmp_path, {"schema": 1, "dimension": 4, "twist": twist})
        assert cli.main(["verify-hodge", "--config", cfg, "--json"]) == 0
        reports[label] = json.loads(capsys.readouterr().out)
    assert reports["cancelling"]["twist"] is None
    names = [[c["name"] for c in r["checks"]] for r in reports.values()]
    assert names[0] == names[1] and len(names[0]) == 11


def run_verify_hodge(tmp_path, capsys, doc):
    code = cli.main(["verify-hodge", "--config", write_config(tmp_path, doc), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == (0 if report["ok"] else 1)
    return report


def j_invariant(rng, m, symmetric):
    """A random symmetric positive (or antisymmetric) matrix ``A`` with
    ``J^T A J = A`` for the standard complex structure ``J``."""
    J = gs.standard_complex_structure(m)
    a = rng.normal(size=(m, m))
    a = a @ a.T / m + 0.5 * np.eye(m) if symmetric else a - a.T
    return 0.5 * (a + J.T @ a @ J)


def test_verify_hodge_checks_do_not_depend_on_the_box(tmp_path, capsys):
    """The identities are checked on coefficients, so they hold at every
    frequency: the box is echoed but changes nothing, even at a size whose
    frequencies could never be enumerated."""
    metric = j_invariant(np.random.default_rng(3), 4, True)
    base = {"schema": 1, "dimension": 4, "background": {"kind": "kaehler", "metric": metric.tolist()}}
    reports = {box: run_verify_hodge(tmp_path, capsys, {**base, "frequency_box": box}) for box in (1, 3, 10**6)}
    for box, report in reports.items():
        assert report["ok"] is True and report["frequency_box"] == box
        assert report["checks"] == reports[1]["checks"]
        assert report["info"] == reports[1]["info"]
    assert len(reports[1]["checks"]) == 11


def bfield_background_t6():
    """An explicit T^6 background with a non-identity metric and a nonzero
    b-field, both J-invariant."""
    rng = np.random.default_rng(6)
    b_field = j_invariant(rng, 6, False)
    assert np.linalg.norm(b_field) > 0.5
    return {
        "kind": "explicit",
        "metric": j_invariant(rng, 6, True).tolist(),
        "b_field": b_field.tolist(),
        "base_complex": gs.standard_complex_structure(6).tolist(),
    }


def test_verify_hodge_explicit_bfield_background_t6(tmp_path, capsys):
    """Every splitting identity holds on an explicit T^6 b-field background."""
    report = run_verify_hodge(tmp_path, capsys, {"schema": 1, "dimension": 6, "background": bfield_background_t6()})
    assert report["ok"] is True and report["info"]["background_integrable"] is True
    assert len(report["checks"]) == 11
    assert all(c["pass"] for c in report["checks"])


@pytest.mark.parametrize("m", [4, 6])
def test_verify_hodge_constant_three_forms_are_not_integrable(tmp_path, capsys, m):
    """A nonzero constant twist is never integrable on a flat torus, which is
    why the library has no twisted Green operator."""
    rng = np.random.default_rng(30 + m)
    triples = list(itertools.combinations(range(m), 3))
    for _ in range(3):
        values = rng.normal(size=len(triples))
        values /= np.linalg.norm(values)
        twist = [[*t, float(v)] for t, v in zip(triples, values)]
        report = run_verify_hodge(tmp_path, capsys, {"schema": 1, "dimension": m, "twist": twist})
        info = report["info"]
        assert info["background_integrable"] is False
        assert max(info["first_structure_torsion"], info["second_structure_torsion"]) > 1e-2
        assert [c["name"] for c in report["checks"]] == ["component_sum_reproduces_derivative"]


TINY_TWIST = [[0, 1, 2, 1e-13]]


def verify_hodge_on(tmp_path, capsys, monkeypatch, pair, twist=None):
    """``verify-hodge --json`` on a given pair (and twist) and its report."""
    monkeypatch.setattr(cli, "build_background", lambda doc, m: pair)
    doc = {"schema": 1, "dimension": pair.m, **({"twist": twist} if twist else {})}
    return run_verify_hodge(tmp_path, capsys, doc)


def splitting_pairs(m):
    """A Kahler pair with a J-invariant metric, a b-field pair and a random pair."""
    rng = np.random.default_rng(70 + m)
    J = gs.standard_complex_structure(m)
    bfield = gs.HermitianPair.from_metric(
        gs.complex_structure_gcs(J), j_invariant(rng, m, True), j_invariant(rng, m, False)
    )
    return {
        "kaehler": gs.HermitianPair.from_kahler(J, j_invariant(rng, m, True)),
        "bfield": bfield,
        "random": gs.random_hermitian_pair(rng, m),
    }


def assert_matches_dense_oracle(pair, report):
    """Every splitting residual of the report equals the dense route's to 1e-13
    of the residual's scale: the derivative's coefficient norm to the power of
    the operator's degree in it (a Green residual is divided by the norm of
    Lap(delta+), so it is first put back in units of that scale squared)."""
    residuals, units = dense_splitting_residuals(pair)
    got = {c["name"]: c["max_residual"] for c in report["checks"]}
    for name, want in residuals.items():
        assert abs(got[name] - want) * units[name] <= 1e-13, (name, got[name], want)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_verify_hodge_closed_form_matches_dense_oracle(tmp_path, capsys, monkeypatch, m):
    """The closed-form splitting checks reproduce the dense coefficient
    products on Kahler, b-field and random pairs."""
    for label, pair in splitting_pairs(m).items():
        report = verify_hodge_on(tmp_path, capsys, monkeypatch, pair)
        assert report["info"]["background_integrable"] is True, label
        assert len(report["checks"]) == 11 and report["ok"] is True, label
        assert_matches_dense_oracle(pair, report)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_verify_hodge_level_one_gap_matches_block_operator_sum(tmp_path, capsys, monkeypatch, m):
    """The level-one gap, taken on the (m, n, n) coefficient stacks, equals
    the ``BlockOperator`` sum and difference bit for bit on every pair of
    ``splitting_pairs``."""
    scale = gh.derivative_operator(m, gh.Support([(0,) * m])).coeff_norm()
    for label, pair in splitting_pairs(m).items():
        report = verify_hodge_on(tmp_path, capsys, monkeypatch, pair)
        got = {c["name"]: c["max_residual"] for c in report["checks"]}["component_sum_reproduces_derivative"]
        assert got == block_operator_gap(pair) / scale, label


@pytest.mark.parametrize("m", [4, 6])
def test_verify_hodge_tiny_twist_is_not_integrable(tmp_path, capsys, m):
    """verify-hodge decides integrability as deform does: a twist of 1e-13,
    whose torsion levels lie far below the tolerance, is still a nonzero
    twist, so only the component sum is checked; deform rejects the same
    rows with its H = 0 message."""
    doc = {"schema": 1, "dimension": m, "twist": TINY_TWIST}
    report = run_verify_hodge(tmp_path, capsys, doc)
    info = report["info"]
    assert report["ok"] is True and info["background_integrable"] is False
    assert [c["name"] for c in report["checks"]] == ["component_sum_reproduces_derivative"]
    assert 0 < max(info["first_structure_torsion"], info["second_structure_torsion"]) < report["tol"]
    assert cli.main(["deform", "--config", write_config(tmp_path, doc)]) == 64
    captured = capsys.readouterr()
    assert "zero twist" in captured.err and "H = 0" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("m", [4, 6])
def test_verify_hodge_twisted_levels_match_affine_operators(tmp_path, capsys, monkeypatch, m):
    """On a twisted background the report's component sum and torsion levels,
    read from the constant graded parts of H^, match the affine coefficient
    operators of the twisted derivative and its 16 components to 1e-13 of
    the derivative's norm, and the levels to 1e-13 relative, on every pair
    of ``splitting_pairs`` with an order-one random three-form and with a
    twist of 1e-13."""
    rng = np.random.default_rng(90 + m)
    triples = list(itertools.combinations(range(m), 3))
    random_twist = [[*t, float(v)] for t, v in zip(triples, rng.normal(size=len(triples)))]
    for label, pair in splitting_pairs(m).items():
        for twist in (random_twist, TINY_TWIST):
            report = verify_hodge_on(tmp_path, capsys, monkeypatch, pair, twist)
            info = report["info"]
            assert info["background_integrable"] is False, label
            assert [c["name"] for c in report["checks"]] == ["component_sum_reproduces_derivative"]
            component_sum, first, second = affine_twist_residuals(pair, cli.build_twist({"twist": twist}, m))
            assert abs(report["checks"][0]["max_residual"] - component_sum) <= 1e-13, label
            for got, want in ((info["first_structure_torsion"], first), (info["second_structure_torsion"], second)):
                assert abs(got - want) <= 1e-13 * want, (label, got, want)
            assert second > 1e-2 if twist is random_twist else 0 < second < 1e-12, (label, second)


@pytest.mark.parametrize("m", [4, 6])
def test_torsion_parts_determine_the_three_form(m):
    """The map from a constant three-form H to the stacked +-3 shift parts
    of its wedge is injective, well away from roundoff, on every pair of
    ``splitting_pairs``: a twist whose torsion levels pass the tolerance is
    roundoff, so deciding integrability by H = 0 loses no background.  The
    wedge by a unit basis three-form has Frobenius norm sqrt(n/8), and the
    smallest singular value (0.198 at least on these pairs) is kept above
    0.1 of that."""
    n = cl.spinor_dim(m)
    torsion = [shift for shift in gh.COMPONENT_SHIFTS if 3 in map(abs, shift)]
    for label, pair in splitting_pairs(m).items():
        columns = []
        for triple in itertools.combinations(range(m), 3):
            h = cli.build_twist({"twist": [[*triple, 1.0]]}, m)
            wedge = cl.wedge_operator(gf.three_form_spinor(h))
            parts = pair.shift_parts(wedge, torsion)
            columns.append(np.concatenate([parts[shift].ravel() for shift in torsion]))
        smallest = np.linalg.svd(np.array(columns).T, compute_uv=False).min()
        assert smallest >= 0.1 * np.sqrt(n / 8), (label, smallest)


CLOSED_FORM_CHECKS = [
    "component_squares_vanish",
    "opposite_components_anticommute",
    "mixed_anticommutators_cancel",
    "full_laplacian_is_four_times_each",
    "green_commutes_with_laplacian",
    "green_plus_harmonic_resolve_identity",
    "green_agrees_across_components",
]


def failed_checks(report):
    return {c["name"] for c in report["checks"] if not c["pass"]}


def test_verify_hodge_closed_form_sees_a_broken_clifford_ladder(tmp_path, capsys, monkeypatch):
    """One flipped ladder sign makes cl no Clifford representation; the
    closed forms assume one, so every closed-form check fails."""
    pair = gs.HermitianPair.from_kahler(gs.standard_complex_structure(4), np.eye(4))
    tables = cl._ladder_tables
    source, signs = tables(4)
    bad = signs.copy()
    bad[1, 2, np.flatnonzero(bad[1, 2])[0]] *= -1
    monkeypatch.setattr(cl, "_ladder_tables", lambda m: (source, bad) if m == 4 else tables(m))
    report = verify_hodge_on(tmp_path, capsys, monkeypatch, pair)
    assert report["ok"] is False
    assert failed_checks(report) >= set(CLOSED_FORM_CHECKS)


def test_verify_hodge_closed_form_sees_a_corrupted_component(tmp_path, capsys, monkeypatch):
    """One wrong coefficient of delta_bar+ breaks its adjoint relation, and
    the Laplacian and Green checks, which use that relation, fail with it."""
    build = gh.component_operator

    def corrupted(shift, pair, support):
        op = build(shift, pair, support)
        if tuple(shift) == (-1, -1):
            op.coeffs[0, 0, 1] += 1e-3
        return op

    monkeypatch.setattr(gh, "component_operator", corrupted)
    report = run_verify_hodge(tmp_path, capsys, {"schema": 1, "dimension": 4})
    assert failed_checks(report) >= {
        "plus_adjoint_is_minus_conjugate",
        "full_laplacian_is_four_times_each",
        "green_commutes_with_laplacian",
        "green_plus_harmonic_resolve_identity",
        "green_agrees_across_components",
    }


def test_verify_hodge_forms_no_dense_product(tmp_path, capsys, monkeypatch):
    """verify-hodge multiplies no coefficient operators, on the benchmark's
    T^4 shape and on a T^6 b-field background, and an untwisted T^8 run at
    frequency_box 2 passes all eleven checks; the counters do count, as the
    dense oracle shows."""
    calls = {"matmul": 0, "laplacian": 0}
    matmul, laplacian = gh.BlockOperator.__matmul__, gh.laplacian

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(gh.BlockOperator, "__matmul__", counted("matmul", matmul))
    monkeypatch.setattr(gh, "laplacian", counted("laplacian", laplacian))
    metric = j_invariant(np.random.default_rng(4), 4, True)
    background = {"kind": "kaehler", "metric": metric.tolist()}
    shape = {"schema": 1, "dimension": 4, "frequency_box": 3, "background": background}
    assert run_verify_hodge(tmp_path, capsys, shape)["ok"] is True
    bfield = {"schema": 1, "dimension": 6, "background": bfield_background_t6()}
    assert run_verify_hodge(tmp_path, capsys, bfield)["ok"] is True
    report = run_verify_hodge(tmp_path, capsys, {"schema": 1, "dimension": 8, "frequency_box": 2})
    assert len(report["checks"]) == 11 and all(c["pass"] for c in report["checks"])
    assert calls == {"matmul": 0, "laplacian": 0}
    dense_splitting_residuals(splitting_pairs(2)["random"])
    assert calls["matmul"] > 0 and calls["laplacian"] > 0


def test_deform_trivial_bivector_all_orders_vanish(tmp_path, capsys):
    doc = {
        "schema": 1,
        "dimension": 4,
        "order": 4,
        "verify_points": 4,
        "deformation": [{"kind": "constant-bivector", "vectors": [0, 1]}],
    }
    out = tmp_path / "run"
    code = cli.main(["deform", "--config", write_config(tmp_path, doc), "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    rows = (out / "residuals.csv").read_text().strip().splitlines()
    assert rows[0] == "order,residual_norm,beta_norm,wall_ms"
    assert len(rows) == 5
    for row in rows[1:]:
        order, residual, beta, wall = row.split(",")
        assert float(residual) == 0.0 and float(beta) == 0.0
        assert float(wall) >= 0.0
    series = json.loads((out / "series.json").read_text())
    assert all(entry["modes"] == [] for entry in series["betas"])
    assert series["psi"][0]["modes"][0]["frequency"] == [0, 0, 0, 0]


def test_deform_bfield_artifacts_and_determinism(tmp_path, capsys):
    cfg = write_config(tmp_path, bfield_doc())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["deform", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["deform", "--config", cfg, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "series.json").read_bytes() == (out2 / "series.json").read_bytes()

    report = json.loads((out1 / "report.json").read_text())
    assert report["ok"] is True
    assert report["orders"][0]["beta_norm"] > 1e-3
    assert "wall" not in (out1 / "report.json").read_text()
    assert report["verification"]["halving_ratio"] == pytest.approx(8.0, rel=0.2)
    assert report["tolerances"]["tol_order"] == pytest.approx(1e-9)

    series = json.loads((out1 / "series.json").read_text())
    first = series["betas"][0]["modes"]
    assert first, "first-order correction must carry modes"
    entry = first[0]["matrix"][0][0]
    assert isinstance(entry, list) and len(entry) == 2


def test_deform_order_and_tol_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path, bfield_doc(order=3))
    code = cli.main(["deform", "--config", cfg, "--order", "1", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["order_cap"] == 1 and len(report["orders"]) == 1
    assert cli.main(["deform", "--config", cfg, "--tol", "1e-30"]) == 1
    assert "identity failure" in capsys.readouterr().out


def test_deform_modulated_bivector_precondition_exit_2(tmp_path, capsys):
    pair = gs.standard_kahler_pair(4)
    base = -pair.J1[:4, :4]
    u = np.linalg.svd(0.5 * (np.eye(4) - 1j * base))[0][:, :2]
    biv = np.outer(u[:, 0], u[:, 1]) - np.outer(u[:, 1], u[:, 0])
    alpha = 0.5 * cl.bivector_so((biv + biv.conj()).real)
    mode = lambda k: {"frequency": k, "real": alpha.real.tolist(), "imag": alpha.imag.tolist()}
    doc = {
        "schema": 1,
        "dimension": 4,
        "order": 2,
        "deformation": [
            {"kind": "explicit-series", "terms": [[mode([1, 0, 0, 0]), mode([-1, 0, 0, 0])]]}
        ],
    }
    out = tmp_path / "run"
    code = cli.main(["deform", "--config", write_config(tmp_path, doc), "--out", str(out)])
    assert code == 2
    assert "precondition failure" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["ok"] is False and report["failed_order"] == 1


BIVECTOR = {"kind": "constant-bivector", "vectors": [0, 1], "scale": 0.2}


def composed_doc(monkeypatch, gauge_last):
    """deform-m4-k8's seed-0 one-form and a constant bivector at order cap 4,
    the gauge listed first (applied last) or the bivector first."""
    doc = workload_config("deform-m4-k8", monkeypatch)
    gauge = doc["deformation"]
    items = gauge + [BIVECTOR] if gauge_last else [BIVECTOR] + gauge
    return {**doc, "order": 4, "verify_t": 0.05, "deformation": items}


def test_deform_composes_a_gauge_after_a_bivector(tmp_path, capsys, monkeypatch):
    """``[exact-b-field, constant-bivector]`` is one family extracted from the
    composed first structure: a genuine deformation of J1 coupled to a
    nonzero correction at every order, with the t^5 halving ratio."""
    out = tmp_path / "run"
    doc = composed_doc(monkeypatch, gauge_last=True)
    assert cli.main(["deform", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    betas = [o["beta_norm"] for o in report["orders"]]
    np.testing.assert_allclose(betas, [0.129186, 0.0757989, 0.0167892, 0.00586833], rtol=1e-5)
    assert 24.0 <= report["verification"]["halving_ratio"] <= 40.0
    assert "result: ok" in capsys.readouterr().out


def test_deform_bivector_after_a_gauge_loses_integrability(tmp_path, capsys, monkeypatch):
    """A beta-transform is no symmetry of the bracket, so the reverse order's
    first structure fails at order 2: a precondition failure, exit 2."""
    doc = composed_doc(monkeypatch, gauge_last=False)
    assert cli.main(["deform", "--config", write_config(tmp_path, doc)]) == 2
    assert "loses integrability at order 2" in capsys.readouterr().out


def test_console_module_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "genkahler.cli", "verify-algebra", "--trials", "5", "--n-max", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "result: ok" in proc.stdout


def test_cli_import_leaves_scipy_unloaded():
    """scipy is a test-only dependency; the command line must run without it."""
    code = "import sys, genkahler.cli; sys.exit('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr or "genkahler.cli imported scipy"


def test_deform_loads_no_numpy_random(tmp_path):
    """The verification points come from ``uniform_points``, so a deform
    run imports neither ``numpy.random`` nor the OpenSSL hashing it loads."""
    config = write_config(tmp_path, bfield_doc())
    code = (
        "import sys\n"
        "from genkahler import cli\n"
        f"assert cli.main(['deform', '--config', {config!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "sys.exit(' '.join(sorted({'numpy.random', '_hashlib'} & set(sys.modules))) or None)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def readme_config():
    """The config example of README.md (its first JSON block)."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return json.loads(text.split("```json\n", 1)[1].split("```", 1)[0])


@pytest.mark.parametrize("argv", [["deform", "--order", "2"], ["verify-hodge"]])
def test_readme_config_example_runs(tmp_path, capsys, argv):
    path = write_config(tmp_path, readme_config())
    assert cli.main([*argv, "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert "result: ok" in capsys.readouterr().out


def overflow_doc(c):
    """m=4, order 2, verified at t = 1 with one-form modes of size ``c``."""
    modes = [{"frequency": [1, 0, 0, 0], "cos": [0, c, -c, c]}, {"frequency": [0, 1, 1, 0], "sin": [c, 0, c, -c]}]
    return {
        "schema": 1,
        "dimension": 4,
        "order": 2,
        "verify_t": 1.0,
        "deformation": [{"kind": "exact-b-field", "one_form": modes}],
    }


@pytest.mark.parametrize(
    "c, message",
    [(3, None), (30, "induced metric is not positive at t=1"), (300, "the transported structures at t=1 are not finite")],
)
def test_deform_verification_failure_exits_1(tmp_path, c, message):
    """The solve passes at every size; at c = 30 the induced metric at t = 1
    is indefinite and at c = 300 the exponentials overflow.  Both end in a
    verification failure report, not a traceback, a numpy warning or
    ``result: ok``."""
    out = tmp_path / "run"
    argv = ["deform", "--config", write_config(tmp_path, overflow_doc(c)), "--out", str(out)]
    proc = subprocess.run([sys.executable, "-m", "genkahler.cli", *argv], capture_output=True, text=True)
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    report = json.loads((out / "report.json").read_text())
    if message is None:
        assert proc.returncode == 0 and report["ok"] is True
        assert "result: ok" in proc.stdout
    else:
        assert proc.returncode == 1 and report["ok"] is False
        assert f"verification failure: {message}" in proc.stdout
        assert message in report["error"]


def test_deform_stops_a_large_rotation_at_the_jet_step_cap(tmp_path):
    """The constant rotation ``[[A, 0], [0, A]]``, ``A = 1e12 J``, keeps the
    pair and solves; verifying it would take about 9 days per point.  It
    ends within seconds in a verification failure that names the step count
    and the budget, with no traceback."""
    rotation = np.kron(np.eye(2), 1e12 * gs.standard_complex_structure(4))
    doc = {
        "schema": 1,
        "dimension": 4,
        "order": 1,
        "verify_points": 1,
        "deformation": [{"kind": "explicit-series", "terms": [[{"frequency": [0, 0, 0, 0], "real": rotation.tolist()}]]}],
    }
    argv = ["deform", "--config", write_config(tmp_path, doc)]
    proc = subprocess.run([sys.executable, "-m", "genkahler.cli", *argv], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    message = rf"verification failure: jet exponential needs 20000000000 steps, above the \d+ left of the budget of {sol._JET_STEP_BUDGET}\n"
    assert re.search(message, proc.stdout)


def test_deform_at_the_frequency_bound_verifies_at_t_1(tmp_path, capsys):
    """One exact-b-field mode at ``|k| = cli.MAX_FREQUENCY`` verified at t = 1
    needs about 1,200 jet steps per point, well under the budget."""
    doc = frequency_doc("exact-b-field", cli.MAX_FREQUENCY)
    doc.update({"order": 1, "verify_t": 1.0, "verify_points": 4})
    assert cli.main(["deform", "--config", write_config(tmp_path, doc)]) == 0
    assert "result: ok" in capsys.readouterr().out


def test_indefinite_metric_stops_verification_before_the_spinor_side(monkeypatch):
    """At c = 30 the metric at t = 1 is indefinite: the verification fails on
    the orthogonal side without running a single spinor jet."""
    doc = overflow_doc(30)
    pair = cli.build_background(doc, 4)
    seed, _ = cli.build_seed(doc, pair)
    report = sol.run_deformation(cli.build_deformation(doc, pair, 2), pair, order_cap=2, psi=seed)

    def refuse(*args, **kw):
        raise AssertionError("the spinor side ran")

    monkeypatch.setattr(sol, "_exp_jet", refuse)
    with pytest.raises(ValueError, match="induced metric is not positive at t=1 "):
        sol.verify_gk_at_t(report, 1.0)
