"""Scoring images in forked shares: the same bytes, errors and exit codes as
the serial loop, with no child process left behind."""

import json
import os
import time

import numpy as np
import pytest

import chromapad.cli as cli
import chromapad.model as M
from chromapad.cli import EXIT_DATA, EXIT_IO, EXIT_OK, main
from chromapad.colorspace import ColorImage, ColorSpace, to_ppm_bytes
from chromapad.model import (ModelConfig, build_model, forward_ppm,
                             save_config, save_weights, score_in_shares)

pytestmark = [
    pytest.mark.skipif(not all(hasattr(os, f) for f in
                               ("fork", "sched_getaffinity",
                                "sched_setaffinity")),
                       reason="needs os.fork and CPU affinity"),
    # Python >= 3.12 warns when a process with threads (numpy's OpenBLAS
    # starts some) forks
    pytest.mark.filterwarnings("ignore:This process:DeprecationWarning"),
]

HOST_CPUS = sorted(os.sched_getaffinity(0)) \
    if hasattr(os, "sched_getaffinity") else [0]
CPU0 = HOST_CPUS[0]


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def workspace(tmp_path):
    cfg = ModelConfig(
        input_size=16, embed_dim=8, num_heads=2, window=2, pool_factor=2,
        backbone=[{"out_channels": 4, "stride": 2},
                  {"out_channels": 8, "stride": 2}], seed=5,
    )
    save_config(cfg, tmp_path / "config.json")
    model = build_model(cfg)
    save_weights(model, tmp_path / "model.cfpa")
    rng = np.random.default_rng(3)
    images = []
    for i in range(4):
        img = ColorImage(width=16, height=16, space=ColorSpace.RGB,
                         pixels=rng.integers(0, 256, (16, 16, 3),
                                             dtype=np.uint8))
        path = tmp_path / f"img{i}.ppm"
        path.write_bytes(to_ppm_bytes(img))
        images.append(str(path))
    (tmp_path / "bad.ppm").write_bytes(b"P7\n16 16\n255\n")
    return {"dir": tmp_path, "model": model, "images": images}


def serial_gate(monkeypatch):
    monkeypatch.setattr(M, "_share_cpus", lambda: [])


@pytest.fixture(params=["host", "forked", "one_cpu"])
def gate(request, monkeypatch):
    """How many shares ``score_in_shares`` may use: the host's CPUs as they
    are; three shares forced open on any host, each pinned to the same real
    CPU (four images then split 2 + 2, fewer one each); or the test's
    thread pinned to one CPU, as under ``taskset -c 0`` (the gate stays
    shut)."""
    if request.param == "forked":
        monkeypatch.setattr(M, "_share_cpus", lambda: [CPU0] * 3)
    if request.param != "one_cpu":
        yield request.param
        return
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {CPU0})
    try:
        yield request.param
    finally:
        os.sched_setaffinity(0, mask)


def infer(workspace, images, out_name="scores.csv"):
    out = workspace["dir"] / out_name
    argv = ["infer", "--config", str(workspace["dir"] / "config.json"),
            "--weights", str(workspace["dir"] / "model.cfpa"),
            "--out", str(out)]
    for path in images:
        argv += ["--image", path]
    rc = main(argv)
    assert_no_child()
    return rc, out


def serial_rows(workspace, images):
    rows = []
    for path in images:
        with open(path, "rb") as fh:
            score = forward_ppm(workspace["model"], fh.read())
        rows.append(f"{path},{score:.10g}\n")
    return "".join(rows).encode()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_infer_matches_serial_loop(workspace, gate, n):
    mask = os.sched_getaffinity(0)
    rc, out = infer(workspace, workspace["images"][:n])
    assert rc == EXIT_OK
    assert out.read_bytes() == serial_rows(workspace, workspace["images"][:n])
    assert os.sched_getaffinity(0) == mask


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("kind, code", [("missing", EXIT_IO),
                                        ("malformed", EXIT_DATA)])
def test_bad_image_fails_as_serial_run(workspace, gate, monkeypatch, capsys,
                                       kind, code, k):
    bad = str(workspace["dir"] / ("ghost.ppm" if kind == "missing"
                                  else "bad.ppm"))
    images = list(workspace["images"])
    images[k] = bad
    with monkeypatch.context() as serial:
        serial_gate(serial)
        want_rc, want_out = infer(workspace, images, "serial.csv")
    want_err = capsys.readouterr().err
    rc, out = infer(workspace, images)
    assert (rc, capsys.readouterr().err) == (want_rc, want_err)
    assert rc == code and want_err.startswith("chromapad infer: ")
    assert bad in want_err  # the message names the image that failed
    assert not out.exists() and not want_out.exists()


@pytest.mark.parametrize("exit_on_call", [1, 2])
def test_child_exiting_mid_share_changes_no_byte(workspace, monkeypatch,
                                                 exit_on_call):
    # two shares of two images; the child dies on its first or second one,
    # and the caller scores what it did not hand back
    monkeypatch.setattr(M, "_share_cpus", lambda: [CPU0] * 2)
    parent = os.getpid()
    calls = []

    def dying(model, data):
        calls.append(data)
        if os.getpid() != parent and len(calls) == exit_on_call:
            os._exit(1)
        return forward_ppm(model, data)

    monkeypatch.setattr(cli, "forward_ppm", dying)
    rc, out = infer(workspace, workspace["images"])
    assert rc == EXIT_OK
    assert out.read_bytes() == serial_rows(workspace, workspace["images"])
    # the caller's share, then the images the child did not hand back
    with open(workspace["images"][2], "rb") as fh:
        third = fh.read()
    assert len(calls) == 2 + (3 - exit_on_call)
    assert (third in calls) == (exit_on_call == 1)


def test_failing_own_share_kills_and_reaps_children(monkeypatch):
    parent = os.getpid()
    mask = os.sched_getaffinity(0)

    def score(path):
        if os.getpid() == parent:
            raise KeyError(path)
        time.sleep(60)
        return 0.0

    monkeypatch.setattr(M, "_share_cpus", lambda: [CPU0] * 3)
    start = time.monotonic()
    with pytest.raises(KeyError, match="a"):
        score_in_shares(score, ["a", "b", "c"])
    assert time.monotonic() - start < 30
    assert_no_child()
    assert os.sched_getaffinity(0) == mask


@pytest.mark.skipif(len(HOST_CPUS) < 2, reason="needs two CPUs")
def test_each_share_runs_pinned_to_its_own_cpu():
    cpus = HOST_CPUS

    def pinned_cpu(path):
        mask = os.sched_getaffinity(0)
        return float(min(mask)) if len(mask) == 1 else -1.0

    got = score_in_shares(pinned_cpu, [str(i) for i in range(len(cpus))])
    assert got == [float(c) for c in cpus]
    assert os.sched_getaffinity(0) == set(cpus)
    assert_no_child()


def test_failed_fork_leaves_its_share_to_the_caller(workspace, monkeypatch):
    # four shares; the second fork fails, as it does past RLIMIT_NPROC
    monkeypatch.setattr(M, "_share_cpus", lambda: [CPU0] * 4)
    real_fork = os.fork
    forks = []

    def fork():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    rc, out = infer(workspace, workspace["images"])
    assert rc == EXIT_OK and len(forks) == 2
    assert out.read_bytes() == serial_rows(workspace, workspace["images"])


def test_gate_shut_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    parent = os.getpid()
    assert score_in_shares(lambda p: float(os.getpid() == parent),
                           "abcd") == [1.0] * 4


def test_ablate_image_directories_match_serial(workspace, gate, monkeypatch,
                                               capsys):
    root = workspace["dir"]
    for name, images in (("bona", workspace["images"][:2]),
                         ("atk", workspace["images"][2:])):
        (root / name).mkdir()
        for path in images:
            with open(path, "rb") as fh:
                (root / name / os.path.basename(path)).write_bytes(fh.read())
    grid = root / "grid.json"
    cfg = ModelConfig.from_json_dict(
        json.loads((root / "config.json").read_text(encoding="utf-8")))
    grid.write_text(json.dumps([{"config": cfg.to_json_dict(),
                                 "bonafide_images": "bona",
                                 "attack_images": "atk"}]), encoding="utf-8")
    argv = ["ablate", "--grid", str(grid), "--scores-dir", str(root)]
    bona = [str(root / "bona" / os.path.basename(p))
            for p in workspace["images"][:2]]
    atk = [str(root / "atk" / os.path.basename(p))
           for p in workspace["images"][2:]]

    def bits(scores):
        return np.float64(scores.bonafide + scores.attack).tobytes()

    with monkeypatch.context() as serial:
        serial_gate(serial)
        assert main(argv) == EXIT_OK
        want_bits = bits(M.scores_from_images(cfg, bona, atk))
    want = capsys.readouterr().out
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == want
    assert bits(M.scores_from_images(cfg, bona, atk)) == want_bits
    assert_no_child()


@pytest.mark.parametrize("k", range(4))
def test_ablate_names_bad_image_at_every_position(workspace, gate,
                                                  monkeypatch, capsys, k):
    # four images in sorted order, two per directory; the k-th is bad
    root = workspace["dir"]
    paths = []
    for i, name in enumerate(("bona", "bona", "atk", "atk")):
        (root / name).mkdir(exist_ok=True)
        path = root / name / f"{i}.ppm"
        source = workspace["images"][i] if i != k else root / "bad.ppm"
        with open(source, "rb") as fh:
            path.write_bytes(fh.read())
        paths.append(str(path))
    grid = root / "grid.json"
    cfg = ModelConfig.from_json_dict(
        json.loads((root / "config.json").read_text(encoding="utf-8")))
    grid.write_text(json.dumps([{"config": cfg.to_json_dict(),
                                 "bonafide_images": "bona",
                                 "attack_images": "atk"}]), encoding="utf-8")
    argv = ["ablate", "--grid", str(grid), "--scores-dir", str(root)]
    with monkeypatch.context() as serial:
        serial_gate(serial)
        want_rc = main(argv)
    want = capsys.readouterr()
    assert main(argv) == want_rc == EXIT_DATA
    assert capsys.readouterr() == want
    assert want.err == (f"chromapad ablate: {paths[k]}: bad magic b'P7', "
                        f"expected b'P6' (byte offset 0)\n")
    assert_no_child()
