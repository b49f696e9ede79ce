"""fork_map and the forked cascade: equal to the serial loop, no child left behind."""

import ctypes
import os
import signal
import time

import numpy as np
import pytest

from genrobust import attacks, parallel
from genrobust import models as mdl
from genrobust.attacks import CascadeConfig, PerturbationSet, attack_cascade
from genrobust.autodiff import NumericError, Tensor
from genrobust.data import LabeledDataset
from genrobust.parallel import fork_map


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _cpus(monkeypatch, n):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: n)


def _count_forks(monkeypatch):
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


# ---------------------------------------------------------------------------
# fork_map


def test_fork_map_returns_results_in_item_order(monkeypatch):
    _cpus(monkeypatch, 2)
    items = [3, 1, 4, 1, 5, 9, 2, 6]
    out = fork_map(lambda x: (x * x, os.getpid()), items)
    assert [v for v, _ in out] == [x * x for x in items]
    pids = [pid for _, pid in out]
    assert os.getpid() not in pids
    assert pids[0::2] == [pids[0]] * 4 and pids[1::2] == [pids[1]] * 4  # worker w: items w, w+W, ...
    assert pids[0] != pids[1]


def test_fork_map_with_one_usable_cpu_forks_nothing(monkeypatch):
    _cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with one usable CPU"))
    assert fork_map(lambda x: (x + 1, os.getpid()), range(5)) == [(x + 1, os.getpid()) for x in range(5)]


def test_fork_map_runs_serially_without_os_fork(monkeypatch):
    _cpus(monkeypatch, 2)
    monkeypatch.delattr(os, "fork")
    assert fork_map(lambda x: os.getpid(), range(3)) == [os.getpid()] * 3


def test_fork_map_starts_at_most_one_worker_per_item(monkeypatch):
    _cpus(monkeypatch, 1000)
    forks = _count_forks(monkeypatch)
    assert fork_map(lambda x: 2 * x, range(3)) == [0, 2, 4]
    assert len(forks) == 3
    assert fork_map(lambda x: x, []) == [] and len(forks) == 3


def test_fork_map_nested_in_a_worker_runs_serially(monkeypatch):
    _cpus(monkeypatch, 2)
    inner = fork_map(lambda x: [os.getpid()] + fork_map(lambda _: os.getpid(), range(3)), range(2))
    for pids in inner:
        assert pids != [os.getpid()] * 4
        assert pids == [pids[0]] * 4  # every inner item ran in the outer worker itself


def _raises_on(failing: dict):
    def fn(x):
        if x in failing:
            raise failing[x]
        return x

    return fn


@pytest.mark.parametrize("failing", [
    {3: KeyError("three"), 4: ValueError("four")},  # first failure in worker 1
    {2: ZeroDivisionError("two"), 3: KeyError("three")},  # first failure in worker 0
    {5: NumericError("five"), 1: ValueError("one")},
])
def test_fork_map_raises_the_first_failure_in_item_order(monkeypatch, failing):
    fn = _raises_on(failing)
    _cpus(monkeypatch, 1)
    with pytest.raises(Exception) as serial:
        fork_map(fn, range(8))
    _cpus(monkeypatch, 2)
    with pytest.raises(Exception) as forked:
        fork_map(fn, range(8))
    assert type(forked.value) is type(serial.value)
    assert str(forked.value) == str(serial.value)
    assert forked.value.args == serial.value.args


class TwoArgError(Exception):
    """Pickles, but cannot be rebuilt from its pickle: its args are one string."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


def test_fork_map_reports_an_exception_it_cannot_send(monkeypatch):
    def fn(x):
        if x == 1:
            raise TwoArgError("a", "b")
        return x

    _cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="TwoArgError exception of item 1 cannot be pickled"):
        fork_map(fn, range(4))


def test_fork_map_reports_a_killed_worker(monkeypatch):
    parent = os.getpid()

    def fn(x):
        if x == 1 and os.getpid() != parent:  # only ever the test's own child
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    _cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="item 1 was killed by signal 9"):
        fork_map(fn, range(4))


def test_fork_map_kills_and_reaps_its_workers_when_interrupted(monkeypatch):
    def interrupted(fds):
        raise KeyboardInterrupt

    monkeypatch.setattr(parallel, "_read_to_eof", interrupted)
    _cpus(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        fork_map(lambda x: time.sleep(30), range(4))
    assert time.monotonic() - start < 10  # killed, not waited for


def test_fork_map_workers_run_openblas_on_one_thread(monkeypatch):
    np.ones((2, 2)) @ np.ones((2, 2))  # numpy's BLAS is loaded
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("OpenBLAS libraries are found through /proc/self/maps")
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]})
    libs = [ctypes.CDLL(path) for path in paths]
    getters = [getattr(lib, f"{p}openblas_get_num_threads{s}") for lib in libs
               for p in ("", "scipy_") for s in ("", "64_")
               if hasattr(lib, f"{p}openblas_get_num_threads{s}")]
    if not getters:
        pytest.skip("no OpenBLAS loaded")
    _cpus(monkeypatch, 2)
    assert fork_map(lambda _: [get() for get in getters], range(2)) == [[1] * len(getters)] * 2


# ---------------------------------------------------------------------------
# the cascade over forked chunks

CASCADE_MODELS = {
    # wide enough that a batch-64 matmul may run on several OpenBLAS threads in the parent
    "mlp": dict(kind="mlp", input_shape=(1, 8, 8), num_classes=4, hidden=(192,), seed=31),
    "cnn": dict(kind="small-cnn", input_shape=(2, 6, 6), num_classes=4, channels=(3, 4), seed=32),
}
PSETS = {"linf": PerturbationSet("linf", 0.1), "l2": PerturbationSet("l2", 0.5)}
CCFG = {  # the two inner optimizers the benchmark runs: sign PGD under linf, Adam under l2
    "linf": CascadeConfig(stage1_steps=2, stage1_restarts=2, stage2_steps=2, stage2_restarts=1,
                          top_k=2, inner_optimizer="sign-sgd"),
    "l2": CascadeConfig(stage1_steps=2, stage1_restarts=2, stage2_steps=2, stage2_restarts=1,
                        top_k=2, inner_optimizer="adam"),
}


def _cascade_data(cfg: mdl.ModelConfig, n: int, seed: int = 5) -> LabeledDataset:
    rng = np.random.default_rng(seed)
    return LabeledDataset(rng.uniform(size=(n, *cfg.input_shape)), rng.integers(0, cfg.num_classes, size=n))


def _bits(records):
    return [(r["example_id"], r["clean_correct"], r["stage1_survived"], r["stage2_survived"],
             np.float64(r["worst_margin"]).view(np.int64)) for r in records]


@pytest.mark.parametrize("norm", sorted(PSETS))
@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize("kind", sorted(CASCADE_MODELS))
def test_forked_cascade_equals_the_serial_cascade_bitwise(monkeypatch, kind, precision, norm):
    cfg = mdl.ModelConfig(**CASCADE_MODELS[kind], precision=precision)
    model = mdl.init(cfg)
    for n in (0, 1, 64, 65, 130):
        data = _cascade_data(cfg, n)
        _cpus(monkeypatch, 1)
        serial = attack_cascade(model, data, PSETS[norm], CCFG[norm])
        _cpus(monkeypatch, 2)
        forked = attack_cascade(model, data, PSETS[norm], CCFG[norm])
        assert [r["example_id"] for r in forked.records] == list(range(n))
        assert _bits(forked.records) == _bits(serial.records)
        assert forked.robust_accuracy == serial.robust_accuracy
        assert forked.clean_accuracy == serial.clean_accuracy


def test_forked_cascade_raises_the_serial_numeric_error(monkeypatch):
    cfg = mdl.ModelConfig(**CASCADE_MODELS["mlp"])
    model = mdl.init(cfg)
    for name, t in model.params.items():
        model.params.assign(name, Tensor(np.full(t.shape, 1e200)))
    data = _cascade_data(cfg, 130)
    raised = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError) as err:
            attack_cascade(model, data, PSETS["linf"], CCFG["linf"])
        raised.append(str(err.value))
    assert raised[0] == raised[1]


def test_forked_cascade_raises_the_first_failing_chunk(monkeypatch):
    real_chunk = attacks._cascade_chunk

    def chunk(model, images, labels, ids, pset, ccfg):
        if ids[0] == 64:
            raise KeyError("chunk at 64")  # chunk 1: worker 1
        if ids[0] == 128:
            raise ValueError("chunk at 128")  # chunk 2: worker 0
        return real_chunk(model, images, labels, ids, pset, ccfg)

    monkeypatch.setattr(attacks, "_cascade_chunk", chunk)
    cfg = mdl.ModelConfig(**CASCADE_MODELS["mlp"])
    model, data = mdl.init(cfg), _cascade_data(cfg, 200)
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        with pytest.raises(KeyError, match="chunk at 64"):
            attack_cascade(model, data, PSETS["linf"], CCFG["linf"])


def test_forked_cascade_with_a_killed_worker_returns_no_records(monkeypatch):
    parent = os.getpid()
    real_chunk = attacks._cascade_chunk

    def chunk(model, images, labels, ids, pset, ccfg):
        if ids[0] == 64 and os.getpid() != parent:  # only ever the test's own child
            os.kill(os.getpid(), signal.SIGKILL)
        return real_chunk(model, images, labels, ids, pset, ccfg)

    monkeypatch.setattr(attacks, "_cascade_chunk", chunk)
    cfg = mdl.ModelConfig(**CASCADE_MODELS["mlp"])
    model, data = mdl.init(cfg), _cascade_data(cfg, 130)
    _cpus(monkeypatch, 2)
    result = None
    with pytest.raises(RuntimeError, match="item 1 was killed by signal 9"):
        result = attack_cascade(model, data, PSETS["linf"], CCFG["linf"])
    assert result is None


def test_cascade_with_one_usable_cpu_forks_nothing(monkeypatch):
    _cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with one usable CPU"))
    cfg = mdl.ModelConfig(**CASCADE_MODELS["mlp"])
    result = attack_cascade(mdl.init(cfg), _cascade_data(cfg, 130), PSETS["linf"], CCFG["linf"])
    assert len(result.records) == 130
