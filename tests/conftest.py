import functools
import re

import pytest

from prunesearch.model import ModelConfig, init_model
from prunesearch.objective import collect_activation_stats, evaluate_configs, make_context, synthetic_calibration
from prunesearch.prune import Unstructured
from prunesearch.search import exhaustive_search

# Small fixture for unit tests: fast (~1 ms per config evaluation) but with
# every structural property of the real thing (2 layers, 14 sub-modules,
# dimensions divisible by 4 and 8 for n:m tests).
MINI_CONFIG = ModelConfig(vocab_size=64, d_model=16, n_layers=2, n_heads=2, d_ff=24, max_seq_len=16)


# Python 3.12 and later warn (a DeprecationWarning) when a process that has
# threads forks. An "error" filter cannot catch it: os.fork clears the
# exception the filter raises, so the warning would vanish. It is recorded
# instead, and any such warning fails the run; 3.10 and 3.11 never issue it.
_FORK_WITH_THREADS = re.compile(r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)")
_forked_with_threads: list[str] = []


def pytest_warning_recorded(warning_message, nodeid):
    if _FORK_WITH_THREADS.match(str(warning_message.message)):
        _forked_with_threads.append(nodeid)


def pytest_sessionfinish(session):
    if _forked_with_threads:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    for nodeid in _forked_with_threads:
        terminalreporter.write_line(f"FAILED {nodeid}: forked a process that has threads")


@pytest.fixture(scope="session")
def mini_config():
    return MINI_CONFIG


@pytest.fixture(scope="session")
def mini_weights(mini_config):
    return init_model(mini_config, seed=11)


@pytest.fixture(scope="session")
def mini_calib(mini_config):
    return synthetic_calibration(mini_config.vocab_size, 4, 16, seed=3)


@pytest.fixture(scope="session")
def mini_stats(mini_weights, mini_calib):
    return collect_activation_stats(mini_weights, mini_calib)


@pytest.fixture(scope="session")
def mini_ctx(mini_weights, mini_calib):
    return make_context(mini_weights, mini_calib, Unstructured(0.5))


@pytest.fixture(scope="session")
def mini_oracle(mini_ctx):
    """The exhaustive table of mini_ctx, scored once per session."""
    return exhaustive_search(functools.partial(evaluate_configs, mini_ctx))


@pytest.fixture(scope="session")
def mini_fitness(mini_oracle):
    """mini_ctx's fitness function served from its oracle table, so that
    search logic runs without a model."""
    table = {cfg: l_div for _, cfg, l_div in mini_oracle.trials}
    return lambda configs: [table[cfg] for cfg in configs]
