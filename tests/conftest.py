import dataclasses

import numpy as np
import pytest
from hypothesis import settings

from enaqt import (NetworkSpec, SinkSpec, build_hamiltonian, bundled_network_path,
                   effective_trap_rate, parse_config)

LAMBDA0 = 792.5

# Tier-1 draws the same examples on every run and replays no saved ones, so
# it passes or fails alike on every machine: drawn at random, a 5e-324 nm
# spectrum failed about 2 runs in 30.  `pytest --hypothesis-profile=explore`
# draws fresh random examples, EXPLORE_SCALE times each test's own count.
settings.register_profile("default", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
EXPLORE_SCALE = 10


def pytest_collection_modifyitems(items):
    """Under the explore profile, scale each property test's example count:
    its @settings value wins over any profile's, so the count is raised on
    the settings object that hypothesis keeps on the test function."""
    if settings.get_current_profile_name() != "explore":
        return
    # once per test function, which a parametrized test shares among items
    for test in {getattr(item, "obj", None) for item in items}:
        own = getattr(test, "_hypothesis_internal_use_settings", None)
        if own is not None:
            test._hypothesis_internal_use_settings = settings(
                own, max_examples=EXPLORE_SCALE * own.max_examples)

# (-1,-1,0,1)/sqrt(3): the eigenmode with no amplitude on the target site
# when the end-site detuning equals the chain coupling
DARK_VECTOR = np.array([-1.0, -1.0, 0.0, 1.0]) / np.sqrt(3.0)


def design_network(**changes) -> NetworkSpec:
    """The design network, the bundled config's: the chain 1-2-3-4 with
    the input on site 0, the target (and the sink) on site 2 and the
    detuning on site 3, with ``changes`` applied by ``dataclasses.replace``.
    Chain coupling and detuning are 1.0 /cm at 792.5 nm, so one eigenmode
    has no amplitude on the target; the 90-guide sink is long enough for
    z = 15 cm."""
    return dataclasses.replace(parse_config(bundled_network_path()).network, **changes)


@pytest.fixture(scope="session")
def design_net():
    """Design network with a sink long enough for z = 15 cm."""
    return design_network()


@pytest.fixture(scope="session")
def design_net_short_sink():
    """Same network with a 21-guide sink (too short for z = 15 cm)."""
    return design_network(sink=SinkSpec(n_sink=21))


@pytest.fixture(scope="session")
def design_net_open():
    """The four system guides alone."""
    return design_network(sink=None)


@pytest.fixture(scope="session")
def h_system(design_net_open):
    return build_hamiltonian(design_net_open, LAMBDA0)


@pytest.fixture(scope="session")
def design_kappa():
    return effective_trap_rate(1.5 / 1.75, 1.75)
