"""Shared fixtures: one small synthetic world reused across the suite."""

from __future__ import annotations

import json

import pytest
from hypothesis import settings

from repro.data import generate, SMALL_CONFIG
from repro.experiments import small_pipeline_config
from repro.pipeline import run_pipeline
from repro.sequences import build_all_databases
from repro.taxonomy import AbstractionLevel, build_default_taxonomy

#: ``pytest --hypothesis-profile=ci``: the same examples per test, drawn from
#: a fixed seed, so a property test passes or fails the same way every run.
settings.register_profile("ci", derandomize=True)


@pytest.fixture(scope="session")
def taxonomy():
    return build_default_taxonomy()


@pytest.fixture(scope="session")
def small_gen():
    """The small synthetic generation result (dataset + ground truth)."""
    return generate(SMALL_CONFIG)


@pytest.fixture(scope="session")
def small_ds(small_gen):
    return small_gen.dataset


@pytest.fixture(scope="session")
def pipeline_result(small_ds):
    """The full pipeline on the small dataset (a few active users)."""
    return run_pipeline(small_ds, small_pipeline_config())


@pytest.fixture(scope="session")
def reproduction(tmp_path_factory):
    """The output directory of ``crowdweb figures OUT --scale small``, run once."""
    from repro.cli.main import main

    out_dir = tmp_path_factory.mktemp("figures")
    assert main(["figures", str(out_dir), "--scale", "small"]) == 0
    return out_dir


@pytest.fixture(scope="session")
def reproduction_results(reproduction):
    """The reproduction's ``results.json``."""
    return json.loads((reproduction / "results.json").read_text())


@pytest.fixture(scope="session")
def user_databases(small_ds, taxonomy):
    """Per-user ROOT-level sequence databases of the small dataset."""
    return build_all_databases(small_ds, taxonomy, AbstractionLevel.ROOT)


@pytest.fixture(scope="session")
def active_db(user_databases):
    """The densest single-user database (the busiest simulated user)."""
    uid = max(user_databases, key=lambda u: len(user_databases[u]))
    return user_databases[uid]
