"""Shared fixtures: bundled datasets, scripted contexts, corpus paths."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import settings

from decisionflow.datasets import load_dataset, problems_from_records
from decisionflow.gateway import GatewayConfig, LlmGateway
from decisionflow.pipeline import ExperimentContext, PipelineConfig
from decisionflow.stages import load_templates
from decisionflow.testing import ScriptedTransport, fixture_script

REPO_ROOT = Path(__file__).resolve().parent.parent
DATASET_DIR = REPO_ROOT / "fixtures" / "datasets"
CORPUS_DIR = REPO_ROOT / "fixtures" / "transcripts"
CONFIG_DIR = REPO_ROOT / "fixtures" / "configs"

# every property test draws the same examples on every run; a test's own
# @settings still sets what it names
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


@pytest.fixture(scope="session")
def templates():
    return load_templates()


@pytest.fixture(scope="session")
def mta_records():
    return load_dataset(DATASET_DIR / "mta_small.jsonl", "mta")


@pytest.fixture(scope="session")
def dellma_records():
    return load_dataset(DATASET_DIR / "dellma_small.jsonl", "dellma")


@pytest.fixture(scope="session")
def edge_records():
    return load_dataset(DATASET_DIR / "mta_edge.jsonl", "mta")


@pytest.fixture(scope="session")
def mta_problems(mta_records):
    return problems_from_records(mta_records, "mta")


@pytest.fixture(scope="session")
def dellma_problems(dellma_records):
    return problems_from_records(dellma_records, "dellma")


@pytest.fixture(scope="session")
def edge_problems(edge_records):
    return problems_from_records(edge_records, "mta")


@pytest.fixture(scope="session")
def bomber_problem(mta_problems):
    return next(p for p in mta_problems
                if p.problem_id == "mta-utilitarianism-high")


@pytest.fixture(scope="session")
def surgery_problem(mta_problems):
    return next(p for p in mta_problems
                if p.problem_id == "mta-continuing-care-high")


@pytest.fixture(scope="session")
def refusal_problem(edge_problems):
    return next(p for p in edge_problems if p.problem_id == "mta-edge-refusal")


@pytest.fixture(scope="session")
def degenerate_problem(edge_problems):
    return next(p for p in edge_problems
                if p.problem_id == "mta-edge-degenerate")


@pytest.fixture
def ctx_factory(tmp_path, templates):
    """Builds scripted ExperimentContexts sharing one transcript directory.

    Calling with gateway_mode="record" uses the scripted transport; calling
    again with gateway_mode="replay" answers from what was recorded.
    """
    transcript_dir = tmp_path / "transcripts"

    def build(mode="decisionflow", *, gateway_mode="record",
              script=fixture_script, transcript_dir=transcript_dir, **cfg):
        config = PipelineConfig(mode=mode, **cfg)
        gateway_config = GatewayConfig(mode=gateway_mode,
                                       transcript_dir=transcript_dir)
        transport = ScriptedTransport(script) if gateway_mode == "record" else None
        gateway = LlmGateway(gateway_config, transport)
        return ExperimentContext(config, gateway, templates)

    return build
