import pytest

from helpers import find_benchmark_dir
from kgrerank.datasets import make_chain_dataset, make_synthetic_dataset
from kgrerank.embeddings import TrainConfig, train
from kgrerank.kg import load_kg

# small, fast settings shared by the fixture graphs
CHAIN_TRAIN = TrainConfig(dim=16, learning_rate=0.1, margin=1.0, epochs=150, batch_size=8, seed=0)
TOY_TRAIN = TrainConfig(dim=16, learning_rate=0.1, margin=1.0, epochs=120, batch_size=32, seed=1)


@pytest.fixture(scope="session")
def chain_dir(tmp_path_factory):
    return make_chain_dataset(str(tmp_path_factory.mktemp("chain") / "dataset"))


@pytest.fixture(scope="session")
def chain_kg(chain_dir):
    return load_kg(chain_dir)


@pytest.fixture(scope="session")
def chain_table(chain_kg):
    return train(chain_kg, CHAIN_TRAIN)


@pytest.fixture(scope="session")
def toy_dir(tmp_path_factory):
    return make_synthetic_dataset(
        str(tmp_path_factory.mktemp("toy") / "dataset"),
        n_entities=20,
        n_relations=3,
        n_train=60,
        n_valid=12,
        n_test=12,
        seed=7,
    )


@pytest.fixture(scope="session")
def toy_kg(toy_dir):
    return load_kg(toy_dir)


@pytest.fixture(scope="session")
def toy_table(toy_kg):
    return train(toy_kg, TOY_TRAIN)


@pytest.fixture(scope="session")
def fb15k237_dir():
    path = find_benchmark_dir("FB15K-237")
    if path is None:
        pytest.skip("FB15K-237 dataset not available (set KGRERANK_DATA)")
    return path
