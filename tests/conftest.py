import pytest

from markkit.marker_encoder import Vocab
from markkit.resources import Resources
from markkit.toy import write_toy_resources


@pytest.fixture(scope="session")
def toy_world(tmp_path_factory):
    return write_toy_resources(tmp_path_factory.mktemp("toy"), seed=0)


@pytest.fixture(scope="session")
def toy_resources(toy_world) -> Resources:
    return Resources(embeddings=toy_world.embeddings, pinyin=toy_world.pinyin)


@pytest.fixture(scope="session")
def tiny_vocab() -> Vocab:
    # matches the hand-traced encoding examples used across tests
    return Vocab(tokens=("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]", "[S]",
                         "天", "气", "很", "好"))
