import pytest
from hypothesis import settings

from convsarc import synthetic
from convsarc.data import ConversationInstance
from convsarc.embeddings import load_embeddings
from convsarc.features import LexiconSet

SYN_EMBED_DIM = 12

# `pytest --hypothesis-profile=ci` draws the same examples on every run and
# keeps no example database, so a failure reproduces from the commit alone
settings.register_profile("ci", derandomize=True, database=None)


@pytest.fixture(scope="session")
def syn_embedding_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("emb") / "vectors.txt"
    synthetic.write_embedding_file(path, synthetic.synthetic_vocabulary(),
                                   dim=SYN_EMBED_DIM, seed=3)
    return path


@pytest.fixture(scope="session")
def syn_table(syn_embedding_path):
    return load_embeddings(syn_embedding_path, SYN_EMBED_DIM)


@pytest.fixture
def tiny_lexicons():
    return LexiconSet(
        categories={"affect": frozenset({"love", "hate", "happy"}),
                    "certain": frozenset({"always", "never"})},
        positive=frozenset({"love", "great", "happy", "wonderful", "good"}),
        negative=frozenset({"terrible", "hate", "awful", "sad", "bad"}),
        negations=frozenset({"not", "never", "no"}))


@pytest.fixture
def lexicon_dir(tmp_path):
    d = tmp_path / "lexicons"
    d.mkdir()
    (d / "categories.tsv").write_text(
        "affect\tlove\naffect\thate\naffect\thappy\n"
        "certain\talways\ncertain\tnever\n", encoding="utf-8")
    (d / "positive.txt").write_text(
        "love\ngreat\nhappy\nwonderful\ngood\n", encoding="utf-8")
    (d / "negative.txt").write_text(
        "terrible\nhate\nawful\nsad\nbad\ndreadful\n", encoding="utf-8")
    (d / "negations.txt").write_text("not\nnever\nno\n", encoding="utf-8")
    return d


@pytest.fixture
def forum_instance():
    return ConversationInstance(
        id="f1", platform="forum",
        context=["The weather was terrible today. Everyone stayed inside.",
                 "I think the picnic should go ahead anyway."],
        reply="GREAT idea. Nothing beats sandwiches in the rain, don't they?",
        label="S")


@pytest.fixture
def twitter_instance():
    return ConversationInstance(
        id="t1", platform="twitter",
        context=["plane window shades are open so that people can see if there is fire"],
        reply="one more reason to feel really great",
        label="S")
