"""Golden digests of every rendered artifact on the reproduce path.

Tables 2-8, the 13 figures ``repro figures`` renders, the section 8
guidance and the bias report are rendered the way perfbench's
``reproduce`` workload renders them (``table5`` is ``table_a``, a blank
line, then ``table_b``) and hashed. The digests below were recorded from
the object-path analyses; any change to an artifact's text fails here.
perfbench checks the same contract at scale 0.03 on its committed seeds.

The second half guards the columnar analysis itself: a sweep over a
saved-and-reloaded corpus builds no :class:`Packet` object at all.
"""

import hashlib
import math
import traceback

import pytest

from repro.analysis import bias, figures, guidance, tables
from repro.analysis.context import CorpusAnalysis
from repro.experiment.store import load_corpus, save_corpus
from repro.telescope.packet import Packet

TABLES = tuple(f"table{i}" for i in range(2, 9))
FIGURES = ("fig3", "fig4", "fig5", "fig7", "fig8", "fig9", "fig10",
           "fig11", "fig12", "fig14", "fig15", "fig16", "fig17")
ARTIFACTS = TABLES + FIGURES + ("guidance", "bias")

#: ``ExperimentConfig.tiny()``; a saved-and-reloaded copy renders the same.
TINY = {
    "table2": "d00b84e0feb77c0c2689dbdcaf9cc0cabf9e8bfe704b0792528d3be85768091f",
    "table3": "d56ccb0acfcdc0bae2de22b915c8812186909c5685f703f7738c25f34ca9af73",
    "table4": "2282751e7012f62ea52636a6b6db94d3c97dfd28237d05ab588fdfebf1a4dba9",
    "table5": "b01a01ce03724315d45c442c1ae5d947a2ca13702d8cbf1c8edd36af3aa8ba2c",
    "table6": "45fa538f84a810ae23ff5d91b0e69a8a9d190024f6a528253d33341404267a25",
    "table7": "f43e68cc5b4fe370f7053e4327b4ab1ddb13820f2a0848b73bda306e13041559",
    "table8": "f681255367505ff38748a36bd86d58a540a194081ae4f639a9fc04756a721023",
    "fig3": "1c7045732831568da62d5614a59c5b3ca961f4cebe6dd7ff7b64c691507bc01c",
    "fig4": "18fb21bbf5564753926faca064ebbf008fcb1c053db4e8ab2743a1b44963790b",
    "fig5": "9afc7662d6c3c76e1dda1dd744685656cec41065729f5ab95b075fa208ba2c3b",
    "fig7": "84c8b4fe16717e92198402b219dba1a2cf9178d0ab9ef500f70d275f7d61a81e",
    "fig8": "83acce49dad2a0539fddcb8abeff165784f4d7d8304d3ce02ab69e0c8a7986b3",
    "fig9": "9e6c306b0b04b6e66a58cba2a19a0e63db8b3a2b44f2a71808bd4e9791bb407a",
    "fig10": "87ebb90abddf152e00c9d1f17e067652fd7930ffd3950a0d40598c7537928771",
    "fig11": "6c7d0e9be528ab04e0bfb05e214b54535d1c1ef3fcbb32cc10e32578dbd378d2",
    "fig12": "22a8f458744504afb1cf73f5c8e3dce9ce04d7c41418e566a6b346d368567c73",
    "fig14": "ac7e11049028d8ae1d65f352d4b6fd3073d27a0cfdebbfa6ae13089ea68e8bf3",
    "fig15": "a91687bf60709536c21c2e68e76f5906afc8f66085d707e1a0db627420732013",
    "fig16": "27a0256a898efeeaa8661e9212a0c10009669df32ac02b787fb31492cdfce982",
    "fig17": "ca8b44f967628e386f17b8b26620e76941af440b6fcc148310e40d3e94b421f1",
    "guidance": "06160f944ce83187b4d3ec73b48bcbb156ff857a1a4772cbcd94bfc49ca754bb",
    "bias": "24e46ccbaa6e66399f653ee6c83672ad6b0d4c537feec710cf0ac9482eceeb5e",
}

#: ``ExperimentConfig.small()``.
SMALL = {
    "table2": "29893965fe6d556a39f93f368fb0762adfaecff42755bf326cc999b5903e7a62",
    "table3": "e9e6eaa7f7d5ef06cd8211aa36aa864d99351d53e6b17619f48c53b957cac6f2",
    "table4": "2ca473fb0d30e0ffe8bb66dbb4d5dda3c702fe29742df0fc0ebf65c3e42bb7b0",
    "table5": "19402e88eed1ddd2efa401053ad3d9f69fc2a7038d99e3abdded8765242c1eb6",
    "table6": "8ad95e6e45cdb8f72ec81669f36755e20c3c2868a519cd8c361b128d35877255",
    "table7": "13fb6c042b28da1e487b6bb43bd844801ee1205360c00a47fb25eef94ce46309",
    "table8": "2a7240d826c78301291433163471b8f1936e986b6bab0cea4e9b908d95dd1133",
    "fig3": "bc4d2ec7cfc7ab66f04f27b629465bb17b224507fc062fc715c30f4b11a649bf",
    "fig4": "d557817b8beac074427a5e8be204e87d71f56d66c770865b5d80d005c3e98cd5",
    "fig5": "2d7346b3c9400ec4f7aa607dd448db4d59a3b6693a5dac99e92996e7f5d05f65",
    "fig7": "2f1693d22ad61be16084f34b0d8d5f72b3c7d7370a3a08145d7e1f19d324e045",
    "fig8": "603af073263dde0dfc6276e21a6857a42ce48ef13830835eaee1c3f9cc23cd02",
    "fig9": "7f4fa693ded782297db5437001ebff11ffd3201289724db04275d6346fcc4611",
    "fig10": "4d1cc702669a96811b487e9db47b4b52ea2b23dfe4011035797ccfecefedab18",
    "fig11": "c0f37ed9c5282c4da335dc40b835ea843bdac02e866c20691d9e050b98feb6f3",
    "fig12": "86797f1b87ce0542d0f667155b3f864727df124996b849a17c761099824e6e14",
    "fig14": "eda944ba4e4c7c6a3f2cfd744324284e27cc02f5addb5e29d31edcda0b1e000a",
    "fig15": "c95ea9c4683bc8a587034301a8d30724ec858bfa2d7f81bf32961df1bc428ca4",
    "fig16": "13ba76a104585734e8f29688ac9eb5eabcf38d78461df0c4599ea52cbf6c7895",
    "fig17": "bae721c26e0c6e5a82ea68098ffddeac0e3853a57a22b8b9584e461b1733051c",
    "guidance": "4ea875aaaca7dba8d6c5086560dc7243589aa9e5f1e331fdd11eb7ee79629e6d",
    "bias": "6773ff551ea435c06903a4ea007b80d0a9fb389b076f5e2c19b7d745e313301b",
}

GOLDEN = {"tiny": TINY, "tiny_store": TINY, "small": SMALL}


def render(name: str, result) -> str:
    """An artifact's text, as perfbench's ``reproduce`` hashes it."""
    if name == "table5":
        return result.table_a.render() + "\n\n" + result.table_b.render()
    if name in TABLES:
        return result.table.render()
    return result.render()


def generate(analysis: CorpusAnalysis, name: str):
    if name == "guidance":
        return guidance.derive_guidance(analysis)
    if name == "bias":
        return bias.bias_report(analysis)
    module = tables if name in TABLES else figures
    return getattr(module, name)(analysis)


def digest(analysis: CorpusAnalysis, name: str) -> str:
    text = render(name, generate(analysis, name))
    return hashlib.sha256(text.encode()).hexdigest()


def saved_and_reloaded(tmp_path_factory, corpus):
    """``corpus`` through the chunk store, about eight chunks for T1."""
    path = tmp_path_factory.mktemp("golden") / "store"
    rows = max(1, math.ceil(len(corpus.table("T1")) / 8))
    save_corpus(corpus, path, chunk_rows=rows)
    return load_corpus(path)


@pytest.fixture(scope="module")
def analyses(tmp_path_factory, tiny_corpus, small_corpus):
    return {
        "tiny": CorpusAnalysis(tiny_corpus),
        "tiny_store": CorpusAnalysis(
            saved_and_reloaded(tmp_path_factory, tiny_corpus)),
        "small": CorpusAnalysis(small_corpus),
    }


@pytest.mark.parametrize("artifact", ARTIFACTS)
@pytest.mark.parametrize("corpus", sorted(GOLDEN))
def test_artifact_digest(analyses, corpus, artifact):
    assert digest(analyses[corpus], artifact) == GOLDEN[corpus][artifact]


def test_sweep_builds_no_packet(tmp_path_factory, tiny_corpus, monkeypatch):
    """Every artifact reads columns: no ``Packet`` is constructed."""
    analysis = CorpusAnalysis(saved_and_reloaded(tmp_path_factory,
                                                 tiny_corpus))
    built = [0]
    first: list[str] = []
    original = Packet.__post_init__

    def trap(self) -> None:
        built[0] += 1
        if not first:
            first.append("".join(traceback.format_stack(limit=8)))
        original(self)

    monkeypatch.setattr(Packet, "__post_init__", trap)
    for name in ARTIFACTS:
        digest(analysis, name)
        assert built[0] == 0, \
            f"{name} built {built[0]} Packet(s), first at:\n{first[0]}"
    assert analysis.corpus.packets_by_telescope == {}
